"""Span tracing installed from outside the library.

A traced run replaces public entry points of nsqt's layers (module functions
and class methods) with wrappers that record one span per call, and puts the
originals back when it ends. Spans stay in memory as
``(name, parent_index, start_ns, end_ns)`` and are written out once, after
the run. Counters that need work of their own (graph walks, top-k masses) run
after the wrapped call returns, inside a ``bench.count`` span, so their cost
is kept out of every layer's time.

A span's layer is its name up to the first dot. A layer's self time is the sum
over its spans of duration minus the time covered by direct child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("tensor", "models", "estimators", "rewards", "pipeline", "data", "checkpoint", "bench")

_now = time.perf_counter_ns


def graph_size(root):
    """Distinct tensors reachable from ``root`` through recorded parents."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self, nsqt):
        self.nsqt = nsqt
        self.spans = []
        self.stack = [-1]
        self.in_eval = 0
        self.graph_nodes = []  # per Tensor.backward call
        self.decode_nodes = []  # per model call made inside pipeline.evaluate
        self.covered_mass = []  # per position seen by reinforce_nat_step
        self.residual_drawn = []
        self._patches = []

    # -- recording ------------------------------------------------------
    def wrap(self, name, fn, after=None):
        """``fn`` recording a span ``name``; ``after(result, args)`` runs
        once the span has closed, inside a ``bench.count`` span."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if after is not None:
                with self.span("bench.count"):
                    after(result, args)
            return result

        return traced

    def span(self, name):
        return _Span(self, name)

    def patch(self, owner, attr, name, after=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    # -- installation ---------------------------------------------------
    def install(self):
        n = self.nsqt
        tc, models, est, rw, pl = n.tensor, n.models, n.estimators, n.rewards, n.pipeline
        self.patch(tc.Tensor, "backward", "tensor.backward", self._count_graph)
        self.patch(pl.Adam, "step", "pipeline.adam_step")
        self.patch(models.ModelBase, "encode", "models.encode")
        self.patch(models.NATModel, "forward", "models.forward.nat", self._count_decode)
        self.patch(models.ARModel, "forward", "models.forward.ar", self._count_decode)
        self.patch(models.FSModel, "forward_train", "models.forward.fs")
        self.patch(models.FSModel, "bottom_states", "models.bottom_states")
        self.patch(models.FSModel, "fuse_and_top", "models.fuse_and_top", self._count_decode)
        self.patch(est, "reinforce_nat_step", "estimators.reinforce_nat_step", self._count_mass)
        self.patch(est, "estimate_reward_at", "estimators.estimate_reward_at")
        self.patch(est, "top_k_partition", "estimators.top_k_partition")
        self.patch(n.checkpoint, "save_model", "checkpoint.save_model")
        self.patch(n.checkpoint, "load_model", "checkpoint.load_model")
        self.patch(n.data, "gen_synthetic_task", "data.gen_synthetic_task")
        self.patch(n.data, "build_length_table", "data.build_length_table")
        for loop in ("train_ce", "finetune_rl"):
            self.patch(pl, loop, f"pipeline.{loop}")
        self._patch_evaluate(pl)
        for scorer in ("gleu", "bleu_sentence", "corpus_bleu"):
            self._patch_eval_scorer(rw, scorer)

    def _patch_evaluate(self, pl):
        traced = self.wrap("pipeline.evaluate", pl.evaluate)
        self._patches.append((pl, "evaluate", pl.evaluate))

        def evaluate(*args, **kwargs):
            self.in_eval += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self.in_eval -= 1

        pl.evaluate = evaluate

    def _patch_eval_scorer(self, rw, attr):
        # the reward callable used in training reaches ``gleu`` too; only the
        # scoring that ``evaluate`` does is recorded
        original = getattr(rw, attr)
        traced = self.wrap(f"pipeline.eval_scoring.{attr}", original)
        self._patches.append((rw, attr, original))

        def scorer(*args, **kwargs):
            return (traced if self.in_eval else original)(*args, **kwargs)

        setattr(rw, attr, scorer)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters, read after the traced call returned ------------------
    def _count_graph(self, _result, args):
        self.graph_nodes.append(graph_size(args[0]))

    def _count_decode(self, result, _args):
        if self.in_eval:
            self.decode_nodes.append(graph_size(result))

    def _count_mass(self, _result, args):
        dist, config = args[0], args[1]
        top = -np.sort(-dist.probs, axis=1)[:, : config.k].sum(axis=1)
        self.covered_mass.extend(top.tolist())
        self.residual_drawn.extend((1.0 - top >= config.residual_epsilon).tolist())

    # -- analysis -------------------------------------------------------
    def durations_ms(self, name, inside_eval=None):
        """Durations of spans called ``name``; ``inside_eval`` keeps only
        spans with (True) or without (False) a ``pipeline.evaluate``
        ancestor."""
        out = []
        for span in self.spans:
            if span[0] != name:
                continue
            if inside_eval is not None and self._under(span, "pipeline.evaluate") != inside_eval:
                continue
            out.append((span[3] - span[2]) / 1e6)
        return out

    def _under(self, span, ancestor):
        parent = span[1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def self_ns(self, root):
        """Self time in ns per span name, over the spans inside span
        ``root`` (an index), the root included."""
        child_ns = defaultdict(int)
        inside = {root}
        totals = defaultdict(int)
        for idx in range(root, len(self.spans)):
            name, parent, start, end = self.spans[idx]
            if idx != root and parent not in inside:
                continue
            inside.add(idx)
            if idx != root:
                child_ns[parent] += end - start
        for idx in inside:
            name, _parent, start, end = self.spans[idx]
            totals[name] += end - start - child_ns[idx]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,parent,name,start_ns,end_ns\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{idx},{parent},{name},{start},{end}\n")


class _Span:
    """A span around a block of the benchmark's own code."""

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        spans = self.tracer.spans
        self.idx = len(spans)
        spans.append(None)
        self.parent = self.tracer.stack[-1]
        self.tracer.stack.append(self.idx)
        self.start = _now()
        return self.idx

    def __exit__(self, *exc):
        end = _now()
        self.tracer.stack.pop()
        self.tracer.spans[self.idx] = (self.name, self.parent, self.start, end)
        return False
