"""The four benchmark workloads, driven through nsqt's public functions.

Each workload builds its inputs from the seed in ``setup`` and then serves a
closed loop of rounds: ``run_round(i)`` does one deterministic unit of the
workload's work (a few training steps, a chunk of decodes, one estimator
instance) and returns its timings, its output checks and a digest of its
outputs. Round ``i`` depends only on the seed, ``i`` and the state the earlier
rounds left, so a run can be replayed exactly after ``reset``.

Timed samples come from hooks on the model instance (``train_distributions``
marks the start of a training step, ``reset_counters`` the start of a decoded
sentence) or from the benchmark's own estimator callable; none of them change
what the library computes.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter_ns

WARM_SEED = 20190621  # fixed: the warm-start checkpoints do not depend on --seed


@dataclass(frozen=True)
class Sizes:
    vocab: int = 20
    len_range: tuple = (4, 12)
    d_model: int = 32
    d_hidden: int = 64
    max_len: int = 32
    batch: int = 16
    setup_reps: int = 9
    # CE warm start behind rl_finetune and decode_eval, built once per source tree
    warm_pairs: int = 2000
    warm_steps: int = 800
    warm_lr: float = 0.003
    warm_warmup: int = 100
    # ce_pretrain
    ce_pairs: int = 1000
    ce_round_steps: int = 20
    ce_lr: float = 0.003
    # rl_finetune: every batch has one shape, (rl_src_len, rl_tgt_len)
    rl_pool: int = 3000
    rl_src_len: int = 6
    rl_tgt_len: int = 8
    rl_k: int = 5
    rl_n: int = 20
    rl_lr: float = 1e-4
    rl_round_steps: int = 1
    # decode_eval
    valid_pairs: int = 200
    decode_chunk: int = 25
    beam_subset: int = 50
    beam_chunk: int = 10
    # variance_sweep
    sweep_vocab: int = 10
    sweep_len: int = 3
    sweep_ks: tuple = (0, 1, 5, 10)
    sweep_n: int = 20
    sweep_reps: int = 100
    sweep_pool: int = 64

    def model_config(self, models):
        return models.ModelConfig(
            d_model=self.d_model,
            d_hidden=self.d_hidden,
            n_layer=2,
            n_head=2,
            p_dropout=0.0,
            vocab_size=self.vocab,
            max_len=self.max_len,
        )


@dataclass
class Round:
    units: int = 0  # timed units of work (steps, sentences, repetitions)
    work: float = 0.0  # tokens trained, sentences decoded or repetitions run
    samples: dict = field(default_factory=dict)  # lane -> [seconds per unit]
    failed: int = 0  # units whose output check failed
    digest: str = ""
    extra: dict = field(default_factory=dict)
    seconds: float = 0.0  # the round's wall time
    speed: float = 1.0  # calibration factor to the reference host


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def source_digest(src_dir):
    """Digest of the library's sources: keys the warm-start cache."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


class InstanceHook:
    """Timestamps each call of one bound method on one object."""

    def __init__(self, obj, attr, record=None):
        self.obj, self.attr = obj, attr
        self.stamps, self.records = [], []
        original = getattr(obj, attr)

        def hooked(*args, **kwargs):
            self.stamps.append(now())
            if record is not None:
                self.records.append(record(*args))
            return original(*args, **kwargs)

        setattr(obj, attr, hooked)

    def close(self):
        delattr(self.obj, self.attr)

    def intervals(self, end=None):
        """Seconds between consecutive stamps, plus the last stamp to ``end``."""
        marks = self.stamps + ([end] if end is not None else [])
        return [(b - a) / 1e9 for a, b in zip(marks, marks[1:])]


class CheckedReward:
    """The reward callable handed to the library. Counts calls and values
    outside [0, 1]. Given a tracer, it also records a ``rewards.reward`` span
    per call and keeps each (hyp, ref) pair for ``count_repeats``."""

    def __init__(self, inner, tracer=None):
        self.inner = inner
        self.tracer = tracer
        self.calls = self.out_of_range = 0
        self.pairs = [] if tracer is not None else None
        self._traced = tracer.wrap("rewards.reward", self._score) if tracer is not None else None

    def __call__(self, hyp, ref):
        if self._traced is not None:
            return self._traced(hyp, ref)
        return self._score(hyp, ref)

    def _score(self, hyp, ref):
        value = self.inner(hyp, ref)
        self.calls += 1
        if not 0.0 <= value <= 1.0:
            self.out_of_range += 1
        if self.pairs is not None:
            self.pairs.append((hyp, ref))
        return value

    def __getattr__(self, name):
        # optional parts of the reward contract stay visible to the library
        return getattr(self.inner, name)

    def count_repeats(self, seen):
        """Pairs kept since the last count that are in ``seen`` or repeat an
        earlier pair; adds the new ones to ``seen``. Counted after the calls,
        outside every layer's time."""
        if self.pairs is None:
            return 0
        repeats = 0
        with self.tracer.span("bench.count"):
            for hyp, ref in self.pairs:
                key = (tuple(map(int, hyp)), tuple(map(int, ref)))
                if key in seen:
                    repeats += 1
                else:
                    seen.add(key)
            self.pairs.clear()
        return repeats


class Workload:
    name = ""
    cycle = 1  # rounds in the first cycle, which every run executes twice
    warm_start = False  # needs the cached CE-warm-started checkpoints in ``warm``

    def __init__(self, nsqt, sizes, seed, build_dir, tracer=None):
        self.n = nsqt
        self.sizes = sizes
        self.seed = seed
        self.build_dir = build_dir
        self.tracer = tracer
        self.warm = None
        self.setup_failures = 0
        self.cfg = sizes.model_config(nsqt.models)

    def rng(self, *stream):
        return np.random.default_rng((self.seed, *stream))

    def corpus(self, count, len_range, rng):
        return self.n.data.gen_synthetic_task("echo_runs", self.sizes.vocab, len_range, count, rng)

    def round_trip(self, model, tag):
        """Save and reload a model through the checkpoint format; the copy
        must match bitwise."""
        path = os.path.join(self.build_dir, f"tmp-{os.getpid()}-{tag}.ckpt")
        try:
            self.n.checkpoint.save_model(model, path, seed=self.seed)
            loaded = self.n.checkpoint.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        a, b = model.state(), loaded.state()
        if a.keys() != b.keys() or any(not np.array_equal(a[k], b[k]) for k in a):
            self.setup_failures += 1
        return loaded

    def setup(self):
        """Build inputs and models; returns a digest of what was built."""
        raise NotImplementedError

    def reset(self):
        """Return to the state ``setup`` left."""

    def run_round(self, i):
        raise NotImplementedError

    def final_checks(self):
        """Whole-run checks as (description, ok) pairs."""
        return []

    def breakdown(self, rounds):
        return {}


def warm_checkpoints(nsqt, sizes, cache_root, src_dir):
    """CE-warm-started NAT, AR and FS checkpoints trained on a fixed corpus.

    Built on first use and cached under a key of the library's sources and
    the recipe, so a changed library rebuilds them. Returns the paths and the
    build time in seconds (0 when cached).
    """
    recipe = (WARM_SEED, sizes.warm_pairs, sizes.warm_steps, sizes.warm_lr, sizes.warm_warmup, sizes.model_config(nsqt.models))
    key = digest(source_digest(src_dir), recipe)
    folder = os.path.join(cache_root, f"warm-{key}")
    paths = {kind: os.path.join(folder, f"{kind}.ckpt") for kind in ("nat", "ar", "fs")}
    if all(os.path.exists(p) for p in paths.values()):
        return paths, 0.0
    start = now()
    os.makedirs(folder, exist_ok=True)
    rng = np.random.default_rng(WARM_SEED)
    corpus = nsqt.data.gen_synthetic_task("echo_runs", sizes.vocab, sizes.len_range, sizes.warm_pairs, rng)
    cfg = nsqt.pipeline.TrainConfig(
        batch_size=sizes.batch,
        max_steps=sizes.warm_steps,
        lr=sizes.warm_lr,
        warmup=sizes.warm_warmup,
        rng_seed=WARM_SEED,
    )
    for kind, path in paths.items():
        model = nsqt.models.build_model(kind, sizes.model_config(nsqt.models), seed=WARM_SEED)
        nsqt.pipeline.train_ce(model, corpus, cfg)
        tmp = f"{path}.{os.getpid()}.tmp"
        nsqt.checkpoint.save_model(model, tmp, seed=WARM_SEED)
        os.replace(tmp, path)
    return paths, (now() - start) / 1e9


class CEPretrain(Workload):
    """Token-level CE steps for NAT, AR and FS from freshly built models."""

    name = "ce_pretrain"
    KINDS = ("nat", "ar", "fs")
    cycle = 3

    def setup(self):
        s = self.sizes
        self.train = self.corpus(s.ce_pairs, s.len_range, self.rng(0))
        self.initial = {}
        for kind in self.KINDS:
            model = self.n.models.build_model(kind, self.cfg, seed=self.seed)
            self.initial[kind] = self.round_trip(model, kind).state()
        self.reset()
        return digest(self.train.pairs, *(self.initial[k][p] for k in self.KINDS for p in sorted(self.initial[k])))

    def reset(self):
        self.models = {}
        for kind in self.KINDS:
            model = self.n.models.build_model(kind, self.cfg, seed=self.seed)
            model.load_state(self.initial[kind])
            self.models[kind] = model

    def run_round(self, i):
        s, pl = self.sizes, self.n.pipeline
        kind = self.KINDS[i % len(self.KINDS)]
        model = self.models[kind]
        cfg = pl.TrainConfig(
            batch_size=s.batch, max_steps=s.ce_round_steps, lr=s.ce_lr, warmup=1, rng_seed=i
        )
        return train_round(self, model, kind, lambda: pl.train_ce(model, self.train, cfg), "loss")

    def breakdown(self, rounds):
        return lane_breakdown(rounds, "ce_step_ms", self.KINDS)


def train_round(wl, model, lane, call, metric):
    """Run one call of a training loop; a step starts when the loop asks the
    model for its training distributions."""
    hook = InstanceHook(model, "train_distributions", record=lambda src, tgt: int(np.size(tgt)))
    out = Round()
    rows = []
    start = now()
    try:
        rows = call()
    except wl.n.pipeline.TrainingError:
        out.failed += 1
    finally:
        end = now()
        hook.close()
    values = [r[3] for r in rows if r[2] == metric]
    out.units = len(hook.stamps)
    out.failed += sum(1 for v in values if not math.isfinite(v)) + (out.units - len(values))
    out.work = float(sum(hook.records))
    out.samples[lane] = hook.intervals(end)
    out.digest = digest(np.array(values, dtype=np.float64))
    if wl.tracer is not None:
        out.extra["step_marks"] = (start, hook.stamps)
    return out


class RLFinetune(Workload):
    """``finetune_rl`` on the warm-started NAT with top-k traversal and GLEU."""

    name = "rl_finetune"
    warm_start = True

    def setup(self):
        s = self.sizes
        pool = self.corpus(s.rl_pool, (s.rl_src_len, s.rl_src_len), self.rng(0))
        pairs = [p for p in pool.pairs if len(p[1]) == s.rl_tgt_len]
        pairs = pairs[: len(pairs) - len(pairs) % s.batch]
        if not pairs:
            raise ValueError("rl_pool yields no full batch of the fixed shape")
        self.train = self.n.data.ParallelCorpus(pairs, pool.vocab)
        model = self.n.checkpoint.load_model(self.warm["nat"])
        self.initial = self.round_trip(model, "nat").state()
        self.reset()
        return digest(self.train.pairs, *(self.initial[p] for p in sorted(self.initial)))

    def reset(self):
        self.model = self.n.models.build_model("nat", self.cfg, seed=WARM_SEED)
        self.model.load_state(self.initial)
        self.reward = CheckedReward(self.n.rewards.RewardFn("GLEU"), self.tracer)
        self.seen = set()

    def run_round(self, i):
        s, pl, est = self.sizes, self.n.pipeline, self.n.estimators
        est_cfg = est.EstimatorConfig(k=s.rl_k, n=s.rl_n, rng_seed=i)
        cfg = pl.TrainConfig(batch_size=s.batch, max_steps=s.rl_round_steps, lr=s.rl_lr, warmup=1, rng_seed=i)
        calls, bad = self.reward.calls, self.reward.out_of_range
        out = train_round(
            self, self.model, "rl", lambda: pl.finetune_rl(self.model, self.train, est_cfg, self.reward, cfg), "surrogate"
        )
        if self.reward.out_of_range > bad:
            out.failed = out.units
        out.extra["reward"] = (self.reward.calls - calls, self.reward.count_repeats(self.seen))
        return out

    def breakdown(self, rounds):
        return lane_breakdown(rounds, "rl_step_ms", ("rl",), single=True)


class DecodeEval(Workload):
    """``evaluate`` with NAT argmax, AR greedy, FS greedy and FS beam-4."""

    name = "decode_eval"
    warm_start = True
    DECODERS = (("nat", "nat", "nat_argmax", 1), ("ar", "ar", "greedy", 1), ("fs", "fs", "greedy", 1), ("fs_beam4", "fs", "beam", 4))
    cycle = 4

    def setup(self):
        s = self.sizes
        rng = self.rng(0)
        train = self.corpus(s.ce_pairs, s.len_range, rng)
        self.valid = self.corpus(s.valid_pairs, s.len_range, rng)
        self.table = self.n.data.build_length_table(train)
        self.models = {}
        for kind in ("nat", "ar", "fs"):
            model = self.n.checkpoint.load_model(self.warm[kind])
            self.models[kind] = self.round_trip(model, kind)
        self.first_digest = {}
        return digest(self.valid.pairs, sorted(self.table.table.items()))

    def _chunk(self, i, lane):
        s = self.sizes
        visit = i // len(self.DECODERS)
        size, total = (s.beam_chunk, min(s.beam_subset, s.valid_pairs)) if lane == "fs_beam4" else (s.decode_chunk, s.valid_pairs)
        chunks = max(total // size, 1)
        lo = (visit % chunks) * size
        return visit % chunks, self.valid.pairs[lo : lo + size]

    def run_round(self, i):
        n = self.n
        lane, kind, mode, beam = self.DECODERS[i % len(self.DECODERS)]
        chunk_id, pairs = self._chunk(i, lane)
        model = self.models[kind]
        corpus = n.data.ParallelCorpus(pairs, self.valid.vocab)
        hyps = []
        scorer = n.rewards.gleu

        def capture(hyp, ref, *args):
            hyps.append(list(hyp))
            return scorer(hyp, ref, *args)

        hook = InstanceHook(model, "reset_counters")
        n.rewards.gleu = capture
        try:
            report = n.pipeline.evaluate(model, corpus, n.pipeline.DecodeConfig(mode=mode, beam=beam), self.table)
        finally:
            n.rewards.gleu = scorer
            hook.close()
        out = Round(units=len(pairs), work=float(len(pairs)))
        # the last sentence's end is hidden behind evaluate's scoring
        out.samples[lane] = hook.intervals()
        out.failed = sum(1 for j in range(len(pairs)) if not self._sentence_ok(kind, report, hyps, j))
        out.digest = digest(hyps)
        key = (lane, chunk_id)
        if self.first_digest.setdefault(key, out.digest) != out.digest:
            out.failed = out.units
        out.extra["gleu"] = (lane, report.mean_gleu * len(pairs))
        out.extra["invocations"] = (kind, report.per_sentence_invocations)
        return out

    def _sentence_ok(self, kind, report, hyps, j):
        if len(hyps) != len(report.raw_output_lens):
            return False
        if any(not 0 <= t < self.sizes.vocab for t in hyps[j]):
            return False
        calls = {name: seq[j] for name, seq in report.per_sentence_invocations.items()}
        steps = report.raw_output_lens[j]
        if calls.get("encoder_calls") != 1:
            return False
        if kind == "nat":
            return calls.get("decoder_calls") == 1
        if kind == "ar":
            return calls.get("decoder_calls") == steps
        return calls.get("bottom_calls") == 1 and calls.get("top_calls") == steps

    def breakdown(self, rounds):
        out = lane_breakdown(rounds, "decode_ms", [d[0] for d in self.DECODERS])
        gleu, count = {}, {}
        for r in rounds:
            lane, total = r.extra["gleu"]
            gleu[lane] = gleu.get(lane, 0.0) + total
            count[lane] = count.get(lane, 0) + r.units
        greedy = [lane for lane in gleu if lane != "fs_beam4"]
        out["decode_gleu"] = sum(gleu[l] / count[l] for l in greedy) / len(greedy)
        return out


class VarianceSweep(Workload):
    """``estimator_stats`` over ``reinforce_nat_step`` on Dirichlet
    instances for each k, with a memoized GLEU reward."""

    name = "variance_sweep"

    def setup(self):
        s = self.sizes
        rng = self.rng(0)
        self.instances = []
        for _ in range(s.sweep_pool):
            dist = self.n.estimators.random_distributions(s.sweep_len, s.sweep_vocab, rng, concentration=3.0)
            ref = tuple(int(x) for x in rng.integers(0, s.sweep_vocab, size=s.sweep_len))
            self.instances.append((dist, ref))
        self.totals = {k: [] for k in s.sweep_ks}
        return digest(*(d.probs for d, _ in self.instances), [r for _, r in self.instances])

    def reset(self):
        self.totals = {k: [] for k in self.sizes.sweep_ks}

    def run_round(self, i):
        s, est = self.sizes, self.n.estimators
        dist, ref = self.instances[i % len(self.instances)]
        # a fresh memo per instance keeps every round's cost alike
        reward = CheckedReward(self.n.rewards.memoize_reward(self.n.rewards.RewardFn("GLEU")), self.tracer)
        out = Round()
        parts = []
        for k in s.sweep_ks:
            cfg = est.EstimatorConfig(k=k, n=s.sweep_n)
            times = out.samples.setdefault(f"k{k}", [])

            def estimator(stream, cfg=cfg, times=times):
                start = now()
                g = est.reinforce_nat_step(dist, cfg, reward, ref, stream)
                times.append((now() - start) / 1e9)
                return g

            stats = est.estimator_stats(dist, estimator, s.sweep_reps, self.rng(2, i, k))
            ok = bool(np.all(stats.per_entry_variance >= 0.0)) and math.isfinite(stats.total_variance)
            out.failed += 0 if ok else s.sweep_reps
            self.totals[k].append(stats.total_variance)
            parts += [stats.mean_dprobs, stats.per_entry_variance]
        out.units = out.work = s.sweep_reps * len(s.sweep_ks)
        out.failed += s.sweep_reps * len(s.sweep_ks) if reward.out_of_range else 0
        out.digest = digest(*parts)
        out.extra["reward"] = (reward.calls, reward.count_repeats(set()))
        return out

    def final_checks(self):
        lo, hi = min(self.sizes.sweep_ks), max(self.sizes.sweep_ks)
        return [(f"mean total variance at k={hi} below k={lo}", np.mean(self.totals[hi]) < np.mean(self.totals[lo]))]

    def breakdown(self, rounds):
        out = lane_breakdown(rounds, "sweep_rep_ms", [f"k{k}" for k in self.sizes.sweep_ks])
        out["mean_total_variance"] = {k: float(np.mean(v)) for k, v in self.totals.items()}
        return out


WORKLOADS = {w.name: w for w in (CEPretrain, RLFinetune, DecodeEval, VarianceSweep)}


# -- statistics --------------------------------------------------------------


def tail(values):
    """Highest percentile with at least 10 samples beyond it, its value, and
    the sample count; None when that percentile would be below the median
    (fewer than 20 samples)."""
    n = len(values)
    if n < 20:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, float(np.percentile(values, pct)), n


def lane_samples(rounds, lane):
    return [x for r in rounds for x in r.samples.get(lane, ())]


def lane_breakdown(rounds, prefix, lanes, single=False):
    out = {}
    for lane in lanes:
        xs = lane_samples(rounds, lane)
        name = prefix if single else f"{prefix}.{lane}"
        entry = {"median": 1000 * float(np.median(xs)), "mean": 1000 * float(np.mean(xs)), "samples": len(xs)}
        t = tail(xs)
        if t is not None:
            entry.update(tail=1000 * t[1], tail_percentile=t[0])
        out[name] = entry
    return out


def composite_mean_ms(rounds, normalised=True):
    """Sum over the workload's lanes (decoder kinds, k values) of the mean ms
    per unit: the time of one unit of each kind. ``normalised`` scales each
    sample by its round's speed factor. Means, not medians: on a host whose
    speed switches between two levels for seconds at a time, a run's median
    jumps to whichever level held most of the run, while the mean moves with
    the share of time spent at each."""
    lanes = sorted({lane for r in rounds for lane in r.samples})
    total = 0.0
    for lane in lanes:
        xs = [x * (r.speed if normalised else 1.0) for r in rounds for x in r.samples.get(lane, ())]
        total += 1000 * float(np.mean(xs))
    return total


def work_per_s(rounds, normalised=True):
    """Work done per second of round time."""
    busy = sum(r.seconds * (r.speed if normalised else 1.0) for r in rounds)
    return sum(r.work for r in rounds) / busy
