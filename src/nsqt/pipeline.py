"""Training loops, decoding, evaluation, and knowledge distillation.

Targets are stored as bare payload sequences. The autoregressive and hybrid
decoders train and decode with an explicit end-of-sequence token appended;
the parallel decoder predicts exactly the payload and relies on the length
table at inference. Cross-entropy training and RL fine-tuning always use the
true target length; predicted lengths are exercised only by decoding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from . import rewards
from . import tensor as tc
from .data import build_length_table
from .errors import ContractError, EmptyCorpusError, TrainingError
from .models import EOS, PAD, beam_decode, predict_length

log = logging.getLogger(__name__)

# Adam's moment decay rates and denominator offset, the Transformer's values
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    max_steps: int = 2000
    lr: float = 0.01
    warmup: int = 200
    patience: int = 10
    rng_seed: int = 0
    eval_every: int = 200

    def __post_init__(self):
        if self.warmup < 0:
            raise ContractError(f"warmup must be >= 0, got {self.warmup}")
        for key in ("batch_size", "max_steps", "patience", "eval_every"):
            if getattr(self, key) < 1:
                raise ContractError(f"{key} must be >= 1, got {getattr(self, key)}")
        # the comparison is also false for nan
        if not 0.0 < self.lr < math.inf:
            raise ContractError(f"lr must be finite and > 0, got {self.lr}")


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "nat_argmax"
    beam: int = 1
    dedup: bool = True

    def __post_init__(self):
        if self.mode not in ("nat_argmax", "greedy", "beam"):
            raise ContractError(f"unknown decode mode {self.mode!r}")
        if self.beam < 1:
            raise ContractError(f"beam must be >= 1, got {self.beam}")
        if self.beam > 1 and self.mode != "beam":
            raise ContractError(f"mode {self.mode!r} decodes at beam 1, got beam {self.beam}")


class Adam:
    """Adam with the inverse-sqrt warmup schedule (peak rate at ``warmup``).

    The moments ``m`` and ``v`` are flat vectors over all parameters, in
    order. A step concatenates the gradients once, updates the moments and
    computes every parameter's change with a handful of in-place vector
    operations on preallocated buffers (fresh temporaries of this size cost
    more in page faults than in arithmetic), then writes each parameter
    back. Every parameter must carry a gradient.
    """

    def __init__(self, params, cfg):
        self.params = list(params)
        self.cfg = cfg
        sizes = [p.data.size for p in self.params]
        self.offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        total = int(self.offsets[-1])
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self._g, self._t, self._u = np.empty(total), np.empty(total), np.empty(total)
        self.step_count = 0

    def rate(self, step):
        warm = max(self.cfg.warmup, 1)
        return self.cfg.lr * math.sqrt(warm) * min(step**-0.5, step * warm**-1.5)

    def step(self):
        """One update; raises ``TrainingError`` before changing any moment
        or parameter when a parameter has no gradient or a gradient entry is
        not finite."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise TrainingError(f"parameter {i} has no gradient at step {self.step_count + 1}")
        g = np.concatenate([p.grad.reshape(-1) for p in self.params], out=self._g)
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient at step {self.step_count + 1}")
        self.step_count += 1
        lr = self.rate(self.step_count)
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        m, v, t, u = self.m, self.v, self._t, self._u
        m *= b1
        m += np.multiply(1 - b1, g, out=t)
        v *= b2
        np.multiply(1 - b2, g, out=t)
        v += np.multiply(t, g, out=t)
        # update = lr * mhat / (sqrt(vhat) + eps)
        np.divide(v, 1 - b2**self.step_count, out=t)
        np.sqrt(t, out=t)
        t += eps
        np.divide(m, 1 - b1**self.step_count, out=u)
        u *= lr
        u /= t
        for p, lo, hi in zip(self.params, self.offsets[:-1], self.offsets[1:]):
            p.data -= u[lo:hi].reshape(p.data.shape)


def _prep_target(kind, tgt):
    """AR and FS targets carry a terminating EOS; NAT predicts bare payload."""
    return tuple(tgt) if kind == "nat" else tuple(tgt) + (EOS,)


def _batches(corpus, kind, batch_size, rng):
    """One epoch of batches, bucketed by (source length, target length) so
    every batch is rectangular without padding. The epoch's order is drawn
    before the first batch is yielded; a batch's arrays are built only when
    it is taken."""
    buckets = {}
    for src, tgt in corpus.pairs:
        t = _prep_target(kind, tgt)
        buckets.setdefault((len(src), len(t)), []).append((src, t))
    chunks = []
    for key in sorted(buckets):
        group = buckets[key]
        rng.shuffle(group)
        chunks.extend(group[i : i + batch_size] for i in range(0, len(group), batch_size))
    rng.shuffle(chunks)
    for chunk in chunks:
        yield (
            np.array([p[0] for p in chunk], dtype=np.int64),
            np.array([p[1] for p in chunk], dtype=np.int64),
        )


def _require_pairs(corpus, role):
    if corpus.size == 0:
        raise EmptyCorpusError(f"{role} corpus is empty")


def _step_generator(corpus, kind, batch_size, rng, max_steps):
    _require_pairs(corpus, "training")
    done = 0
    while done < max_steps:
        for batch in _batches(corpus, kind, batch_size, rng):
            yield batch
            done += 1
            if done >= max_steps:
                return


def _nll_loss(model, src_batch, tgt_batch):
    """Mean per-token negative log-likelihood."""
    probs = model.train_distributions(src_batch, tgt_batch)
    B, T = tgt_batch.shape
    rows = np.repeat(np.arange(B), T)
    cols = np.tile(np.arange(T), B)
    return tc.nll(probs, (rows, cols, tgt_batch.reshape(-1)), -1.0 / (B * T))


def mean_validation_gleu(model, corpus, dec, table):
    _require_pairs(corpus, "validation")
    total = 0.0
    for src, tgt in corpus.pairs:
        hyp = decode(model, src, dec, table)
        total += rewards.gleu(hyp, tgt)
    return total / corpus.size


def _train(model, corpus, cfg, valid, batch_loss):
    """The training loop of ``train_ce`` and ``finetune_rl``.

    ``batch_loss(srcs, tgts, step)`` returns (metric name, loss tensor,
    extra (metric, value) rows) for one batch; the loop checks that the loss
    is finite, steps Adam and logs the rows (step, split, metric, value).
    Validation GLEU (NAT argmax or greedy decoding, dropout off) runs every
    ``eval_every`` steps when a validation corpus is given, and training
    stops once ``patience`` validations in a row have not beaten the best
    score. NAT and FS validation decodes predict lengths from the training
    corpus's length table.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    opt = Adam(model.parameters(), cfg)
    if valid is not None:
        _require_pairs(valid, "validation")
        table = build_length_table(corpus)
    dec = DecodeConfig(mode="nat_argmax" if model.kind == "nat" else "greedy")
    best, since_best = -1.0, 0
    rows = []
    for step, (srcs, tgts) in enumerate(
        _step_generator(corpus, model.kind, cfg.batch_size, rng, cfg.max_steps), 1
    ):
        model.zero_grad()
        metric, loss, extra = batch_loss(srcs, tgts, step)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingError(f"{metric} diverged to {value} at step {step}")
        loss.backward()
        opt.step()
        rows.append((step, "train", metric, value))
        rows.extend((step, "train", name, v) for name, v in extra)
        if valid is None or step % cfg.eval_every != 0:
            continue
        training, model.training = model.training, False
        score = mean_validation_gleu(model, valid, dec, table)
        model.training = training
        rows.append((step, "valid", "gleu", score))
        if score > best:
            best, since_best = score, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return rows


def train_ce(model, corpus, cfg, valid=None):
    """Token-level cross-entropy training with Adam and warmup.

    Returns metric log rows (step, split, metric, value); validation and the
    early stop are ``_train``'s. Dropout is on while training and off for
    validation; ``model.training`` is False on return, also when training
    raises.
    """

    def nll(srcs, tgts, step):
        return "loss", _nll_loss(model, srcs, tgts), ()

    try:
        model.training = True
        return _train(model, corpus, cfg, valid, nll)
    finally:
        # also after a TrainingError: a later caller must not train or
        # decode with dropout it did not ask for
        model.training = False


def finetune_rl(model, corpus, est_cfg, reward, cfg, valid=None):
    """Sequence-level fine-tuning of a parallel decoder with the top-k
    traversal estimator; the reference is the corpus target (distilled when a
    distilled corpus is supplied).

    Runs with dropout off (``model.training`` is set to False): the
    estimator scores the distributions the model would decode with."""
    if model.kind != "nat":
        raise ContractError(
            f"sequence-level fine-tuning is defined for the factorized NAT "
            f"output only, got model kind {model.kind!r}"
        )
    model.training = False
    est_rng = np.random.default_rng(est_cfg.rng_seed)

    def surrogate(srcs, tgts, step):
        probs = model.train_distributions(srcs, tgts)
        B = srcs.shape[0]
        dist = est.PositionDistributions(probs.data, tensor=probs)
        ge = est.reinforce_nat_step(dist, est_cfg, reward, tgts, est_rng.spawn(B))
        if ge.surrogate is None:
            raise TrainingError(f"estimator produced no surrogate at step {step}")
        dnorm = 0.0
        for d in ge.dprobs:
            dnorm += float(np.abs(d).sum())
        return "surrogate", tc.mul(ge.surrogate, 1.0 / B), [("dprobs_l1", dnorm / B)]

    return _train(model, corpus, cfg, valid, surrogate)


def dedup_consecutive(tokens):
    """Collapse runs of the same token to a single occurrence."""
    out = []
    for t in tokens:
        if not out or out[-1] != t:
            out.append(int(t))
    return out


def _strip(tokens):
    tokens = list(tokens)
    while tokens and tokens[-1] in (PAD, EOS):
        tokens.pop()
    return tokens


@tc.no_grad()
def _decode_raw(model, src, dec, table):
    """Decode one sentence without recording a compute graph; returns
    (clean tokens, raw length): the argmax row's length for NAT, the
    decoder steps run for AR and FS."""
    src = tuple(int(t) for t in src)
    src_arr = np.array([src], dtype=np.int64)
    if model.kind == "nat":
        if dec.mode != "nat_argmax":
            raise ContractError(f"mode {dec.mode!r} undefined for NAT models")
        out_len = min(predict_length(len(src), table), model.config.max_len)
        probs = model.forward(src_arr, out_len)
        raw = probs.data[0].argmax(axis=1).tolist()
        tokens = _strip(raw)
        if dec.dedup:
            tokens = dedup_consecutive(tokens)
        return tokens, len(raw)
    if dec.mode == "nat_argmax":
        raise ContractError(f"nat_argmax undefined for model kind {model.kind!r}")
    if model.kind == "fs":
        out_len = min(predict_length(len(src), table) + 1, model.config.max_len)
    else:
        out_len = model.config.max_len
    # greedy is beam 1: DecodeConfig rejects a beam above 1 in other modes
    tokens, steps = beam_decode(model, src_arr, out_len=out_len, beam=dec.beam)
    return _strip(tokens), steps


def decode(model, src, dec, table):
    """Decode one source sentence to a clean token sequence (trailing pad and
    end markers stripped; consecutive duplicates removed for NAT when
    ``dec.dedup``)."""
    return _decode_raw(model, src, dec, table)[0]


def decode_corpus(model, corpus, dec, table=None):
    """The decodes of every source sentence of a non-empty corpus, in order."""
    _require_pairs(corpus, "decoding")
    if table is None:
        table = build_length_table(corpus)
    return [decode(model, src, dec, table) for src, _ in corpus.pairs]


def distill_corpus(teacher, corpus, dec):
    """Replace targets with the teacher's decodes (lengths predicted from the
    corpus's own length table); empty decodes keep the original target
    (count logged)."""
    from .data import ParallelCorpus

    hyps = decode_corpus(teacher, corpus, dec)
    pairs = [(tuple(src), tuple(hyp or tgt)) for (src, tgt), hyp in zip(corpus.pairs, hyps)]
    kept = sum(not hyp for hyp in hyps)
    if kept:
        log.info("kept %d original targets for empty teacher decodes", kept)
    return ParallelCorpus(pairs, corpus.vocab)


@dataclass
class EvalReport:
    corpus_bleu: float
    mean_gleu: float
    mean_sentence_bleu: float
    mean_ref_len: float
    mean_hyp_len: float
    invocations: dict
    raw_output_lens: list
    per_sentence_invocations: dict
    buckets: list  # (bucket_lo, count, mean_gleu, mean_sentence_bleu)


def evaluate(model, corpus, dec, table):
    """Aggregate decode quality and structural decoding cost over a corpus.

    ``table`` predicts the NAT and FS output lengths; pass the training
    corpus's table, since one built from the scored corpus would read the
    references' own lengths. Decoder invocation counts stand in for
    wall-clock speed: the number of decoder (or bottom/top) passes per
    sentence is recorded exactly. Length buckets have width 10 on the
    reference length.
    """
    _require_pairs(corpus, "evaluation")
    hyps, refs, raw_lens = [], [], []
    counter_names = [n for n in vars(model) if n.endswith("_calls")]
    per_sentence = {n: [] for n in counter_names}
    for src, tgt in corpus.pairs:
        model.reset_counters()
        tokens, raw_len = _decode_raw(model, src, dec, table)
        for n in counter_names:
            per_sentence[n].append(getattr(model, n))
        hyps.append(tokens)
        refs.append(list(tgt))
        raw_lens.append(raw_len)
    gleus = [rewards.gleu(h, r) for h, r in zip(hyps, refs)]
    bleus = [rewards.bleu_sentence(h, r) for h, r in zip(hyps, refs)]
    buckets = {}
    for h, r, g, b in zip(hyps, refs, gleus, bleus):
        buckets.setdefault((len(r) // 10) * 10, []).append((g, b))
    bucket_rows = [
        (lo, len(vals), sum(v[0] for v in vals) / len(vals), sum(v[1] for v in vals) / len(vals))
        for lo, vals in sorted(buckets.items())
    ]
    return EvalReport(
        corpus_bleu=rewards.corpus_bleu(hyps, refs),
        mean_gleu=sum(gleus) / len(gleus),
        mean_sentence_bleu=sum(bleus) / len(bleus),
        mean_ref_len=sum(len(r) for r in refs) / len(refs),
        mean_hyp_len=sum(len(h) for h in hyps) / len(hyps),
        invocations={n: sum(v) / len(v) for n, v in per_sentence.items()},
        raw_output_lens=raw_lens,
        per_sentence_invocations=per_sentence,
        buckets=bucket_rows,
    )


def topk_stats(model, corpus, k_list):
    """Mean top-k probability mass over every target-position prediction,
    plus a 5-interval histogram of the per-position masses."""
    _require_pairs(corpus, "evaluation")
    values = {k: [] for k in k_list}
    for src, tgt in corpus.pairs:
        with tc.no_grad():
            probs = model.forward(np.array([src], dtype=np.int64), len(tgt)).data[0]
        srt = np.sort(probs, axis=1)[:, ::-1]
        # rounding can push a full cumulative sum marginally past 1.0
        csum = np.minimum(np.cumsum(srt, axis=1), 1.0)
        for k in k_list:
            # the top-0 mass is empty, not the last column
            col = csum[:, min(k, probs.shape[1]) - 1] if k else np.zeros(len(csum))
            values[k].extend(float(v) for v in col)
    summary = []
    for k in k_list:
        vals = values[k]
        hist, _ = np.histogram(vals, bins=5, range=(0.0, 1.0))
        summary.append((k, sum(vals) / len(vals), *(int(h) for h in hist)))
    return values, summary
