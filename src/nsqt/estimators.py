"""Gradient estimators for the expected sequence reward of a factorized
(per-position independent) output distribution.

Provides the variance-reduced top-k traversal estimator (plain REINFORCE at
k=0), whose candidates' rewards average a completion set (n samples, or all
V^T sequences weighted by their probabilities), a Monte Carlo estimate of
one clamped reward and the estimator's Monte Carlo statistics, all on
gradients with respect to the T x V probability matrix. The ``surrogate``
scalar attached to an estimate backpropagates the same gradient through the
recorded graph.

Convention: ``dprobs[t][y]`` estimates d(loss)/d(p[t][y]) where the loss is
the negative expected reward, so the exact value is -r(y_t = y), the
expected reward with position t clamped to token y.

Random streams: ``reinforce_nat_step`` draws every uniform of a sentence
from that sentence's own stream in a fixed layout: the T residual uniforms,
then, for Monte Carlo rewards, the n x T uniforms of the sentence's n base
completions, which every candidate of the sentence shares. A call advances
each stream by T + n T doubles (T with exact rewards). A sentence's numbers
therefore depend only on its stream, not on its batch or the order of
execution.

A ``reinforce_nat_step`` call on a small instance costs Python-level numpy
calls more than arithmetic, so its per-call path keeps ``tensor.py``'s
rule: every op calls numpy's C entry points, not its Python wrappers. That
means ufunc methods such as ``np.add.reduce`` and ``np.add.accumulate``
rather than ``np.sum`` or ``np.cumsum``, and array methods such as
``.argsort``, ``.take``, ``.nonzero`` and ``.repeat`` rather than their
``np.`` functions. The numbers are bitwise those of the wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tc
from .errors import CapacityError, ContractError

ENUM_LIMIT = 10**7
# odd multiplier of the row hash that keys sampled completions
_ROW_HASH_MULT = 0x9E3779B97F4A7C15


@dataclass
class PositionDistributions:
    """Row-stochastic T x V matrix; the joint is the product of row entries.
    A B x T x V array holds a batch of B such sentences, which only
    ``reinforce_nat_step`` accepts.

    ``tensor`` optionally links the matrix to a recorded compute graph of
    the same shape so estimators can emit a differentiable surrogate.
    """

    probs: np.ndarray
    tensor: tc.Tensor | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim not in (2, 3):
            raise ContractError(
                f"expected a T x V matrix or a B x T x V batch, got {self.probs.shape}"
            )
        if 0 in self.probs.shape:
            raise ContractError(f"expected no empty axis, got {self.probs.shape}")
        if np.any(self.probs < 0):
            raise ContractError("probabilities must be non-negative")
        rows = self.probs.sum(axis=-1)
        # written so that a nan row fails too
        if not np.all(np.abs(rows - 1.0) <= 1e-9):
            raise ContractError("rows must sum to 1 within 1e-9")

    @property
    def T(self):
        return self.probs.shape[-2]

    @property
    def V(self):
        return self.probs.shape[-1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Traversal width k, per-reward sample count n, and the residual cutoff."""

    k: int = 5
    n: int = 20
    rng_seed: int = 0
    residual_epsilon: float = 1e-6

    def __post_init__(self):
        if self.k < 0:
            raise ContractError(f"k must be non-negative, got {self.k}")
        if self.n < 1:
            raise ContractError(f"n must be positive, got {self.n}")
        # also false for nan, which would silently drop every residual term
        if not 0.0 <= self.residual_epsilon <= 1.0:
            raise ContractError(
                f"residual_epsilon must be a finite number in [0, 1], "
                f"got {self.residual_epsilon}"
            )


@dataclass
class TopKPartition:
    """Per row: the k most probable tokens in increasing id order, their
    mass, the renormalized remainder distribution (zero where the remainder
    is negligible) and whether it is sampled. Arrays carry the rows' leading
    shape."""

    members: np.ndarray
    mass: np.ndarray
    residual: np.ndarray
    has_residual: np.ndarray


@dataclass
class GradientEstimate:
    dprobs: np.ndarray
    surrogate: tc.Tensor | None = None


def top_k_partition(probs, k, residual_epsilon=1e-6):
    """Split every probability row (the last axis) into its top-k members
    and the residual.

    Ties are broken toward the lower token id. The remainder is sampled when
    its mass 1 - mass is at least ``residual_epsilon`` and some probability
    lies outside the members.
    """
    probs = np.asarray(probs, dtype=np.float64)
    lead, V = probs.shape[:-1], probs.shape[-1]
    if k > V:
        raise ContractError(f"k={k} exceeds vocabulary size {V}")
    residual = probs.reshape(-1, V).copy()
    members = (-residual).argsort(kind="stable")[:, :k]
    members.sort()
    index = (np.arange(len(residual))[:, None], members)
    mass = np.add.reduce(residual[index], axis=-1)
    residual[index] = 0.0
    total = np.add.reduce(residual, axis=-1)
    has = (1.0 - mass >= residual_epsilon) & (total > 0.0)
    total[~has] = 1.0
    residual /= total[:, None]
    residual[~has] = 0.0
    return TopKPartition(
        members.reshape(lead + (k,)),
        mass.reshape(lead),
        residual.reshape(probs.shape),
        has.reshape(lead),
    )


def _sample_completions(probs, u):
    """Full sequences from a (..., N, T) array of uniforms and (..., T, V)
    rows: token t of each sequence inverts row t's CDF at the uniform in
    column t. Counting the CDF entries <= u is searchsorted(side="right");
    the count is never negative, so only the top needs a clamp."""
    cum = np.add.accumulate(probs, axis=-1)
    count = np.add.reduce(cum[..., None, :, :] <= u[..., None], axis=-1, dtype=np.int64)
    return np.minimum(count, probs.shape[-1] - 1, out=count)


def estimate_reward_at(dist, t, y, n, reward, ref, rng):
    """Monte Carlo estimate of the expected reward with position t clamped
    to y: n full samples with position t set to y, mean reward."""
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    tokens = _sample_completions(dist.probs, rng.random((n, dist.T)))
    tokens[:, t] = y
    return float(_mean_rewards(tokens, n, reward, [tuple(ref)], np.zeros(n, dtype=np.int64))[0])


def _mean_rewards(tokens, n, reward, refs, which, row_weights=None):
    """The mean reward of each consecutive block of n rows of ``tokens``,
    row i scored against ``refs[which[i]]`` and each block summed left to
    right. With ``row_weights``, one row of n weights per block, each block's
    value is instead the sum of its rewards times their weights, undivided.

    Rewards are pure, so each distinct (row, reference) pair is scored once
    and every row takes its pair's score. Rows are keyed by a wrapping
    uint64 polynomial hash of their tokens and reference index, and every
    row is compared with its key's representative; should two different
    pairs share a key, every row is scored. A reward with a
    ``batch(tokens, refs, which)`` method scores the distinct rows in one
    call; otherwise it is called once per distinct row. Both give the same
    numbers."""
    weights = np.multiply.accumulate(
        np.array([_ROW_HASH_MULT] * (tokens.shape[1] + 1), dtype=np.uint64)
    )
    keys = tokens.view(np.uint64) @ weights[:-1] + which.astype(np.uint64) * weights[-1]
    # the distinct keys in sorted order, as np.unique finds them: one row of
    # each and every row's index among them
    order = keys.argsort()
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.add.accumulate(first, dtype=np.intp) - 1
    rep = order[first]
    # take gathers whole rows in half the time of an index
    rows, row_refs = tokens.take(rep, axis=0), which[rep]
    if not (
        np.logical_and.reduce(rows.take(inverse, axis=0) == tokens, axis=None)
        and np.logical_and.reduce(row_refs[inverse] == which)
    ):
        inverse = np.arange(len(tokens))
        rows, row_refs = tokens, which
    batch = getattr(reward, "batch", None)
    if batch is None:
        scores = np.array(
            [reward(tuple(row), refs[i]) for row, i in zip(rows.tolist(), row_refs.tolist())],
            dtype=np.float64,
        )
    else:
        scores = np.asarray(batch(rows, refs, row_refs), dtype=np.float64)
        if scores.shape != (len(rows),):
            raise ContractError(
                f"reward.batch returned shape {scores.shape}, expected ({len(rows)},)"
            )
        if not np.logical_and.reduce((scores >= 0.0) & (scores <= 1.0)):
            raise ContractError("reward.batch returned values outside [0, 1]")
    scores = scores[inverse].reshape(-1, n)
    # accumulate adds in row order, as a Python loop over the rows would
    if row_weights is None:
        return np.add.accumulate(scores, axis=1)[:, -1] / n
    return np.add.accumulate(scores * row_weights, axis=1)[:, -1]


def reinforce_nat_step(dist, config, reward, ref, rng, exact_rewards=False):
    """One estimate of the loss gradient via top-k traversal plus one
    residual sample per position, for one sentence or a batch of them.

    Per position: exact-weight gradient terms for the top-k tokens, then, if
    residual mass remains, one sample from the renormalized remainder
    contributes a REINFORCE term weighted by the leftover mass. Reward
    estimates and the leftover mass are treated as constants; only
    probabilities carry gradient (realized through the returned surrogate
    scalar).

    With a T x V ``dist``, ``ref`` is one reference and ``rng`` one
    ``Generator``; ``dprobs`` is T x V. With a B x T x V ``dist``, ``ref``
    and ``rng`` hold one reference and one stream per sentence; ``dprobs``
    is B x T x V and the surrogate is the sum of the sentences' surrogates,
    added in sentence order. Sentences are independent: each one's numbers
    are those of a call with that sentence alone.

    Each sentence draws from its own stream, which may be any
    ``numpy.random.Generator`` but must be a different object from every
    other sentence's. It draws ``random(T)``, the residual uniforms
    (position t inverts entry t only if it has a residual), then, unless
    ``exact_rewards``, ``random((n, T))``: the uniforms of the sentence's n
    base completions, row i inverting position t's CDF at entry t. Every
    candidate (t, y) of the sentence, the members and the residual sample
    alike, takes these n rows with position t clamped to y, so a step
    scores n clamped rows per candidate. The call advances each stream by
    these T + n T draws (T with exact rewards).

    A candidate's reward estimate is the mean reward of its n rows. With
    ``exact_rewards`` it is the sum over all V^T sequences c of p(c) r(c with
    position t set to y), the expected reward with position t clamped to y;
    a step of more than ``ENUM_LIMIT`` such rows raises ``CapacityError``
    before any draw.

    Rewards must be pure. The step scores each distinct (completion,
    reference) pair once, over all sentences, and every sampled completion
    takes its pair's score, so the numbers are those of scoring every
    completion. A reward with a ``batch(tokens, refs, which)`` method scores
    the distinct completions of the whole step in one call; otherwise it is
    called once per distinct completion. Both give the same numbers.
    """
    batched = dist.probs.ndim == 3
    probs = dist.probs if batched else dist.probs[None]
    refs = [tuple(r) for r in ref] if batched else [tuple(ref)]
    rngs = list(rng) if batched else [rng]
    B, T, V = probs.shape
    if len(refs) != B or len(rngs) != B:
        raise ContractError(
            f"expected {B} references and {B} streams, got {len(refs)} and {len(rngs)}"
        )
    if len({id(g) for g in rngs}) != B:
        raise ContractError("each sentence needs its own stream, got one Generator for two sentences")
    k, n = config.k, config.n
    part = top_k_partition(probs, k, config.residual_epsilon)
    if exact_rewards and (B * T * k + int(np.add.reduce(part.has_residual, axis=None))) * V**T > ENUM_LIMIT:
        raise CapacityError(f"exact rewards at V={V}, T={T} exceed the enumeration bound {ENUM_LIMIT}")

    # every uniform in the documented layout, straight into its place
    u_res = np.empty((B, 1, T))
    u = None if exact_rewards else np.empty((B, n, T))
    for b, g in enumerate(rngs):
        g.random(out=u_res[b, 0])
        if u is not None:
            g.random(out=u[b])

    # the residual sample of each position
    drawn = _sample_completions(part.residual, u_res)[:, 0]

    # the plan: candidates (b, t, j, y) in sentence, position, candidate
    # order; j < k are the members, j = k the residual sample
    candidates = np.concatenate([part.members, drawn[..., None]], axis=-1)
    planned = np.empty(candidates.shape, dtype=bool)
    planned[..., :k] = True
    planned[..., k] = part.has_residual
    cb, ct, cj = planned.nonzero()
    cy = candidates[cb, ct, cj]

    # each sentence's completions: its n samples, or every sequence in
    # itertools.product order, weighted by its row entries' left-to-right product
    if exact_rewards:
        m = V**T
        seqs = np.indices((V,) * T).reshape(T, m).T
        row_weights = np.multiply.accumulate(probs[:, np.arange(T), seqs], axis=-1)[..., -1].take(cb, axis=0)
        base = np.broadcast_to(seqs, (B, m, T))
    else:
        m, row_weights = n, None
        base = _sample_completions(probs, u)
    # each candidate's m rows: its sentence's completions with position t
    # clamped to y
    tokens = base.take(cb, axis=0)
    tokens[np.arange(len(cb)), :, ct] = cy[:, None]
    tokens = tokens.reshape(-1, T)
    distinct = {}  # reference -> its index among the distinct references
    ref_of = np.array([distinct.setdefault(r, len(distinct)) for r in refs], dtype=np.int64)
    values = _mean_rewards(tokens, m, reward, list(distinct), ref_of[cb].repeat(m), row_weights)

    sampled = cj == k
    weights = values.copy()
    weights[sampled] *= 1.0 - part.mass[cb[sampled], ct[sampled]]
    grads = weights.copy()
    grads[sampled] /= probs[cb[sampled], ct[sampled], cy[sampled]]
    dprobs = np.zeros((B, T, V))
    np.subtract.at(dprobs, (cb, ct, cy), grads)

    surrogate = None
    if dist.tensor is not None and len(cb):
        index = (cb, ct, cy) if batched else (ct, cy)
        surrogate = tc.score_surrogate(dist.tensor, index, weights, sampled, cb)
    return GradientEstimate(dprobs if batched else dprobs[0], surrogate)


@dataclass
class EstimatorStats:
    """Sample mean and unbiased per-entry variance of ``dprobs``, their
    total, and the total variance of ``tensor.softmax_grad(dprobs, probs)``,
    the logit gradient that training backpropagates."""

    mean_dprobs: np.ndarray
    per_entry_variance: np.ndarray
    total_variance: float
    logit_total_variance: float
    repetitions: int


# repetitions per batched call of reinforce_nat_stats; bounds its memory
_STATS_CHUNK = 500


def _moments(dist, repetitions, rng, estimate, chunk):
    """Moments of the ``dprobs`` rows that ``estimate`` returns for each run
    of up to ``chunk`` streams of ``rng.spawn(repetitions)``, and of their
    logit gradients under ``dist``, added in repetition order."""
    if repetitions < 2:
        raise ContractError(f"repetitions must be >= 2, got {repetitions}")
    streams = rng.spawn(repetitions)
    acc = acc_sq = logit_acc = logit_sq = 0.0  # the first row's += makes each its own array
    for lo in range(0, repetitions, chunk):
        rows = np.asarray(estimate(streams[lo : lo + chunk]))
        for d, g in zip(rows, tc.softmax_grad(rows, dist.probs)):
            acc += d
            acc_sq += d * d
            logit_acc += g
            logit_sq += g * g

    def variance(acc, acc_sq):
        mean = acc / repetitions
        var = (acc_sq - repetitions * mean * mean) / (repetitions - 1)
        return mean, np.maximum(var, 0.0, out=var)

    mean, var = variance(acc, acc_sq)
    _, logit_var = variance(logit_acc, logit_sq)
    return EstimatorStats(mean, var, float(var.sum()), float(logit_var.sum()), repetitions)


def estimator_stats(dist, estimator, repetitions, rng):
    """``EstimatorStats`` of an estimator over independent repetitions.
    ``estimator`` maps an RNG to a GradientEstimate and runs once per
    repetition: the per-stream reference that ``reinforce_nat_stats`` equals
    bitwise."""
    return _moments(dist, repetitions, rng, lambda streams: [estimator(s).dprobs for s in streams], 1)


def reinforce_nat_stats(dist, config, reward, ref, repetitions, rng):
    """``estimator_stats`` of ``reinforce_nat_step`` on one T x V ``dist``
    and reference, with the same streams and bitwise the same numbers, but
    each chunk of repetitions runs as one batched call."""

    def estimate(streams):
        B = len(streams)
        batch = PositionDistributions(np.broadcast_to(dist.probs, (B, dist.T, dist.V)))
        return reinforce_nat_step(batch, config, reward, [ref] * B, streams).dprobs

    return _moments(dist, repetitions, rng, estimate, _STATS_CHUNK)


def variance_sweep(ks, T, V, config, instances, repetitions, reward, seed):
    """Per k in ``ks``, the ``EstimatorStats`` of ``reinforce_nat_step`` on
    each random T x V instance, under ``config`` with its k replaced by k (so
    its n and residual_epsilon apply). Instance i draws Dirichlet(3) rows and
    a uniform reference from the stream ``(seed, i)``; its repetitions for
    width k spawn from ``(seed, i, k)``. Moderately flat instances keep the
    sweep stable: near-zero probabilities make the score-function term
    heavy-tailed.
    """
    cases = []
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        dist = random_distributions(T, V, rng, concentration=3.0)
        cases.append((dist, tuple(int(x) for x in rng.integers(0, V, size=T))))
    return [
        [
            reinforce_nat_stats(
                dist, replace(config, k=k), reward, ref, repetitions, np.random.default_rng((seed, i, k))
            )
            for i, (dist, ref) in enumerate(cases)
        ]
        for k in ks
    ]


def random_distributions(T, V, rng, concentration=1.0):
    """A random T x V row-stochastic matrix (Dirichlet rows)."""
    probs = rng.dirichlet(np.full(V, concentration), size=T)
    return PositionDistributions(probs)
