"""Gradient estimators for the expected sequence reward of a factorized
(per-position independent) output distribution.

Provides exact enumeration oracles, per-position Monte Carlo reward
estimation, plain REINFORCE, and the variance-reduced top-k traversal
estimator, all expressed as gradients with respect to the T x V probability
matrix. The ``surrogate`` scalar attached to an estimate backpropagates the
same gradient through the recorded graph (softmax, model parameters).

Convention: ``dprobs[t][y]`` estimates d(loss)/d(p[t][y]) where the loss is
the negative expected reward, so the exact value is -r(y_t = y), the
expected reward with position t clamped to token y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import CapacityError, ContractError

ENUM_LIMIT = 10**7


@dataclass
class PositionDistributions:
    """Row-stochastic T x V matrix; the joint is the product of row entries.

    ``tensor`` optionally links the matrix to a recorded compute graph so
    estimators can emit a differentiable surrogate; ``prefix`` holds leading
    indices (e.g. a batch index) locating this matrix inside the tensor.
    """

    probs: np.ndarray
    tensor: tc.Tensor | None = None
    prefix: tuple = ()

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ContractError(f"expected a T x V matrix, got {self.probs.shape}")
        if np.any(self.probs < 0):
            raise ContractError("probabilities must be non-negative")
        rows = self.probs.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ContractError("rows must sum to 1 within 1e-9")

    @property
    def T(self):
        return self.probs.shape[0]

    @property
    def V(self):
        return self.probs.shape[1]


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


@dataclass
class TopKPartition:
    """The k most probable tokens of one row, their mass, and the renormalized
    remainder distribution (zero where the remainder is negligible)."""

    members: np.ndarray
    mass: float
    residual: np.ndarray
    has_residual: bool


@dataclass
class GradientEstimate:
    dprobs: np.ndarray
    surrogate: tc.Tensor | None = None


def top_k_partition(row, k, residual_epsilon=1e-6):
    """Split a probability row into its top-k members and the residual.

    Ties are broken toward the lower token id.
    """
    row = np.asarray(row, dtype=np.float64)
    if k > row.shape[0]:
        raise ContractError(f"k={k} exceeds vocabulary size {row.shape[0]}")
    order = np.argsort(-row, kind="stable")
    members = np.sort(order[:k])
    mass = float(row[members].sum()) if k else 0.0
    residual = row.copy()
    residual[members] = 0.0
    rest = 1.0 - mass
    if rest >= residual_epsilon and residual.sum() > 0.0:
        residual /= residual.sum()
        return TopKPartition(members, mass, residual, True)
    return TopKPartition(members, mass, np.zeros_like(row), False)


def _sample_completions(probs, u):
    """Full sequences from an (N, T) matrix of uniforms: token t of each
    sequence inverts row t's CDF at the uniform in column t."""
    T, V = probs.shape
    cum = np.cumsum(probs, axis=1)
    tokens = np.empty(u.shape, dtype=np.int64)
    for i in range(T):
        tokens[:, i] = np.searchsorted(cum[i], u[:, i], side="right")
    np.clip(tokens, 0, V - 1, out=tokens)
    return tokens


def exact_reward_at(dist, t, y, reward, ref):
    """Expected reward with position t clamped to token y, by enumeration."""
    T, V = dist.T, dist.V
    if V ** max(T - 1, 0) > ENUM_LIMIT:
        raise CapacityError(
            f"V^(T-1) = {V}^{T - 1} exceeds the enumeration bound {ENUM_LIMIT}"
        )
    others = [i for i in range(T) if i != t]
    ref = tuple(ref)
    total = 0.0
    seq = [0] * T
    seq[t] = y
    for combo in itertools.product(range(V), repeat=len(others)):
        prob = 1.0
        for pos, tok in zip(others, combo):
            seq[pos] = tok
            prob *= dist.probs[pos, tok]
        if prob:
            total += prob * reward(tuple(seq), ref)
    return total


def estimate_reward_at(dist, t, y, n, reward, ref, rng):
    """Monte Carlo estimate of ``exact_reward_at``: n full samples with
    position t clamped to y, mean reward."""
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    tokens = _sample_completions(dist.probs, rng.random((n, dist.T)))
    tokens[:, t] = y
    ref = tuple(ref)
    return sum(reward(tuple(row), ref) for row in tokens) / n


def enumerate_gradient_direct(dist, reward, ref):
    """Gradient of the negative expected reward by enumerating every full
    sequence and differentiating the probability product directly."""
    T, V = dist.T, dist.V
    if V**T > ENUM_LIMIT:
        raise CapacityError(f"V^T = {V}^{T} exceeds the enumeration bound {ENUM_LIMIT}")
    ref = tuple(ref)
    dprobs = np.zeros((T, V))
    p = dist.probs
    for seq in itertools.product(range(V), repeat=T):
        r = reward(seq, ref)
        if r == 0.0:
            continue
        # prefix/suffix products make the leave-one-out product exact even
        # when some factors are zero
        prefix = np.ones(T + 1)
        for i in range(T):
            prefix[i + 1] = prefix[i] * p[i, seq[i]]
        suffix = np.ones(T + 1)
        for i in range(T - 1, -1, -1):
            suffix[i] = suffix[i + 1] * p[i, seq[i]]
        for t in range(T):
            dprobs[t, seq[t]] -= prefix[t] * suffix[t + 1] * r
    return GradientEstimate(dprobs)


def enumerate_gradient_factored(dist, reward, ref):
    """Gradient via the per-position decomposition: entry (t, y) is the
    negative expected reward with position t clamped to y."""
    T, V = dist.T, dist.V
    if V**T > ENUM_LIMIT:
        raise CapacityError(f"V^T = {V}^{T} exceeds the enumeration bound {ENUM_LIMIT}")
    dprobs = np.empty((T, V))
    for t in range(T):
        for y in range(V):
            dprobs[t, y] = -exact_reward_at(dist, t, y, reward, ref)
    return GradientEstimate(dprobs)


def enumerate_expected_gradient(dist, reward, ref):
    """Exact gradient oracle. Computes the direct and the per-position
    enumerations and requires them to agree within 1e-10 (the numerical
    check of the decomposition identity)."""
    direct = enumerate_gradient_direct(dist, reward, ref)
    factored = enumerate_gradient_factored(dist, reward, ref)
    gap = float(np.max(np.abs(direct.dprobs - factored.dprobs)))
    if gap > 1e-10:
        raise ArithmeticError(
            f"direct and per-position enumerations disagree by {gap:.3e}"
        )
    return factored


def reinforce_nat_step(dist, config, reward, ref, rng, exact_rewards=False):
    """One estimate of the loss gradient via top-k traversal plus one
    residual sample per position.

    Per position: exact-weight gradient terms for the top-k tokens (reward
    estimated by Monte Carlo unless ``exact_rewards``), then, if residual
    mass remains, one sample from the renormalized remainder contributes a
    REINFORCE term weighted by the leftover mass. Reward estimates and the
    leftover mass are treated as constants; only probabilities carry
    gradient (realized through the returned surrogate scalar).

    A reward with a ``batch(tokens, ref)`` method scores all of the
    sentence's sampled completions in one call; otherwise it is called once
    per completion. Both give the same numbers.
    """
    T, V = dist.T, dist.V
    if config.k > V:
        raise ContractError(f"k={config.k} exceeds vocabulary size {V}")
    ref = tuple(ref)
    # plan: one (t, y, stream, leftover mass or None) per candidate. One
    # independent stream per position, then per candidate, fixed order:
    # results do not depend on execution interleaving
    pos_rngs = rng.spawn(T)
    plan = []
    for t in range(T):
        part = top_k_partition(dist.probs[t], config.k, config.residual_epsilon)
        cand_rngs = pos_rngs[t].spawn(config.k + 1)
        for j, y in enumerate(part.members):
            plan.append((t, int(y), cand_rngs[j], None))
        if part.has_residual:
            cum = np.cumsum(part.residual)
            y = int(np.searchsorted(cum, pos_rngs[t].random(), side="right"))
            plan.append((t, min(y, V - 1), cand_rngs[config.k], 1.0 - part.mass))

    if exact_rewards:
        values = [exact_reward_at(dist, t, y, reward, ref) for t, y, _, _ in plan]
    else:
        values = _sampled_rewards(dist, plan, config.n, reward, ref)

    dprobs = np.zeros((T, V))
    prob_t, prob_y, prob_w = [], [], []  # p-weighted traversal terms
    log_t, log_y, log_w = [], [], []  # log p residual terms
    for (t, y, _, rest), r in zip(plan, values):
        if rest is None:
            dprobs[t, y] -= r
            prob_t.append(t)
            prob_y.append(y)
            prob_w.append(r)
        else:
            weight = rest * r
            dprobs[t, y] -= weight / dist.probs[t, y]
            log_t.append(t)
            log_y.append(y)
            log_w.append(weight)

    surrogate = None
    if dist.tensor is not None:
        terms = []
        if prob_t:
            idx = dist.prefix + (np.array(prob_t), np.array(prob_y))
            terms.append(tc.tsum(tc.mul(tc.take(dist.tensor, idx), np.array(prob_w))))
        if log_t:
            idx = dist.prefix + (np.array(log_t), np.array(log_y))
            terms.append(
                tc.tsum(tc.mul(tc.log(tc.take(dist.tensor, idx)), np.array(log_w)))
            )
        if terms:
            total = terms[0]
            for extra in terms[1:]:
                total = tc.add(total, extra)
            surrogate = tc.mul(total, -1.0)
    return GradientEstimate(dprobs, surrogate)


def _sampled_rewards(dist, plan, n, reward, ref):
    """Monte Carlo reward of every planned candidate: the mean over n
    completions drawn from the candidate's own stream, with position t
    clamped to y. Equal to ``estimate_reward_at`` per candidate."""
    u = np.concatenate([stream.random((n, dist.T)) for _, _, stream, _ in plan])
    tokens = _sample_completions(dist.probs, u)
    clamp_t = np.repeat([t for t, _, _, _ in plan], n)
    tokens[np.arange(len(tokens)), clamp_t] = np.repeat([y for _, y, _, _ in plan], n)
    batch = getattr(reward, "batch", None)
    if batch is None:
        scores = [reward(tuple(row), ref) for row in tokens]
    else:
        scores = np.asarray(batch(tokens, ref), dtype=np.float64)
        if scores.shape != (len(tokens),):
            raise ContractError(
                f"reward.batch returned shape {scores.shape}, expected ({len(tokens)},)"
            )
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ContractError("reward.batch returned values outside [0, 1]")
        scores = scores.tolist()
    # Python sum in row order, as estimate_reward_at adds them
    return [sum(scores[i : i + n]) / n for i in range(0, len(scores), n)]


def reinforce_step(dist, reward, ref, n, rng):
    """Plain REINFORCE: one sampled token per position, log-prob gradient
    weighted by its estimated expected reward. Identical to the top-k
    estimator with k=0."""
    config = EstimatorConfig(k=0, n=n)
    return reinforce_nat_step(dist, config, reward, ref, rng)


@dataclass
class EstimatorStats:
    mean_dprobs: np.ndarray
    per_entry_variance: np.ndarray
    total_variance: float
    repetitions: int


def estimator_stats(dist, estimator, repetitions, rng):
    """Sample mean and unbiased per-entry variance of an estimator over
    independent repetitions. ``estimator`` maps an RNG to a GradientEstimate."""
    if repetitions < 2:
        raise ContractError(f"repetitions must be >= 2, got {repetitions}")
    streams = rng.spawn(repetitions)
    acc = np.zeros((dist.T, dist.V))
    acc_sq = np.zeros((dist.T, dist.V))
    for stream in streams:
        d = estimator(stream).dprobs
        acc += d
        acc_sq += d * d
    mean = acc / repetitions
    var = (acc_sq - repetitions * mean * mean) / (repetitions - 1)
    np.maximum(var, 0.0, out=var)
    return EstimatorStats(mean, var, float(var.sum()), repetitions)


def random_distributions(T, V, rng, concentration=1.0):
    """A random T x V row-stochastic matrix (Dirichlet rows)."""
    probs = rng.dirichlet(np.full(V, concentration), size=T)
    return PositionDistributions(probs)


def random_reward_table(T, V, rng):
    """A dense random reward in [0, 1] over all V^T sequences, as a callable.

    For oracle tests only; ignores the reference argument.
    """
    table = {
        seq: float(r)
        for seq, r in zip(
            itertools.product(range(V), repeat=T), rng.random(V**T)
        )
    }

    def reward(hyp, ref):
        return table[tuple(hyp)]

    return reward
