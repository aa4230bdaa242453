"""Gradient estimators for the expected sequence reward of a factorized
(per-position independent) output distribution.

Provides exact enumeration oracles, per-position Monte Carlo reward
estimation, the variance-reduced top-k traversal estimator (plain REINFORCE
at k=0) and its Monte Carlo statistics, all on gradients with respect to
the T x V probability matrix. The ``surrogate`` scalar attached to an
estimate backpropagates the same gradient through the recorded graph.

Convention: ``dprobs[t][y]`` estimates d(loss)/d(p[t][y]) where the loss is
the negative expected reward, so the exact value is -r(y_t = y), the
expected reward with position t clamped to token y.

Random streams: ``reinforce_nat_step`` gives position t of a sentence the
child stream ``c + t`` of the sentence's stream (c being the children that
stream had spawned), and candidate j of that position the child stream j of
the position stream. The streams are bitwise those of ``Generator.spawn``;
they are derived from the seed sequence's words by numpy's documented
SeedSequence mixing and PCG64 seeding instead of building a Generator per
stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tc
from .errors import CapacityError, ContractError

ENUM_LIMIT = 10**7


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
        if np.any(self.probs < 0):
            raise ContractError("probabilities must be non-negative")
        rows = self.probs.sum(axis=-1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
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
    if k > probs.shape[-1]:
        raise ContractError(f"k={k} exceeds vocabulary size {probs.shape[-1]}")
    order = np.argsort(-probs, axis=-1, kind="stable")
    members = np.sort(order[..., :k], axis=-1)
    mass = np.take_along_axis(probs, members, axis=-1).sum(axis=-1)
    residual = probs.copy()
    np.put_along_axis(residual, members, 0.0, axis=-1)
    total = residual.sum(axis=-1)
    has = (1.0 - mass >= residual_epsilon) & (total > 0.0)
    residual /= np.where(has, total, 1.0)[..., None]
    residual[~has] = 0.0
    return TopKPartition(members, mass, residual, has)


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
    return float(_mean_rewards(tokens, n, reward, tuple(ref))[0])


def _mean_rewards(tokens, n, reward, ref):
    """The mean reward of each consecutive block of n rows of ``tokens``,
    summed left to right. A reward with a ``batch(tokens, ref)`` method
    scores all rows in one call; otherwise it is called once per row. Both
    give the same numbers."""
    batch = getattr(reward, "batch", None)
    if batch is None:
        scores = np.array([reward(tuple(row), ref) for row in tokens.tolist()], dtype=np.float64)
    else:
        scores = np.asarray(batch(tokens, ref), dtype=np.float64)
        if scores.shape != (len(tokens),):
            raise ContractError(
                f"reward.batch returned shape {scores.shape}, expected ({len(tokens)},)"
            )
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ContractError("reward.batch returned values outside [0, 1]")
    # cumsum adds in row order, as a Python loop over the rows would
    return np.cumsum(scores.reshape(-1, n), axis=1)[:, -1] / n


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
    residual sample per position, for one sentence or a batch of them.

    Per position: exact-weight gradient terms for the top-k tokens (reward
    estimated by Monte Carlo unless ``exact_rewards``), then, if residual
    mass remains, one sample from the renormalized remainder contributes a
    REINFORCE term weighted by the leftover mass. Reward estimates and the
    leftover mass are treated as constants; only probabilities carry
    gradient (realized through the returned surrogate scalar).

    With a T x V ``dist``, ``ref`` is one reference and ``rng`` one
    ``Generator``; ``dprobs`` is T x V. With a B x T x V ``dist``, ``ref``
    and ``rng`` hold one reference and one stream per sentence; ``dprobs``
    is B x T x V and the surrogate is the sum of the sentences' surrogates,
    added in sentence order. Sentences are independent: each one's numbers
    are those of a call with that sentence alone.

    The streams are derived from each sentence stream's seed sequence (see
    the module docstring), which must be numpy's ``SeedSequence`` with its
    default pool size behind a ``PCG64``. The call reads that seed sequence
    but does not advance its spawn counter, unlike ``Generator.spawn``: a
    second call with the same stream repeats the estimate, so give each
    call a fresh stream (for instance one of ``rng.spawn(n)``).

    A reward with a ``batch(tokens, ref)`` method scores all of a
    sentence's sampled completions in one call; otherwise it is called once
    per completion. Both give the same numbers.
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
    k = config.k
    if k > V:
        raise ContractError(f"k={k} exceeds vocabulary size {V}")
    part = top_k_partition(probs, k, config.residual_epsilon)
    streams = _StreamTree(rngs, T, k + 1)

    # the residual sample of each position, from the position's own stream;
    # counting the CDF entries <= u is searchsorted(side="right")
    u = np.zeros((B, T))
    for b, t in zip(*np.nonzero(part.has_residual)):
        u[b, t] = streams.seeded(streams.position_words[b, t].tolist()).random()
    cum = np.cumsum(part.residual, axis=-1)
    drawn = np.minimum(np.count_nonzero(cum <= u[..., None], axis=-1), V - 1)

    # the plan: candidates (b, t, j, y) in sentence, position, candidate
    # order; j < k are the members, j = k the residual sample
    candidates = np.concatenate([part.members, drawn[..., None]], axis=-1)
    planned = np.concatenate(
        [np.ones(part.members.shape, dtype=bool), part.has_residual[..., None]], axis=-1
    )
    cb, ct, cj = np.nonzero(planned)
    cy = candidates[cb, ct, cj]
    ends = np.cumsum(planned.reshape(B, -1).sum(axis=1)).tolist()
    starts = [0] + ends[:-1]

    if exact_rewards:
        sentences = [PositionDistributions(p) for p in probs]
        values = np.array([
            exact_reward_at(sentences[b], t, y, reward, refs[b])
            for b, t, y in zip(cb.tolist(), ct.tolist(), cy.tolist())
        ])
    else:
        n = config.n
        u = np.empty((len(cb), n, T))
        for c, words in enumerate(streams.candidate_words[cb, ct, cj].tolist()):
            streams.seeded(words).random(out=u[c])
        values = np.empty(len(cb))
        for b, lo, hi in zip(range(B), starts, ends):
            sampled = _sample_completions(probs[b], u[lo:hi].reshape(-1, T))
            sampled[np.arange(len(sampled)), np.repeat(ct[lo:hi], n)] = np.repeat(cy[lo:hi], n)
            values[lo:hi] = _mean_rewards(sampled, n, reward, refs[b])

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


# numpy's SeedSequence mixing and PCG64 seeding constants
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_POOL_SIZE = 4
# MULT_A^0..8: the hash constants of the next 8 hashmix calls, times the current one
_MULT_A_POWERS = np.array([pow(_MULT_A, i, 1 << 32) for i in range(9)], dtype=np.uint32)
# generate_state's hash constant before and after each of the 8 words of 4 uint64
_GEN_CONSTS = np.array(
    [[_INIT_B * pow(_MULT_B, i + d, 1 << 32) & _MASK32 for i in range(8)] for d in (0, 1)],
    dtype=np.uint32,
)


def _uint32_words(x):
    """SeedSequence's coercion of an int or a nested sequence of ints into
    little-endian uint32 words."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK32]
        while x > _MASK32:
            x >>= 32
            words.append(x & _MASK32)
        return words
    return [w for v in x for w in _uint32_words(v)]


def _hashmix(value, before, after):
    v = (value ^ before) * after
    return v ^ (v >> np.uint32(16))


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


class _StreamTree:
    """The position and candidate streams of one ``reinforce_nat_step``.

    A child stream's SeedSequence pool is its parent's entropy words plus
    the child's spawn index, mixed. Every child of a sentence shares the
    mixing of all words but its last one or two, so numpy mixes that prefix
    once per sentence and the remaining words are mixed here, vectorized
    over every child. ``generate_state(4, uint64)`` of a pool, turned into a
    PCG64 state by PCG64's seeding step, is set on one reused ``PCG64``
    before drawing.
    """

    def __init__(self, rngs, T, K):
        B = len(rngs)
        pools = np.empty((B, _POOL_SIZE), dtype=np.uint32)
        consts = np.empty((B, 1), dtype=np.uint32)
        first = np.empty((B, 1), dtype=np.int64)
        for b, rng in enumerate(rngs):
            seq = _seed_sequence(rng)
            # SeedSequence pads the run entropy to the pool size when a
            # spawn key follows, as it always does for a child; a
            # SeedSequence of these words alone (no spawn key, so no
            # padding) mixes exactly the children's shared prefix
            words = _uint32_words(seq.entropy)
            words += [0] * (_POOL_SIZE - len(words)) + _uint32_words(seq.spawn_key)
            pools[b] = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool
            # mixing w words makes 4 w hashmix calls
            consts[b] = _INIT_A * pow(_MULT_A, 4 * len(words), 1 << 32) & _MASK32
            first[b] = seq.n_children_spawned
        if int(first.max()) + T > _MASK32:
            raise ContractError("a sentence stream has spawned too many children")
        hc = consts * _MULT_A_POWERS
        index = (first + np.arange(T)).astype(np.uint32)[..., None]
        pos = _mix(pools[:, None], _hashmix(index, hc[:, None, 0:4], hc[:, None, 1:5]))
        j = np.arange(K, dtype=np.uint32)[:, None]
        cand = _mix(pos[:, :, None], _hashmix(j, hc[:, None, 4:8], hc[:, None, 5:9])[:, None])
        # generate_state(4, uint64) of position (b, t) and of candidate (b, t, j)
        self.position_words = _generate_state(pos)
        self.candidate_words = _generate_state(cand)
        self.bitgen = np.random.PCG64(0)
        self.gen = np.random.Generator(self.bitgen)
        self.state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}

    def seeded(self, words):
        """The reused generator set to the PCG64 state of the given
        ``generate_state(4, uint64)`` words."""
        s_hi, s_lo, i_hi, i_lo = words
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        self.state["state"] = {"state": state, "inc": inc}
        self.bitgen.state = self.state
        return self.gen


def _seed_sequence(rng):
    bitgen = getattr(rng, "bit_generator", None)
    seq = getattr(bitgen, "seed_seq", None)
    if not isinstance(bitgen, np.random.PCG64) or not isinstance(seq, np.random.SeedSequence):
        raise ContractError(
            f"estimator streams must be PCG64 generators seeded by a SeedSequence, "
            f"got {type(bitgen).__name__}"
        )
    if seq.pool_size != _POOL_SIZE:
        raise ContractError(
            f"estimator streams need a SeedSequence pool_size of {_POOL_SIZE}, got {seq.pool_size}"
        )
    return seq


def _generate_state(pools):
    """SeedSequence.generate_state(4, np.uint64) of each pool in the last axis."""
    v = _hashmix(np.concatenate([pools, pools], axis=-1), _GEN_CONSTS[0], _GEN_CONSTS[1])
    return v.astype("<u4").view("<u8")


@dataclass
class EstimatorStats:
    mean_dprobs: np.ndarray
    per_entry_variance: np.ndarray
    total_variance: float
    repetitions: int


# repetitions per batched call of reinforce_nat_stats; bounds its memory
_STATS_CHUNK = 500


def _moments(repetitions, rng, estimate, chunk):
    """Sample mean and unbiased per-entry variance of the ``dprobs`` rows that
    ``estimate`` returns for each run of up to ``chunk`` streams of
    ``rng.spawn(repetitions)``, added in repetition order."""
    if repetitions < 2:
        raise ContractError(f"repetitions must be >= 2, got {repetitions}")
    streams = rng.spawn(repetitions)
    acc = acc_sq = 0.0  # the first row's += makes each its own array
    for lo in range(0, repetitions, chunk):
        for d in estimate(streams[lo : lo + chunk]):
            acc += d
            acc_sq += d * d
    mean = acc / repetitions
    var = (acc_sq - repetitions * mean * mean) / (repetitions - 1)
    np.maximum(var, 0.0, out=var)
    return EstimatorStats(mean, var, float(var.sum()), repetitions)


def estimator_stats(dist, estimator, repetitions, rng):
    """Sample mean and unbiased per-entry variance of an estimator over
    independent repetitions. ``estimator`` maps an RNG to a GradientEstimate
    and runs once per repetition: the per-stream reference that
    ``reinforce_nat_stats`` equals bitwise."""
    return _moments(repetitions, rng, lambda streams: [estimator(s).dprobs for s in streams], 1)


def reinforce_nat_stats(dist, config, reward, ref, repetitions, rng):
    """``estimator_stats`` of ``reinforce_nat_step`` on one T x V ``dist``
    and reference, with the same streams and bitwise the same numbers, but
    each chunk of repetitions runs as one batched call."""

    def estimate(streams):
        B = len(streams)
        batch = PositionDistributions(np.broadcast_to(dist.probs, (B, dist.T, dist.V)))
        return reinforce_nat_step(batch, config, reward, [ref] * B, streams).dprobs

    return _moments(repetitions, rng, estimate, _STATS_CHUNK)


def total_variance_sweep(ks, T, V, config, instances, repetitions, reward, seed):
    """Per k in ``ks``, the total variance of ``reinforce_nat_step`` on each
    random T x V instance, under ``config`` with its k replaced by k (so its
    n and residual_epsilon apply). Instance i draws Dirichlet(3) rows and a
    uniform reference from the stream ``(seed, i)``; its repetitions for width k
    spawn from ``(seed, i, k)``. Moderately flat instances keep the sweep
    stable: near-zero probabilities make the score-function term heavy-tailed.
    """
    cases = []
    for i in range(instances):
        rng = np.random.default_rng((seed, i))
        dist = random_distributions(T, V, rng, concentration=3.0)
        cases.append((dist, tuple(int(x) for x in rng.integers(0, V, size=T))))
    totals = []
    for k in ks:
        at_k = replace(config, k=k)
        totals.append([
            reinforce_nat_stats(
                dist, at_k, reward, ref, repetitions, np.random.default_rng((seed, i, k))
            ).total_variance
            for i, (dist, ref) in enumerate(cases)
        ])
    return totals


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
