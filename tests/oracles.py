"""Reference implementations that only the tests run.

The enumeration oracles give the exact gradient of the expected reward
that the estimators must match, the per-position one from
``exact_reward_at``, the expected reward with one position clamped, by
enumeration; ``random_reward_table`` is a dense reward they are checked on;
``grad_check`` compares the autodiff gradients with central finite
differences. ``take``, ``log`` and ``tsum`` are graph primitives that only
the tests record: the composed token loss that ``tensor.nll`` fuses, and
readouts to a scalar.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from nsqt import estimators as est
from nsqt import tensor as tc
from nsqt.errors import CapacityError, GraphError


def take(x, indices):
    """Gather entries by a tuple of integer index arrays (fancy indexing)."""
    indices = tuple(np.asarray(i, dtype=np.int64) for i in indices)
    out_data = x.data[indices]

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, indices, g)
        x._accumulate(dx)

    return tc.Tensor(out_data, _parents=(x,), _backward=backward)


def log(x):
    def backward(g):
        x._accumulate(g / x.data)

    return tc.Tensor(np.log(x.data), _parents=(x,), _backward=backward)


def tsum(x):
    """The sum of every entry, a scalar."""

    def backward(g):
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return tc.Tensor(np.add.reduce(x.data, axis=None), _parents=(x,), _backward=backward)


def exact_reward_at(dist, t, y, reward, ref):
    """Expected reward with position t clamped to token y, by enumeration."""
    T, V = dist.T, dist.V
    if V ** max(T - 1, 0) > est.ENUM_LIMIT:
        raise CapacityError(
            f"V^(T-1) = {V}^{T - 1} exceeds the enumeration bound {est.ENUM_LIMIT}"
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


def enumerate_gradient_direct(dist, reward, ref):
    """Gradient of the negative expected reward by enumerating every full
    sequence and differentiating the probability product directly."""
    T, V = dist.T, dist.V
    if V**T > est.ENUM_LIMIT:
        raise CapacityError(f"V^T = {V}^{T} exceeds the enumeration bound {est.ENUM_LIMIT}")
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
    return est.GradientEstimate(dprobs)


def enumerate_gradient_factored(dist, reward, ref):
    """Gradient via the per-position decomposition: entry (t, y) is the
    negative expected reward with position t clamped to y."""
    T, V = dist.T, dist.V
    if V**T > est.ENUM_LIMIT:
        raise CapacityError(f"V^T = {V}^{T} exceeds the enumeration bound {est.ENUM_LIMIT}")
    dprobs = np.empty((T, V))
    for t in range(T):
        for y in range(V):
            dprobs[t, y] = -exact_reward_at(dist, t, y, reward, ref)
    return est.GradientEstimate(dprobs)


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


@dataclass
class GradCheckEntry:
    param_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    passed: bool
    worst: GradCheckEntry | None = None


def _rel_error(a, n):
    denom = max(abs(a), abs(n))
    if denom < 1e-6:
        return abs(a - n)
    return abs(a - n) / denom


def grad_check(f, params, step=1e-5, tol=1e-5):
    """Compare analytic gradients of ``f()`` against central finite differences.

    ``f`` must be a deterministic scalar-valued function of the tensors in
    ``params``, re-recording its graph on every call. Returns a report whose
    ``passed`` flag is true iff the max relative error is within ``tol``.
    """
    params = list(params)
    first = f()
    second = f()
    if not isinstance(first, tc.Tensor) or first.data.size != 1:
        raise GraphError("grad_check target must return a scalar Tensor")
    if first.item() != second.item():
        raise GraphError("grad_check target is non-deterministic")
    for p in params:
        p.zero_grad()
    second.backward()
    analytic = [
        np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params
    ]
    report = GradCheckReport(max_rel_error=0.0, tol=tol, passed=True)
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f().item()
            flat[i] = orig - step
            down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            a = float(analytic[pi].reshape(-1)[i])
            err = _rel_error(a, numeric)
            entry = GradCheckEntry(pi, i, a, numeric, err)
            if err >= report.max_rel_error:
                report.max_rel_error = err
                report.worst = entry
    report.passed = report.max_rel_error <= tol
    return report
