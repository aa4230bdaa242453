"""Dense float64 tensors with reverse-mode automatic differentiation.

The primitive set is deliberately small: exactly what a small Transformer
and the surrogate losses need (matmul, add/mul, relu, log, row softmax,
layer norm, embedding gather, entry gather, slice, sum, dropout),
plus fused layers: ``linear``, multi-head ``attention``, ``layer_norm``
over a residual sum, and the estimator's ``score_surrogate``.
Broadcasting is the numpy kind but is only exercised for bias rows, batched
matmul and attention over a shared 2-D query/key set.

All math is float64. At this scale a step costs Python-level numpy calls
more than arithmetic, so a fused layer records one node where the composed
ops recorded several. Its numbers are bitwise those of the composed ops:
the same numpy calls on arrays of the same memory layout, with parents in
the order that makes ``backward`` accumulate shared gradients in the same
order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """Backward invoked on something that is not a recorded scalar, or a
    graph-free operation called while gradients are recorded."""


# Read by every Tensor construction; switched off only by ``no_grad``.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run operations without recording the compute graph.

    Inside the block, operation results get no parents, no backward closure
    and ``requires_grad=False``; a tensor created with ``requires_grad=True``
    (a parameter) keeps its flag. The previous mode is restored on exit,
    also when the block raises, so blocks nest.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled():
    return _grad_enabled


class Tensor:
    """A dense array plus an optional gradient slot.

    Tensors are immutable after forward creation except for ``grad``.
    Operations record their parents and a backward closure, forming an
    implicit compute graph that ``backward`` walks in reverse topological
    order, visiting each node exactly once. Gradients accumulate
    additively across uses of the same tensor. Under ``no_grad`` nothing
    is recorded.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _grad_enabled and _parents:
            self.requires_grad = bool(requires_grad) or any(
                p.requires_grad for p in _parents
            )
            self._parents = tuple(_parents)
            self._backward_fn = _backward
        else:
            self.requires_grad = bool(requires_grad)
            self._parents = ()
            self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            # keeps the data's memory layout, which numpy's matmul is
            # sensitive to when the gradient is fed back into it
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self):
        """Populate ``grad`` of every reachable requires_grad tensor."""
        if self.data.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def linear(x, w, b):
    """``x @ w + b`` as one node; the same numbers as ``add(matmul(x, w), b)``."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} x {w.shape}")
    out_data = x.data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(x, w, b), _backward=backward)


def _to_heads(a, n_head):
    # (..., T, d) -> (..., h, T, d/h), a view
    *lead, T, d = a.shape
    return np.swapaxes(a.reshape(*lead, T, n_head, d // n_head), -3, -2)


def _from_heads(a):
    # (..., h, T, d/h) -> (..., T, d)
    a = np.swapaxes(a, -3, -2)
    return a.reshape(*a.shape[:-2], -1)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g, p):
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def attention(q, k, v, n_head, scale, mask=None):
    """Multi-head scaled dot-product attention as one node.

    ``q`` is (..., T_q, d), ``k`` and ``v`` are (..., T_k, d), already
    projected; leading axes broadcast (a 2-D query/key set may serve a
    batch of values). Heads are the ``n_head`` equal slices of the last
    axis. ``mask`` (broadcast to the scores, (..., T_q, T_k)) marks the
    keys a query may not see. Returns the merged heads, (..., T_q, d).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if not q.shape[-1] == k.shape[-1] == v.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    if q.shape[-1] % n_head:
        raise ShapeError(f"width {q.shape[-1]} not divisible by n_head={n_head}")
    qh, kh, vh = (_to_heads(t.data, n_head) for t in (q, k, v))
    kt = np.swapaxes(kh, -1, -2)
    scores = (qh @ kt) * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        scores = np.where(mask, -1e9, scores)
    probs = _softmax(scores)
    out_data = _from_heads(probs @ vh)

    def backward(g):
        # the head-split gradient is contiguous, as the composed graph's was
        g_ctx = np.ascontiguousarray(_to_heads(g, n_head))
        if v.requires_grad:
            g_v = _unbroadcast(np.swapaxes(probs, -1, -2) @ g_ctx, vh.shape)
            v._accumulate(_from_heads(g_v))
        if not (q.requires_grad or k.requires_grad):
            return
        g_probs = _unbroadcast(g_ctx @ np.swapaxes(vh, -1, -2), probs.shape)
        g_scores = _softmax_grad(g_probs, probs)
        if mask is not None:
            g_scores = np.where(mask, 0.0, g_scores)
        g_scores = g_scores * scale
        if q.requires_grad:
            q._accumulate(_from_heads(_unbroadcast(g_scores @ kh, qh.shape)))
        if k.requires_grad:
            g_kt = _unbroadcast(np.swapaxes(qh, -1, -2) @ g_scores, kt.shape)
            k._accumulate(_from_heads(np.swapaxes(g_kt, -1, -2)))

    return Tensor(out_data, _parents=(q, k, v), _backward=backward)


def relu(x):
    x = as_tensor(x)
    # subgradient at exactly 0 is 0
    mask = x.data > 0.0
    out_data = np.where(mask, x.data, 0.0)

    def backward(g):
        x._accumulate(g * mask)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def log(x):
    x = as_tensor(x)
    out_data = np.log(x.data)

    def backward(g):
        x._accumulate(g / x.data)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def softmax_rows(x):
    """Softmax along the last axis with max-subtraction for stability."""
    x = as_tensor(x)
    out_data = _softmax(x.data)

    def backward(g):
        x._accumulate(_softmax_grad(g, out_data))

    return Tensor(out_data, _parents=(x,), _backward=backward)


def layer_norm(x, gain, bias, residual=None):
    """Normalize the last axis by ``sqrt(var + 1e-5)``, then scale and shift.
    With ``residual`` the input is the residual connection's sum
    ``x + residual``, in one node with the same numbers as
    ``layer_norm(add(x, residual), ...)``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if residual is None:
        inputs, data = (x,), x.data
    else:
        residual = as_tensor(residual)
        inputs, data = (x, residual), x.data + residual.data
    # the moments numpy's mean and var compute, without their Python layer
    n = data.shape[-1]
    centered = data - data.sum(axis=-1, keepdims=True) / n
    var = np.square(centered).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    out_data = gain.data * xhat + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gain._accumulate(_unbroadcast((g * xhat).sum(axis=lead), gain.data.shape))
        bias._accumulate(_unbroadcast(g.sum(axis=lead), bias.data.shape))
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / n
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
        dx = inv_std * (dxhat - m1 - xhat * m2)
        for t in inputs:
            t._accumulate(_unbroadcast(dx, t.data.shape))

    return Tensor(out_data, _parents=(*inputs, gain, bias), _backward=backward)


def embedding(weight, ids):
    """Gather rows of ``weight`` by an integer index array."""
    weight = as_tensor(weight)
    ids = np.asarray(ids, dtype=np.int64)
    out_data = weight.data[ids]

    def backward(g):
        if not weight.requires_grad:
            return
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(dw)

    return Tensor(out_data, _parents=(weight,), _backward=backward)


def take(x, indices):
    """Gather entries by a tuple of integer index arrays (fancy indexing)."""
    x = as_tensor(x)
    indices = tuple(np.asarray(i, dtype=np.int64) for i in indices)
    out_data = x.data[indices]

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, indices, g)
        x._accumulate(dx)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def slice_axis(x, axis, start, stop):
    """Contiguous slice along one axis."""
    x = as_tensor(x)
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out_data = x.data[index]

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[index] = g
        x._accumulate(dx)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def tsum(x):
    """The sum of every entry, a scalar."""
    x = as_tensor(x)
    out_data = x.data.sum()

    def backward(g):
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return Tensor(out_data, _parents=(x,), _backward=backward)


def score_surrogate(x, index, weights, logged, segments):
    """A score-function surrogate as one node: over the segments in
    increasing order, the sum of each segment's
    ``-(sum of x[i] * w over its plain entries + sum of log x[i] * w over
    its logged entries)``.

    ``index`` is a tuple of integer arrays picking N entries of ``x``;
    ``weights``, ``logged`` (bool) and ``segments`` (non-negative ints)
    hold one value per entry. A part with no entries adds no term, and a
    segment with none adds no summand. The numbers are those of one
    ``take``, ``log``, ``mul``, ``tsum`` chain per part and segment joined
    by ``add``: each sum is an ``np.sum`` over the part's entries in index
    order, and the gradient at entry i is ``(g * -1) * w``, divided by
    ``x[i]`` when it is logged.
    """
    x = as_tensor(x)
    index = tuple(np.asarray(i, dtype=np.int64) for i in index)
    weights = np.asarray(weights, dtype=np.float64)
    logged = np.asarray(logged, dtype=bool)
    picked = x.data[index]
    # each segment's plain entries, then its logged ones, in index order
    key = 2 * np.asarray(segments, dtype=np.int64) + logged
    order = np.argsort(key, kind="stable")
    terms = picked * weights
    terms[logged] = np.log(picked[logged]) * weights[logged]
    terms, key = terms[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    sums = {}
    for lo, hi, k in zip(starts, starts[1:] + [len(key)], key[starts].tolist()):
        part = np.sum(terms[lo:hi])
        sums[k // 2] = sums[k // 2] + part if k // 2 in sums else part
    # the first segment starts the total, as the add chain did: 0.0 + -0.0
    # would turn a negative zero positive
    total = 0.0
    for i, s in enumerate(sums.values()):
        total = -s if i == 0 else total + -s

    def backward(g):
        dx_vals = (g * -1.0) * weights
        dx_vals[logged] = dx_vals[logged] / picked[logged]
        dx = np.zeros_like(x.data)
        np.add.at(dx, index, dx_vals)
        x._accumulate(dx)

    return Tensor(total, _parents=(x,), _backward=backward)


def dropout(x, p, rng, training):
    """Inverted dropout with an explicit RNG stream; identity when not training."""
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return mul(x, keep)


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
    entries: list = field(default_factory=list, repr=False)


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
    if not isinstance(first, Tensor) or first.data.size != 1:
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
            report.entries.append(entry)
            if err >= report.max_rel_error:
                report.max_rel_error = err
                report.worst = entry
    report.passed = report.max_rel_error <= tol
    return report
