"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what the models and the losses record. Besides
``scale`` (a product with a constant) and ``dropout``, each op is a fused
layer that records one node:

* ``linear``: ``x @ w + b``;
* ``feed_forward``: linear, ReLU, linear;
* ``attention``: multi-head scaled dot-product attention with its output
  projection;
* ``token_embedding``: an embedding gather times a constant plus positions;
* ``linear_softmax``: the softmax head, linear then a row softmax;
* ``fuse_relu``: the FS fusion ``relu(h @ w + y @ u)``;
* ``layer_norm`` over a residual sum;
* ``nll``: the token loss, a scaled sum of picked log-probabilities;
* ``score_surrogate``: the estimator's score-function surrogate.

The differentiable arguments of an op are ``Tensor``s; constants (a scale,
indices, a mask) are numbers or arrays.

Broadcasting is the numpy kind but is only exercised for bias rows, batched
matmul and attention over a shared 2-D query/key set.

All math is float64. At this scale a step costs Python-level numpy calls
more than arithmetic, so two rules keep the calls few. A chain of ops whose
intermediates each have one consumer is one fused node. And every op calls
numpy's C entry points, not its Python wrappers: ``np.add.reduce`` and
``np.maximum.reduce`` rather than ``.sum``, ``np.sum`` or ``.max``, and the
``.swapaxes`` method rather than ``np.swapaxes``. A fused node's numbers are
bitwise those of the composed ops: the same numpy calls on arrays of the
same memory layout, with parents in the order that makes ``backward``
accumulate shared gradients in the same order.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, GraphError

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


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def scale(x, c):
    """``x * c`` for a constant ``c``: a number or an array of ``x``'s shape."""

    def backward(g):
        x._accumulate(g * c)

    return Tensor(x.data * c, _parents=(x,), _backward=backward)


def _check_inner(op, a_shape, w_shape):
    if len(a_shape) < 2 or len(w_shape) != 2 or a_shape[-1] != w_shape[0]:
        raise ContractError(f"{op} inner dimensions disagree: {a_shape} x {w_shape}")


def _weight_grads(g, x_data, w, b=None):
    """Accumulate the gradients of the 2-D weight ``w`` and the bias ``b``
    of ``x @ w (+ b)`` from the output gradient ``g``."""
    if w.requires_grad:
        w._accumulate(_unbroadcast(x_data.swapaxes(-1, -2) @ g, w.data.shape))
    if b is not None and b.requires_grad:
        b._accumulate(_unbroadcast(g, b.data.shape))


def linear(x, w, b):
    """``x @ w + b`` as one node."""
    x_data = x.data
    _check_inner("linear", x_data.shape, w.data.shape)
    out_data = x_data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        _weight_grads(g, x_data, w, b)

    return Tensor(out_data, _parents=(x, w, b), _backward=backward)


def feed_forward(x, w1, b1, w2, b2):
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one node; the ReLU's
    subgradient at exactly 0 is 0."""
    x_data = x.data
    _check_inner("linear", x_data.shape, w1.data.shape)
    hidden = x_data @ w1.data + b1.data
    mask = hidden > 0.0
    act = np.where(mask, hidden, 0.0)
    _check_inner("linear", act.shape, w2.data.shape)
    out_data = act @ w2.data + b2.data

    def backward(g):
        _weight_grads(g, act, w2, b2)
        g_hidden = (g @ w2.data.T) * mask
        if x.requires_grad:
            x._accumulate(g_hidden @ w1.data.T)
        _weight_grads(g_hidden, x_data, w1, b1)

    return Tensor(out_data, _parents=(x, w1, b1, w2, b2), _backward=backward)


def _to_heads(a, n_head):
    # (..., T, d) -> (..., h, T, d/h), a view
    return a.reshape(a.shape[:-1] + (n_head, -1)).swapaxes(-3, -2)


def _from_heads(a):
    # (..., h, T, d/h) -> (..., T, d)
    a = a.swapaxes(-3, -2)
    return a.reshape(a.shape[:-2] + (-1,))


def _softmax(x):
    e = np.exp(x - np.maximum.reduce(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_grad(g, p):
    """The gradient with respect to the logits of ``p`` = softmax(logits)
    along the last axis, given ``g``, the gradient with respect to ``p``:
    the softmax Jacobian's product ``p * (g - <p, g>)``. A constant added to
    a row of ``g`` changes nothing."""
    return p * (g - np.add.reduce(g * p, axis=-1, keepdims=True))


def attention(q, k, v, n_head, scale, wo, bo, mask=None):
    """Multi-head scaled dot-product attention and its output projection
    as one node.

    ``q`` is (..., T_q, d), ``k`` and ``v`` are (..., T_k, d), already
    projected; leading axes broadcast (a 2-D query/key set may serve a
    batch of values). Heads are the ``n_head`` equal slices of the last
    axis. ``mask`` (broadcast to the scores, (..., T_q, T_k)) marks the
    keys a query may not see. Returns ``heads @ wo + bo`` of the merged
    heads, (..., T_q, d_out).
    """
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    if not q_shape[-1] == k_shape[-1] == v_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ContractError(f"attention shapes disagree: q {q_shape}, k {k_shape}, v {v_shape}")
    if q_shape[-1] % n_head:
        raise ContractError(f"width {q_shape[-1]} not divisible by n_head={n_head}")
    qh, kh, vh = _to_heads(q.data, n_head), _to_heads(k.data, n_head), _to_heads(v.data, n_head)
    kt = kh.swapaxes(-1, -2)
    scores = (qh @ kt) * scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        scores = np.where(mask, -1e9, scores)
    probs = _softmax(scores)
    heads = _from_heads(probs @ vh)
    _check_inner("linear", heads.shape, wo.data.shape)
    out_data = heads @ wo.data + bo.data

    def backward(g):
        _weight_grads(g, heads, wo, bo)
        # the head-split gradient is contiguous, as the composed graph's was
        g_ctx = np.ascontiguousarray(_to_heads(g @ wo.data.T, n_head))
        if v.requires_grad:
            g_v = _unbroadcast(probs.swapaxes(-1, -2) @ g_ctx, vh.shape)
            v._accumulate(_from_heads(g_v))
        if not (q.requires_grad or k.requires_grad):
            return
        g_probs = _unbroadcast(g_ctx @ vh.swapaxes(-1, -2), probs.shape)
        g_scores = softmax_grad(g_probs, probs)
        if mask is not None:
            g_scores = np.where(mask, 0.0, g_scores)
        g_scores = g_scores * scale
        if q.requires_grad:
            q._accumulate(_from_heads(_unbroadcast(g_scores @ kh, qh.shape)))
        if k.requires_grad:
            g_kt = _unbroadcast(qh.swapaxes(-1, -2) @ g_scores, kt.shape)
            k._accumulate(_from_heads(g_kt.swapaxes(-1, -2)))

    return Tensor(out_data, _parents=(q, k, v, wo, bo), _backward=backward)


def token_embedding(weight, ids, scale, positions):
    """``weight[ids] * scale + positions`` as one node: rows of ``weight``
    gathered by an integer index array, times the constant ``scale``, plus
    the constant array ``positions`` (broadcast over leading axes)."""
    ids = np.asarray(ids, dtype=np.int64)
    out_data = weight.data[ids] * scale + positions

    def backward(g):
        if not weight.requires_grad:
            return
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), (g * scale).reshape(-1, weight.data.shape[-1]))
        weight._accumulate(dw)

    return Tensor(out_data, _parents=(weight,), _backward=backward)


def linear_softmax(x, w, b):
    """The softmax head as one node: ``x @ w + b``, then a softmax along
    the last axis with max-subtraction for stability."""
    x_data = x.data
    _check_inner("linear", x_data.shape, w.data.shape)
    out_data = _softmax(x_data @ w.data + b.data)

    def backward(g):
        g_logits = softmax_grad(g, out_data)
        if x.requires_grad:
            x._accumulate(g_logits @ w.data.T)
        _weight_grads(g_logits, x_data, w, b)

    return Tensor(out_data, _parents=(x, w, b), _backward=backward)


def fuse_relu(h, w, y, u):
    """``relu(h @ w + y @ u)`` as one node, for 2-D ``w`` and ``u``: the FS
    decoder's fusion of bottom states ``h`` with target embeddings ``y``.
    The ReLU's subgradient at exactly 0 is 0."""
    h_data, y_data = h.data, y.data
    _check_inner("matmul", h_data.shape, w.data.shape)
    _check_inner("matmul", y_data.shape, u.data.shape)
    total = h_data @ w.data + y_data @ u.data
    mask = total > 0.0
    out_data = np.where(mask, total, 0.0)

    def backward(g):
        g = g * mask
        if h.requires_grad:
            h._accumulate(g @ w.data.T)
        _weight_grads(g, h_data, w)
        if y.requires_grad:
            y._accumulate(g @ u.data.T)
        _weight_grads(g, y_data, u)

    return Tensor(out_data, _parents=(h, w, y, u), _backward=backward)


def layer_norm(x, gain, bias, residual):
    """Normalize the residual connection's sum ``x + residual`` over the last
    axis by ``sqrt(var + 1e-5)``, then scale and shift, in one node with the
    numbers of an ``add`` node followed by the norm."""
    data = x.data + residual.data
    # the moments numpy's mean and var compute, without their Python layer
    n = data.shape[-1]
    centered = data - np.add.reduce(data, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centered), axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    out_data = gain.data * xhat + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gain._accumulate(_unbroadcast(np.add.reduce(g * xhat, axis=lead), gain.data.shape))
        bias._accumulate(_unbroadcast(np.add.reduce(g, axis=lead), bias.data.shape))
        dxhat = g * gain.data
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
        dx = inv_std * (dxhat - m1 - xhat * m2)
        for t in (x, residual):
            t._accumulate(_unbroadcast(dx, t.data.shape))

    return Tensor(out_data, _parents=(x, residual, gain, bias), _backward=backward)


def nll(x, index, scale):
    """The token loss as one node: ``scale`` times the sum of ``log x[index]``,
    a scalar, for a tuple ``index`` of integer arrays. The value and the
    gradient are bitwise those of the composed gather, log, sum and ``scale``
    chain; an entry picked twice gets its gradient twice."""
    picked = x.data[index]
    out_data = np.add.reduce(np.log(picked), axis=None) * scale

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, index, np.broadcast_to(g * scale, picked.shape) / picked)
        x._accumulate(dx)

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
    ``take``, ``log``, ``scale``, ``tsum`` chain per part and segment joined
    by ``add``: each sum is one ``np.add.reduce`` over the part's entries in
    index order, and the gradient at entry i is ``(g * -1) * w``, divided by
    ``x[i]`` when it is logged.
    """
    index = tuple(np.asarray(i, dtype=np.int64) for i in index)
    weights = np.asarray(weights, dtype=np.float64)
    logged = np.asarray(logged, dtype=bool)
    picked = x.data[index]
    # each segment's plain entries, then its logged ones, in index order
    key = 2 * np.asarray(segments, dtype=np.int64) + logged
    order = key.argsort(kind="stable")
    terms = picked * weights
    terms[logged] = np.log(picked[logged]) * weights[logged]
    terms, key = terms[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    sums = {}
    for lo, hi, k in zip(starts, starts[1:] + [len(key)], key[starts].tolist()):
        part = np.add.reduce(terms[lo:hi], axis=None)
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
    if not training or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)
    return scale(x, keep)
