"""Reference implementations that only the tests run.

The enumeration oracles give the exact gradient of the expected reward
that the estimators must match, the per-position one from
``exact_reward_at``, the expected reward with one position clamped, by
enumeration; ``random_reward_table`` is a dense reward they are checked on;
``grad_check`` compares the autodiff gradients with central finite
differences. ``take``, ``log``, ``tsum`` and ``mul`` are graph primitives
that only the tests record: the composed token loss that ``tensor.nll``
fuses, readouts to a scalar and products of two recorded tensors;
``as_tensor`` wraps a constant for them.

``linear``, ``feed_forward``, ``attention`` and ``layer_norm`` are the
per-op graph the transformer layers recorded before each layer became one
node, and ``encoder_layer``, ``nat_decoder_layer`` and ``ar_decoder_layer``
compose them as those layers did; ``per_op_layers`` makes the models record
that graph. It is the oracle the layer nodes must match bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from nsqt import estimators as est
from nsqt import models
from nsqt import tensor as tc
from nsqt.errors import CapacityError, ContractError, GraphError


def as_tensor(x):
    return x if isinstance(x, tc.Tensor) else tc.Tensor(x)


def mul(a, b):
    """The elementwise product, with a gradient for each operand."""
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(tc.unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(tc.unbroadcast(g * a.data, b.data.shape))

    return tc.Tensor(a.data * b.data, _parents=(a, b), _backward=backward)


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


def linear(x, w, b):
    """``x @ w + b`` as one node."""
    x_data = x.data
    tc._check_inner("linear", x_data.shape, w.data.shape)
    out_data = x_data @ w.data + b.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        tc.weight_grads(g, x_data, w, b)

    return tc.Tensor(out_data, _parents=(x, w, b), _backward=backward)


def feed_forward(x, w1, b1, w2, b2):
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one node; the ReLU's
    subgradient at exactly 0 is 0."""
    x_data = x.data
    tc._check_inner("linear", x_data.shape, w1.data.shape)
    hidden = x_data @ w1.data + b1.data
    mask = hidden > 0.0
    act = np.where(mask, hidden, 0.0)
    tc._check_inner("linear", act.shape, w2.data.shape)
    out_data = act @ w2.data + b2.data

    def backward(g):
        tc.weight_grads(g, act, w2, b2)
        g_hidden = (g @ w2.data.T) * mask
        if x.requires_grad:
            x._accumulate(g_hidden @ w1.data.T)
        tc.weight_grads(g_hidden, x_data, w1, b1)

    return tc.Tensor(out_data, _parents=(x, w1, b1, w2, b2), _backward=backward)


def _to_heads(a, n_head):
    # (..., T, d) -> (..., h, T, d/h), a view
    return a.reshape(a.shape[:-1] + (n_head, -1)).swapaxes(-3, -2)


def _from_heads(a):
    # (..., h, T, d/h) -> (..., T, d)
    a = a.swapaxes(-3, -2)
    return a.reshape(a.shape[:-2] + (-1,))


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
    probs = tc.softmax(scores)
    heads = _from_heads(probs @ vh)
    tc._check_inner("linear", heads.shape, wo.data.shape)
    out_data = heads @ wo.data + bo.data

    def backward(g):
        tc.weight_grads(g, heads, wo, bo)
        # the head-split gradient is contiguous, as the composed graph's was
        g_ctx = np.ascontiguousarray(_to_heads(g @ wo.data.T, n_head))
        if v.requires_grad:
            g_v = tc.unbroadcast(probs.swapaxes(-1, -2) @ g_ctx, vh.shape)
            v._accumulate(_from_heads(g_v))
        if not (q.requires_grad or k.requires_grad):
            return
        g_probs = tc.unbroadcast(g_ctx @ vh.swapaxes(-1, -2), probs.shape)
        g_scores = tc.softmax_grad(g_probs, probs)
        if mask is not None:
            g_scores = np.where(mask, 0.0, g_scores)
        g_scores = g_scores * scale
        if q.requires_grad:
            q._accumulate(_from_heads(tc.unbroadcast(g_scores @ kh, qh.shape)))
        if k.requires_grad:
            g_kt = tc.unbroadcast(qh.swapaxes(-1, -2) @ g_scores, kt.shape)
            k._accumulate(_from_heads(g_kt.swapaxes(-1, -2)))

    return tc.Tensor(out_data, _parents=(q, k, v, wo, bo), _backward=backward)


def layer_norm(x, gain, bias, residual):
    """Normalize the residual connection's sum ``x + residual`` over the last
    axis by ``sqrt(var + 1e-5)``, then scale and shift, in one node with the
    numbers of an ``add`` node followed by the norm."""
    data = x.data + residual.data
    n = data.shape[-1]
    centered = data - np.add.reduce(data, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(centered), axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    out_data = gain.data * xhat + bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gain._accumulate(tc.unbroadcast(np.add.reduce(g * xhat, axis=lead), gain.data.shape))
        bias._accumulate(tc.unbroadcast(np.add.reduce(g, axis=lead), bias.data.shape))
        dxhat = g * gain.data
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
        dx = inv_std * (dxhat - m1 - xhat * m2)
        for t in (x, residual):
            t._accumulate(tc.unbroadcast(dx, t.data.shape))

    return tc.Tensor(out_data, _parents=(x, residual, gain, bias), _backward=backward)


# the layers as the per-op graph: the models' sub-layer objects hold the
# parameters; these functions take the layer as ``self``


def _keys_values(attn, k_in, v_in):
    return linear(k_in, attn.wk.w, attn.wk.b), linear(v_in, attn.wv.w, attn.wv.b)


def _attend(attn, q_in, k, v, mask=None):
    q = linear(q_in, attn.wq.w, attn.wq.b)
    return attention(q, k, v, attn.n_head, attn.scale, attn.wo.w, attn.wo.b, mask=mask)


def _mha(attn, q_in, k_in, v_in):
    return _attend(attn, q_in, *_keys_values(attn, k_in, v_in))


def _norm(norm, x, sublayer_out):
    return layer_norm(x, norm.gain, norm.bias, residual=sublayer_out)


def _ff(ff, x):
    return feed_forward(x, ff.inner.w, ff.inner.b, ff.outer.w, ff.outer.b)


def encoder_layer(self, x):
    x = _norm(self.norm1, x, _mha(self.attn, x, x, x))
    return _norm(self.norm2, x, _ff(self.ff, x))


def nat_decoder_layer(self, x, enc, pos):
    pos = tc.Tensor(pos)
    x = _norm(self.norm1, x, _mha(self.self_attn, x, x, x))
    x = _norm(self.norm2, x, _mha(self.pos_attn, pos, pos, x))
    x = _norm(self.norm3, x, _mha(self.cross_attn, x, enc, enc))
    return _norm(self.norm4, x, _ff(self.ff, x))


def ar_decoder_layer(self, x, enc, cache=None, slot=0):
    start = 0 if cache is None else cache.length
    end = start + x.shape[-2]
    k, v = _keys_values(self.self_attn, x, x)
    if cache is not None:
        k, v = (tc.Tensor(t) for t in cache.extend(slot, k.data, v.data))
    mask = models.causal_mask(end)[start:] if end - start > 1 else None
    x = _norm(self.norm1, x, _attend(self.self_attn, x, k, v, mask=mask))
    if cache is None:
        cross = _keys_values(self.cross_attn, enc, enc)
    else:
        if slot not in cache.cross_kv:
            cache.cross_kv[slot] = tuple(t.data for t in _keys_values(self.cross_attn, enc, enc))
        cross = (tc.Tensor(t) for t in cache.cross_kv[slot])
    x = _norm(self.norm2, x, _attend(self.cross_attn, x, *cross))
    return _norm(self.norm3, x, _ff(self.ff, x))


PER_OP_LAYERS = {
    models.EncoderLayer: encoder_layer,
    models.NATDecoderLayer: nat_decoder_layer,
    models.ARDecoderLayer: ar_decoder_layer,
}


def per_op_layers(setattr_):
    """Make every model layer record the per-op graph; ``setattr_`` sets a
    class attribute (pytest's ``monkeypatch.setattr``, which undoes it)."""
    for cls, call in PER_OP_LAYERS.items():
        setattr_(cls, "__call__", call)


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
