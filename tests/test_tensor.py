import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsqt import tensor as tc
from nsqt.errors import ContractError


def rand(rng, *shape):
    return tc.Tensor(rng.standard_normal(shape), requires_grad=True)


def readout(rng, t):
    # deterministic random projection to a scalar so every entry gets gradient
    w = rng.standard_normal(t.shape)
    return oracles.tsum(tc.scale(t, w))


class TestPrimitiveGradients:
    """Analytic gradients of every differentiable primitive match central
    finite differences within 1e-5 relative, 10 random instances each."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        report = oracles.grad_check(lambda: readout(np.random.default_rng(99), matmul(a, b)), [a, b])
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_add_mul(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand(rng, 2, 5), rand(rng, 2, 5)
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(7), oracles.mul(add(a, b), b)), [a, b]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 4, 3)
        # keep entries away from the kink
        x.data[np.abs(x.data) < 1e-2] += 0.1
        report = oracles.grad_check(lambda: readout(np.random.default_rng(3), relu(x)), [x])
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_softmax_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 5)
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(11), softmax_rows(x)), [x]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        x, g, b = rand(rng, 2, 6), rand(rng, 6), rand(rng, 6)
        # the norm alone: a constant zero residual changes no bit of x
        zero = tc.Tensor(np.zeros((2, 6)))
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(5), tc.layer_norm(x, g, b, zero)), [x, g, b]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_embedding(self, seed):
        rng = np.random.default_rng(seed)
        w = rand(rng, 7, 4)
        ids = rng.integers(0, 7, size=(2, 3))
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(2), embedding(w, ids)), [w]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_log(self, seed):
        rng = np.random.default_rng(seed)
        x = tc.Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        report = oracles.grad_check(lambda: readout(np.random.default_rng(4), oracles.log(x)), [x])
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_elementwise_product(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand(rng, 5), rand(rng, 5)
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(8), oracles.mul(a, b)), [a, b]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(10))
    def test_scale(self, seed):
        rng = np.random.default_rng(seed)
        x = rand(rng, 3, 4)
        c = rng.standard_normal((3, 4))
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(8), tc.scale(tc.scale(x, c), -0.5)), [x]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(5))
    def test_masked_fill_take(self, seed):
        rng = np.random.default_rng(seed)
        a = rand(rng, 4, 3)
        mask = rng.random((4, 3)) > 0.5

        def f():
            filled = masked_fill(a, mask, -2.0)
            picked = oracles.take(filled, (np.array([0, 1, 3]), np.array([2, 0, 1])))
            return oracles.tsum(tc.scale(picked, np.array([1.0, -0.5, 2.0])))

        report = oracles.grad_check(f, [a])
        assert report.passed, report.worst


class TestMatmul:
    def test_identity(self):
        eye = tc.Tensor(np.eye(2))
        out = matmul(eye, eye)
        assert np.array_equal(out.data, np.eye(2))

    def test_identity_right(self):
        a = tc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, tc.Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_shape_mismatch_names_both_shapes(self):
        a = tc.Tensor(np.zeros((2, 3)))
        b = tc.Tensor(np.zeros((2, 3)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(a, b)


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_rows(tc.Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax_rows(tc.Tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_row_123(self):
        # independent high-precision evaluation of exp/sum
        out = softmax_rows(tc.Tensor([[1.0, 2.0, 3.0]]))
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        assert np.allclose(out.data[0], expected, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=6),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(tc.Tensor(rows))
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) <= 1e-12


class TestBackward:
    def test_sum_gives_ones(self):
        x = tc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        oracles.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_relu_subgradient(self):
        x = tc.Tensor([-1.0, 2.0], requires_grad=True)
        oracles.tsum(relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_non_scalar_raises(self):
        x = tc.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(tc.GraphError):
            add(x, x).backward()

    def test_two_consumers_accumulate(self):
        x = tc.Tensor([1.0, 2.0], requires_grad=True)
        loss = add(oracles.tsum(tc.scale(x, 3.0)), oracles.tsum(oracles.mul(x, x)))
        loss.backward()
        assert np.allclose(x.grad, 3.0 + 2.0 * x.data)

    def test_first_gradient_keeps_data_layout(self):
        # numpy's matmul may round differently for another memory layout,
        # so a gradient fed back into one must be laid out like the data
        data = np.asfortranarray(np.random.default_rng(0).standard_normal((3, 4)))
        x = tc.Tensor(data, requires_grad=True)
        readout(np.random.default_rng(1), x).backward()
        assert x.grad.strides == data.strides

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        w1 = rand(rng, 4, 8)
        b1 = rand(rng, 8)
        w2 = rand(rng, 8, 1)
        x = tc.Tensor(rng.standard_normal((3, 4)))

        def f():
            h = relu(add(matmul(x, w1), b1))
            return oracles.tsum(matmul(h, w2))

        report = oracles.grad_check(f, [w1, b1, w2])
        assert report.max_rel_error <= 1e-5


class TestGradCheck:
    def test_square(self):
        x = tc.Tensor([3.0], requires_grad=True)
        report = oracles.grad_check(lambda: oracles.tsum(oracles.mul(x, x)), [x], step=1e-5, tol=1e-6)
        assert report.passed
        assert report.worst.analytic == pytest.approx(6.0)
        assert report.worst.numeric == pytest.approx(6.0, abs=1e-7)

    def test_constant(self):
        x = tc.Tensor([1.0], requires_grad=True)
        report = oracles.grad_check(lambda: oracles.tsum(tc.scale(x, 0.0)), [x])
        assert report.passed

    def test_kink_reported_as_failure(self):
        x = tc.Tensor([0.0], requires_grad=True)
        report = oracles.grad_check(lambda: oracles.tsum(relu(x)), [x], tol=1e-6)
        assert not report.passed

    def test_nondeterministic_rejected(self):
        state = {"n": 0.0}
        x = tc.Tensor([1.0], requires_grad=True)

        def f():
            state["n"] += 1.0
            return oracles.tsum(tc.scale(x, state["n"]))

        with pytest.raises(tc.GraphError):
            oracles.grad_check(f, [x])


def test_dropout_identity_when_disabled():
    x = tc.Tensor(np.ones((3, 3)), requires_grad=True)
    rng = np.random.default_rng(0)
    assert tc.dropout(x, 0.5, rng, training=False) is x
    out = tc.dropout(x, 0.5, rng, training=True)
    kept = out.data != 0.0
    assert np.allclose(out.data[kept], 2.0)


class TestNoGrad:
    def test_ops_record_no_parents(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        c = rand(rng, 2)
        with tc.no_grad():
            out = tc.linear_softmax(a, b, c)
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad
        assert a.requires_grad and b.requires_grad
        # values are those of the recorded computation
        assert np.array_equal(out.data, tc.linear_softmax(a, b, c).data)

    def test_leaf_created_inside_keeps_its_flag(self):
        with tc.no_grad():
            w = tc.Tensor(np.ones(3), requires_grad=True)
            c = tc.Tensor(np.ones(3))
        assert w.requires_grad and not c.requires_grad

    def test_model_built_inside_still_trains(self):
        from nsqt import models

        cfg = models.ModelConfig(d_model=8, d_hidden=16, vocab_size=10, max_len=8)
        src, tgt = np.array([[4, 5, 6]]), np.array([[5, 6, 2]])
        with tc.no_grad():
            inside = models.ARModel(cfg, seed=3)
        outside = models.ARModel(cfg, seed=3)
        for model in (inside, outside):
            probs = model.train_distributions(src, tgt)
            oracles.tsum(oracles.log(oracles.take(probs, (np.zeros(3, int), np.arange(3), tgt[0])))).backward()
        for p, q in zip(inside.parameters(), outside.parameters()):
            assert p.requires_grad and p.grad is not None
            assert np.array_equal(p.grad, q.grad)

    def test_flag_restored_after_nesting(self):
        assert tc.is_grad_enabled()
        with tc.no_grad():
            with tc.no_grad():
                assert not tc.is_grad_enabled()
            assert not tc.is_grad_enabled()
        assert tc.is_grad_enabled()
        x = tc.Tensor([1.0], requires_grad=True)
        assert tc.scale(x, 2.0)._parents

    def test_flag_restored_after_exception(self):
        with pytest.raises(ContractError):
            with tc.no_grad():
                tc.linear(tc.Tensor(np.ones((2, 3))), tc.Tensor(np.ones((2, 3))), tc.Tensor(np.zeros(3)))
        assert tc.is_grad_enabled()
        x = tc.Tensor([1.0], requires_grad=True)
        oracles.tsum(tc.scale(x, 3.0)).backward()
        assert np.array_equal(x.grad, [3.0])

    @pytest.mark.parametrize("kind", ["ar", "nat", "fs"])
    def test_ce_step_unchanged_by_a_decode(self, kind):
        from nsqt import models
        from nsqt import pipeline as pl

        cfg = models.ModelConfig(d_model=8, d_hidden=16, vocab_size=10, max_len=12, p_dropout=0.1)
        srcs = np.array([[4, 5, 6, 7], [7, 6, 5, 4]])
        tgts = np.array([[5, 6, 7, 2], [6, 5, 4, 2]])
        dec = pl.DecodeConfig(mode="nat_argmax") if kind == "nat" else pl.DecodeConfig(mode="beam", beam=2)
        results = []
        for decode_first in (False, True):
            model = models.build_model(kind, cfg, seed=4)
            opt = pl.Adam(model.parameters(), pl.TrainConfig(warmup=1))
            if decode_first:
                pl.decode(model, [4, 5, 6], dec, models.LengthTable({3: 4}))
            model.training = True
            model.zero_grad()
            loss = pl._nll_loss(model, srcs, tgts)
            loss.backward()
            grads = [p.grad.copy() for p in model.parameters()]
            opt.step()
            results.append((loss.item(), grads, [p.data.copy() for p in model.parameters()]))
        (loss_a, grads_a, after_a), (loss_b, grads_b, after_b) = results
        assert loss_a == loss_b
        for ga, gb, pa, pb in zip(grads_a, grads_b, after_a, after_b):
            assert np.array_equal(ga, gb) and np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# fused layers, checked against finite differences and against the composed
# ops they replace (the oracles below are the graph the models used to
# record: one node per matmul, add, relu, gather, scale and softmax, head
# reshapes and transposes, residual add before layer norm)


# primitives only the oracles record, one node per op


def add(a, b):
    a, b = oracles.as_tensor(a), oracles.as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(tc._unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(tc._unbroadcast(g, b.data.shape))

    return tc.Tensor(a.data + b.data, _parents=(a, b), _backward=backward)


def matmul(a, b):
    a, b = oracles.as_tensor(a), oracles.as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(tc._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b._accumulate(tc._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return tc.Tensor(a.data @ b.data, _parents=(a, b), _backward=backward)


def relu(x):
    x = oracles.as_tensor(x)
    # subgradient at exactly 0 is 0
    mask = x.data > 0.0

    def backward(g):
        x._accumulate(g * mask)

    return tc.Tensor(np.where(mask, x.data, 0.0), _parents=(x,), _backward=backward)


def softmax_rows(x):
    """Softmax along the last axis with max-subtraction for stability."""
    x = oracles.as_tensor(x)
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        x._accumulate(out_data * (g - (g * out_data).sum(axis=-1, keepdims=True)))

    return tc.Tensor(out_data, _parents=(x,), _backward=backward)


def embedding(weight, ids):
    """Gather rows of ``weight`` by an integer index array."""
    weight = oracles.as_tensor(weight)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        if not weight.requires_grad:
            return
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(dw)

    return tc.Tensor(weight.data[ids], _parents=(weight,), _backward=backward)


def composed_linear(x, w, b):
    return add(matmul(x, w), b)


def composed_feed_forward(x, w1, b1, w2, b2):
    return composed_linear(relu(composed_linear(x, w1, b1)), w2, b2)


def composed_token_embedding(weight, ids, scale, positions):
    return add(tc.scale(embedding(weight, ids), scale), positions)


def composed_linear_softmax(x, w, b):
    return softmax_rows(composed_linear(x, w, b))


def composed_fuse_relu(h, w, y, u):
    return relu(add(matmul(h, w), matmul(y, u)))


FUSED_LAYER_NORM = tc.layer_norm


def composed_layer_norm(x, gain, bias, residual):
    x = add(x, residual)
    # the norm alone over a constant zero residual, which changes no bit of
    # x, also while a test patches tc.layer_norm with this
    return FUSED_LAYER_NORM(x, gain, bias, tc.Tensor(np.zeros(x.shape)))


def _swap_last_two_of_three(ndim):
    axes = list(range(ndim))
    axes[-3], axes[-2] = axes[-2], axes[-3]
    return axes


# graph ops only the composed attention oracle records: its head reshapes,
# transposes and mask


def reshape(x, shape):
    x = oracles.as_tensor(x)

    def backward(g):
        x._accumulate(g.reshape(x.data.shape))

    return tc.Tensor(x.data.reshape(shape), _parents=(x,), _backward=backward)


def transpose(x, axes):
    x = oracles.as_tensor(x)
    inv = np.argsort(axes)

    def backward(g):
        x._accumulate(np.transpose(g, inv))

    return tc.Tensor(np.transpose(x.data, axes), _parents=(x,), _backward=backward)


def masked_fill(x, mask, value):
    """Replace entries where ``mask`` is true with a constant."""
    x = oracles.as_tensor(x)
    mask = np.asarray(mask, dtype=bool)

    def backward(g):
        x._accumulate(np.where(mask, 0.0, g))

    return tc.Tensor(np.where(mask, float(value), x.data), _parents=(x,), _backward=backward)


def composed_attention(q, k, v, n_head, scale, wo, bo, mask=None):
    def split(x):
        *lead, T, d = x.shape
        x = reshape(x, (*lead, T, n_head, d // n_head))
        return transpose(x, _swap_last_two_of_three(x.data.ndim))

    q, k, v = split(q), split(k), split(v)
    k_axes = list(range(k.data.ndim))
    k_axes[-1], k_axes[-2] = k_axes[-2], k_axes[-1]
    scores = tc.scale(matmul(q, transpose(k, k_axes)), scale)
    if mask is not None:
        scores = masked_fill(scores, mask, -1e9)
    ctx = matmul(softmax_rows(scores), v)
    ctx = transpose(ctx, _swap_last_two_of_three(ctx.data.ndim))
    *lead, T, h, dh = ctx.shape
    return composed_linear(reshape(ctx, (*lead, T, h * dh)), wo, bo)


# (q/k input shape, v input shape, causal mask): self-attention, causal
# self-attention, NAT positional attention (shared 2-D queries and keys over
# a batch of values) and cross-attention with T_q != T_k
ATTENTION_CASES = {
    "unmasked": ((2, 3, 4), (2, 3, 4), False),
    "causal": ((2, 4, 4), (2, 4, 4), True),
    "broadcast_qk": ((3, 4), (2, 3, 4), False),
    "cross": ((2, 5, 4), (2, 3, 4), False),
}


def _attention_inputs(rng, case):
    qk_shape, v_shape, causal = ATTENTION_CASES[case]
    if case == "cross":
        q = rand(rng, *qk_shape)
        k = rand(rng, *v_shape)
    else:
        q, k = rand(rng, *qk_shape), rand(rng, *qk_shape)
    v = rand(rng, *v_shape)
    mask = np.triu(np.ones((qk_shape[-2],) * 2, dtype=bool), k=1) if causal else None
    return q, k, v, mask


# each fused node but attention and layer norm: (fused op, composed oracle,
# inputs). ``inputs(rng)`` returns the tensor arguments, which get gradients,
# and the constant arguments after them; activations are (B, T, d), the
# loss's probabilities (B, T, V).
def _feed_forward_inputs(rng):
    return [rand(rng, 2, 3, 4), rand(rng, 4, 6), rand(rng, 6), rand(rng, 6, 4), rand(rng, 4)], ()


def _token_embedding_inputs(rng):
    ids = rng.integers(0, 7, size=(2, 3))
    ids[1, 2] = ids[0, 0]  # a repeated row accumulates twice
    return [rand(rng, 7, 4)], (ids, 2.0**0.5, rng.standard_normal((3, 4)))


def _linear_softmax_inputs(rng):
    return [rand(rng, 2, 3, 4), rand(rng, 4, 5), rand(rng, 5)], ()


def _fuse_relu_inputs(rng):
    return [rand(rng, 2, 3, 4), rand(rng, 4, 4), rand(rng, 2, 3, 4), rand(rng, 4, 4)], ()


def composed_nll(x, index, scale):
    return tc.scale(oracles.tsum(oracles.log(oracles.take(x, index))), scale)


def _nll_inputs(rng):
    # the token loss of (B, T, V) = (2, 3, 5) rows, as pipeline._nll_loss picks
    rows, cols = np.repeat(np.arange(2), 3), np.tile(np.arange(3), 2)
    ids = rng.integers(0, 5, size=6)
    rows[5], cols[5], ids[5] = rows[0], cols[0], ids[0]  # picked twice, accumulates twice
    probs = tc.Tensor(rng.random((2, 3, 5)) + 0.1, requires_grad=True)
    return [probs], ((rows, cols, ids), -1.0 / 6)


FUSED_NODES = {
    "feed_forward": (tc.feed_forward, composed_feed_forward, _feed_forward_inputs),
    "token_embedding": (tc.token_embedding, composed_token_embedding, _token_embedding_inputs),
    "linear_softmax": (tc.linear_softmax, composed_linear_softmax, _linear_softmax_inputs),
    "fuse_relu": (tc.fuse_relu, composed_fuse_relu, _fuse_relu_inputs),
    "nll": (tc.nll, composed_nll, _nll_inputs),
}


class TestFusedGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rand(rng, 2, 3, 4), rand(rng, 4, 5), rand(rng, 5)
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(6), tc.linear(x, w, b)), [x, w, b]
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("node", sorted(FUSED_NODES))
    @pytest.mark.parametrize("seed", range(5))
    def test_fused_node(self, node, seed):
        op, _, inputs = FUSED_NODES[node]
        tensors, consts = inputs(np.random.default_rng(seed))
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(6), op(*tensors, *consts)), tensors
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm_with_residual(self, seed):
        rng = np.random.default_rng(seed)
        x, r, g, b = rand(rng, 2, 3, 6), rand(rng, 2, 3, 6), rand(rng, 6), rand(rng, 6)
        report = oracles.grad_check(
            lambda: readout(np.random.default_rng(5), tc.layer_norm(x, g, b, residual=r)),
            [x, r, g, b],
        )
        assert report.passed, report.worst

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_attention(self, case, seed):
        rng = np.random.default_rng(seed)
        q, k, v, mask = _attention_inputs(rng, case)
        wo, bo = rand(rng, 4, 3), rand(rng, 3)
        report = oracles.grad_check(
            lambda: readout(
                np.random.default_rng(9), tc.attention(q, k, v, 2, 0.7, wo, bo, mask=mask)
            ),
            [q, k, v, wo, bo],
        )
        assert report.passed, report.worst

    def test_causal_mask_hides_later_values(self):
        rng = np.random.default_rng(0)
        q, k, v, mask = _attention_inputs(rng, "causal")
        out = tc.attention(q, k, v, 2, 0.7, rand(rng, 4, 4), rand(rng, 4), mask=mask)
        oracles.tsum(oracles.take(out, (np.array([0]), np.array([0])))).backward()
        # the first query sees only the first key and value
        assert not v.grad[0, 1:].any() and not k.grad[0, 1:].any()

    def test_shape_errors(self):
        x = tc.Tensor(np.zeros((2, 3, 4)))
        w, b = tc.Tensor(np.zeros((4, 4))), tc.Tensor(np.zeros(4))
        bad_w = tc.Tensor(np.zeros((5, 2)))
        with pytest.raises(ContractError, match="linear inner dimensions"):
            tc.linear(x, bad_w, tc.Tensor(np.zeros(2)))
        with pytest.raises(ContractError, match="attention shapes"):
            tc.attention(x, x, tc.Tensor(np.zeros((2, 5, 4))), 2, 1.0, w, b)
        with pytest.raises(ContractError, match="n_head=3"):
            tc.attention(x, x, x, 3, 1.0, w, b)
        with pytest.raises(ContractError, match="linear inner dimensions"):
            tc.attention(x, x, x, 2, 1.0, bad_w, b)
        with pytest.raises(ContractError, match="linear inner dimensions"):
            tc.feed_forward(x, w, b, bad_w, b)
        with pytest.raises(ContractError, match="linear inner dimensions"):
            tc.linear_softmax(x, bad_w, b)
        with pytest.raises(ContractError, match=r"matmul inner dimensions disagree: \(2, 3, 4\) x \(5, 2\)"):
            tc.fuse_relu(x, bad_w, x, w)


def _grads_of(tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _assert_bitwise(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x is not None and y is not None
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFusedMatchComposed:
    """Forward values and gradients equal the composed ops bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_linear(self, seed):
        results = []
        for op in (tc.linear, composed_linear):
            rng = np.random.default_rng(seed)
            x, w, b = rand(rng, 3, 5, 8), rand(rng, 8, 6), rand(rng, 6)
            out = op(x, w, b)
            readout(np.random.default_rng(1), out).backward()
            results.append((out.data.copy(), _grads_of([x, w, b])))
        (out_f, grads_f), (out_c, grads_c) = results
        assert out_f.tobytes() == out_c.tobytes()
        _assert_bitwise(grads_f, grads_c)

    @pytest.mark.parametrize("node", sorted(FUSED_NODES))
    @pytest.mark.parametrize("seed", range(3))
    def test_fused_node(self, node, seed):
        """Every input and weight gradient; the input of each is itself the
        output of a recorded node, as in a model."""
        fused, composed, inputs = FUSED_NODES[node]
        results = []
        for op in (fused, composed):
            tensors, consts = inputs(np.random.default_rng(seed))
            scaled = [tc.scale(t, 1.5) for t in tensors]
            out = op(*scaled, *consts)
            readout(np.random.default_rng(1), out).backward()
            results.append((out.data.copy(), _grads_of(tensors)))
        (out_f, grads_f), (out_c, grads_c) = results
        assert out_f.tobytes() == out_c.tobytes()
        _assert_bitwise(grads_f, grads_c)

    @pytest.mark.parametrize("seed", range(3))
    def test_layer_norm_with_residual(self, seed):
        results = []
        for op in (tc.layer_norm, composed_layer_norm):
            rng = np.random.default_rng(seed)
            x, r, g, b = rand(rng, 3, 5, 8), rand(rng, 3, 5, 8), rand(rng, 8), rand(rng, 8)
            out = op(x, g, b, residual=r)
            readout(np.random.default_rng(1), out).backward()
            results.append((out.data.copy(), _grads_of([x, r, g, b])))
        (out_f, grads_f), (out_c, grads_c) = results
        assert out_f.tobytes() == out_c.tobytes()
        _assert_bitwise(grads_f, grads_c)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_multi_head_attention(self, case, seed):
        """Projections, attention and output projection as a model layer
        records them; every input and weight gradient is compared."""
        qk_shape, v_shape, causal = ATTENTION_CASES[case]
        d, n_head = 8, 2
        results = []
        for linear, attention in ((tc.linear, tc.attention), (composed_linear, composed_attention)):
            rng = np.random.default_rng(seed)
            q_in = rand(rng, *qk_shape[:-1], d)
            k_in = q_in if case != "cross" else rand(rng, *v_shape[:-1], d)
            v_in = rand(rng, *v_shape[:-1], d)
            weights = [(rand(rng, d, d), rand(rng, d)) for _ in range(4)]
            mask = np.triu(np.ones((qk_shape[-2],) * 2, dtype=bool), k=1) if causal else None
            q, k, v = (linear(t, *wb) for t, wb in zip((q_in, k_in, v_in), weights))
            out = attention(q, k, v, n_head, 0.6, *weights[3], mask=mask)
            readout(np.random.default_rng(2), out).backward()
            leaves = [q_in, k_in, v_in] + [t for wb in weights for t in wb]
            results.append((out.data.copy(), _grads_of(leaves)))
        (out_f, grads_f), (out_c, grads_c) = results
        assert out_f.tobytes() == out_c.tobytes()
        _assert_bitwise(grads_f, grads_c)

    @pytest.mark.parametrize("kind", ["nat", "ar", "fs"])
    def test_ce_steps_match_composed_models(self, kind, monkeypatch):
        """Three CE steps of a whole model (dropout on): losses, gradients
        and updated parameters equal those of the composed graph."""
        from nsqt import models
        from nsqt import pipeline as pl

        # head width 6: the attention scale is not a power of two
        cfg = models.ModelConfig(d_model=12, d_hidden=16, vocab_size=10, max_len=12, p_dropout=0.1)
        srcs = np.array([[4, 5, 6, 7], [7, 6, 5, 4]])
        tgts = np.array([[5, 6, 7, 2], [6, 5, 4, 2]])

        def run():
            model = models.build_model(kind, cfg, seed=4)
            model.training = True
            opt = pl.Adam(model.parameters(), pl.TrainConfig(warmup=1))
            trail = []
            for _ in range(3):
                model.zero_grad()
                loss = pl._nll_loss(model, srcs, tgts)
                loss.backward()
                trail.append((loss.item(), _grads_of(model.parameters())))
                opt.step()
            return trail, [p.data.copy() for p in model.parameters()]

        fused = run()
        monkeypatch.setattr(tc, "linear", composed_linear)
        monkeypatch.setattr(tc, "attention", composed_attention)
        monkeypatch.setattr(tc, "layer_norm", composed_layer_norm)
        for node, (_, composed_op, _) in FUSED_NODES.items():
            monkeypatch.setattr(tc, node, composed_op)
        composed = run()
        for (loss_f, grads_f), (loss_c, grads_c) in zip(fused[0], composed[0]):
            assert loss_f == loss_c
            _assert_bitwise(grads_f, grads_c)
        _assert_bitwise(fused[1], composed[1])


@pytest.mark.parametrize("kind, ops", [("nat", 52), ("ar", 42), ("fs", 49)])
def test_ce_step_records_the_readme_op_count(kind, ops):
    """A CE step of the default model at B=16, T=8 records the number of ops
    the README states: the tensors with parents behind the loss."""
    from nsqt import models
    from nsqt import pipeline as pl

    rng = np.random.default_rng(0)
    srcs, tgts = rng.integers(4, 20, size=(2, 16, 8))
    loss = pl._nll_loss(models.build_model(kind, models.ModelConfig(), seed=0), srcs, tgts)
    seen, stack, recorded = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            recorded += bool(t._parents)
            stack.extend(t._parents)
    assert recorded == ops
