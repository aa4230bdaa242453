import dataclasses
import functools
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsqt import checkpoint, models
from nsqt import tensor as tc

CFG = models.ModelConfig(
    d_model=8, d_hidden=16, n_layer=2, n_head=2, vocab_size=10, max_len=16
)


@pytest.fixture(scope="module")
def nat():
    return models.NATModel(CFG, seed=1)


@pytest.fixture(scope="module")
def ar():
    return models.ARModel(CFG, seed=1)


@pytest.fixture(scope="module")
def fs():
    return models.FSModel(CFG, seed=1)


SRC = np.array([[4, 5, 6, 7]])
TGT = np.array([[5, 6, 7, 2]])


class TestModelConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            models.ModelConfig(d_model=6, n_head=4)

    def test_min_layers(self):
        with pytest.raises(ValueError):
            models.ModelConfig(n_layer=1)

    @pytest.mark.parametrize(
        "field",
        [
            {"d_model": 0}, {"n_head": 0}, {"d_hidden": 0}, {"max_len": 0}, {"p_dropout": 1.0},
            # above MAX_POSITIONS: a build would ask for a 10^9 x d_model table
            {"max_len": 10**9},
        ],
    )
    def test_degenerate_sizes(self, field):
        with pytest.raises(ValueError):
            models.ModelConfig(**field)


class TestUniformCopy:
    def test_identity_when_lengths_match(self):
        assert models.uniform_copy_positions(5, 5).tolist() == [0, 1, 2, 3, 4]

    def test_stretch(self):
        # 1-based: [1,1,2,2,3,3,4,4]
        assert models.uniform_copy_positions(4, 8).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_compress(self):
        # 1-based: [round_half_up(2.5)=3, 5]
        assert models.uniform_copy_positions(5, 2).tolist() == [2, 4]


class TestEncoder:
    def test_output_shape(self, nat):
        enc = nat.encode(SRC)
        assert enc.shape == (1, 4, CFG.d_model)

    def test_position_sensitivity(self, nat):
        a = nat.encode(np.array([[4, 5, 6, 7]])).data
        b = nat.encode(np.array([[7, 6, 5, 4]])).data
        assert not np.allclose(a, b)

    def test_overlong_input(self, nat):
        with pytest.raises(models.CapacityError):
            nat.encode(np.full((1, 17), 4))

    def test_embedding_gradients(self):
        model = models.NATModel(CFG, seed=3)
        w = np.random.default_rng(0).standard_normal((1, 4, CFG.d_model))

        def f():
            return oracles.tsum(tc.scale(model.encode(SRC), w))

        report = oracles.grad_check(f, [model.embed], tol=1e-5)
        assert report.passed, report.worst

    def test_shared_encoder_bit_identical_across_variants(self):
        outs = []
        for kind in ("ar", "nat", "fs"):
            model = models.build_model(kind, CFG, seed=7)
            outs.append(model.encode(SRC).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


class TestNATForward:
    def test_rows_stochastic(self, nat):
        probs = nat.forward(SRC, 6)
        assert probs.shape == (1, 6, CFG.vocab_size)
        assert np.max(np.abs(probs.data.sum(axis=-1) - 1.0)) <= 1e-9

    def test_single_decoder_invocation(self, nat):
        nat.reset_counters()
        nat.forward(SRC, 9)
        assert nat.decoder_calls == 1

    def test_end_to_end_gradients(self):
        model = models.NATModel(CFG, seed=5)

        def f():
            probs = model.forward(SRC, 4)
            picked = oracles.take(
                probs, (np.zeros(4, int), np.arange(4), np.array([5, 6, 7, 2]))
            )
            return tc.scale(oracles.tsum(oracles.log(picked)), -1.0)

        report = oracles.grad_check(f, [model.embed], tol=1e-4)
        assert report.passed, report.worst

    def test_overlong_target(self, nat):
        with pytest.raises(models.CapacityError):
            nat.forward(SRC, 17)


class TestARForward:
    def test_shape_and_rows(self, ar):
        probs = ar.train_distributions(SRC, TGT)
        assert probs.shape == (1, 4, CFG.vocab_size)
        assert np.max(np.abs(probs.data.sum(axis=-1) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("t", range(4))
    def test_causality(self, ar, t):
        base = ar.train_distributions(SRC, TGT).data
        mutated = TGT.copy()
        mutated[0, t] = (mutated[0, t] + 1) % CFG.vocab_size
        out = ar.train_distributions(SRC, mutated).data
        assert np.array_equal(base[0, : t + 1], out[0, : t + 1])
        assert not np.allclose(base[0, t + 1 :], out[0, t + 1 :]) or t == 3

    def test_end_to_end_gradients(self):
        model = models.ARModel(CFG, seed=5)

        def f():
            probs = model.train_distributions(SRC, TGT)
            picked = oracles.take(probs, (np.zeros(4, int), np.arange(4), TGT[0]))
            return tc.scale(oracles.tsum(oracles.log(picked)), -1.0)

        report = oracles.grad_check(f, [model.embed], tol=1e-4)
        assert report.passed, report.worst


class TestFSForward:
    @pytest.mark.parametrize("t", range(4))
    def test_causality_through_fusion(self, fs, t):
        base = fs.forward_train(SRC, TGT).data
        mutated = TGT.copy()
        mutated[0, t] = (mutated[0, t] + 1) % CFG.vocab_size
        out = fs.forward_train(SRC, mutated).data
        assert np.array_equal(base[0, : t + 1], out[0, : t + 1])

    def test_zero_w_severs_bottom_path(self):
        model = models.FSModel(CFG, seed=9)
        model.fuse_w.data = np.zeros_like(model.fuse_w.data)
        tgt_in = models.shift_right(TGT)
        a = model.forward_train(SRC, TGT).data
        with tc.no_grad():
            h, enc = model.bottom_states(SRC, 6)
            b = model.fuse_and_top(h, tgt_in, enc).data
        assert np.allclose(a, b, atol=1e-12)

    def test_fusion_output_nonnegative_and_both_paths_live(self):
        model = models.FSModel(CFG, seed=9)
        h, enc = model.bottom_states(SRC, 4)
        y = model._embed_tokens(models.shift_right(TGT))
        fused = tc.fuse_relu(h, model.fuse_w, y, model.fuse_u)
        assert np.all(fused.data >= 0.0)
        model.zero_grad()
        oracles.tsum(fused).backward()
        assert np.any(model.fuse_w.grad != 0.0)
        assert np.any(model.fuse_u.grad != 0.0)

    def test_fusion_gradients(self):
        model = models.FSModel(CFG, seed=5)

        def f():
            probs = model.forward_train(SRC, TGT)
            picked = oracles.take(probs, (np.zeros(4, int), np.arange(4), TGT[0]))
            return tc.scale(oracles.tsum(oracles.log(picked)), -1.0)

        report = oracles.grad_check(f, [model.fuse_w, model.fuse_u], tol=1e-4)
        assert report.passed, report.worst

    def test_length_padding_and_truncation(self, fs):
        # a longer bottom is cut to the target when no graph is recorded, as
        # in decoding, and refused when one is; a shorter one is never padded
        tgt_in = models.shift_right(TGT)
        h, enc = fs.bottom_states(SRC, 6)
        with tc.no_grad():
            assert fs.fuse_and_top(h, tgt_in, enc).shape == (1, 4, CFG.vocab_size)
        with pytest.raises(models.ContractError, match="takes all 6 bottom states, got rows 0..3"):
            fs.fuse_and_top(h, tgt_in, enc)
        h, enc = fs.bottom_states(SRC, 2)
        with pytest.raises(models.CapacityError, match="bottom states"):
            fs.fuse_and_top(h, tgt_in, enc)


class TestFSDecode:
    def test_structural_counters(self):
        model = models.FSModel(CFG, seed=11)
        model.reset_counters()
        tokens, steps = models.beam_decode(model, SRC, out_len=6, beam=1)
        assert model.bottom_calls == 1
        assert model.top_calls == steps
        assert model.encoder_calls == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_matches_incremental_argmax_rollout(self, seed):
        rng = np.random.default_rng(seed)
        model = models.FSModel(CFG, seed=13)
        src = rng.integers(4, CFG.vocab_size, size=(1, 5))
        out_len = 5
        greedy, _ = models.beam_decode(model, src, out_len=out_len, beam=1)
        # oracle: repeatedly teacher-force the prefix (padded; causality
        # guarantees later rows cannot influence earlier ones) and take argmax
        prefix = []
        for t in range(out_len):
            padded = np.array([prefix + [models.PAD] * (out_len - len(prefix))])
            probs = model.forward_train(src, padded)
            tok = int(probs.data[0, t].argmax())
            if tok == models.EOS:
                break
            prefix.append(tok)
        assert greedy == prefix


def rerun_prefix_decode(model, src, out_len, beam):
    """Reference beam search without a cache and without early stopping:
    every step re-runs each live hypothesis's whole prefix through the
    teacher-forced decoder, until ``out_len`` steps or no live hypothesis."""
    if model.kind == "fs":
        h, enc = model.bottom_states(src, out_len)
    else:
        enc = model.encode(src)

    def step(prefixes):
        tgt_in = np.array([[models.BOS, *p] for p in prefixes], dtype=np.int64)
        if model.kind == "fs":
            return model.fuse_and_top(h, tgt_in, enc).data[:, -1]
        return model.forward(None, tgt_in, enc=enc).data[:, -1]

    live, finished, steps = [((), 0.0)], [], 0
    for _ in range(out_len):
        logp = np.log(np.maximum(step([t for t, _ in live]), 1e-300))
        steps += 1
        candidates = []
        for (tokens, score), row in zip(live, logp):
            for tok in np.argsort(-row, kind="stable")[: beam + 1]:
                candidates.append((tokens + (int(tok),), score + float(row[tok])))
        candidates.sort(key=lambda c: (-c[1] / len(c[0]), c[0]))
        live = []
        for tokens, score in candidates:
            if tokens[-1] == models.EOS:
                finished.append((tokens, score / len(tokens)))
            elif len(live) < beam:
                live.append((tokens, score))
            if len(finished) >= beam and len(live) >= beam:
                break
        if not live:
            break
    finished += [(t, s / max(len(t), 1)) for t, s in live]
    finished.sort(key=lambda c: (-c[1], c[0]))
    best = list(finished[0][0])
    return (best[:-1] if best and best[-1] == models.EOS else best), steps


def _cached_rows(model, src, tgt_in, chunks=None):
    """Distributions for every position of ``tgt_in``, computed through one
    ``DecodeCache`` a chunk of positions at a time (one per call by default)."""
    cache = models.DecodeCache()
    if model.kind == "fs":
        h, enc = model.bottom_states(src, tgt_in.shape[1])
    else:
        enc = model.encode(src)
    bounds = chunks or [(t, t + 1) for t in range(tgt_in.shape[1])]
    out = []
    for lo, hi in bounds:
        if model.kind == "fs":
            probs = model.fuse_and_top(h, tgt_in[:, lo:hi], enc, cache=cache)
        else:
            probs = model.forward(None, tgt_in[:, lo:hi], enc=enc, cache=cache)
        assert cache.length == hi
        out.append(probs.data)
    return np.concatenate(out, axis=1)


def _teacher_forced(model, src, tgt_in, out_len):
    if model.kind == "fs":
        h, enc = model.bottom_states(src, out_len)
        return model.fuse_and_top(h, tgt_in, enc).data
    return model.forward(src, tgt_in).data


class TestDecodeCache:
    """Cached incremental decoding against the uncached teacher-forced
    forward and a re-run-the-prefix reference decoder."""

    @pytest.mark.parametrize("kind", ["ar", "fs"])
    @pytest.mark.parametrize("seed", range(3))
    def test_step_matches_teacher_forced_prefix(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = models.build_model(kind, CFG, seed=seed)
        src = rng.integers(4, CFG.vocab_size, size=(1, 5))
        tgt_in = np.concatenate(
            [np.full((3, 1), models.BOS), rng.integers(2, CFG.vocab_size, size=(3, 7))], axis=1
        )
        with tc.no_grad():
            cached = _cached_rows(model, src, tgt_in)
            for t in range(tgt_in.shape[1]):
                last = _teacher_forced(model, src, tgt_in[:, : t + 1], tgt_in.shape[1])[:, -1]
                assert np.max(np.abs(cached[:, t] - last)) <= 1e-12

    @pytest.mark.parametrize("kind", ["ar", "fs"])
    def test_multi_position_chunks(self, kind):
        model = models.build_model(kind, CFG, seed=2)
        tgt_in = np.array([[models.BOS, 5, 6, 7, 8, 9, 4, 5]])
        with tc.no_grad():
            full = _teacher_forced(model, SRC, tgt_in, tgt_in.shape[1])
            chunked = _cached_rows(model, SRC, tgt_in, chunks=[(0, 3), (3, 4), (4, 8)])
        assert np.max(np.abs(chunked - full)) <= 1e-12

    def test_fs_steps_past_the_bottom_length(self, fs):
        # every position fuses with its own bottom state: a step past the
        # last one raises, and the cache keeps the positions decoded so far
        cache = models.DecodeCache()
        with tc.no_grad():
            h, enc = fs.bottom_states(SRC, 3)
            fs.fuse_and_top(h, np.array([[models.BOS, 5, 6]]), enc, cache=cache)
            with pytest.raises(models.CapacityError, match="bottom states"):
                fs.fuse_and_top(h, np.array([[7]]), enc, cache=cache)
        assert cache.length == 3

    @pytest.mark.parametrize("kind", ["ar", "fs"])
    def test_reorder_follows_parent_rows(self, kind):
        rng = np.random.default_rng(5)
        model = models.build_model(kind, CFG, seed=6)
        tgt_in = np.concatenate(
            [np.full((3, 1), models.BOS), rng.integers(2, CFG.vocab_size, size=(3, 4))], axis=1
        )
        rows = [2, 0, 2, 1]
        with tc.no_grad():
            cache = models.DecodeCache()
            if kind == "fs":
                h, enc = model.bottom_states(SRC, 6)
                model.fuse_and_top(h, tgt_in, enc, cache=cache)
            else:
                enc = model.encode(SRC)
                model.forward(None, tgt_in, enc=enc, cache=cache)
            cache.reorder(rows)
            nxt = rng.integers(2, CFG.vocab_size, size=(4, 1))
            if kind == "fs":
                got = model.fuse_and_top(h, nxt, enc, cache=cache).data[:, -1]
                want = model.fuse_and_top(h, np.hstack([tgt_in[rows], nxt]), enc).data[:, -1]
            else:
                got = model.forward(None, nxt, enc=enc, cache=cache).data[:, -1]
                want = model.forward(None, np.hstack([tgt_in[rows], nxt]), enc=enc).data[:, -1]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_step_respects_max_len(self, ar):
        cache = models.DecodeCache()
        enc = ar.encode(SRC)
        with tc.no_grad():
            ar.forward(None, np.full((1, CFG.max_len), 5), enc=enc, cache=cache)
            with pytest.raises(models.CapacityError):
                ar.forward(None, np.array([[5]]), enc=enc, cache=cache)

    def test_extend_with_grad_recording_raises(self, ar):
        # the buffers hold values, so a recorded step would drop gradient
        cache = models.DecodeCache()
        enc = ar.encode(SRC)
        with pytest.raises(tc.GraphError, match="no_grad"):
            ar.forward(None, np.array([[models.BOS]]), enc=enc, cache=cache)


class ConcatCache(models.DecodeCache):
    """The cache before preallocated buffers: each step concatenates the
    history with the new positions into fresh arrays, and ``reorder`` takes
    rows. The oracle the buffer cache must match bitwise."""

    def extend(self, slot, k, v):
        if slot in self.self_kv:
            k_old, v_old = self.self_kv[slot]
            k = tc.Tensor(np.concatenate([k_old.data, k.data], axis=-2))
            v = tc.Tensor(np.concatenate([v_old.data, v.data], axis=-2))
        self.self_kv[slot] = (k, v)
        return k, v

    def reorder(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        for slot, (k, v) in self.self_kv.items():
            if not np.array_equal(rows, np.arange(k.shape[0])):
                self.self_kv[slot] = (oracles.take(k, (rows,)), oracles.take(v, (rows,)))


class TestBufferCacheAgainstConcatOracle:
    @pytest.mark.parametrize("kind", ["ar", "fs"])
    def test_chunks_reorders_and_growth_bitwise(self, kind):
        model = models.build_model(kind, CFG, seed=3)
        # chunk ends 1, 2, 5, 6, 9, 13: the buffer grows to 1, 2, 5 (a chunk
        # past double the capacity), 10 and 20; the reorders repeat rows and
        # change the hypothesis count
        script = [1, 1, 3, [2, 0, 2, 1], 1, 3, [3, 3, 0], 4]

        def run(cache_cls):
            cache, out, rows = cache_cls(), [], 3
            with tc.no_grad():
                if kind == "fs":
                    h, enc = model.bottom_states(SRC, 13)
                else:
                    enc = model.encode(SRC)
                step_rng = np.random.default_rng(11)
                for item in script:
                    if isinstance(item, list):
                        cache.reorder(item)
                        rows = len(item)
                        continue
                    tgt_in = step_rng.integers(2, CFG.vocab_size, size=(rows, item))
                    if kind == "fs":
                        probs = model.fuse_and_top(h, tgt_in, enc, cache=cache)
                    else:
                        probs = model.forward(None, tgt_in, enc=enc, cache=cache)
                    out.append(probs.data.tobytes())
            return out, cache

        got, cache = run(models.DecodeCache)
        want, _ = run(ConcatCache)
        assert got == want
        assert cache.length == 13
        assert cache.self_kv[0][0].shape == (3, 20, CFG.d_model)

    @pytest.mark.parametrize("kind, beam", [("ar", 1), ("fs", 1), ("fs", 4)])
    def test_decode_bitwise(self, kind, beam, monkeypatch):
        model, pairs, table = _acceptance_model(kind, "echo_runs")
        reorders = []

        # the per-step call beam_decode makes: forward (AR) or fuse_and_top (FS)
        owner, name = (
            (models.FSModel, "fuse_and_top") if kind == "fs" else (models.ARModel, "forward")
        )

        def run(cache_cls):
            probs = []
            call, reorder = getattr(owner, name), cache_cls.reorder

            def recording_call(self, *args, cache=None, **kwargs):
                out = call(self, *args, cache=cache, **kwargs)
                if cache is not None:
                    probs.append(out.data[:, -1].tobytes())
                return out

            def recording_reorder(self, rows):
                reorders.append(list(rows))
                return reorder(self, rows)

            with monkeypatch.context() as m:
                m.setattr(models, "DecodeCache", cache_cls)
                m.setattr(owner, name, recording_call)
                m.setattr(cache_cls, "reorder", recording_reorder)
                tokens = []
                for src, _ in pairs[:20]:
                    out_len = model.config.max_len
                    if kind == "fs":
                        out_len = min(models.predict_length(len(src), table) + 1, out_len)
                    tokens.append(models.beam_decode(model, np.array([src]), out_len, beam))
            return tokens, probs

        assert run(models.DecodeCache) == run(ConcatCache)
        if beam > 1:
            assert any(len(set(rows)) < len(rows) for rows in reorders)


def _acceptance_corpora():
    """The criterion 8 copy corpus and the echo-runs validation corpus, each
    with a model config and the CE steps that make decodes stop early."""
    from nsqt.data import gen_synthetic_task

    copy = gen_synthetic_task("copy", 12, (3, 8), 100, np.random.default_rng(8))
    copy_cfg = models.ModelConfig(d_model=16, d_hidden=32, vocab_size=12, max_len=20)
    rng = np.random.default_rng(0)
    echo_train = gen_synthetic_task("echo_runs", 20, (4, 12), 2000, rng)
    echo_valid = gen_synthetic_task("echo_runs", 20, (4, 12), 200, rng)
    echo_cfg = models.ModelConfig(d_model=32, d_hidden=64, vocab_size=20, max_len=32)
    return {
        "copy": (copy, copy, copy_cfg, 0, 100),
        "echo_runs": (echo_train, echo_valid, echo_cfg, 120, 40),
    }


@functools.lru_cache(maxsize=None)
def _acceptance_model(kind, corpus_name):
    """A model of ``kind`` CE-trained as ``_acceptance_corpora`` prescribes,
    with the validation pairs to decode and the training length table;
    built once per test session."""
    from nsqt import pipeline as pl
    from nsqt.data import build_length_table

    train, valid, cfg, ce_steps, n_sent = _acceptance_corpora()[corpus_name]
    model = models.build_model(kind, cfg, seed=1)
    if ce_steps:
        pl.train_ce(model, train, pl.TrainConfig(max_steps=ce_steps, lr=0.003, warmup=50))
    return model, valid.pairs[:n_sent], build_length_table(train)


@pytest.mark.parametrize("corpus_name", ["copy", "echo_runs"])
@pytest.mark.parametrize("kind", ["ar", "fs"])
def test_cached_decode_matches_rerun_prefix_reference(kind, corpus_name, monkeypatch):
    model, pairs, table = _acceptance_model(kind, corpus_name)
    cfg = model.config
    reorders = []
    original = models.DecodeCache.reorder

    def recording(self, rows):
        reorders.append(list(rows))
        return original(self, rows)

    monkeypatch.setattr(models.DecodeCache, "reorder", recording)
    stopped_early = 0
    for src, _ in pairs:
        src_arr = np.array([src])
        if kind == "fs":
            out_len = min(models.predict_length(len(src), table) + 1, cfg.max_len)
        else:
            out_len = cfg.max_len
        for beam in (1, 4):
            with tc.no_grad():
                want, want_steps = rerun_prefix_decode(model, src_arr, out_len, beam)
            tokens, steps = models.beam_decode(model, src_arr, out_len, beam=beam)
            # early stopping changes how many steps run, never what is decoded
            assert tokens == want
            assert steps <= want_steps
            stopped_early += steps < want_steps
    # beams were dropped, duplicated and permuted, not only kept in place
    assert any(rows != list(range(len(rows))) for rows in reorders)
    if corpus_name == "echo_runs":
        assert stopped_early > 0


def test_trained_ar_greedy_stops_before_max_len():
    from nsqt import pipeline as pl
    from nsqt.data import ParallelCorpus

    model, pairs, table = _acceptance_model("ar", "echo_runs")
    corpus = ParallelCorpus(pairs)
    report = pl.evaluate(model, corpus, pl.DecodeConfig(mode="greedy"), table)
    assert min(report.raw_output_lens) < model.config.max_len
    # the invocation counts are the steps actually run
    assert report.per_sentence_invocations["decoder_calls"] == report.raw_output_lens


@functools.lru_cache(maxsize=None)
def _small_trained(kind, seed, ce_steps):
    from nsqt import pipeline as pl
    from nsqt.data import gen_synthetic_task

    cfg = models.ModelConfig(d_model=8, d_hidden=16, n_head=2, vocab_size=10, max_len=12)
    model = models.build_model(kind, cfg, seed=seed)
    if ce_steps:
        train = gen_synthetic_task("copy", 10, (1, 4), 64, np.random.default_rng(seed))
        pl.train_ce(model, train, pl.TrainConfig(max_steps=ce_steps, lr=0.01, warmup=5))
    return model


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["ar", "fs"]),
    seed=st.integers(0, 3),
    ce_steps=st.sampled_from([0, 10, 30, 60]),
    src=st.lists(st.integers(4, 9), min_size=1, max_size=6),
    out_len=st.integers(3, 10),
    beam=st.integers(1, 4),
)
def test_early_stop_is_exact(kind, seed, ce_steps, src, out_len, beam):
    model = _small_trained(kind, seed, ce_steps)
    src_arr = np.array([src])
    with tc.no_grad():
        want, _ = rerun_prefix_decode(model, src_arr, out_len, beam)
    model.reset_counters()
    tokens, steps = models.beam_decode(model, src_arr, out_len, beam)
    assert tokens == want
    assert 1 <= steps <= out_len
    # one decoder call per step
    calls = model.decoder_calls if kind == "ar" else model.top_calls
    assert calls == steps


class _ScriptedAR:
    """An AR stand-in whose next-token distribution depends only on the
    newest token: ``script[token]``, else all mass on EOS."""

    kind = "ar"

    def __init__(self, script, vocab_size):
        self.script, self.vocab_size = script, vocab_size

    def encode(self, src_ids):
        return None

    def forward(self, src_ids, tgt_in, enc=None, cache=None):
        probs = np.zeros((len(tgt_in), 1, self.vocab_size))
        for i, last in enumerate(np.asarray(tgt_in)[:, -1]):
            for tok, p in self.script.get(int(last), {models.EOS: 1.0}).items():
                probs[i, 0, tok] = p
        return tc.Tensor(probs)


def test_tie_with_best_finished_does_not_stop():
    # step 1 finishes (EOS,) at log 0.5 and keeps (PAD,) at log 0.25, whose
    # bound log(0.25) / 2 ties it exactly; step 2 ends (PAD, EOS) at that
    # same score, and the tie goes to the smaller token tuple
    assert np.log(0.25) / 2 == np.log(0.5)
    model = _ScriptedAR({models.BOS: {models.PAD: 0.25, models.EOS: 0.5, 5: 0.25}}, 8)
    assert models.beam_decode(model, SRC, out_len=2, beam=1) == ([models.PAD], 2)


class TestPredictLength:
    def test_present_key(self):
        table = models.LengthTable({3: 4})
        assert models.predict_length(3, table) == 4

    def test_empty_table_falls_back_to_src_len(self):
        assert models.predict_length(7, models.LengthTable()) == 7

    def test_nearest_key(self):
        table = models.LengthTable({3: 4, 10: 12})
        assert models.predict_length(5, table) == 4

    def test_tie_prefers_smaller_key(self):
        table = models.LengthTable({3: 30, 7: 70})
        assert models.predict_length(5, table) == 30


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["ar", "nat", "fs"])
    def test_round_trip_bitwise(self, kind, tmp_path):
        model = models.build_model(kind, CFG, seed=23)
        path = tmp_path / f"{kind}.nsqt"
        checkpoint.save_model(model, path, seed=23)
        clone = checkpoint.load_model(path)
        assert clone.kind == kind
        assert clone.config == CFG
        for name, data in model.state().items():
            assert np.array_equal(clone.state()[name], data), name

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKXXXX")
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_model(path)

    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "model.nsqt"
        checkpoint.save_model(models.build_model("fs", CFG, seed=2), path, seed=2)
        return path, path.read_bytes()

    @staticmethod
    def resealed(raw):
        """A version-2 file with its checksum recomputed after an edit."""
        return raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4]))

    def test_truncated_file(self, saved):
        path, raw = saved
        # cuts inside the header, the config, a tensor name, a shape and a payload
        cuts = sorted({5, 9, 12, 20, 40, 52, 60, 66, 70, 80, len(raw) // 2, len(raw) - 1})
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(checkpoint.CheckpointError, match="truncated"):
                checkpoint.load_model(path)

    def test_trailing_bytes(self, saved):
        path, raw = saved
        for extra in (b"\x00", b"NSQT" * 3):
            path.write_bytes(raw + extra)
            with pytest.raises(checkpoint.CheckpointError, match="unexpected bytes"):
                checkpoint.load_model(path)

    def test_corrupt_length_field_allocates_nothing(self, saved):
        path, raw = saved
        # the kind-name length field, set to 4 GiB - 1
        path.write_bytes(raw[:8] + b"\xff\xff\xff\xff" + raw[12:])
        with pytest.raises(checkpoint.CheckpointError, match="truncated"):
            checkpoint.load_model(path)

    def test_unbuildable_description(self, saved):
        path, raw = saved
        # kind "fs" -> "fx": a complete file naming no model kind
        path.write_bytes(
            self.resealed(raw.replace(b"\x02\x00\x00\x00fs", b"\x02\x00\x00\x00fx", 1))
        )
        with pytest.raises(checkpoint.CheckpointError, match="loadable"):
            checkpoint.load_model(path)

    def test_zero_heads_in_config(self, saved):
        path, raw = saved
        # n_head follows magic, version, kind "fs", seed, d_model, d_hidden, n_layer
        at = 8 + 4 + 2 + 8 + 3 * 4
        assert raw[at : at + 4] == (2).to_bytes(4, "little")
        path.write_bytes(self.resealed(raw[:at] + bytes(4) + raw[at + 4 :]))
        with pytest.raises(checkpoint.CheckpointError, match="n_head"):
            checkpoint.load_model(path)

    def test_version_2_ends_with_crc_of_the_rest(self, saved):
        _, raw = saved
        assert raw[:8] == b"NSQT\x02\x00\x00\x00"
        assert raw[-4:] == struct.pack("<I", zlib.crc32(raw[:-4]))

    @pytest.mark.parametrize("field", [None, "max_len", "vocab_size", "d_model", "d_hidden", "n_layer"])
    def test_version_1_is_refused(self, saved, monkeypatch, field):
        # version 1 is the same fields without the checksum, so nothing would
        # catch a corrupt header byte: one in max_len, which sizes no stored
        # tensor, loaded as max_len 65552. The file is refused whole, intact
        # or not, before any model is built
        path, raw = saved
        blob = b"NSQT\x01\x00\x00\x00" + raw[8:-4]
        if field is not None:
            index = checkpoint.CONFIG_FIELDS.index(field)
            at = 8 + 4 + 2 + 8 + struct.calcsize(checkpoint.CONFIG_FORMAT[: 1 + index]) + 2
            assert blob[at] == 0
            blob = blob[:at] + b"\x01" + blob[at + 1 :]
        path.write_bytes(blob)
        built = []
        monkeypatch.setattr(checkpoint, "build_model", lambda *a, **kw: built.append(a))
        with pytest.raises(checkpoint.CheckpointError, match="unsupported format version 1"):
            checkpoint.load_model(path)
        assert built == []

    def test_config_block_holds_every_model_field(self, saved):
        _, raw = saved
        names = tuple(f.name for f in dataclasses.fields(models.ModelConfig))
        assert checkpoint.CONFIG_FIELDS == names
        # the config block, spelled out: it follows magic, version, kind "fs" and seed
        at = 8 + 4 + 2 + 8
        block = struct.pack(
            "<IIIIdII",
            CFG.d_model, CFG.d_hidden, CFG.n_layer, CFG.n_head,
            CFG.p_dropout, CFG.vocab_size, CFG.max_len,
        )
        assert raw[at : at + len(block)] == block

    def test_flipped_payload_bit_is_checkpoint_error(self, saved):
        # a flipped bit in the last weight leaves every length field intact,
        # so only the checksum tells the damaged file from a good one
        path, raw = saved
        path.write_bytes(raw[:-5] + bytes([raw[-5] ^ 0x01]) + raw[-4:])
        with pytest.raises(checkpoint.CheckpointError, match="checksum mismatch"):
            checkpoint.load_model(path)

    def test_too_many_dimensions_is_checkpoint_error(self, saved):
        # the first tensor's ndim follows the header, the tensor count and its name;
        # 612 dimensions of which one is 0 hold no payload, but numpy allows 64
        path, raw = saved
        at = 8 + 4 + 2 + 8 + struct.calcsize(checkpoint.CONFIG_FORMAT) + 4
        (name_len,) = struct.unpack_from("<I", raw, at)
        at += 4 + name_len
        (ndim,) = struct.unpack_from("<I", raw, at)
        shape = struct.pack("<612I", *([0] + [1] * 611))
        blob = raw[:at] + struct.pack("<I", 612) + shape + raw[at + 4 + 4 * ndim :]
        path.write_bytes(self.resealed(blob))
        with pytest.raises(checkpoint.CheckpointError, match="tensor"):
            checkpoint.load_model(path)

    def test_flipped_max_len_byte_is_checkpoint_error(self, tmp_path, monkeypatch):
        # byte 2 of max_len = 16 set to 1 reads as max_len 65552; the
        # checksum catches it before a 65552-row positional table is built
        path = tmp_path / "ar.nsqt"
        checkpoint.save_model(models.build_model("ar", CFG, seed=2), path, seed=2)
        raw = bytearray(path.read_bytes())
        at = 8 + 4 + 2 + 8 + struct.calcsize("<IIIIdI")
        assert raw[at : at + 4] == struct.pack("<I", CFG.max_len) == b"\x10\x00\x00\x00"
        raw[at + 2] = 1
        path.write_bytes(raw)
        built = []
        monkeypatch.setattr(checkpoint, "build_model", lambda *a, **kw: built.append(a))
        with pytest.raises(checkpoint.CheckpointError, match="checksum mismatch"):
            checkpoint.load_model(path)
        assert built == []

    def test_huge_max_len_header_builds_nothing(self, saved, monkeypatch):
        # max_len sizes no stored tensor, so a file written with max_len
        # 10^9 and a valid checksum passes every other check; the config's
        # bound refuses it before a positional table is built
        path, raw = saved
        at = 8 + 4 + 2 + 8 + struct.calcsize(checkpoint.CONFIG_FORMAT[:-1])
        assert raw[at : at + 4] == struct.pack("<I", CFG.max_len)
        path.write_bytes(self.resealed(raw[:at] + struct.pack("<I", 10**9) + raw[at + 4 :]))
        monkeypatch.setattr(models, "sinusoidal_encoding", lambda *a: pytest.fail("table built"))
        with pytest.raises(checkpoint.CheckpointError, match="max_len must be <= 10000, got 1000000000"):
            checkpoint.load_model(path)

    @pytest.mark.parametrize("field", ["vocab_size", "d_model", "d_hidden", "n_layer"])
    def test_header_size_mismatch_builds_nothing(self, saved, monkeypatch, field):
        # a wrong high byte in a field that sizes stored tensors would ask
        # build_model for gigabytes; written with a valid checksum, only the
        # check against the tensors catches it
        path, raw = saved
        index = checkpoint.CONFIG_FIELDS.index(field)
        at = 8 + 4 + 2 + 8 + struct.calcsize(checkpoint.CONFIG_FORMAT[: 1 + index]) + 3
        assert raw[at] == 0
        path.write_bytes(self.resealed(raw[:at] + b"\x40" + raw[at + 1 :]))
        built = []
        monkeypatch.setattr(checkpoint, "build_model", lambda *a, **kw: built.append(a))
        with pytest.raises(checkpoint.CheckpointError, match="does not match"):
            checkpoint.load_model(path)
        assert built == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_file_raises_only_checkpoint_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.nsqt"
        checkpoint.save_model(models.build_model("fs", CFG, seed=2), path, seed=2)
        raw = path.read_bytes()
        damage = data.draw(st.sampled_from(["truncate", "append", "flip", "random"]))
        if damage == "truncate":
            blob = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif damage == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            blob = raw[:at] + bytes([raw[at] ^ 1 << data.draw(st.integers(0, 7))]) + raw[at + 1 :]
        elif damage == "append":
            blob = raw + data.draw(st.binary(min_size=1, max_size=64))
        else:
            blob = data.draw(st.binary(max_size=256))
        path.write_bytes(blob)
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_model(path)


def test_shift_right():
    out = models.shift_right(np.array([[5, 6, 7]]))
    assert out.tolist() == [[models.BOS, 5, 6]]
