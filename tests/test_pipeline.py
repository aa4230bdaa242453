"""Training loops, decoding, evaluation, and top-k mass statistics."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import oracles
from nsqt import estimators as est
from nsqt import pipeline as pl
from nsqt import rewards
from nsqt import tensor as tc
from nsqt.data import EmptyCorpusError, ParallelCorpus, build_length_table, gen_synthetic_task
from nsqt.models import EOS, LengthTable, ModelConfig, NATModel, build_model

TINY = ModelConfig(
    d_model=16, d_hidden=32, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=12, max_len=16
)


def tiny_corpus(kind="copy", count=40, seed=0, len_range=(3, 6)):
    return gen_synthetic_task(kind, TINY.vocab_size, len_range, count, np.random.default_rng(seed))


def tiny_cfg(**kw):
    base = dict(batch_size=8, max_steps=20, lr=0.005, warmup=10, rng_seed=0, eval_every=10)
    base.update(kw)
    return pl.TrainConfig(**base)


# ---------------------------------------------------------------------------
# cross-entropy training


def test_first_step_loss_near_log_vocab():
    corpus = tiny_corpus()
    model = build_model("nat", TINY, seed=3)
    rows = pl.train_ce(model, corpus, tiny_cfg(max_steps=1))
    loss = rows[0][3]
    assert abs(loss - math.log(TINY.vocab_size)) <= 0.2 * math.log(TINY.vocab_size)


def test_train_ce_deterministic_logs():
    corpus = tiny_corpus()
    valid = tiny_corpus(count=6, seed=1)
    logs = []
    for _ in range(2):
        model = build_model("nat", TINY, seed=3)
        logs.append(pl.train_ce(model, corpus, tiny_cfg(), valid=valid))
    assert logs[0] == logs[1]


def test_train_ce_log_schema():
    corpus = tiny_corpus()
    valid = tiny_corpus(count=6, seed=1)
    rows = pl.train_ce(build_model("nat", TINY, seed=3), corpus, tiny_cfg(), valid=valid)
    assert all(len(r) == 4 for r in rows)
    train_rows = [r for r in rows if r[1] == "train"]
    assert [r[0] for r in train_rows] == list(range(1, len(train_rows) + 1))
    assert {r[2] for r in rows} == {"loss", "gleu"}
    eval_steps = [r[0] for r in rows if r[1] == "valid"]
    assert eval_steps == [10, 20]


def test_train_ce_reduces_loss():
    corpus = tiny_corpus(count=80)
    model = build_model("nat", TINY, seed=3)
    rows = pl.train_ce(model, corpus, tiny_cfg(max_steps=150, lr=0.01))
    first = np.mean([r[3] for r in rows[:10]])
    last = np.mean([r[3] for r in rows[-10:]])
    assert last < 0.5 * first


def test_training_never_queries_length_table(monkeypatch):
    """CE and RL steps use the true target length; only validation decodes
    predict one."""
    corpus = tiny_corpus()
    lookups = []
    monkeypatch.setattr(pl, "predict_length", lambda *a: lookups.append(a))
    pl.train_ce(build_model("nat", TINY, seed=3), corpus, tiny_cfg())
    ecfg = est.EstimatorConfig(k=2, n=2)
    pl.finetune_rl(
        build_model("nat", TINY, seed=3),
        corpus,
        ecfg,
        rewards.RewardFn("GLEU"),
        tiny_cfg(max_steps=3),
    )
    assert lookups == []


@pytest.mark.parametrize("kind", ["ar", "fs"])
def test_finetune_rl_rejects_non_nat(kind):
    corpus = tiny_corpus()
    model = build_model(kind, TINY, seed=0)
    with pytest.raises(pl.ContractError):
        pl.finetune_rl(
            model, corpus, est.EstimatorConfig(), rewards.RewardFn("GLEU"), tiny_cfg()
        )


def test_finetune_rl_checks_its_largest_batch_before_any_step(monkeypatch):
    # at k=1, n=2 over 12 tokens a batch of 3 x 2 tokens builds at most 48
    # clamped tokens and the lone 6-token pair 144; its step would fail
    # mid-run, so the run fails before its first
    short, long = (4, 5), (4, 5, 6, 7, 8, 9)
    corpus = ParallelCorpus([(short, short)] * 3 + [(long, long)], tiny_corpus().vocab)
    ecfg = est.EstimatorConfig(k=1, n=2)
    model = build_model("nat", TINY, seed=3)
    before = model.state()
    calls = []

    def reward(hyp, ref):
        calls.append(hyp)
        return rewards.gleu(hyp, ref)

    monkeypatch.setattr(est, "ENUM_LIMIT", 143)
    with pytest.raises(pl.ContractError, match="n 2 is too large: a batch of 1 x 6 tokens at k 1 could build 144 "):
        pl.finetune_rl(model, corpus, ecfg, reward, tiny_cfg(max_steps=4))
    assert calls == []
    assert all(np.array_equal(before[name], model.state()[name]) for name in before)
    monkeypatch.setattr(est, "ENUM_LIMIT", 144)
    pl.finetune_rl(model, corpus, ecfg, reward, tiny_cfg(max_steps=4))


def test_state_is_a_snapshot():
    # a training step updates the parameters in place; a state taken before
    # it keeps the values it had
    model = build_model("nat", TINY, seed=3)
    before = model.state()
    kept = {name: data.copy() for name, data in before.items()}
    pl.train_ce(model, tiny_corpus(), tiny_cfg(max_steps=1))
    after = model.state()
    assert all(np.array_equal(before[name], kept[name]) for name in kept)
    assert not all(np.array_equal(before[name], after[name]) for name in kept)
    assert all(after[name] is not p.data for name, p in model.store.params.items())


def test_finetune_rl_deterministic_logs():
    corpus = tiny_corpus(len_range=(3, 4))
    ecfg = est.EstimatorConfig(k=3, n=4, rng_seed=9)
    logs = []
    for _ in range(2):
        model = build_model("nat", TINY, seed=3)
        logs.append(
            pl.finetune_rl(
                model, corpus, ecfg, rewards.RewardFn("GLEU"), tiny_cfg(max_steps=5)
            )
        )
    assert logs[0] == logs[1]


def test_finetune_rl_batched_reward_matches_scalar_reward():
    corpus = tiny_corpus(kind="echo_runs", len_range=(3, 6))
    ecfg = est.EstimatorConfig(k=3, n=5, rng_seed=4)
    runs = []
    for reward in (rewards.RewardFn("GLEU"), lambda h, r: rewards.gleu(h, r)):
        model = build_model("nat", TINY, seed=3)
        logs = pl.finetune_rl(model, corpus, ecfg, reward, tiny_cfg(max_steps=4))
        runs.append((logs, model.state()))
    (logs_a, state_a), (logs_b, state_b) = runs
    assert logs_a == logs_b
    assert all(np.array_equal(state_a[name], state_b[name]) for name in state_a)


def test_constant_reward_gives_zero_parameter_gradient():
    """A constant sequence reward makes the expected loss a constant, so the
    exact full-traversal gradient through the softmax must vanish."""
    cfg = ModelConfig(
        d_model=8, d_hidden=16, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=6, max_len=8
    )
    model = build_model("nat", cfg, seed=1)
    srcs = np.array([[4, 5, 4]], dtype=np.int64)
    tgts = np.array([[5, 4, 5]], dtype=np.int64)
    probs = model.train_distributions(srcs, tgts)
    dist = est.PositionDistributions(probs.data, tensor=probs)

    constant = lambda hyp, ref: 0.7
    sentence = est.PositionDistributions(probs.data[0])
    oracle = oracles.enumerate_expected_gradient(sentence, constant, tuple(tgts[0]))
    assert np.allclose(oracle.dprobs, -0.7, atol=1e-12)  # constant across all entries

    ge = est.reinforce_nat_step(
        dist,
        est.EstimatorConfig(k=cfg.vocab_size, n=1),
        constant,
        [tuple(tgts[0])],
        [np.random.default_rng(0)],
        exact_rewards=True,
    )
    model.zero_grad()
    ge.surrogate.backward()
    worst = max(np.abs(p.grad).max() for p in model.parameters())
    assert worst <= 1e-10


def test_train_ce_error_leaves_dropout_off():
    """A TrainingError must not leave the model in training mode, where a
    following finetune_rl or decode would apply dropout."""
    model = build_model("nat", ModelConfig(**{**TINY.__dict__, "p_dropout": 0.3}), seed=3)
    model.embed.data[:] = np.nan
    with pytest.raises(pl.TrainingError, match="diverged"):
        pl.train_ce(model, tiny_corpus(), tiny_cfg(max_steps=3))
    assert model.training is False


def test_finetune_rl_runs_without_dropout():
    """finetune_rl applies no dropout, whatever mode the model arrives in."""
    corpus = tiny_corpus(len_range=(3, 4))
    ecfg = est.EstimatorConfig(k=2, n=3, rng_seed=5)
    cfg = ModelConfig(**{**TINY.__dict__, "p_dropout": 0.3})
    runs = []
    for arrives_training in (False, True):
        model = build_model("nat", cfg, seed=3)
        model.training = arrives_training
        logs = pl.finetune_rl(model, corpus, ecfg, rewards.RewardFn("GLEU"), tiny_cfg(max_steps=3))
        assert model.training is False
        runs.append((logs, model.state()))
    (logs_a, state_a), (logs_b, state_b) = runs
    assert logs_a == logs_b
    assert all(np.array_equal(state_a[name], state_b[name]) for name in state_a)


# ---------------------------------------------------------------------------
# Adam


def eager_batches(corpus, kind, batch_size, rng):
    """One epoch as ``_batches`` built it before it became a generator:
    every batch converted before the first is used."""
    buckets = {}
    for src, tgt in corpus.pairs:
        t = tuple(tgt) if kind == "nat" else tuple(tgt) + (EOS,)
        buckets.setdefault((len(src), len(t)), []).append((src, t))
    batches = []
    for key in sorted(buckets):
        group = buckets[key]
        rng.shuffle(group)
        for i in range(0, len(group), batch_size):
            chunk = group[i : i + batch_size]
            batches.append((np.array([p[0] for p in chunk]), np.array([p[1] for p in chunk])))
    rng.shuffle(batches)
    return batches


@pytest.mark.parametrize("kind", ["nat", "ar"])
def test_lazy_epoch_batches_equal_eager_reference(kind):
    corpus = gen_synthetic_task("echo_runs", 12, (3, 5), 40, np.random.default_rng(7))
    reference_rng = np.random.default_rng(3)
    want = [b for _ in range(2) for b in eager_batches(corpus, kind, 3, reference_rng)]
    # some bucket ends in a partial batch
    assert any(len(src) < 3 for src, _ in want)
    # a batch is converted when it is taken, not when the epoch is drawn
    assert inspect.isgeneratorfunction(pl._batches)
    rng = np.random.default_rng(3)
    got = list(pl._step_generator(corpus, kind, 3, rng, len(want)))
    assert len(got) == len(want)
    for (src_g, tgt_g), (src_w, tgt_w) in zip(got, want):
        assert src_g.dtype == tgt_g.dtype == np.int64
        assert np.array_equal(src_g, src_w) and np.array_equal(tgt_g, tgt_w)
    # both consumed the same draws
    assert rng.random() == reference_rng.random()


class ReferenceAdam:
    """The per-parameter update loop the flat-vector ``pl.Adam`` replaced."""

    def __init__(self, params, cfg):
        self.params = list(params)
        self.cfg = cfg
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self):
        self.step_count += 1
        lr = pl.Adam.rate(self, self.step_count)
        b1, b2, eps = pl.ADAM_BETA1, pl.ADAM_BETA2, pl.ADAM_EPS
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.step_count)
            vhat = v / (1 - b2**self.step_count)
            p.data -= lr * mhat / (np.sqrt(vhat) + eps)


def test_adam_constants_are_fixed_not_configurable():
    """The Transformer's values, as floats; TrainConfig carries no copy of them."""
    assert (pl.ADAM_BETA1, pl.ADAM_BETA2, pl.ADAM_EPS) == (0.9, 0.98, 1e-9)
    fields = {f.name for f in dataclasses.fields(pl.TrainConfig)}
    assert not {name for name in fields if name.startswith("adam")}


ADAM_SHAPES = [(3, 4), (5,), (2, 3, 2), (4,)]


def _adam_params(seed):
    rng = np.random.default_rng(seed)
    return [tc.Tensor(rng.standard_normal(s), requires_grad=True) for s in ADAM_SHAPES]


def _set_grads(params, rng):
    for p in params:
        scale = 10.0 ** rng.integers(-4, 2)
        p.grad = rng.standard_normal(p.data.shape) * scale


@pytest.mark.parametrize("warmup", [1, 3])
def test_flat_adam_matches_per_parameter_reference(warmup):
    """Bitwise over several steps, gradients spanning six decades."""
    cfg = pl.TrainConfig(lr=0.05, warmup=warmup)
    flat_params, ref_params = _adam_params(1), _adam_params(1)
    flat, ref = pl.Adam(flat_params, cfg), ReferenceAdam(ref_params, cfg)
    for step in range(6):
        for params in (flat_params, ref_params):
            _set_grads(params, np.random.default_rng(step))
        flat.step()
        ref.step()
        assert flat.step_count == ref.step_count
        for i, (p, q) in enumerate(zip(flat_params, ref_params)):
            assert p.data.tobytes() == q.data.tobytes()
            lo, hi = flat.offsets[i], flat.offsets[i + 1]
            assert flat.m[lo:hi].tobytes() == ref.m[i].reshape(-1).tobytes()
            assert flat.v[lo:hi].tobytes() == ref.v[i].reshape(-1).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, None])
def test_adam_rejects_non_finite_gradient_before_any_change(bad):
    """A non-finite entry or a missing gradient stops the step untouched."""
    params = _adam_params(2)
    opt = pl.Adam(params, pl.TrainConfig(warmup=1))
    for step in range(2):
        _set_grads(params, np.random.default_rng(step))
        opt.step()
    _set_grads(params, np.random.default_rng(7))
    if bad is None:
        params[2].grad, match = None, "parameter 2 has no gradient at step 3"
    else:
        params[2].grad[1, 0, 1], match = bad, "non-finite gradient at step 3"
    m, v, data = opt.m.copy(), opt.v.copy(), [p.data.copy() for p in params]
    with pytest.raises(pl.TrainingError, match=match):
        opt.step()
    assert opt.step_count == 2
    assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
    assert all(p.data.tobytes() == d.tobytes() for p, d in zip(params, data))


# ---------------------------------------------------------------------------
# decoding


def test_nat_argmax_reproduces_one_hot():
    class OneHot(NATModel):
        def forward(self, src_ids, out_len):
            self.decoder_calls += 1
            B, T = src_ids.shape
            data = np.zeros((B, out_len, self.config.vocab_size))
            for t in range(out_len):
                data[0, t, src_ids[0, t % T]] = 1.0
            return tc.Tensor(data)

    model = OneHot(TINY, seed=0)
    table = LengthTable({3: 3})
    assert pl.decode(model, (7, 5, 9), pl.DecodeConfig(mode="nat_argmax"), table) == [7, 5, 9]


def test_nat_decode_keeps_repeats():
    """Repeated tokens are the NAT failure mode under study: decoding scores
    the argmax row as the model emits it, repeats included."""

    class Repeater(NATModel):
        def forward(self, src_ids, out_len):
            data = np.zeros((1, out_len, self.config.vocab_size))
            for t, tok in enumerate([7, 7, 9, 9, 9, 4]):
                data[0, t, tok] = 1.0
            return tc.Tensor(data)

    model = Repeater(TINY, seed=0)
    table = LengthTable({3: 6})
    dec = pl.DecodeConfig(mode="nat_argmax")
    assert pl.decode(model, (4, 4, 4), dec, table) == [7, 7, 9, 9, 9, 4]


@pytest.mark.parametrize("kind", ["ar", "fs"])
def test_beam_one_equals_greedy(kind):
    model = build_model(kind, TINY, seed=5)
    table = LengthTable({4: 4})
    src = (6, 8, 10, 4)
    greedy = pl.decode(model, src, pl.DecodeConfig(mode="greedy"), table)
    beam1 = pl.decode(model, src, pl.DecodeConfig(mode="beam", beam=1), table)
    assert greedy == beam1


def test_mode_contract_errors():
    table = LengthTable({3: 3})
    with pytest.raises(pl.ContractError):
        pl.decode(build_model("nat", TINY, seed=0), (4, 5, 6), pl.DecodeConfig(mode="greedy"), table)
    with pytest.raises(pl.ContractError):
        pl.decode(build_model("ar", TINY, seed=0), (4, 5, 6), pl.DecodeConfig(mode="nat_argmax"), table)


@pytest.mark.parametrize("mode", ["greedy", "nat_argmax"])
def test_decode_config_rejects_a_beam_it_would_ignore(mode):
    with pytest.raises(pl.ContractError, match="beam 4"):
        pl.DecodeConfig(mode=mode, beam=4)
    assert pl.DecodeConfig(mode=mode, beam=1).beam == 1


def test_decode_corpus_beam_is_deterministic_one_decode_per_source():
    corpus = tiny_corpus(count=8)
    model = build_model("ar", TINY, seed=2)
    dec = pl.DecodeConfig(mode="beam", beam=2)
    a = pl.decode_corpus(model, corpus, dec, build_length_table(corpus))
    b = pl.decode_corpus(model, corpus, dec, build_length_table(corpus))
    assert len(a) == corpus.size
    assert a == b


# ---------------------------------------------------------------------------
# learning the synthetic tasks


def test_nat_learns_copy_task():
    cfg = ModelConfig(
        d_model=32, d_hidden=64, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=20, max_len=32
    )
    rng = np.random.default_rng(0)
    train = gen_synthetic_task("copy", 20, (2, 8), 2000, rng)
    valid = gen_synthetic_task("copy", 20, (2, 8), 50, rng)
    model = build_model("nat", cfg, seed=0)
    pl.train_ce(
        model, train, pl.TrainConfig(max_steps=1000, lr=0.003, warmup=200, rng_seed=0)
    )
    table = build_length_table(train)
    gleu = pl.mean_validation_gleu(model, valid, pl.DecodeConfig(mode="nat_argmax"), table)
    assert gleu > 0.9


def test_ar_greedy_decodes_its_copy_targets_exactly():
    # every decode, with its EOS stopping it at the right length
    cfg = ModelConfig(
        d_model=32, d_hidden=64, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=10, max_len=16
    )
    train = gen_synthetic_task("copy", 10, (2, 5), 300, np.random.default_rng(1))
    model = build_model("ar", cfg, seed=1)
    pl.train_ce(
        model, train, pl.TrainConfig(max_steps=1500, lr=0.003, warmup=100, rng_seed=1)
    )
    subset = ParallelCorpus(train.pairs[:40], train.vocab)
    hyps = pl.decode_corpus(model, subset, pl.DecodeConfig(mode="greedy"), build_length_table(train))
    assert [tuple(h) for h in hyps] == [t for _, t in subset.pairs]


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_echo_model_scores_one():
    class Echo(NATModel):
        def forward(self, src_ids, out_len):
            self.decoder_calls += 1
            data = np.zeros((1, out_len, self.config.vocab_size))
            for t in range(out_len):
                data[0, t, src_ids[0, min(t, src_ids.shape[1] - 1)]] = 1.0
            return tc.Tensor(data)

    corpus = tiny_corpus(count=12)  # copy task: reference == source
    table = build_length_table(corpus)
    report = pl.evaluate(Echo(TINY, seed=0), corpus, pl.DecodeConfig(mode="nat_argmax"), table)
    assert report.corpus_bleu == pytest.approx(1.0)
    assert report.mean_gleu == pytest.approx(1.0)


def test_evaluate_scores_repeated_tokens():
    """A model that emits every source token twice is scored on the doubled
    output, not on the copy that collapsing repeats would leave."""

    class Stutter(NATModel):
        def forward(self, src_ids, out_len):
            data = np.zeros((1, out_len, self.config.vocab_size))
            for t in range(out_len):
                data[0, t, src_ids[0, t // 2]] = 1.0
            return tc.Tensor(data)

    corpus = tiny_corpus(count=12)  # copy task: reference == source
    table = LengthTable({n: 2 * n for n in range(3, 7)})
    report = pl.evaluate(Stutter(TINY, seed=0), corpus, pl.DecodeConfig(mode="nat_argmax"), table)
    assert report.mean_hyp_len == pytest.approx(2 * report.mean_ref_len)
    assert report.corpus_bleu < 1.0
    assert report.mean_gleu < 1.0


def test_evaluate_invocation_counters():
    corpus = tiny_corpus(count=6, len_range=(3, 5))
    table = build_length_table(corpus)
    nat_report = pl.evaluate(
        build_model("nat", TINY, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax"), table
    )
    assert nat_report.per_sentence_invocations["decoder_calls"] == [1] * corpus.size
    assert nat_report.per_sentence_invocations["encoder_calls"] == [1] * corpus.size

    ar_report = pl.evaluate(
        build_model("ar", TINY, seed=1), corpus, pl.DecodeConfig(mode="greedy"), table
    )
    assert ar_report.per_sentence_invocations["decoder_calls"] == ar_report.raw_output_lens

    fs_report = pl.evaluate(
        build_model("fs", TINY, seed=1), corpus, pl.DecodeConfig(mode="greedy"), table
    )
    assert fs_report.per_sentence_invocations["bottom_calls"] == [1] * corpus.size
    assert fs_report.per_sentence_invocations["top_calls"] == fs_report.raw_output_lens


def test_evaluate_buckets_partition_sentences():
    corpus = gen_synthetic_task("copy", 12, (3, 15), 40, np.random.default_rng(4))
    cfg = ModelConfig(
        d_model=16, d_hidden=32, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=12, max_len=32
    )
    report = pl.evaluate(
        build_model("nat", cfg, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax"),
        build_length_table(corpus),
    )
    assert sum(b[1] for b in report.buckets) == corpus.size
    los = [b[0] for b in report.buckets]
    assert los == sorted(los) and all(lo % 10 == 0 for lo in los)


def test_evaluate_mean_lengths():
    corpus = tiny_corpus(count=5)
    report = pl.evaluate(
        build_model("nat", TINY, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax"),
        build_length_table(corpus),
    )
    expect = sum(len(t) for _, t in corpus.pairs) / corpus.size
    assert report.mean_ref_len == pytest.approx(expect)


# ---------------------------------------------------------------------------
# empty corpora


def _finetune(model, corpus, cfg, valid=None):
    ecfg = est.EstimatorConfig(k=2, n=2)
    return pl.finetune_rl(model, corpus, ecfg, rewards.RewardFn("GLEU"), cfg, valid=valid)


@pytest.mark.parametrize("loop", [pl.train_ce, _finetune])
def test_empty_validation_corpus_raises_before_any_step(loop):
    model = build_model("nat", TINY, seed=3)
    before = {name: data.copy() for name, data in model.state().items()}
    with pytest.raises(EmptyCorpusError, match="validation corpus is empty"):
        loop(model, tiny_corpus(), tiny_cfg(eval_every=2), valid=ParallelCorpus([]))
    assert all(np.array_equal(before[n], d) for n, d in model.state().items())


@pytest.mark.parametrize("loop", [pl.train_ce, _finetune])
def test_validation_schedule(loop, monkeypatch):
    """Validation runs at every multiple of eval_every with dropout off, and
    training runs all max_steps steps although no validation score after
    the first beats it (13 validations, none better than the first)."""
    scores = [0.5, 0.4, 0.5, 0.5, 0.1] * 3
    modes = []

    def scripted(model, corpus, dec, table):
        modes.append(model.training)
        return scores[len(modes) - 1]

    monkeypatch.setattr(pl, "mean_validation_gleu", scripted)
    model = build_model("nat", TINY, seed=3)
    cfg = tiny_cfg(max_steps=40, eval_every=3)
    rows = loop(model, tiny_corpus(), cfg, valid=tiny_corpus(count=4, seed=1))
    valid = [(step, metric, value) for step, split, metric, value in rows if split == "valid"]
    assert valid == [(step, "gleu", scores[step // 3 - 1]) for step in range(3, 41, 3)]
    assert sorted({step for step, split, _, _ in rows if split == "train"}) == list(range(1, 41))
    assert rows[-1][:2] == (40, "train")
    assert modes == [False] * 13


@pytest.mark.parametrize(
    "call",
    [
        lambda m, c: pl.evaluate(m, c, pl.DecodeConfig(), LengthTable()),
        lambda m, c: pl.mean_validation_gleu(m, c, pl.DecodeConfig(), LengthTable()),
        lambda m, c: pl.topk_stats(m, c, [1, 5]),
    ],
)
def test_scoring_an_empty_corpus_raises(call):
    with pytest.raises(EmptyCorpusError, match="corpus is empty"):
        call(build_model("nat", TINY, seed=3), ParallelCorpus([]))


def test_error_classes_are_shared_across_modules():
    from nsqt import checkpoint, data, errors, models

    assert pl.ContractError is est.ContractError is errors.ContractError
    assert models.CapacityError is est.CapacityError is errors.CapacityError
    assert pl.TrainingError is errors.TrainingError
    assert checkpoint.CheckpointError is errors.CheckpointError
    assert data.FormatError is errors.FormatError
    assert tc.GraphError is errors.GraphError
    # an estimator precondition is caught by a pipeline-level handler
    with pytest.raises(pl.ContractError):
        est.EstimatorConfig(k=-1)


def test_exception_classes_live_in_errors_only():
    """Every exception class of the library is defined in nsqt.errors, which
    defines exactly seven, and the library raises no bare ValueError,
    RuntimeError or IndexError: the CLI's exit code follows the class."""
    import ast
    import importlib
    import pkgutil
    from pathlib import Path

    import nsqt

    homes = {}
    for info in pkgutil.iter_modules(nsqt.__path__):
        module = importlib.import_module(f"nsqt.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj.__module__.startswith("nsqt"):
                    homes[obj.__name__] = obj.__module__
    assert set(homes.values()) == {"nsqt.errors"}, homes
    assert set(homes) == {
        "ContractError", "CapacityError", "FormatError", "EmptyCorpusError",
        "CheckpointError", "TrainingError", "GraphError",
    }
    banned = ("ValueError", "RuntimeError", "IndexError")
    bare = []
    for path in sorted(Path(nsqt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in banned:
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_tensor_calls_numpy_entry_points():
    """``tensor.py`` calls numpy's C entry points (``np.add.reduce``, the
    ``.swapaxes`` method), not the Python wrappers its hot ops once paid
    for on every call."""
    import ast

    from nsqt import tensor

    with open(tensor.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    wrappers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            via_np = isinstance(owner, ast.Name) and owner.id == "np"
            if attr in ("sum", "max") or (via_np and attr in ("swapaxes", "clip")):
                wrappers.append(f"tensor.py:{node.lineno} {ast.unparse(node.func)}")
    assert wrappers == []


def test_every_library_definition_is_referenced():
    """No dead or test-only helpers: every module-level function and class
    of the library, and every method of its classes but the dunders, is
    named somewhere in the library or perfbench, outside its own definition
    (an attribute, a name or a string such as a patch target). Code that
    only the tests call belongs in ``tests/oracles.py``."""
    import ast
    from collections import Counter
    from pathlib import Path

    import nsqt

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    lib = Path(nsqt.__file__).parent
    root = Path(__file__).resolve().parent.parent
    refs = Counter()
    for folder in (lib, root / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            refs.update(names(ast.parse(path.read_text(encoding="utf-8"))))

    def definitions(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield node
                yield from (
                    sub for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                )
            elif isinstance(node, ast.FunctionDef):
                yield node

    dead = []
    for path in sorted(lib.glob("*.py")):
        for node in definitions(ast.parse(path.read_text(encoding="utf-8")).body):
            own = Counter(names(node))[node.name]
            if refs[node.name] <= own:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []


def test_every_library_import_is_used():
    """No dead imports: every name a library module imports, at module level
    or inside a function, is read somewhere in that module. A name that is
    only assigned to, or only named in a string, does not count."""
    import ast
    from pathlib import Path

    import nsqt

    unused = []
    for path in sorted(Path(nsqt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
