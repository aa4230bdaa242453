"""Training loops, decoding, evaluation, and distillation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsqt import estimators as est
from nsqt import pipeline as pl
from nsqt import rewards
from nsqt import tensor as tc
from nsqt.data import EmptyCorpusError, ParallelCorpus, build_length_table, gen_synthetic_task
from nsqt.models import LengthTable, ModelConfig, NATModel, build_model

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
# dedup and stripping


def test_dedup_worked_example():
    assert pl.dedup_consecutive([7, 7, 9, 9, 9, 4]) == [7, 9, 4]


def test_dedup_keeps_non_adjacent_repeats():
    assert pl.dedup_consecutive([7, 9, 7]) == [7, 9, 7]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=20))
def test_dedup_idempotent_and_never_lengthens(tokens):
    once = pl.dedup_consecutive(tokens)
    assert len(once) <= len(tokens)
    assert pl.dedup_consecutive(once) == once
    # no adjacent duplicates remain
    assert all(a != b for a, b in zip(once, once[1:]))


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
    corpus = tiny_corpus()
    table = LengthTable({3: 3})
    lookups = []
    monkeypatch.setattr(pl, "predict_length", lambda *a: lookups.append(a))
    pl.train_ce(build_model("nat", TINY, seed=3), corpus, tiny_cfg(), table=table)
    ecfg = est.EstimatorConfig(k=2, n=2)
    pl.finetune_rl(
        build_model("nat", TINY, seed=3),
        corpus,
        ecfg,
        rewards.RewardFn("GLEU"),
        tiny_cfg(max_steps=3),
        table=table,
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
    oracle = est.enumerate_expected_gradient(sentence, constant, tuple(tgts[0]))
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
        b1, b2, eps = self.cfg.adam_beta1, self.cfg.adam_beta2, self.cfg.adam_eps
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.step_count)
            vhat = v / (1 - b2**self.step_count)
            p.data -= lr * mhat / (np.sqrt(vhat) + eps)


ADAM_SHAPES = [(3, 4), (5,), (2, 3, 2), (4,)]


def _adam_params(seed):
    rng = np.random.default_rng(seed)
    return [tc.Tensor(rng.standard_normal(s), requires_grad=True) for s in ADAM_SHAPES]


def _set_grads(params, rng, skip=()):
    for i, p in enumerate(params):
        scale = 10.0 ** rng.integers(-4, 2)
        p.grad = None if i in skip else rng.standard_normal(p.data.shape) * scale


@pytest.mark.parametrize("warmup", [1, 3])
def test_flat_adam_matches_per_parameter_reference(warmup):
    """Bitwise over several steps, with a parameter left out now and then
    and one that never gets a gradient."""
    cfg = pl.TrainConfig(lr=0.05, warmup=warmup)
    flat_params, ref_params = _adam_params(1), _adam_params(1)
    flat, ref = pl.Adam(flat_params, cfg), ReferenceAdam(ref_params, cfg)
    skips = [(3,), (3, 1), (3,), (0, 3), (3,), (1, 2, 3)]
    for step, skip in enumerate(skips):
        for params in (flat_params, ref_params):
            _set_grads(params, np.random.default_rng(step), skip)
        flat.step()
        ref.step()
        assert flat.step_count == ref.step_count
        for i, (p, q) in enumerate(zip(flat_params, ref_params)):
            assert p.data.tobytes() == q.data.tobytes()
            lo, hi = flat.offsets[i], flat.offsets[i + 1]
            assert flat.m[lo:hi].tobytes() == ref.m[i].reshape(-1).tobytes()
            assert flat.v[lo:hi].tobytes() == ref.v[i].reshape(-1).tobytes()
    # the parameter that never had a gradient is untouched
    assert flat_params[3].data.tobytes() == _adam_params(1)[3].data.tobytes()
    assert not flat.m[flat.offsets[3]:].any() and not flat.v[flat.offsets[3]:].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_non_finite_gradient_before_any_change(bad):
    params = _adam_params(2)
    opt = pl.Adam(params, pl.TrainConfig(warmup=1))
    for step in range(2):
        _set_grads(params, np.random.default_rng(step))
        opt.step()
    _set_grads(params, np.random.default_rng(7))
    params[2].grad[1, 0, 1] = bad
    m, v, data = opt.m.copy(), opt.v.copy(), [p.data.copy() for p in params]
    with pytest.raises(pl.TrainingError, match="non-finite gradient at step 3"):
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
    dec = pl.DecodeConfig(mode="nat_argmax", dedup=False)
    assert pl.decode(model, (7, 5, 9), dec, table) == [7, 5, 9]


def test_nat_decode_dedups_when_enabled():
    class Repeater(NATModel):
        def forward(self, src_ids, out_len):
            data = np.zeros((1, out_len, self.config.vocab_size))
            for t, tok in enumerate([7, 7, 9, 9, 9, 4]):
                data[0, t, tok] = 1.0
            return tc.Tensor(data)

    model = Repeater(TINY, seed=0)
    table = LengthTable({3: 6})
    assert pl.decode(model, (4, 4, 4), pl.DecodeConfig(mode="nat_argmax"), table) == [7, 9, 4]
    no_dedup = pl.DecodeConfig(mode="nat_argmax", dedup=False)
    assert pl.decode(model, (4, 4, 4), no_dedup, table) == [7, 7, 9, 9, 9, 4]


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


# ---------------------------------------------------------------------------
# distillation


def test_distill_preserves_sources_and_size():
    corpus = tiny_corpus(count=10)
    teacher = build_model("ar", TINY, seed=2)
    out = pl.distill_corpus(teacher, corpus, pl.DecodeConfig(mode="greedy"))
    assert out.size == corpus.size
    assert [s for s, _ in out.pairs] == [s for s, _ in corpus.pairs]
    for _, tgt in out.pairs:
        assert len(tgt) > 0


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


def test_distill_with_converged_teacher_preserves_targets():
    cfg = ModelConfig(
        d_model=32, d_hidden=64, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=10, max_len=16
    )
    train = gen_synthetic_task("copy", 10, (2, 5), 300, np.random.default_rng(1))
    teacher = build_model("ar", cfg, seed=1)
    pl.train_ce(
        teacher, train, pl.TrainConfig(max_steps=1500, lr=0.003, warmup=100, rng_seed=1)
    )
    subset = ParallelCorpus(train.pairs[:40], train.vocab)
    out = pl.distill_corpus(teacher, subset, pl.DecodeConfig(mode="greedy"))
    assert [tuple(t) for _, t in out.pairs] == [t for _, t in subset.pairs]


def test_distill_deterministic():
    corpus = tiny_corpus(count=8)
    teacher = build_model("ar", TINY, seed=2)
    dec = pl.DecodeConfig(mode="beam", beam=2)
    a = pl.distill_corpus(teacher, corpus, dec)
    b = pl.distill_corpus(teacher, corpus, dec)
    assert a.pairs == b.pairs


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
    report = pl.evaluate(
        Echo(TINY, seed=0), corpus, pl.DecodeConfig(mode="nat_argmax", dedup=False), table
    )
    assert report.corpus_bleu == pytest.approx(1.0)
    assert report.mean_gleu == pytest.approx(1.0)


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
        build_model("nat", cfg, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax")
    )
    assert sum(b[1] for b in report.buckets) == corpus.size
    los = [b[0] for b in report.buckets]
    assert los == sorted(los) and all(lo % 10 == 0 for lo in los)


def test_evaluate_mean_lengths():
    corpus = tiny_corpus(count=5)
    report = pl.evaluate(
        build_model("nat", TINY, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax")
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
def test_validation_schedule_and_patience(loop, monkeypatch):
    """Validation runs at multiples of eval_every with dropout off, a tie does
    not improve, and training stops right after ``patience`` validations in
    a row fail to beat the best score."""
    scores = iter([0.5, 0.4, 0.6, 0.6, 0.1, 0.9])
    modes = []

    def scripted(model, corpus, dec, table):
        modes.append(model.training)
        return next(scores)

    monkeypatch.setattr(pl, "mean_validation_gleu", scripted)
    model = build_model("nat", TINY, seed=3)
    cfg = tiny_cfg(max_steps=40, eval_every=3, patience=2)
    rows = loop(model, tiny_corpus(), cfg, valid=tiny_corpus(count=4, seed=1))
    valid = [(step, metric, value) for step, split, metric, value in rows if split == "valid"]
    assert valid == [(3, "gleu", 0.5), (6, "gleu", 0.4), (9, "gleu", 0.6), (12, "gleu", 0.6),
                     (15, "gleu", 0.1)]
    assert sorted({step for step, split, _, _ in rows if split == "train"}) == list(range(1, 16))
    assert rows[-1] == (15, "valid", "gleu", 0.1)
    assert modes == [False] * 5


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
    from nsqt import errors, models

    assert pl.ContractError is est.ContractError is errors.ContractError
    assert models.CapacityError is est.CapacityError is errors.CapacityError
    # an estimator precondition is caught by a pipeline-level handler
    with pytest.raises(pl.ContractError):
        est.EstimatorConfig(k=-1)
