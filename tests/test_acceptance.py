"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. End-to-end training state is computed once and shared across the
criteria that need it.
"""

import math
import time

import numpy as np
import pytest

import conftest
import oracles
from nsqt import estimators as est
from nsqt import pipeline as pl
from nsqt import rewards
from nsqt import tensor as tc
from nsqt.data import build_length_table, gen_synthetic_task
from nsqt.models import ModelConfig, build_model

_state = {}


def report(num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared end-to-end state (echo-runs task, the repetition-prone setting)

ECHO_MODEL = ModelConfig(
    d_model=32, d_hidden=64, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=20, max_len=32
)


def echo_data():
    if "echo" not in _state:
        rng = np.random.default_rng(0)
        train = gen_synthetic_task("echo_runs", 20, (4, 12), 2000, rng)
        valid = gen_synthetic_task("echo_runs", 20, (4, 12), 200, rng)
        _state["echo"] = (train, valid, build_length_table(train))
    return _state["echo"]


def ce_nat():
    """NAT model cross-entropy-pretrained on the echo-runs task."""
    if "ce_nat" not in _state:
        train, valid, table = echo_data()
        model = build_model("nat", ECHO_MODEL, seed=0)
        pl.train_ce(
            model,
            train,
            pl.TrainConfig(max_steps=2000, lr=0.003, warmup=200, rng_seed=0),
        )
        dec = pl.DecodeConfig(mode="nat_argmax")
        gleu = pl.mean_validation_gleu(model, valid, dec, table)
        _state["ce_nat"] = (model, gleu)
    return _state["ce_nat"]


# ---------------------------------------------------------------------------


def test_criterion_01_proof_identity():
    t0 = time.time()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        V = int(rng.integers(2, 6))
        T = int(rng.integers(1, 4))
        dist = est.random_distributions(T, V, rng)
        reward = oracles.random_reward_table(T, V, rng)  # ignores the reference
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        direct = oracles.enumerate_gradient_direct(dist, reward, ref).dprobs
        factored = oracles.enumerate_gradient_factored(dist, reward, ref).dprobs
        worst = max(worst, float(np.abs(direct - factored).max()))
    report(
        1,
        "proof identity (direct vs per-position enumeration)",
        worst <= 1e-10,
        f"max |diff| = {worst:.3e} over 20 instances in {time.time() - t0:.1f}s",
    )


@pytest.mark.slow
def test_criterion_02_unbiasedness():
    t0 = time.time()
    V, T, reps = 4, 3, 50_000
    rng = np.random.default_rng(2024)
    dist = est.random_distributions(T, V, rng)
    ref = (1, 3, 0)
    reward = rewards.RewardFn("GLEU")
    oracle = oracles.enumerate_expected_gradient(dist, reward, ref).dprobs
    worst_z = 0.0
    for k in (0, 1, 2):
        for n in (1, 20):
            cfg = est.EstimatorConfig(k=k, n=n)
            stats = est.reinforce_nat_stats(
                dist, cfg, reward, ref, reps, np.random.default_rng((7, k, n))
            )
            se = np.sqrt(stats.per_entry_variance / reps)
            z = np.abs(stats.mean_dprobs - oracle) / (se + 1e-12)
            worst_z = max(worst_z, float(z.max()))
    report(
        2,
        "unbiasedness (50k estimates vs enumeration oracle)",
        worst_z <= 3.0,
        f"max |z| = {worst_z:.2f} over k in {{0,1,2}} x n in {{1,20}} "
        f"in {time.time() - t0:.0f}s",
    )


def test_criterion_03_exact_at_full_traversal():
    t0 = time.time()
    worst = 0.0
    for i in range(10):
        rng = np.random.default_rng(300 + i)
        V = int(rng.integers(2, 6))
        T = int(rng.integers(1, 4))
        dist = est.random_distributions(T, V, rng)
        ref = tuple(int(x) for x in rng.integers(0, V, size=T))
        reward = rewards.RewardFn("GLEU")
        oracle = oracles.enumerate_expected_gradient(dist, reward, ref).dprobs
        cfg = est.EstimatorConfig(k=V, n=1)
        got = est.reinforce_nat_step(
            dist, cfg, reward, ref, np.random.default_rng(i), exact_rewards=True
        ).dprobs
        worst = max(worst, float(np.abs(got - oracle).max()))
    report(
        3,
        "exactness at k=V with exact rewards",
        worst <= 1e-10,
        f"max |diff| = {worst:.3e} over 10 instances in {time.time() - t0:.1f}s",
    )


@pytest.mark.slow
def test_criterion_04_variance_reduction():
    t0 = time.time()
    # the estimator-bench sweep at seed 0: k in {0, 5}, V=10, T=3, n=20
    k0, k5 = (
        [s.total_variance for s in stats]
        for stats in est.variance_sweep(
            (0, 5), 3, 10, est.EstimatorConfig(n=20), 5, 10_000, rewards.RewardFn("GLEU"), 0
        )
    )
    pairs = list(zip(k0, k5))
    wins = sum(b <= a for a, b in pairs)
    detail = "; ".join(f"k0={a:.3g} k5={b:.3g}" for a, b in pairs)
    report(
        4,
        "variance reduction (k=5 vs k=0, 10k reps)",
        wins >= 4,
        f"{wins}/5 instances, {detail}, in {time.time() - t0:.0f}s",
    )


def test_criterion_05_gradient_integrity():
    t0 = time.time()
    # primitives at 1e-5
    rng = np.random.default_rng(5)
    prim_reports = []
    x = tc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = tc.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    prim_reports.append(
        oracles.grad_check(lambda: oracles.tsum(tc.linear(x, w, tc.Tensor(np.zeros(4)))), [x, w])
    )
    y = tc.Tensor(rng.normal(size=(2, 5)) + 0.1, requires_grad=True)
    # the softmax of y itself: y @ I + 0 is exact
    eye, zeros = tc.Tensor(np.eye(5)), tc.Tensor(np.zeros(5))
    prim_reports.append(
        oracles.grad_check(lambda: oracles.tsum(tc.mul(tc.linear_softmax(y, eye, zeros), y)), [y])
    )
    z = tc.Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    prim_reports.append(oracles.grad_check(lambda: oracles.tsum(oracles.log(z)), [z]))
    g = tc.Tensor(np.ones(3), requires_grad=True)
    b = tc.Tensor(np.zeros(3), requires_grad=True)
    h = tc.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    prim_reports.append(
        oracles.grad_check(lambda: oracles.tsum(tc.layer_norm(h, g, b)), [h, g, b])
    )
    prim_ok = all(r.passed for r in prim_reports)
    prim_worst = max(r.max_rel_error for r in prim_reports)

    # full models at 1e-4
    cfg = ModelConfig(
        d_model=4, d_hidden=8, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=6, max_len=8
    )
    srcs = np.array([[4, 5, 4]], dtype=np.int64)
    tgts = np.array([[5, 4, 5]], dtype=np.int64)
    model_worst = {}
    for kind in ("ar", "nat", "fs"):
        model = build_model(kind, cfg, seed=2)

        def loss():
            probs = model.train_distributions(srcs, tgts)
            picked = oracles.take(probs, (np.zeros(3, np.int64), np.arange(3), tgts[0]))
            return tc.mul(oracles.tsum(oracles.log(picked)), -1.0)

        r = oracles.grad_check(loss, model.parameters(), tol=1e-4)
        model_worst[kind] = r.max_rel_error
    ok = prim_ok and all(v <= 1e-4 for v in model_worst.values())
    report(
        5,
        "gradient integrity (primitives 1e-5, models 1e-4)",
        ok,
        f"primitives max rel err {prim_worst:.2e}; models "
        + ", ".join(f"{k}={v:.2e}" for k, v in model_worst.items())
        + f"; {time.time() - t0:.0f}s",
    )


@pytest.mark.slow
def test_criterion_06_rl_improves_nat():
    t0 = time.time()
    train, valid, table = echo_data()
    model, baseline = ce_nat()
    tuned = build_model("nat", ECHO_MODEL, seed=0)
    tuned.load_state(model.state())
    pl.finetune_rl(
        tuned,
        train,
        est.EstimatorConfig(k=5, n=20, rng_seed=1),
        rewards.RewardFn("GLEU"),
        pl.TrainConfig(max_steps=200, lr=0.0003, warmup=50, rng_seed=1),
    )
    dec = pl.DecodeConfig(mode="nat_argmax")
    after = pl.mean_validation_gleu(tuned, valid, dec, table)
    gain = after - baseline
    report(
        6,
        "sequence-level fine-tuning improves NAT GLEU by >= 0.01",
        gain >= 0.01,
        f"CE {baseline:.4f} -> RL {after:.4f} (gain {gain:+.4f}) "
        f"in {time.time() - t0:.0f}s",
    )


def test_criterion_07_fs_decoder_capability():
    t0 = time.time()
    train, valid, table = echo_data()
    _, nat_gleu = ce_nat()
    fs = build_model("fs", ECHO_MODEL, seed=0)
    pl.train_ce(
        fs, train, pl.TrainConfig(max_steps=2000, lr=0.003, warmup=200, rng_seed=0)
    )
    rep = pl.evaluate(fs, valid, pl.DecodeConfig(mode="greedy"), table)
    structural = rep.per_sentence_invocations["bottom_calls"] == [1] * valid.size and (
        rep.per_sentence_invocations["top_calls"] == rep.raw_output_lens
    )
    ok = rep.mean_gleu >= nat_gleu and structural
    report(
        7,
        "FS-decoder GLEU >= NAT GLEU with hybrid-cost structure",
        ok,
        f"FS {rep.mean_gleu:.4f} vs NAT {nat_gleu:.4f}; bottom once/sentence and "
        f"top once/token: {structural}; {time.time() - t0:.0f}s",
    )


def test_criterion_08_decoding_parallelism_accounting():
    t0 = time.time()
    corpus = gen_synthetic_task("copy", 12, (3, 8), 100, np.random.default_rng(8))
    cfg = ModelConfig(
        d_model=16, d_hidden=32, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=12, max_len=20
    )
    table = build_length_table(corpus)
    nat = pl.evaluate(
        build_model("nat", cfg, seed=1), corpus, pl.DecodeConfig(mode="nat_argmax"), table
    )
    ar = pl.evaluate(
        build_model("ar", cfg, seed=1), corpus, pl.DecodeConfig(mode="greedy"), table
    )
    fs = pl.evaluate(
        build_model("fs", cfg, seed=1), corpus, pl.DecodeConfig(mode="greedy"), table
    )
    ok = (
        nat.per_sentence_invocations["decoder_calls"] == [1] * 100
        and ar.per_sentence_invocations["decoder_calls"] == ar.raw_output_lens
        and fs.per_sentence_invocations["bottom_calls"] == [1] * 100
        and fs.per_sentence_invocations["top_calls"] == fs.raw_output_lens
    )
    report(
        8,
        "decoder invocations: NAT=1, AR=len, FS=1+len per sentence",
        ok,
        f"verified on 100 sentences in {time.time() - t0:.0f}s",
    )


def test_criterion_09_topk_mass_monotonicity():
    t0 = time.time()
    _, valid, _ = echo_data()
    model, _ = ce_nat()
    ks = list(range(1, ECHO_MODEL.vocab_size + 1))
    values, summary = pl.topk_stats(model, valid, ks)
    means = [row[1] for row in summary]
    n_positions = len(values[1])
    hist_ok = all(sum(row[2:]) == n_positions for row in summary)
    mono = all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
    full = abs(means[-1] - 1.0) <= 1e-9
    report(
        9,
        "top-k mass: E[P_k] non-decreasing, E[P_V]=1, histograms complete",
        mono and full and hist_ok,
        f"E[P_1]={means[0]:.3f}, E[P_5]={means[4]:.3f}, E[P_10]={means[9]:.3f}, "
        f"E[P_V]={means[-1]:.6f} over {n_positions} predictions; "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_10_reward_correctness():
    t0 = time.time()
    a, b, c, d, e = 4, 5, 6, 7, 8
    hand = [
        rewards.gleu((a, b, c, d, e), (a, b, c, d, e)) == 1.0,
        rewards.gleu((a, b), (a, c)) == pytest.approx(1 / 3),
        rewards.gleu((a, a), (a,)) == pytest.approx(1 / 3),
        rewards.bleu_sentence((a, b, c, d, e), (a, b, c, d, e)) == 1.0,
        rewards.bleu_sentence((), (a,)) == 0.0,
        rewards.bleu_sentence((a, b, c, d), (a, b, c, d, e))
        == pytest.approx(math.exp(-0.25)),
        rewards.ngram_counts((a, b), max_n=4)
        == {(a,): 1, (b,): 1, (a, b): 1},
        rewards.ngram_counts((a, a, a), max_n=2) == {(a,): 3, (a, a): 2},
        rewards.ngram_counts(()) == {},
    ]
    rng = np.random.default_rng(10)
    props = True
    for _ in range(1000):
        hyp = tuple(int(x) for x in rng.integers(0, 6, size=rng.integers(0, 9)))
        ref = tuple(int(x) for x in rng.integers(0, 6, size=rng.integers(1, 9)))
        g, bl = rewards.gleu(hyp, ref), rewards.bleu_sentence(hyp, ref)
        props &= 0.0 <= g <= 1.0 and 0.0 <= bl <= 1.0
        props &= rewards.gleu(ref, ref) == 1.0 and rewards.bleu_sentence(ref, ref) == 1.0
        props &= rewards.gleu(hyp, ref) == rewards.gleu(ref, hyp)
        absent = 6  # token never drawn above
        props &= rewards.gleu(hyp + (absent,), ref) <= g + 1e-15
    report(
        10,
        "reward correctness (hand examples + 1000 random property pairs)",
        all(hand) and props,
        f"{sum(hand)}/{len(hand)} hand examples, properties hold; "
        f"{time.time() - t0:.1f}s",
    )
