import bisect
import copy
import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nsqt import estimators as est
from nsqt import pipeline as pl
from nsqt import rewards
from nsqt import tensor as tc
from nsqt.data import gen_synthetic_task
from nsqt.models import ModelConfig, build_model
from test_tensor import add, softmax_rows


def equality_reward(hyp, ref):
    """1 iff all tokens in the candidate agree, else 0 (ignores ref)."""
    return 1.0 if len(set(hyp)) <= 1 else 0.0


def uniform_dist(T, V):
    return est.PositionDistributions(np.full((T, V), 1.0 / V))


# -- the per-sentence estimator, drawing its uniforms in the documented
# -- layout: the oracle the batched reinforce_nat_step must match bitwise


CUTOFF = est.EstimatorConfig.residual_epsilon


def oracle_top_k_partition(row, k):
    order = np.argsort(-row, kind="stable")
    members = np.sort(order[:k])
    mass = float(row[members].sum()) if k else 0.0
    residual = row.copy()
    residual[members] = 0.0
    if 1.0 - mass >= CUTOFF and residual.sum() > 0.0:
        return members, mass, residual / residual.sum(), True
    return members, mass, None, False


def oracle_sample(probs, u):
    """Token t of each row of uniforms ``u`` inverts row t of ``probs`` one
    entry at a time: the count of cumulative sums at or below the uniform,
    clamped to the last token."""
    cums = [list(itertools.accumulate(row)) for row in probs.tolist()]
    V = len(cums[0])
    return [
        [min(bisect.bisect_right(cums[t], x), V - 1) for t, x in enumerate(row)]
        for row in u.tolist()
    ]


def oracle_reinforce_nat_step(dist, config, reward, ref, rng, exact_rewards=False, prefix=()):
    """One sentence: draw ``rng.random(T)`` and, without exact rewards,
    ``rng.random((n, T))``, the n shared base completions; plan (t, y,
    leftover mass or None) per candidate, score each candidate's base rows
    (every sequence, with exact rewards) with position t set to y, then
    build dprobs and the surrogate.
    ``prefix`` holds the leading indices (a batch index) of the sentence
    inside ``dist.tensor``."""
    T, V = dist.T, dist.V
    k, n = config.k, config.n
    ref = tuple(ref)
    u_res = rng.random(T)
    u = None if exact_rewards else rng.random((n, T))
    plan = []
    for t in range(T):
        members, mass, residual, has = oracle_top_k_partition(dist.probs[t], k)
        for y in members:
            plan.append((t, int(y), None))
        if has:
            ((y,),) = oracle_sample(residual[None], np.array([[u_res[t]]]))
            plan.append((t, y, 1.0 - mass))

    if exact_rewards:
        # every sequence, weighted by its probability (row entries
        # multiplied left to right), scored with position t set to y
        values = []
        for t, y, _ in plan:
            total = 0.0
            for seq in itertools.product(range(V), repeat=T):
                prob = 1.0
                for pos, tok in enumerate(seq):
                    prob *= dist.probs[pos, tok]
                r = reward(tuple(y if i == t else tok for i, tok in enumerate(seq)), ref)
                total += r * prob
            values.append(total)
    else:
        base = oracle_sample(dist.probs, u)
        tokens = np.array(
            [[y if i == t else tok for i, tok in enumerate(row)] for t, y, _ in plan for row in base],
            dtype=np.int64,
        ).reshape(len(plan) * n, T)
        batch = getattr(reward, "batch", None)
        if batch is None:
            scores = [reward(tuple(row), ref) for row in tokens]
        else:
            which = np.zeros(len(tokens), dtype=np.int64)
            scores = np.asarray(batch(tokens, [ref], which), dtype=np.float64).tolist()
        values = []
        for i in range(0, len(scores), n):
            total = 0.0  # left to right, as Python 3.11's sum adds floats
            for score in scores[i : i + n]:
                total += score
            values.append(total / n)

    dprobs = np.zeros((T, V))
    prob_t, prob_y, prob_w, log_t, log_y, log_w = [], [], [], [], [], []
    for (t, y, rest), r in zip(plan, values):
        if rest is None:
            dprobs[t, y] -= r
            prob_t.append(t)
            prob_y.append(y)
            prob_w.append(r)
        else:
            weight = rest * r
            dprobs[t, y] -= weight / dist.probs[t, y]
            log_t.append(t)
            log_y.append(y)
            log_w.append(weight)
    surrogate = None
    if dist.tensor is not None:
        terms = []
        if prob_t:
            idx = prefix + (np.array(prob_t), np.array(prob_y))
            terms.append(oracles.tsum(tc.scale(oracles.take(dist.tensor, idx), np.array(prob_w))))
        if log_t:
            idx = prefix + (np.array(log_t), np.array(log_y))
            terms.append(oracles.tsum(tc.scale(oracles.log(oracles.take(dist.tensor, idx)), np.array(log_w))))
        if terms:
            total = terms[0]
            for extra in terms[1:]:
                total = add(total, extra)
            surrogate = tc.scale(total, -1.0)
    return est.GradientEstimate(dprobs, surrogate)


def oracle_batch_step(dist, config, reward, refs, rngs, exact_rewards=False):
    """The B x T x V estimate as the sentence loop finetune_rl ran: one
    oracle call per sentence, surrogates added in sentence order."""
    dprobs, surrogate = [], None
    for b, (ref, rng) in enumerate(zip(refs, rngs)):
        sentence = est.PositionDistributions(dist.probs[b], tensor=dist.tensor)
        ge = oracle_reinforce_nat_step(sentence, config, reward, ref, rng, exact_rewards, (b,))
        dprobs.append(ge.dprobs)
        if ge.surrogate is not None:
            surrogate = ge.surrogate if surrogate is None else add(surrogate, ge.surrogate)
    return est.GradientEstimate(np.stack(dprobs), surrogate)


class TestPositionDistributions:
    def test_rejects_bad_rows(self):
        with pytest.raises(est.ContractError):
            est.PositionDistributions(np.array([[0.5, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(est.ContractError):
            est.PositionDistributions(np.array([[1.2, -0.2]]))

    @pytest.mark.parametrize("shape", [(0, 5), (2, 0, 5), (0, 3, 5), (3, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(est.ContractError, match="empty axis"):
            est.PositionDistributions(np.zeros(shape))

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_rejects_nan(self, lead):
        # nan > 1e-9 is false, so a check that looks only for a large
        # deviation lets the row through
        probs = np.full(lead + (4,), 0.25)
        probs[..., 1, 2] = np.nan
        with pytest.raises(est.ContractError, match="sum to 1"):
            est.PositionDistributions(probs)


# a top-1 mass in [0.5, 1) leaves 1 - mass exactly, a multiple of 2**-53,
# and no such leftover equals the cutoff: EDGE_MASS leaves the smallest one
# at or above it, and one float more mass leaves the largest one below it
EDGE_MASS = 1.0 - math.ceil(CUTOFF * 2.0**53) * 2.0**-53


@st.composite
def partition_cases(draw):
    """A 2-D or 3-D stack of rows and k in [0, V]. Small integer weights
    make ties and zero entries; "edge" makes one row's top-1 leftover the
    smallest at or above the cutoff, where it is still sampled, and "below"
    the next one down, where it no longer is."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    V = draw(st.integers(1, 7))
    size = int(np.prod(lead)) * V
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), float)
    else:
        weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    rows = weights.reshape(-1, V)
    rows[rows.sum(axis=1) == 0.0] = 1.0
    probs = (rows / rows.sum(axis=1, keepdims=True)).reshape(lead + (V,))
    k = draw(st.integers(0, V))
    side = draw(st.sampled_from([None, "edge", "below"])) if V > 1 else None
    if side:
        k = 1
        top = EDGE_MASS if side == "edge" else float(np.nextafter(EDGE_MASS, 2.0))
        first, second = draw(st.permutations(range(V)))[:2]
        row = probs.reshape(-1, V)[draw(st.integers(0, len(rows) - 1))]
        row[:] = 0.0
        row[first], row[second] = top, 1.0 - top
    return probs, k


class TestTopKPartition:
    @settings(max_examples=300, deadline=None)
    @given(case=partition_cases())
    def test_equals_row_oracle_bitwise(self, case):
        probs, k = case
        lead, V = probs.shape[:-1], probs.shape[-1]
        part = est.top_k_partition(probs, k)
        assert part.members.shape == lead + (k,) and part.residual.shape == probs.shape
        assert part.mass.shape == part.has_residual.shape == lead
        for idx in np.ndindex(lead):
            members, mass, residual, has = oracle_top_k_partition(probs[idx], k)
            assert part.members[idx].tolist() == members.tolist()
            assert part.mass[idx].tobytes() == np.float64(mass).tobytes()
            assert bool(part.has_residual[idx]) == has
            want = residual if has else np.zeros(V)
            assert part.residual[idx].tobytes() == want.tobytes()

    def test_mass_monotone_and_full(self):
        rng = np.random.default_rng(0)
        row = rng.dirichlet(np.ones(8))
        masses = [est.top_k_partition(row, k).mass for k in range(9)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[8] == pytest.approx(1.0, abs=1e-12)

    def test_ties_break_to_lower_id(self):
        part = est.top_k_partition(np.array([0.25, 0.25, 0.25, 0.25]), 2)
        assert list(part.members) == [0, 1]

    def test_residual_disjoint_and_normalized(self):
        row = np.array([0.5, 0.3, 0.1, 0.1])
        part = est.top_k_partition(row, 2)
        assert part.has_residual
        assert np.all(part.residual[part.members] == 0.0)
        assert part.residual.sum() == pytest.approx(1.0, abs=1e-9)

    def test_k_too_large(self):
        with pytest.raises(est.ContractError):
            est.top_k_partition(np.array([1.0]), 2)

    def test_cutoff_edge(self):
        below = float(np.nextafter(EDGE_MASS, 2.0))
        probs = np.array([[EDGE_MASS, 1.0 - EDGE_MASS], [below, 1.0 - below]])
        assert 1.0 - EDGE_MASS >= CUTOFF > 1.0 - below
        assert est.top_k_partition(probs, 1).has_residual.tolist() == [True, False]


class TestSampleCompletions:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), T=st.integers(1, 4), V=st.integers(1, 6), N=st.integers(1, 5))
    def test_equals_entry_oracle(self, data, T, V, N):
        # rows summing below 1 leave uniforms past the last cumulative sum,
        # which the clamp maps to the last token
        def matrix(entries, rows, cols):
            cells = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
            return np.array(cells).reshape(rows, cols)

        probs = matrix(st.floats(0.0, 0.4), T, V)
        u = matrix(st.floats(0.0, 1.0, exclude_max=True), N, T)
        assert est._sample_completions(probs, u).tolist() == oracle_sample(probs, u)


class TestExactRewardAt:
    def test_uniform_equality(self):
        # T=2, V=2 uniform, reward 1 iff tokens equal: with one position
        # clamped, the other matches with probability 1/2
        dist = uniform_dist(2, 2)
        assert oracles.exact_reward_at(dist, 0, 0, equality_reward, ()) == pytest.approx(0.5)

    def test_single_position(self):
        dist = est.PositionDistributions(np.array([[0.3, 0.7]]))
        ref = (1,)
        r = rewards.gleu
        assert oracles.exact_reward_at(dist, 0, 1, r, ref) == r((1,), ref)

    def test_one_hot_others(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        dist = est.PositionDistributions(probs)
        got = oracles.exact_reward_at(dist, 1, 0, rewards.gleu, (0, 0, 1))
        assert got == rewards.gleu((0, 0, 1), (0, 0, 1))

    def test_capacity_guard(self):
        dist = uniform_dist(10, 100)
        with pytest.raises(est.CapacityError, match="10000000"):
            oracles.exact_reward_at(dist, 0, 0, equality_reward, ())


class TestEstimateRewardAt:
    def test_one_hot_rows_exact_with_one_sample(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        dist = est.PositionDistributions(probs)
        got = est.estimate_reward_at(dist, 0, 0, 1, rewards.gleu, (0, 1), np.random.default_rng(0))
        assert got == rewards.gleu((0, 1), (0, 1))

    def test_monte_carlo_close_to_oracle(self):
        dist = uniform_dist(2, 2)
        got = est.estimate_reward_at(
            dist, 0, 0, 10000, equality_reward, (), np.random.default_rng(1)
        )
        assert abs(got - 0.5) <= 3 * 0.5 / np.sqrt(10000)

    def test_deterministic_given_seed(self):
        dist = uniform_dist(3, 4)
        runs = [
            est.estimate_reward_at(
                dist, 1, 2, 50, rewards.gleu, (1, 2, 3), np.random.default_rng(7)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_bad_n(self):
        with pytest.raises(est.ContractError):
            est.estimate_reward_at(uniform_dist(2, 2), 0, 0, 0, rewards.gleu, (), np.random.default_rng(0))


class TestEnumerationOracle:
    def test_uniform_equality_all_entries(self):
        grad = oracles.enumerate_expected_gradient(uniform_dist(2, 2), equality_reward, ())
        assert np.allclose(grad.dprobs, -0.5, atol=1e-12)

    def test_constant_reward(self):
        grad = oracles.enumerate_expected_gradient(
            uniform_dist(3, 3), lambda h, r: 0.25, ()
        )
        assert np.allclose(grad.dprobs, -0.25, atol=1e-12)

    def test_reward_depending_on_first_position_only(self):
        rng = np.random.default_rng(3)
        dist = est.random_distributions(3, 3, rng)
        values = rng.random(3)

        def reward(hyp, ref):
            return float(values[hyp[0]])

        grad = oracles.enumerate_expected_gradient(dist, reward, ())
        expected = float(dist.probs[0] @ values)
        for t in (1, 2):
            assert np.allclose(grad.dprobs[t], -expected, atol=1e-12)
        assert np.allclose(grad.dprobs[0], -values, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_proof_identity_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 4))
        V = int(rng.integers(2, 6))
        dist = est.random_distributions(T, V, rng)
        reward = oracles.random_reward_table(T, V, rng)
        direct = oracles.enumerate_gradient_direct(dist, reward, ())
        factored = oracles.enumerate_gradient_factored(dist, reward, ())
        assert np.max(np.abs(direct.dprobs - factored.dprobs)) <= 1e-10

    def test_capacity_guard(self):
        with pytest.raises(est.CapacityError):
            oracles.enumerate_expected_gradient(uniform_dist(8, 10), equality_reward, ())


class TestReinforceNat:
    def test_exact_at_full_traversal(self):
        rng = np.random.default_rng(5)
        dist = est.random_distributions(3, 4, rng)
        reward = oracles.random_reward_table(3, 4, rng)
        oracle = oracles.enumerate_expected_gradient(dist, reward, ())
        got = est.reinforce_nat_step(
            dist,
            est.EstimatorConfig(k=4, n=1),
            reward,
            (),
            np.random.default_rng(0),
            exact_rewards=True,
        )
        assert np.max(np.abs(got.dprobs - oracle.dprobs)) <= 1e-10

    def test_batched_exact_at_full_traversal(self):
        # each sentence, with its own rows and reference, gets its own
        # enumeration gradient
        rng = np.random.default_rng(11)
        B, T, V = 3, 3, 4
        dist = est.PositionDistributions(rng.dirichlet(np.ones(V), size=(B, T)))
        refs = [(0, 1, 2), (3, 3, 0), (2, 1, 1)]
        reward = rewards.RewardFn("GLEU")
        got = est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=V, n=1), reward, refs, rng.spawn(B), exact_rewards=True
        ).dprobs
        for b in range(B):
            sentence = est.PositionDistributions(dist.probs[b])
            want = oracles.enumerate_expected_gradient(sentence, reward, refs[b]).dprobs
            assert np.max(np.abs(got[b] - want)) <= 1e-10

    def test_exact_scores_each_distinct_pair_once(self):
        # candidates clamp the same V^T sequences, so their rows repeat; a
        # scalar reward still sees each distinct (row, reference) pair once
        rng = np.random.default_rng(12)
        B, T, V = 2, 3, 3
        dist = est.PositionDistributions(rng.dirichlet(np.ones(V), size=(B, T)))
        refs = [(0, 1, 2), (2, 2, 1)]
        calls = []
        est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=2, n=1), TestBatchedRewards._recorder(calls), refs,
            rng.spawn(B), exact_rewards=True,
        )
        assert len(calls) == len(set(calls))
        for ref in refs:
            assert 0 < sum(r == ref for _, r in calls) <= V**T

    def test_exact_capacity_checked_before_any_draw(self):
        # 18 candidates x 10^9 sequences exceed ENUM_LIMIT: the step raises
        # and leaves its stream as it was
        stream = np.random.default_rng(3)
        state = stream.bit_generator.state
        with pytest.raises(est.CapacityError, match="enumeration bound"):
            est.reinforce_nat_step(
                uniform_dist(9, 10), est.EstimatorConfig(k=1, n=1), equality_reward, (), stream,
                exact_rewards=True,
            )
        assert stream.bit_generator.state == state

    def test_sampled_capacity_checked_before_any_draw(self, monkeypatch):
        # k=1 at T=3, V=4 plans 3 members and 3 residual samples; at n=4
        # they clamp 24 rows of 3 tokens, one token past a bound of 71
        dist, cfg = uniform_dist(3, 4), est.EstimatorConfig(k=1, n=4)
        assert est.max_clamped_tokens(1, 3, 4, 1, 4) == 72
        stream = np.random.default_rng(3)
        state = stream.bit_generator.state
        monkeypatch.setattr(est, "ENUM_LIMIT", 71)
        with pytest.raises(
            est.CapacityError, match="6 candidates x 4 completions x 3 tokens exceed the enumeration bound 71"
        ):
            est.reinforce_nat_step(dist, cfg, equality_reward, (), stream)
        assert stream.bit_generator.state == state
        monkeypatch.setattr(est, "ENUM_LIMIT", 72)
        est.reinforce_nat_step(dist, cfg, equality_reward, (), stream)

    def test_capacity_counts_tokens_not_rows(self, monkeypatch):
        # 30 positions at k=1, n=2 clamp 120 rows, below a bound of 1000,
        # but 3600 tokens: refused before any draw
        stream = np.random.default_rng(3)
        state = stream.bit_generator.state
        monkeypatch.setattr(est, "ENUM_LIMIT", 1000)
        with pytest.raises(est.CapacityError, match="60 candidates x 2 completions x 30 tokens"):
            est.reinforce_nat_step(uniform_dist(30, 4), est.EstimatorConfig(k=1, n=2), equality_reward, (), stream)
        assert stream.bit_generator.state == state

    @pytest.mark.parametrize("k, allowed", [(1, 2), (4, 4)], ids=["residual", "full_traversal"])
    def test_check_step_size_matches_the_step(self, monkeypatch, k, allowed):
        # T=3, V=4, n=4: a batch of 2 builds at most 2 * 3 * allowed * 4 * 3
        # tokens; check_step_size refuses exactly the batches the step may
        tokens = 2 * 3 * allowed * 4 * 3
        cfg = est.EstimatorConfig(k=k, n=4)
        monkeypatch.setattr(est, "ENUM_LIMIT", tokens - 1)
        message = f"n 4 is too large: a batch of 2 x 3 tokens at k {k} could build {tokens} "
        dist = est.PositionDistributions(np.full((2, 3, 4), 0.25))
        with pytest.raises(est.ContractError, match=message):
            est.check_step_size(2, 3, 4, cfg)
        with pytest.raises(est.CapacityError):
            est.reinforce_nat_step(dist, cfg, equality_reward, [()] * 2, [np.random.default_rng(0), np.random.default_rng(1)])
        monkeypatch.setattr(est, "ENUM_LIMIT", tokens)
        est.check_step_size(2, 3, 4, cfg)
        est.reinforce_nat_step(dist, cfg, equality_reward, [()] * 2, [np.random.default_rng(0), np.random.default_rng(1)])

    def test_k_greater_than_v(self):
        with pytest.raises(est.ContractError):
            est.reinforce_nat_step(
                uniform_dist(2, 2),
                est.EstimatorConfig(k=3, n=1),
                equality_reward,
                (),
                np.random.default_rng(0),
            )

    def test_zero_reward_gives_zero_gradient(self):
        got = est.reinforce_nat_step(
            uniform_dist(2, 3), est.EstimatorConfig(k=0, n=4), lambda h, r: 0.0, (),
            np.random.default_rng(0),
        )
        assert np.all(got.dprobs == 0.0)

    def test_one_hot_rows_match_oracle_support(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        dist = est.PositionDistributions(probs)
        reward = rewards.gleu
        ref = (0, 1)
        got = est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=0, n=1), reward, ref, np.random.default_rng(0)
        )
        oracle = oracles.enumerate_expected_gradient(dist, reward, ref)
        forced = probs > 0
        assert np.allclose(got.dprobs[forced], oracle.dprobs[forced], atol=1e-12)

    @pytest.mark.parametrize("k,n,runs", [(0, 1, 20000), (1, 20, 8000), (2, 20, 8000)])
    def test_unbiasedness_smoke(self, k, n, runs):
        # fuller 50k-run sweep lives in the acceptance suite
        dist = est.PositionDistributions(
            np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        )
        reward = oracles.random_reward_table(2, 3, np.random.default_rng(k * 7 + n))
        oracle = oracles.enumerate_expected_gradient(dist, reward, ())
        cfg = est.EstimatorConfig(k=k, n=n)
        stats = est.reinforce_nat_stats(dist, cfg, reward, (), runs, np.random.default_rng(123))
        se = np.sqrt(stats.per_entry_variance / runs)
        assert np.all(np.abs(stats.mean_dprobs - oracle.dprobs) <= 3 * se + 1e-12)

    def test_surrogate_matches_manual_softmax_chain(self):
        rng = np.random.default_rng(21)
        logits = tc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        probs = softmax_rows(logits)
        dist = est.PositionDistributions(probs.data, tensor=probs)
        ref = (1, 2, 3)
        got = est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=2, n=4), rewards.gleu, ref, np.random.default_rng(2)
        )
        logits.zero_grad()
        got.surrogate.backward()
        p = probs.data
        dp = got.dprobs
        manual = p * (dp - (dp * p).sum(axis=1, keepdims=True))
        assert np.max(np.abs(logits.grad - manual)) <= 1e-8


@st.composite
def scoring_cases(draw):
    """Blocks of n rows over a tiny alphabet, so rows repeat, each block
    scored against one of a few ragged references that may repeat."""
    T, n, blocks = draw(st.integers(0, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    # small, negative or wide ids
    tok = st.sampled_from(draw(st.sampled_from([(0, 1, 2, 3), (-2, 0, 1, 3), (0, 1, 2**40)])))
    refs = draw(st.lists(st.lists(tok, max_size=6).map(tuple), min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(tok, min_size=T, max_size=T), min_size=blocks * n, max_size=blocks * n))
    block_refs = draw(st.lists(st.integers(0, len(refs) - 1), min_size=blocks, max_size=blocks))
    return np.array(rows, dtype=np.int64).reshape(blocks * n, T), n, refs, np.repeat(block_refs, n)


class TestBatchedRewards:
    """A reward's ``batch`` method must change nothing but speed: the scalar
    reward is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=scoring_cases(), batched=st.booleans(), collide=st.booleans(), weighted=st.booleans())
    def test_distinct_scoring_equals_every_row(self, case, batched, collide, weighted):
        # weighted blocks sum reward times weight, undivided
        tokens, n, refs, which = case
        weights = np.random.default_rng(len(tokens)).random((len(tokens) // n, n))
        want = []
        for lo in range(0, len(tokens), n):
            total = 0.0  # left to right, as Python 3.11's sum adds floats
            rows = zip(tokens[lo : lo + n].tolist(), which[lo : lo + n].tolist(), weights[lo // n].tolist())
            for row, i, w in rows:
                r = rewards.gleu(tuple(row), refs[i])
                total += r * w if weighted else r
            want.append(total if weighted else total / n)
        fn = rewards.RewardFn("GLEU") if batched else (lambda h, r: rewards.gleu(h, r))
        with pytest.MonkeyPatch.context() as mp:
            if collide:  # every row gets the same key
                mp.setattr(est, "_ROW_HASH_MULT", 0)
            got = est._mean_rewards(tokens, n, fn, refs, which, weights if weighted else None)
        assert got.tolist() == want

    @staticmethod
    def _recorder(calls):
        def reward(hyp, ref):
            calls.append((tuple(hyp), tuple(ref)))
            return rewards.gleu(hyp, ref)

        return reward

    def test_each_distinct_pair_scored_once(self):
        # peaked rows and repeated references: the oracle calls the reward
        # once per sampled row, the estimator once per distinct pair
        dist = est.PositionDistributions(
            np.random.default_rng(5).dirichlet(np.full(6, 0.1), size=(8, 4))
        )
        refs = [(1, 2, 3), (0, 0), (1, 2, 3), (4,), (0, 0), (1, 2, 3), (5, 5, 5, 5), (4,)]
        cfg = est.EstimatorConfig(k=2, n=10)
        every, distinct = [], []
        # fresh streams for each: a call advances its streams
        want = oracle_batch_step(
            dist, cfg, self._recorder(every), refs, np.random.default_rng(6).spawn(8)
        )
        got = est.reinforce_nat_step(
            dist, cfg, self._recorder(distinct), refs, np.random.default_rng(6).spawn(8)
        )
        assert np.array_equal(got.dprobs, want.dprobs)
        assert sorted(distinct) == sorted(set(every))
        assert len(distinct) < len(every) / 2

    def test_stats_chunk_scores_each_distinct_pair_once(self):
        # every repetition of a chunk shares the reference
        calls = []
        dist = est.random_distributions(3, 4, np.random.default_rng(3), concentration=0.3)
        est.reinforce_nat_stats(
            dist, est.EstimatorConfig(k=1, n=5), self._recorder(calls), (1, 2, 3), 40, np.random.default_rng(4)
        )
        assert len(calls) == len(set(calls)) < 40 * 3 * 2 * 5 / 4

    def test_hash_collision_scores_every_row(self, monkeypatch):
        calls = []
        tokens = np.array([[1, -2], [1, -2], [-2, 1], [1, -2]])
        which = np.zeros(4, dtype=np.int64)
        want = [1.0, (rewards.gleu((-2, 1), (1, -2)) + 1.0) / 2]
        got = est._mean_rewards(tokens, 2, self._recorder(calls), [(1, -2)], which)
        assert got.tolist() == want and len(calls) == 2
        monkeypatch.setattr(est, "_ROW_HASH_MULT", 0)
        calls.clear()
        got = est._mean_rewards(tokens, 2, self._recorder(calls), [(1, -2)], which)
        assert got.tolist() == want and len(calls) == 4

    def _step(self, reward, k=3, n=7):
        rng = np.random.default_rng(31)
        logits = tc.Tensor(rng.standard_normal((6, 9)), requires_grad=True)
        probs = softmax_rows(logits)
        dist = est.PositionDistributions(probs.data, tensor=probs)
        return est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=k, n=n), reward, (1, 2, 3, 4, 2, 1), np.random.default_rng(8)
        )

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_batch_equals_scalar_bitwise(self, k):
        batched = self._step(rewards.RewardFn("GLEU"), k=k)
        scalar = self._step(lambda h, r: rewards.gleu(h, r), k=k)
        assert np.array_equal(batched.dprobs, scalar.dprobs)
        assert batched.surrogate.item() == scalar.surrogate.item()

    def test_batch_equals_estimate_reward_at(self):
        # with k = V and no residual, dprobs[t, y] is minus the Monte Carlo
        # reward of candidate y from the shared completions: every candidate
        # draws them from one copy of the stream past the T residual uniforms
        T, V, n = 3, 4, 5
        dist = est.random_distributions(T, V, np.random.default_rng(2))
        ref = (0, 1, 2)
        stream = np.random.default_rng(4)
        shared = copy.deepcopy(stream)
        shared.random(T)
        got = est.reinforce_nat_step(dist, est.EstimatorConfig(k=V, n=n), rewards.RewardFn("GLEU"), ref, stream)
        want = [
            [
                -est.estimate_reward_at(dist, t, y, n, rewards.gleu, ref, copy.deepcopy(shared))
                for y in range(V)
            ]
            for t in range(T)
        ]
        assert got.dprobs.tolist() == want

    class _BadBatch:
        def __init__(self, result):
            self.result = result

        def __call__(self, hyp, ref):
            return rewards.gleu(hyp, ref)

        def batch(self, tokens, refs, which):
            return self.result(tokens)

    @pytest.mark.parametrize(
        "result",
        [
            lambda tok: np.zeros(len(tok) - 1),
            lambda tok: np.zeros((len(tok), 1)),
            lambda tok: np.full(len(tok), 1.5),
            lambda tok: np.full(len(tok), -0.1),
            lambda tok: np.full(len(tok), np.nan),
        ],
    )
    def test_bad_batch_is_contract_error(self, result):
        with pytest.raises(est.ContractError, match="reward.batch"):
            self._step(self._BadBatch(result))

    @pytest.mark.parametrize(
        "value,message",
        [
            (1.5, "values outside"),
            (-0.2, "values outside"),
            (np.nan, "values outside"),
            ((0.5, 0.5), r"shape \(\d+, 2\)"),
        ],
        ids=["above_1", "negative", "nan", "pair"],
    )
    def test_bad_scalar_reward_is_contract_error(self, value, message):
        # the scalar path is checked as the batched one: one value in [0, 1]
        # per distinct row, so a nan cannot reach dprobs
        with pytest.raises(est.ContractError, match=f"^reward returned {message}"):
            self._step(lambda h, r: value)


class TestLogitGradient:
    def test_invariant_to_a_constant_per_position(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(6), size=(4, 3))
        d = rng.standard_normal((4, 3, 6))
        shifted = d + 10.0 * rng.standard_normal((4, 3, 1))
        assert np.allclose(tc.softmax_grad(shifted, probs), tc.softmax_grad(d, probs), rtol=0, atol=1e-12)

    def test_equals_softmax_jacobian_product(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(5), size=3)
        d = rng.standard_normal((3, 5))
        want = [(np.diag(p) - np.outer(p, p)) @ row for p, row in zip(probs, d)]
        assert np.allclose(tc.softmax_grad(d, probs), want, rtol=1e-13, atol=1e-15)

    def test_equals_backward_through_softmax(self):
        # the gradient the surrogate's graph gives the logits
        rng = np.random.default_rng(13)
        logits = tc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        probs = softmax_rows(logits)
        d = rng.standard_normal((3, 5))
        oracles.tsum(tc.scale(probs, d)).backward()
        assert np.allclose(logits.grad, tc.softmax_grad(d, probs.data), rtol=1e-12, atol=1e-15)

    @pytest.mark.slow
    def test_unbiased_in_logit_space(self):
        # criterion 2's instance, streams and scale, 50,000 estimates per
        # (k, n), with every estimate mapped to the logit gradient
        V, T, reps = 4, 3, 50_000
        dist = est.random_distributions(T, V, np.random.default_rng(2024))
        ref = (1, 3, 0)
        reward = rewards.RewardFn("GLEU")
        want = tc.softmax_grad(oracles.enumerate_expected_gradient(dist, reward, ref).dprobs, dist.probs)
        worst = 0.0
        for k in (0, 1, 2):
            for n in (1, 20):
                cfg = est.EstimatorConfig(k=k, n=n)
                streams = np.random.default_rng((7, k, n)).spawn(reps)
                rows = []
                for lo in range(0, reps, 500):
                    chunk = streams[lo : lo + 500]
                    batch = est.PositionDistributions(np.broadcast_to(dist.probs, (len(chunk), T, V)))
                    dprobs = est.reinforce_nat_step(batch, cfg, reward, [ref] * len(chunk), chunk).dprobs
                    rows.append(tc.softmax_grad(dprobs, dist.probs))
                g = np.concatenate(rows)
                se = np.sqrt(g.var(axis=0, ddof=1) / reps)
                worst = max(worst, float((np.abs(g.mean(axis=0) - want) / (se + 1e-12)).max()))
        assert worst <= 3.0, worst


class TestEstimatorStats:
    def test_exact_oracle_has_zero_variance(self):
        dist = uniform_dist(2, 3)
        oracle = oracles.enumerate_expected_gradient(dist, equality_reward, ())
        stats = est.estimator_stats(
            dist, lambda rng: oracle, 10, np.random.default_rng(0)
        )
        assert stats.total_variance == 0.0
        assert stats.logit_total_variance == 0.0
        assert np.allclose(stats.mean_dprobs, oracle.dprobs, atol=1e-15)

    def test_variance_drops_with_traversal(self):
        rng = np.random.default_rng(17)
        dist = est.random_distributions(3, 10, rng, concentration=0.3)
        ref = (4, 5, 6)

        def runner(k):
            cfg = est.EstimatorConfig(k=k, n=4)
            return est.reinforce_nat_stats(
                dist, cfg, rewards.RewardFn("GLEU"), ref, 2000, np.random.default_rng(3)
            )

        assert runner(5).total_variance <= runner(0).total_variance

    def test_logit_total_variance_of_the_repetitions(self):
        dist = est.random_distributions(3, 5, np.random.default_rng(14), concentration=0.5)
        cfg = est.EstimatorConfig(k=1, n=3)
        reward = rewards.RewardFn("GLEU")
        stats = est.reinforce_nat_stats(dist, cfg, reward, (1, 2, 3), 40, np.random.default_rng(15))
        rows = [
            est.reinforce_nat_step(dist, cfg, reward, (1, 2, 3), s).dprobs
            for s in np.random.default_rng(15).spawn(40)
        ]
        logits = tc.softmax_grad(np.stack(rows), dist.probs)
        assert np.isclose(stats.logit_total_variance, logits.var(axis=0, ddof=1).sum(), rtol=1e-10, atol=0)
        assert 0.0 < stats.logit_total_variance < stats.total_variance

    def test_repetition_guard(self):
        with pytest.raises(est.ContractError):
            est.estimator_stats(uniform_dist(1, 2), lambda rng: None, 1, np.random.default_rng(0))
        with pytest.raises(est.ContractError, match="repetitions"):
            est.reinforce_nat_stats(
                uniform_dist(1, 2), est.EstimatorConfig(k=1, n=1), equality_reward, (), 1,
                np.random.default_rng(0),
            )


class TestBatchedStats:
    """``reinforce_nat_stats`` and ``variance_sweep`` against
    ``estimator_stats`` over per-stream ``reinforce_nat_step`` calls, bitwise."""

    @staticmethod
    def _per_stream(dist, cfg, reward, ref, reps, seed):
        return est.estimator_stats(
            dist,
            lambda r: est.reinforce_nat_step(dist, cfg, reward, ref, r),
            reps,
            np.random.default_rng(seed),
        )

    @staticmethod
    def _bytes(stats):
        return (
            stats.mean_dprobs.tobytes(),
            stats.per_entry_variance.tobytes(),
            stats.total_variance,
            stats.logit_total_variance,
            stats.repetitions,
        )

    @pytest.mark.parametrize("reward", ["gleu", "table"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_equals_per_stream_stats(self, k, reward, monkeypatch):
        # 7 repetitions per batched call: 30 leaves a partial last chunk
        monkeypatch.setattr(est, "_STATS_CHUNK", 7)
        rng = np.random.default_rng(40 + k)
        dist = est.random_distributions(3, 6, rng, concentration=0.5)
        fn = rewards.RewardFn("GLEU") if reward == "gleu" else oracles.random_reward_table(3, 6, rng)
        cfg = est.EstimatorConfig(k=k, n=3)
        got = est.reinforce_nat_stats(dist, cfg, fn, (1, 2, 3), 30, np.random.default_rng(5))
        want = self._per_stream(dist, cfg, fn, (1, 2, 3), 30, 5)
        assert self._bytes(got) == self._bytes(want)

    def test_chunks_fit_the_bound(self, monkeypatch):
        # a repetition at T=3, V=6, k=1, n=3 builds at most 54 clamped
        # tokens, so a bound of 217 takes 4 per call, with the same numbers
        dist = est.random_distributions(3, 6, np.random.default_rng(41), concentration=0.5)
        cfg, reward = est.EstimatorConfig(k=1, n=3), rewards.RewardFn("GLEU")
        want = self._per_stream(dist, cfg, reward, (1, 2, 3), 30, 5)
        step, sizes = est.reinforce_nat_step, []

        def recording(dist, *args):
            sizes.append(dist.probs.shape[0])
            return step(dist, *args)

        monkeypatch.setattr(est, "reinforce_nat_step", recording)
        monkeypatch.setattr(est, "ENUM_LIMIT", 217)
        got = est.reinforce_nat_stats(dist, cfg, reward, (1, 2, 3), 30, np.random.default_rng(5))
        assert sizes == [4] * 7 + [2]
        assert self._bytes(got) == self._bytes(want)

    def test_sweep_checks_its_largest_step_first(self, monkeypatch):
        # k=5 at T=3, V=6, n=2 builds up to 108 tokens; k=0 would fit
        calls = []
        monkeypatch.setattr(est, "ENUM_LIMIT", 107)
        with pytest.raises(est.ContractError, match="n 2 is too large: a batch of 1 x 3 tokens at k 5"):
            est.variance_sweep((0, 5), 3, 6, est.EstimatorConfig(n=2), 1, 4, TestBatchedRewards._recorder(calls), 0)
        assert calls == []

    def test_sweep_equals_per_stream_totals(self):
        reward = rewards.RewardFn("GLEU")
        # the config's n reaches every k; its k does not
        config = est.EstimatorConfig(k=4, n=2)
        got = est.variance_sweep((0, 2), 3, 5, config, 2, 12, reward, 8)
        want = []
        for k in (0, 2):
            totals = []
            for i in range(2):
                rng = np.random.default_rng((8, i))
                dist = est.random_distributions(3, 5, rng, concentration=3.0)
                ref = tuple(int(x) for x in rng.integers(0, 5, size=3))
                cfg = est.EstimatorConfig(k=k, n=2)
                totals.append(self._bytes(self._per_stream(dist, cfg, reward, ref, 12, (8, i, k))))
            want.append(totals)
        assert [[self._bytes(s) for s in row] for row in got] == want


# -- streams


class TestStreams:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.random.Generator(np.random.MT19937(0)),
            lambda: np.random.Generator(np.random.PCG64DXSM(0)),
            lambda: np.random.Generator(np.random.PCG64(np.random.SeedSequence(0, pool_size=8))),
        ],
        ids=["mt19937", "pcg64dxsm", "pool8"],
    )
    def test_any_generator_equals_oracle(self, make):
        # any Generator is accepted and draws the layout bitwise as the
        # oracle does
        dist = est.random_distributions(3, 4, np.random.default_rng(1))
        cfg = est.EstimatorConfig(k=1, n=3)
        reward = rewards.RewardFn("GLEU")
        got = est.reinforce_nat_step(dist, cfg, reward, (0, 1, 2), make())
        want = oracle_reinforce_nat_step(dist, cfg, reward, (0, 1, 2), make())
        assert got.dprobs.tobytes() == want.dprobs.tobytes()

    def test_call_advances_stream_by_its_draws(self):
        # a call spawns nothing and advances its stream by exactly its
        # draws: T residual uniforms, then the n T uniforms of the shared
        # completions unless the rewards are exact
        T, V, k, n = 3, 4, 1, 3
        dist = est.random_distributions(T, V, np.random.default_rng(1))
        cfg = est.EstimatorConfig(k=k, n=n)
        got = {}
        for exact, draws in [(False, T + n * T), (True, T)]:
            stream = np.random.default_rng(2).spawn(1)[0]
            advanced = copy.deepcopy(stream)
            advanced.random(draws)
            got[exact] = est.reinforce_nat_step(
                dist, cfg, lambda h, r: 0.5, (0, 1, 2), stream, exact_rewards=exact
            ).dprobs
            assert stream.bit_generator.seed_seq.n_children_spawned == 0
            assert stream.bit_generator.state == advanced.bit_generator.state
        # a positive reward makes dprobs nonzero exactly at the members and
        # the residual tokens: equal streams pick the same residual tokens
        assert est.top_k_partition(dist.probs, k).has_residual.all()
        assert np.array_equal(got[False] != 0.0, got[True] != 0.0)
        assert (got[True] != 0.0).sum(axis=1).tolist() == [k + 1] * T

    def test_shared_stream_is_contract_error(self):
        # a second sentence on the same Generator would continue the first
        # sentence's draws, so the batch would differ from its sentences
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        dist = est.PositionDistributions(np.full((2, 3, 4), 0.25))
        with pytest.raises(est.ContractError) as info:
            est.reinforce_nat_step(
                dist, est.EstimatorConfig(k=1, n=2), equality_reward, [(0,), (0,)], [rng, rng]
            )
        assert "\n" not in str(info.value)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("pair", [(0, 2), (1, 2)], ids=["first-last", "middle-last"])
    def test_shared_stream_apart_is_contract_error(self, pair):
        # the check covers sentences that are not neighbours, before any
        # sentence draws
        rngs = [np.random.default_rng(s) for s in range(3)]
        rngs[pair[1]] = rngs[pair[0]]
        states = [g.bit_generator.state for g in rngs]
        dist = est.PositionDistributions(np.full((3, 2, 4), 0.25))
        with pytest.raises(est.ContractError, match="own stream"):
            est.reinforce_nat_step(
                dist, est.EstimatorConfig(k=1, n=2), equality_reward, [(0,)] * 3, rngs
            )
        assert [g.bit_generator.state for g in rngs] == states

    def test_equal_streams_in_distinct_objects_are_accepted(self):
        # only object identity is checked: two copies of one state give two
        # equal sentences the same numbers
        dist = est.random_distributions(3, 5, np.random.default_rng(8))
        both = est.PositionDistributions(np.stack([dist.probs, dist.probs]))
        rng = np.random.default_rng(9)
        got = est.reinforce_nat_step(
            both, est.EstimatorConfig(k=2, n=4), rewards.RewardFn("GLEU"),
            [(0, 1, 2)] * 2, [rng, copy.deepcopy(rng)],
        ).dprobs
        assert got[0].tobytes() == got[1].tobytes()

    @pytest.mark.parametrize("exact", [False, True], ids=["monte-carlo", "exact"])
    def test_residual_uniforms_are_drawn_at_full_traversal(self, exact):
        # with k = V no position has a residual, yet the residual uniforms
        # are drawn before the shared completions, and the numbers are the
        # oracle's
        T, V, n = 2, 3, 4
        dist = est.random_distributions(T, V, np.random.default_rng(5))
        cfg = est.EstimatorConfig(k=V, n=n)
        reward = oracles.random_reward_table(T, V, np.random.default_rng(6)) if exact else rewards.RewardFn("GLEU")
        stream = np.random.default_rng(7)
        advanced = copy.deepcopy(stream)
        advanced.random(T if exact else T + n * T)
        got = est.reinforce_nat_step(dist, cfg, reward, (0, 1), stream, exact_rewards=exact)
        want = oracle_reinforce_nat_step(
            dist, cfg, reward, (0, 1), np.random.default_rng(7), exact_rewards=exact
        )
        assert not est.top_k_partition(dist.probs, V).has_residual.any()
        assert stream.bit_generator.state == advanced.bit_generator.state
        assert got.dprobs.tobytes() == want.dprobs.tobytes()

    def test_second_call_continues_the_stream(self):
        # a call advances its stream, so a second call on it draws new
        # numbers: those of the oracle's second call on an equal stream
        dist = est.random_distributions(3, 4, np.random.default_rng(1))
        cfg = est.EstimatorConfig(k=1, n=3)
        reward = rewards.RewardFn("GLEU")
        stream, fresh = np.random.default_rng(2), np.random.default_rng(2)
        got = [est.reinforce_nat_step(dist, cfg, reward, (0, 1, 2), stream).dprobs for _ in range(2)]
        want = [oracle_reinforce_nat_step(dist, cfg, reward, (0, 1, 2), fresh).dprobs for _ in range(2)]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got[0].tobytes() != got[1].tobytes()

    def test_threads_equal_serial_calls(self):
        # with the interpreter switching threads every microsecond, two
        # threads' calls interleave mid-call and must still give the serial
        # numbers
        cfg = est.EstimatorConfig(k=2, n=4)
        cases = []
        for seed in (3, 4):
            rng = np.random.default_rng(seed)
            dist = est.random_distributions(3, 6, rng, concentration=0.5)
            cases.append((dist, tuple(int(x) for x in rng.integers(0, 6, size=3)), seed))

        def run(dist, ref, seed):
            reward = rewards.RewardFn("GLEU")
            return [
                est.reinforce_nat_step(dist, cfg, reward, ref, stream).dprobs.tobytes()
                for stream in np.random.default_rng(seed).spawn(150)
            ]

        want = [run(*case) for case in cases]
        got = [None, None]
        start = threading.Barrier(2)

        def worker(i):
            start.wait()
            got[i] = run(*cases[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == want


# -- the batched estimator against the per-sentence oracle, bitwise

V_ORACLE = 7


def _oracle_logits(B, rng, peaked, mixed):
    """B x 3 x V logits of softmax rows, or of peaked Dirichlet(0.1) rows,
    where most sampled completions repeat. When ``mixed``, the first
    sentence's middle row is near one-hot: its top token leaves far less
    than the cutoff, so at k >= 1 that sentence mixes rows with and without
    a residual sample."""
    if peaked:
        rows = rng.dirichlet(np.full(V_ORACLE, 0.1), size=(B, 3))
        logits = np.log(np.maximum(rows, 1e-12))
    else:
        logits = 2.5 * rng.standard_normal((B, 3, V_ORACLE))
    if mixed:
        logits[0, 1, 2] = logits[0, 1].max() + 40.0
    return tc.Tensor(logits, requires_grad=True)


def _estimate(step, B, k, reward, exact, seed, peaked, mixed):
    """dprobs, surrogate value and logits gradient of ``step`` on
    ``_oracle_logits``, as bytes."""
    rng = np.random.default_rng(seed)
    logits = _oracle_logits(B, rng, peaked, mixed)
    probs = softmax_rows(logits)
    refs = rng.integers(0, V_ORACLE, size=(B, 3))
    dist = est.PositionDistributions(probs.data, tensor=probs)
    cfg = est.EstimatorConfig(k=k, n=9)
    ge = step(dist, cfg, reward, refs, rng.spawn(B), exact_rewards=exact)
    tc.scale(ge.surrogate, 1.0 / B).backward()
    return ge.dprobs.tobytes(), ge.surrogate.data.tobytes(), logits.grad.tobytes()


TABLE = oracles.random_reward_table(3, V_ORACLE, np.random.default_rng(99))
REWARDS = {
    "batch": (rewards.RewardFn("GLEU"), False),
    "scalar": (lambda hyp, ref: rewards.gleu(hyp, ref), False),
    "exact": (TABLE, True),
}


class TestBatchedEstimatorOracle:
    # the reward's test ID alone for softmax rows, "<reward>-peaked" for
    # peaked rows, where most sampled completions repeat
    @pytest.mark.parametrize(
        "reward,peaked",
        [pytest.param(r, False, id=r) for r in sorted(REWARDS)]
        + [pytest.param(r, True, id=f"{r}-peaked") for r in sorted(REWARDS)],
    )
    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("k", [0, 1, 5, V_ORACLE])
    @pytest.mark.parametrize("B", [1, 2, 16])
    def test_batch_equals_sentence_oracle(self, B, k, mixed, reward, peaked):
        fn, exact = REWARDS[reward]
        got = _estimate(est.reinforce_nat_step, B, k, fn, exact, B * 10 + k, peaked, mixed)
        want = _estimate(oracle_batch_step, B, k, fn, exact, B * 10 + k, peaked, mixed)
        assert got == want

    @pytest.mark.parametrize("k", [0, 2, V_ORACLE])
    def test_single_sentence_equals_oracle(self, k):
        def run(step):
            rng = np.random.default_rng(k)
            logits = tc.Tensor(rng.standard_normal((3, V_ORACLE)), requires_grad=True)
            probs = softmax_rows(logits)
            dist = est.PositionDistributions(probs.data, tensor=probs)
            ge = step(dist, est.EstimatorConfig(k=k, n=5), rewards.RewardFn("GLEU"), (1, 2, 3), rng)
            ge.surrogate.backward()
            return ge.dprobs.tobytes(), ge.surrogate.item(), logits.grad.tobytes()

        assert run(est.reinforce_nat_step) == run(oracle_reinforce_nat_step)

    def test_residual_only_where_mass_is_left(self):
        # the mixed oracle batches mix positions with and without a residual sample
        for peaked in (False, True):
            probs = softmax_rows(_oracle_logits(1, np.random.default_rng(0), peaked, True)).data
            has = est.top_k_partition(probs, 1).has_residual
            assert 1.0 - probs[0, 1].max() < CUTOFF
            assert not has[0, 1] and has[0].any()

    def test_reference_and_stream_counts_must_match(self):
        dist = est.PositionDistributions(np.full((2, 3, 4), 0.25))
        with pytest.raises(est.ContractError, match="2 references"):
            est.reinforce_nat_step(
                dist, est.EstimatorConfig(k=1, n=2), equality_reward, [(0,)],
                [np.random.default_rng(0)],
            )

    def test_finetune_rl_equals_oracle_loop(self, monkeypatch):
        corpus = gen_synthetic_task("echo_runs", 12, (3, 5), 48, np.random.default_rng(4))
        config = ModelConfig(
            d_model=16, d_hidden=32, n_layer=2, n_head=2, p_dropout=0.0, vocab_size=12, max_len=16
        )
        train = pl.TrainConfig(batch_size=8, max_steps=3, lr=0.01, warmup=2, rng_seed=1)
        est_cfg = est.EstimatorConfig(k=3, n=5, rng_seed=2)

        def run():
            model = build_model("nat", config, seed=5)
            rows = pl.finetune_rl(model, corpus, est_cfg, rewards.RewardFn("GLEU"), train)
            return rows, [p.data.tobytes() for p in model.parameters()]

        got = run()
        monkeypatch.setattr(est, "reinforce_nat_step", oracle_batch_step)
        want = run()
        assert len(got[0]) == 6
        assert got == want


class TestScoreSurrogate:
    """``tc.score_surrogate`` as the estimator calls it, its arguments
    recorded from one exact-reward step and then held constant."""

    @pytest.mark.parametrize("layout", ["plain", "batch"])
    @pytest.mark.parametrize("k", [0, 2, 4])  # 4 = V: no residual samples
    def test_grad_check(self, k, layout, monkeypatch):
        rng = np.random.default_rng(k)
        shape = (3, 4) if layout == "plain" else (2, 3, 4)
        logits = tc.Tensor(rng.standard_normal(shape), requires_grad=True)
        table = oracles.random_reward_table(3, 4, rng)
        calls = []
        op = tc.score_surrogate
        monkeypatch.setattr(tc, "score_surrogate", lambda x, *a: calls.append(a) or op(x, *a))
        probs = softmax_rows(logits)
        if layout == "batch":
            dist = est.PositionDistributions(probs.data, tensor=probs)
            refs, rngs = [(0,), (0,)], rng.spawn(2)
        else:
            dist = est.PositionDistributions(probs.data, tensor=probs)
            refs, rngs = (0,), rng
        cfg = est.EstimatorConfig(k=k, n=1)
        ge = est.reinforce_nat_step(dist, cfg, table, refs, rngs, exact_rewards=True)
        (args,) = calls
        assert ge.surrogate.item() == op(probs, *args).item()
        report = oracles.grad_check(lambda: op(softmax_rows(logits), *args), [logits])
        assert report.passed, report.worst


class TestEstimatorConfig:
    def test_residual_cutoff_is_a_constant(self):
        assert [f.name for f in dataclasses.fields(est.EstimatorConfig)] == ["k", "n", "rng_seed"]
        assert est.EstimatorConfig(k=1).residual_epsilon == 1e-6
        with pytest.raises(TypeError, match="residual_epsilon"):
            est.EstimatorConfig(residual_epsilon=0.5)
