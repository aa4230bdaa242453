import numpy as np
import pytest

from nsqt import estimators as est
from nsqt import rewards
from nsqt import tensor as tc


def equality_reward(hyp, ref):
    """1 iff all tokens in the candidate agree, else 0 (ignores ref)."""
    return 1.0 if len(set(hyp)) <= 1 else 0.0


def uniform_dist(T, V):
    return est.PositionDistributions(np.full((T, V), 1.0 / V))


class TestPositionDistributions:
    def test_rejects_bad_rows(self):
        with pytest.raises(est.ContractError):
            est.PositionDistributions(np.array([[0.5, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(est.ContractError):
            est.PositionDistributions(np.array([[1.2, -0.2]]))


class TestTopKPartition:
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


class TestExactRewardAt:
    def test_uniform_equality(self):
        # T=2, V=2 uniform, reward 1 iff tokens equal: with one position
        # clamped, the other matches with probability 1/2
        dist = uniform_dist(2, 2)
        assert est.exact_reward_at(dist, 0, 0, equality_reward, ()) == pytest.approx(0.5)

    def test_single_position(self):
        dist = est.PositionDistributions(np.array([[0.3, 0.7]]))
        ref = (1,)
        r = rewards.gleu
        assert est.exact_reward_at(dist, 0, 1, r, ref) == r((1,), ref)

    def test_one_hot_others(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        dist = est.PositionDistributions(probs)
        got = est.exact_reward_at(dist, 1, 0, rewards.gleu, (0, 0, 1))
        assert got == rewards.gleu((0, 0, 1), (0, 0, 1))

    def test_capacity_guard(self):
        dist = uniform_dist(10, 100)
        with pytest.raises(est.CapacityError, match="10000000"):
            est.exact_reward_at(dist, 0, 0, equality_reward, ())


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
        grad = est.enumerate_expected_gradient(uniform_dist(2, 2), equality_reward, ())
        assert np.allclose(grad.dprobs, -0.5, atol=1e-12)

    def test_constant_reward(self):
        grad = est.enumerate_expected_gradient(
            uniform_dist(3, 3), lambda h, r: 0.25, ()
        )
        assert np.allclose(grad.dprobs, -0.25, atol=1e-12)

    def test_reward_depending_on_first_position_only(self):
        rng = np.random.default_rng(3)
        dist = est.random_distributions(3, 3, rng)
        values = rng.random(3)

        def reward(hyp, ref):
            return float(values[hyp[0]])

        grad = est.enumerate_expected_gradient(dist, reward, ())
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
        reward = est.random_reward_table(T, V, rng)
        direct = est.enumerate_gradient_direct(dist, reward, ())
        factored = est.enumerate_gradient_factored(dist, reward, ())
        assert np.max(np.abs(direct.dprobs - factored.dprobs)) <= 1e-10

    def test_capacity_guard(self):
        with pytest.raises(est.CapacityError):
            est.enumerate_expected_gradient(uniform_dist(8, 10), equality_reward, ())


class TestReinforceNat:
    def test_exact_at_full_traversal(self):
        rng = np.random.default_rng(5)
        dist = est.random_distributions(3, 4, rng)
        reward = est.random_reward_table(3, 4, rng)
        oracle = est.enumerate_expected_gradient(dist, reward, ())
        got = est.reinforce_nat_step(
            dist,
            est.EstimatorConfig(k=4, n=1),
            reward,
            (),
            np.random.default_rng(0),
            exact_rewards=True,
        )
        assert np.max(np.abs(got.dprobs - oracle.dprobs)) <= 1e-10

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
        got = est.reinforce_step(
            uniform_dist(2, 3), lambda h, r: 0.0, (), 4, np.random.default_rng(0)
        )
        assert np.all(got.dprobs == 0.0)

    def test_one_hot_rows_match_oracle_support(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        dist = est.PositionDistributions(probs)
        reward = rewards.gleu
        ref = (0, 1)
        got = est.reinforce_step(dist, reward, ref, 1, np.random.default_rng(0))
        oracle = est.enumerate_expected_gradient(dist, reward, ref)
        forced = probs > 0
        assert np.allclose(got.dprobs[forced], oracle.dprobs[forced], atol=1e-12)

    def test_k0_equals_reinforce_given_same_rng(self):
        dist = est.random_distributions(3, 5, np.random.default_rng(9))
        args = (dist, rewards.gleu, (1, 2, 3), 6)
        a = est.reinforce_step(*args, np.random.default_rng(11))
        b = est.reinforce_nat_step(
            dist, est.EstimatorConfig(k=0, n=6), rewards.gleu, (1, 2, 3), np.random.default_rng(11)
        )
        assert np.array_equal(a.dprobs, b.dprobs)

    @pytest.mark.parametrize("k,n,runs", [(0, 1, 20000), (1, 20, 8000), (2, 20, 8000)])
    def test_unbiasedness_smoke(self, k, n, runs):
        # fuller 50k-run sweep lives in the acceptance suite
        dist = est.PositionDistributions(
            np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        )
        reward = est.random_reward_table(2, 3, np.random.default_rng(k * 7 + n))
        oracle = est.enumerate_expected_gradient(dist, reward, ())
        cfg = est.EstimatorConfig(k=k, n=n)
        stats = est.estimator_stats(
            dist,
            lambda rng: est.reinforce_nat_step(dist, cfg, reward, (), rng),
            runs,
            np.random.default_rng(123),
        )
        se = np.sqrt(stats.per_entry_variance / runs)
        assert np.all(np.abs(stats.mean_dprobs - oracle.dprobs) <= 3 * se + 1e-12)

    def test_surrogate_matches_manual_softmax_chain(self):
        rng = np.random.default_rng(21)
        logits = tc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        probs = tc.softmax_rows(logits)
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


class TestBatchedRewards:
    """A reward's ``batch`` method must change nothing but speed: the scalar
    reward is the oracle."""

    def _step(self, reward, k=3, n=7):
        rng = np.random.default_rng(31)
        logits = tc.Tensor(rng.standard_normal((6, 9)), requires_grad=True)
        probs = tc.softmax_rows(logits)
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
        # reward of each candidate, drawn from that candidate's own stream
        dist = est.random_distributions(3, 4, np.random.default_rng(2))
        ref = (0, 1, 2)
        got = est.reinforce_nat_step(dist, est.EstimatorConfig(k=4, n=5), rewards.RewardFn("GLEU"), ref, np.random.default_rng(4))
        streams = [s.spawn(5) for s in np.random.default_rng(4).spawn(3)]
        want = [
            [-est.estimate_reward_at(dist, t, y, 5, rewards.gleu, ref, streams[t][y]) for y in range(4)]
            for t in range(3)
        ]
        assert got.dprobs.tolist() == want

    class _BadBatch:
        def __init__(self, result):
            self.result = result

        def __call__(self, hyp, ref):
            return rewards.gleu(hyp, ref)

        def batch(self, tokens, ref):
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


class TestEstimatorStats:
    def test_exact_oracle_has_zero_variance(self):
        dist = uniform_dist(2, 3)
        oracle = est.enumerate_expected_gradient(dist, equality_reward, ())
        stats = est.estimator_stats(
            dist, lambda rng: oracle, 10, np.random.default_rng(0)
        )
        assert stats.total_variance == 0.0
        assert np.allclose(stats.mean_dprobs, oracle.dprobs, atol=1e-15)

    def test_variance_drops_with_traversal(self):
        rng = np.random.default_rng(17)
        dist = est.random_distributions(3, 10, rng, concentration=0.3)
        reward = rewards.memoize_reward(rewards.gleu)
        ref = (4, 5, 6)

        def runner(k):
            cfg = est.EstimatorConfig(k=k, n=4)
            return est.estimator_stats(
                dist,
                lambda r: est.reinforce_nat_step(dist, cfg, reward, ref, r),
                2000,
                np.random.default_rng(3),
            )

        assert runner(5).total_variance <= runner(0).total_variance

    def test_repetition_guard(self):
        with pytest.raises(est.ContractError):
            est.estimator_stats(uniform_dist(1, 2), lambda rng: None, 1, np.random.default_rng(0))
