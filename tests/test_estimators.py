import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsqt import estimators as est
from nsqt import pipeline as pl
from nsqt import rewards
from nsqt import tensor as tc
from nsqt.data import gen_synthetic_task
from nsqt.models import ModelConfig, build_model


def equality_reward(hyp, ref):
    """1 iff all tokens in the candidate agree, else 0 (ignores ref)."""
    return 1.0 if len(set(hyp)) <= 1 else 0.0


def uniform_dist(T, V):
    return est.PositionDistributions(np.full((T, V), 1.0 / V))


# -- the per-sentence estimator with Generator.spawn streams: the oracle the
# -- batched reinforce_nat_step must match bitwise


def oracle_top_k_partition(row, k, residual_epsilon):
    order = np.argsort(-row, kind="stable")
    members = np.sort(order[:k])
    mass = float(row[members].sum()) if k else 0.0
    residual = row.copy()
    residual[members] = 0.0
    if 1.0 - mass >= residual_epsilon and residual.sum() > 0.0:
        return members, mass, residual / residual.sum(), True
    return members, mass, None, False


def oracle_reinforce_nat_step(dist, config, reward, ref, rng, exact_rewards=False, prefix=()):
    """One sentence: plan (t, y, stream, leftover mass or None) per
    candidate, score, then build dprobs and the surrogate. ``prefix`` holds
    the leading indices (a batch index) of the sentence inside
    ``dist.tensor``."""
    T, V = dist.T, dist.V
    ref = tuple(ref)
    pos_rngs = rng.spawn(T)
    plan = []
    for t in range(T):
        members, mass, residual, has = oracle_top_k_partition(
            dist.probs[t], config.k, config.residual_epsilon
        )
        cand_rngs = pos_rngs[t].spawn(config.k + 1)
        for j, y in enumerate(members):
            plan.append((t, int(y), cand_rngs[j], None))
        if has:
            cum = np.cumsum(residual)
            y = int(np.searchsorted(cum, pos_rngs[t].random(), side="right"))
            plan.append((t, min(y, V - 1), cand_rngs[config.k], 1.0 - mass))

    if exact_rewards:
        values = [est.exact_reward_at(dist, t, y, reward, ref) for t, y, _, _ in plan]
    else:
        n = config.n
        u = np.concatenate([stream.random((n, T)) for _, _, stream, _ in plan])
        tokens = est._sample_completions(dist.probs, u)
        tokens[np.arange(len(tokens)), np.repeat([p[0] for p in plan], n)] = np.repeat(
            [p[1] for p in plan], n
        )
        batch = getattr(reward, "batch", None)
        if batch is None:
            scores = [reward(tuple(row), ref) for row in tokens]
        else:
            scores = np.asarray(batch(tokens, ref), dtype=np.float64).tolist()
        values = []
        for i in range(0, len(scores), n):
            total = 0.0  # left to right, as Python 3.11's sum adds floats
            for score in scores[i : i + n]:
                total += score
            values.append(total / n)

    dprobs = np.zeros((T, V))
    prob_t, prob_y, prob_w, log_t, log_y, log_w = [], [], [], [], [], []
    for (t, y, _, rest), r in zip(plan, values):
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
            terms.append(tc.tsum(tc.mul(tc.take(dist.tensor, idx), np.array(prob_w))))
        if log_t:
            idx = prefix + (np.array(log_t), np.array(log_y))
            terms.append(tc.tsum(tc.mul(tc.log(tc.take(dist.tensor, idx)), np.array(log_w))))
        if terms:
            total = terms[0]
            for extra in terms[1:]:
                total = tc.add(total, extra)
            surrogate = tc.mul(total, -1.0)
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
            surrogate = ge.surrogate if surrogate is None else tc.add(surrogate, ge.surrogate)
    return est.GradientEstimate(np.stack(dprobs), surrogate)


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
        oracle = est.enumerate_expected_gradient(dist, reward, ref)
        forced = probs > 0
        assert np.allclose(got.dprobs[forced], oracle.dprobs[forced], atol=1e-12)

    @pytest.mark.parametrize("k,n,runs", [(0, 1, 20000), (1, 20, 8000), (2, 20, 8000)])
    def test_unbiasedness_smoke(self, k, n, runs):
        # fuller 50k-run sweep lives in the acceptance suite
        dist = est.PositionDistributions(
            np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        )
        reward = est.random_reward_table(2, 3, np.random.default_rng(k * 7 + n))
        oracle = est.enumerate_expected_gradient(dist, reward, ())
        cfg = est.EstimatorConfig(k=k, n=n)
        stats = est.reinforce_nat_stats(dist, cfg, reward, (), runs, np.random.default_rng(123))
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
        ref = (4, 5, 6)

        def runner(k):
            cfg = est.EstimatorConfig(k=k, n=4)
            return est.reinforce_nat_stats(
                dist, cfg, rewards.RewardFn("GLEU"), ref, 2000, np.random.default_rng(3)
            )

        assert runner(5).total_variance <= runner(0).total_variance

    def test_repetition_guard(self):
        with pytest.raises(est.ContractError):
            est.estimator_stats(uniform_dist(1, 2), lambda rng: None, 1, np.random.default_rng(0))
        with pytest.raises(est.ContractError, match="repetitions"):
            est.reinforce_nat_stats(
                uniform_dist(1, 2), est.EstimatorConfig(k=1, n=1), equality_reward, (), 1,
                np.random.default_rng(0),
            )


class TestBatchedStats:
    """``reinforce_nat_stats`` and ``total_variance_sweep`` against
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
            stats.repetitions,
        )

    @pytest.mark.parametrize("reward", ["gleu", "table"])
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_equals_per_stream_stats(self, k, reward, monkeypatch):
        # 7 repetitions per batched call: 30 leaves a partial last chunk
        monkeypatch.setattr(est, "_STATS_CHUNK", 7)
        rng = np.random.default_rng(40 + k)
        dist = est.random_distributions(3, 6, rng, concentration=0.5)
        fn = rewards.RewardFn("GLEU") if reward == "gleu" else est.random_reward_table(3, 6, rng)
        cfg = est.EstimatorConfig(k=k, n=3)
        got = est.reinforce_nat_stats(dist, cfg, fn, (1, 2, 3), 30, np.random.default_rng(5))
        want = self._per_stream(dist, cfg, fn, (1, 2, 3), 30, 5)
        assert self._bytes(got) == self._bytes(want)

    def test_sweep_equals_per_stream_totals(self):
        reward = rewards.RewardFn("GLEU")
        # the config's n and residual_epsilon reach every k; its k does not
        config = est.EstimatorConfig(k=4, n=2, residual_epsilon=0.3)
        got = est.total_variance_sweep((0, 2), 3, 5, config, 2, 12, reward, 8)
        want = []
        for k in (0, 2):
            totals = []
            for i in range(2):
                rng = np.random.default_rng((8, i))
                dist = est.random_distributions(3, 5, rng, concentration=3.0)
                ref = tuple(int(x) for x in rng.integers(0, 5, size=3))
                cfg = est.EstimatorConfig(k=k, n=2, residual_epsilon=0.3)
                stats = self._per_stream(dist, cfg, reward, ref, 12, (8, i, k))
                totals.append(stats.total_variance)
            want.append(totals)
        assert got == want


# -- streams: numpy's Generator.spawn is the oracle

SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64),
    st.integers(2**64, 2**128 - 1),
    st.lists(st.integers(0, 2**70), min_size=1, max_size=5).map(tuple),
)


class TestStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        paths=st.lists(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=3),
            min_size=1,
            max_size=2,
        ),
        spawned=st.integers(0, 3),
        T=st.integers(1, 4),
        K=st.integers(1, 4),
    )
    def test_streams_equal_generator_spawn(self, seed, paths, spawned, T, K):
        # sentence streams at spawn depth 1-3, whose parents and which
        # themselves may already have spawned children; one batch may mix
        # depths, so its spawn keys differ in length
        streams = []
        for path in paths:
            stream = np.random.default_rng(seed)
            for earlier, i in path:
                stream.spawn(earlier)
                stream = stream.spawn(i + 1)[i]
            stream.spawn(spawned)
            streams.append(stream)
        tree = est._StreamTree(streams, T, K)
        for b, stream in enumerate(streams):
            for t, position in enumerate(stream.spawn(T)):
                candidates = position.spawn(K)
                got = tree.seeded(tree.position_words[b, t].tolist())
                assert np.array_equal(got.random(3), position.random(3))
                for j, want in enumerate(candidates):
                    got = tree.seeded(tree.candidate_words[b, t, j].tolist())
                    assert np.array_equal(got.random((2, 3)), want.random((2, 3)))

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 1, (3, 4)])
    def test_root_stream_equals_generator_spawn(self, seed):
        # an unspawned root: SeedSequence pads short entropy only for children
        tree = est._StreamTree([np.random.default_rng(seed)], 2, 2)
        for t, position in enumerate(np.random.default_rng(seed).spawn(2)):
            candidates = position.spawn(2)
            got = tree.seeded(tree.position_words[0, t].tolist())
            assert got.random() == position.random()
            for j, want in enumerate(candidates):
                got = tree.seeded(tree.candidate_words[0, t, j].tolist())
                assert got.random() == want.random()

    @pytest.mark.parametrize(
        "rng",
        [
            np.random.Generator(np.random.MT19937(0)),
            np.random.Generator(np.random.PCG64DXSM(0)),
            np.random.Generator(np.random.PCG64(np.random.SeedSequence(0, pool_size=8))),
        ],
        ids=["mt19937", "pcg64dxsm", "pool8"],
    )
    def test_unsupported_stream_is_contract_error(self, rng):
        with pytest.raises(est.ContractError) as info:
            est.reinforce_nat_step(
                uniform_dist(2, 3), est.EstimatorConfig(k=1, n=2), equality_reward, (), rng
            )
        assert "\n" not in str(info.value)

    def test_spawn_counter_overflow_is_contract_error(self):
        seq = np.random.SeedSequence(0, spawn_key=(1,), n_children_spawned=2**32 - 2)
        rng = np.random.Generator(np.random.PCG64(seq))
        with pytest.raises(est.ContractError, match="spawned too many"):
            est.reinforce_nat_step(
                uniform_dist(3, 2), est.EstimatorConfig(k=1, n=2), equality_reward, (), rng
            )

    def test_call_does_not_advance_the_spawn_counter(self):
        dist = est.random_distributions(3, 4, np.random.default_rng(1))
        cfg = est.EstimatorConfig(k=1, n=3)
        stream = np.random.default_rng(2).spawn(1)[0]
        first = est.reinforce_nat_step(dist, cfg, rewards.RewardFn("GLEU"), (0, 1, 2), stream)
        assert stream.bit_generator.seed_seq.n_children_spawned == 0
        again = est.reinforce_nat_step(dist, cfg, rewards.RewardFn("GLEU"), (0, 1, 2), stream)
        assert np.array_equal(first.dprobs, again.dprobs)


# -- the batched estimator against the per-sentence oracle, bitwise

V_ORACLE = 7


def _estimate(step, B, k, eps, reward, exact, seed=0):
    """dprobs, surrogate value and logits gradient of ``step`` on a B x 3 x V
    batch of softmax rows, as bytes."""
    rng = np.random.default_rng(seed)
    logits = tc.Tensor(2.5 * rng.standard_normal((B, 3, V_ORACLE)), requires_grad=True)
    probs = tc.softmax_rows(logits)
    refs = rng.integers(0, V_ORACLE, size=(B, 3))
    dist = est.PositionDistributions(probs.data, tensor=probs)
    cfg = est.EstimatorConfig(k=k, n=9, residual_epsilon=eps)
    ge = step(dist, cfg, reward, refs, rng.spawn(B), exact_rewards=exact)
    tc.mul(ge.surrogate, 1.0 / B).backward()
    return ge.dprobs.tobytes(), ge.surrogate.data.tobytes(), logits.grad.tobytes()


TABLE = est.random_reward_table(3, V_ORACLE, np.random.default_rng(99))
REWARDS = {
    "batch": (rewards.RewardFn("GLEU"), False),
    "scalar": (lambda hyp, ref: rewards.gleu(hyp, ref), False),
    "exact": (TABLE, True),
}


class TestBatchedEstimatorOracle:
    @pytest.mark.parametrize("reward", sorted(REWARDS))
    @pytest.mark.parametrize("eps", [1e-6, 0.5])
    @pytest.mark.parametrize("k", [0, 1, 5, V_ORACLE])
    @pytest.mark.parametrize("B", [1, 2, 16])
    def test_batch_equals_sentence_oracle(self, B, k, eps, reward):
        fn, exact = REWARDS[reward]
        got = _estimate(est.reinforce_nat_step, B, k, eps, fn, exact, seed=B * 10 + k)
        want = _estimate(oracle_batch_step, B, k, eps, fn, exact, seed=B * 10 + k)
        assert got == want

    @pytest.mark.parametrize("k", [0, 2, V_ORACLE])
    def test_single_sentence_equals_oracle(self, k):
        def run(step):
            rng = np.random.default_rng(k)
            logits = tc.Tensor(rng.standard_normal((3, V_ORACLE)), requires_grad=True)
            probs = tc.softmax_rows(logits)
            dist = est.PositionDistributions(probs.data, tensor=probs)
            ge = step(dist, est.EstimatorConfig(k=k, n=5), rewards.RewardFn("GLEU"), (1, 2, 3), rng)
            ge.surrogate.backward()
            return ge.dprobs.tobytes(), ge.surrogate.item(), logits.grad.tobytes()

        assert run(est.reinforce_nat_step) == run(oracle_reinforce_nat_step)

    def test_residual_only_where_mass_is_left(self):
        # eps = 0.5 mixes positions with and without a residual sample
        probs = np.array([[[0.9, 0.05, 0.05], [0.4, 0.3, 0.3]]])
        part = est.top_k_partition(probs, 1, 0.5)
        assert part.has_residual.tolist() == [[False, True]]

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
        table = est.random_reward_table(3, 4, rng)
        calls = []
        op = tc.score_surrogate
        monkeypatch.setattr(tc, "score_surrogate", lambda x, *a: calls.append(a) or op(x, *a))
        probs = tc.softmax_rows(logits)
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
        report = tc.grad_check(lambda: op(tc.softmax_rows(logits), *args), [logits])
        assert report.passed, report.worst


class TestEstimatorConfig:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-9, 1.5])
    def test_rejects_bad_residual_epsilon(self, eps):
        with pytest.raises(est.ContractError, match="residual_epsilon"):
            est.EstimatorConfig(residual_epsilon=eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1.0])
    def test_accepts_residual_epsilon_in_unit_interval(self, eps):
        assert est.EstimatorConfig(residual_epsilon=eps).residual_epsilon == eps
