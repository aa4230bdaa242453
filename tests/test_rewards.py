import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsqt import rewards
from nsqt.errors import ContractError

seqs = st.lists(st.integers(0, 9), min_size=0, max_size=12)
nonempty_seqs = st.lists(st.integers(0, 9), min_size=1, max_size=12)


class TestNgramCounts:
    def test_tiny_enumeration(self):
        counts = rewards.ngram_counts([0, 1], max_n=4)
        assert counts == {(0,): 1, (1,): 1, (0, 1): 1}

    def test_repeats(self):
        counts = rewards.ngram_counts([0, 0, 0], max_n=2)
        assert counts == {(0,): 3, (0, 0): 2}

    def test_empty(self):
        assert rewards.ngram_counts([], max_n=4) == {}

    def test_bad_order(self):
        with pytest.raises(ValueError):
            rewards.ngram_counts([1], max_n=0)


class TestGleu:
    def test_identity(self):
        s = [4, 5, 6, 7, 8]
        assert rewards.gleu(s, s) == 1.0

    def test_hand_enumeration(self):
        # hyp {a, b, ab}, ref {a, c, ac}: 1 clipped match over 3 on each side
        assert rewards.gleu([0, 1], [0, 2]) == pytest.approx(1 / 3)

    def test_over_translation_penalized(self):
        # precision 1/3, recall 1/1: min is 1/3
        assert rewards.gleu([0, 0], [0]) == pytest.approx(1 / 3)

    def test_empty_cases(self):
        assert rewards.gleu([], []) == 1.0
        assert rewards.gleu([], [1]) == 0.0
        assert rewards.gleu([1], []) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(seqs, seqs)
    def test_range_and_symmetry(self, a, b):
        g = rewards.gleu(a, b)
        assert 0.0 <= g <= 1.0
        assert g == rewards.gleu(b, a)

    @settings(max_examples=200, deadline=None)
    @given(nonempty_seqs)
    def test_self_is_one(self, s):
        assert rewards.gleu(s, s) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(nonempty_seqs)
    def test_appending_foreign_token_never_helps(self, hyp):
        ref = [t for t in hyp]  # ref over ids 0..9; 99 never appears in ref
        base = rewards.gleu(hyp, ref)
        assert rewards.gleu(hyp + [99], ref) <= base


@st.composite
def batch_cases(draw):
    """An (R, T) token matrix, one to four references of any length (empty
    included, equal ones possible) and each row's reference index. Token
    ids come from a small alphabet of ids in [-10^6, 10^6], so n-grams
    repeat. Some rows may equal their reference."""
    alphabet = draw(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=12, unique=True))
    tok = st.sampled_from(alphabet)
    width = draw(st.integers(0, 40))
    ref_len = st.one_of(st.just(width), st.integers(0, 40))
    refs = draw(st.lists(ref_len.flatmap(lambda n: st.lists(tok, min_size=n, max_size=n)), min_size=1, max_size=4))
    refs = [tuple(ref) for ref in refs]
    rows = draw(st.lists(st.lists(tok, min_size=width, max_size=width), min_size=1, max_size=8))
    which = draw(st.lists(st.integers(0, len(refs) - 1), min_size=len(rows), max_size=len(rows)))
    rows = [
        list(refs[i]) if len(refs[i]) == width and draw(st.booleans()) else row
        for row, i in zip(rows, which)
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width), refs, np.array(which)


class TestGleuRows:
    @settings(max_examples=400, deadline=None)
    @given(batch_cases())
    def test_bitwise_equal_to_scalar(self, case):
        tokens, refs, which = case
        got = rewards.gleu_rows(tokens, refs, which)
        want = [rewards.gleu(tuple(row), refs[i]) for row, i in zip(tokens, which)]
        assert got.shape == (len(tokens),)
        assert got.tolist() == want

    def test_tokens_outside_reference_vocabulary(self):
        tokens = np.array([[7, 1, 2], [1, 2, 900], [0, 0, 0]])
        ref = (1, 2, 3, 1)
        got = rewards.gleu_rows(tokens, [ref], [0, 0, 0])
        assert got.tolist() == [rewards.gleu(r, ref) for r in tokens.tolist()]

    def test_wide_reference_vocabulary(self):
        ref = tuple(range(0, 40 * 10**15, 10**15))
        tokens = np.array([ref, ref[::-1], ref[:20] + ref[:20]])
        got = rewards.gleu_rows(tokens, [ref], [0, 0, 0])
        assert got.tolist() == [1.0] + [rewards.gleu(row, ref) for row in tokens.tolist()[1:]]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rewards.gleu_rows(np.zeros(3, dtype=np.int64), [(1,)], [0, 0, 0])
        with pytest.raises(ValueError):
            rewards.gleu_rows(np.zeros((3, 2), dtype=np.int64), [(1,)], [0, 0])
        for which in ([0, 1, 0], [0, -1, 0]):
            with pytest.raises(ValueError, match="reference indices"):
                rewards.gleu_rows(np.zeros((3, 2), dtype=np.int64), [(1,)], which)

    def test_reward_fn_batch_matches_call(self):
        fn = rewards.RewardFn("GLEU")
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, 6, size=(30, 5))
        refs = [(1, 2, 3, 2, 5), (4, 4), (1, 2, 3, 2, 5), ()]
        which = rng.integers(0, len(refs), size=30)
        want = [fn(tuple(row), refs[i]) for row, i in zip(tokens, which)]
        assert fn.batch(tokens, refs, which).tolist() == want


class TestBleuSentence:
    def test_identity(self):
        s = [4, 5, 6, 7]
        assert rewards.bleu_sentence(s, s) == 1.0

    def test_empty_hyp(self):
        assert rewards.bleu_sentence([], [1, 2]) == 0.0

    def test_hand_computation(self):
        # hyp "a b c d" vs ref "a b c d e": all smoothed precisions are 1
        # (p1 = 4/4, p2 = (3+1)/(3+1), ...), BP = exp(1 - 5/4)
        got = rewards.bleu_sentence([0, 1, 2, 3], [0, 1, 2, 3, 4])
        assert got == pytest.approx(math.exp(-0.25), abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(seqs, seqs)
    def test_range(self, a, b):
        assert 0.0 <= rewards.bleu_sentence(a, b) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(nonempty_seqs)
    def test_self_is_one(self, s):
        assert rewards.bleu_sentence(s, s) == 1.0


class TestCorpusBleu:
    def test_perfect(self):
        refs = [[4, 5, 6, 7, 8], [5, 6, 7, 8, 9]]
        assert rewards.corpus_bleu(refs, refs) == pytest.approx(1.0)

    def test_no_match(self):
        assert rewards.corpus_bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0


def test_reward_fn_is_gleu_only():
    assert rewards.RewardFn("GLEU")([0, 1], [0, 2]) == pytest.approx(1 / 3)
    for kind in ("BLEU", "TER"):
        with pytest.raises(ContractError, match=f"unknown reward kind '{kind}'"):
            rewards.RewardFn(kind)


def test_memoize_reward_counts_calls():
    calls = []

    def reward(h, r):
        calls.append(h)
        return rewards.gleu(h, r)

    cached = rewards.memoize_reward(reward)
    assert cached([1, 2], [1, 3]) == cached([1, 2], [1, 3])
    assert len(calls) == 1
