"""Sentence-level rewards on token-id sequences: GLEU (training) and BLEU (eval).

All functions are pure and safe to call from any number of threads. Rewards
operate on token ids, never on detokenized strings, and always land in [0, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

MAX_N = 4


def ngram_counts(tokens, max_n=MAX_N):
    """Multiset of all contiguous n-grams for n in 1..max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    tokens = tuple(tokens)
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tokens[i : i + n]] += 1
    return counts


def _clipped_matches(hyp_counts, ref_counts):
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items() if g in ref_counts)


def gleu(hyp, ref, max_n=MAX_N):
    """Pooled GLEU: min of clipped n-gram precision and recall over n=1..max_n.

    Identical sequences score 1; if either side has no n-grams and the
    sequences differ, the score is 0.
    """
    hyp, ref = tuple(hyp), tuple(ref)
    if hyp == ref:
        return 1.0
    hyp_counts = ngram_counts(hyp, max_n)
    ref_counts = ngram_counts(ref, max_n)
    total_hyp = sum(hyp_counts.values())
    total_ref = sum(ref_counts.values())
    if total_hyp == 0 or total_ref == 0:
        return 0.0
    matched = _clipped_matches(hyp_counts, ref_counts)
    return min(matched / total_hyp, matched / total_ref)


def gleu_rows(tokens, ref, max_n=MAX_N):
    """``gleu(row, ref)`` for every row of an (R, T) token matrix, as a
    float64 vector, bitwise equal to the scalar calls.

    The reference n-grams are counted once. Tokens are renumbered densely
    over the reference vocabulary (every other token becomes 0), so each
    n-gram is one base-(m+1) integer code and a hypothesis n-gram holding a
    token absent from the reference never matches. Clipped matches are
    counted by sorting each row's codes and keeping the occurrences whose
    rank within the row is below the reference count.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ValueError(f"expected an R x T token matrix, got shape {tokens.shape}")
    ref = np.asarray(ref, dtype=np.int64).reshape(-1)
    T, L = tokens.shape[1], ref.shape[0]
    total_hyp = sum(max(T - n + 1, 0) for n in range(1, max_n + 1))
    total_ref = sum(max(L - n + 1, 0) for n in range(1, max_n + 1))
    scores = np.zeros(tokens.shape[0])
    if total_hyp and total_ref:
        vocab = np.unique(ref)
        base, top = len(vocab) + 1, min(max_n, T, L)
        if base**top >= 2**63:  # codes would overflow int64
            return np.array([gleu(row, ref.tolist(), max_n) for row in tokens.tolist()])
        pos = np.minimum(np.searchsorted(vocab, tokens), len(vocab) - 1)
        hyp_ids = np.where(vocab[pos] == tokens, pos + 1, 0)
        ref_ids = np.searchsorted(vocab, ref) + 1
        hyp_codes = np.zeros_like(hyp_ids)
        ref_codes = np.zeros_like(ref_ids)
        matched = np.zeros(tokens.shape[0], dtype=np.int64)
        for n in range(1, top + 1):
            hyp_codes = hyp_codes[:, : T - n + 1] * base + hyp_ids[:, n - 1 :]
            ref_codes = ref_codes[: L - n + 1] * base + ref_ids[n - 1 :]
            matched += _clipped_match_rows(hyp_codes, ref_codes)
        scores = np.minimum(matched / total_hyp, matched / total_ref)
    if T == L:
        scores[np.all(tokens == ref, axis=1)] = 1.0
    return scores


def _clipped_match_rows(hyp_codes, ref_codes):
    """Per row of ``hyp_codes``, the sum over codes of min(row count,
    reference count)."""
    codes, counts = np.unique(ref_codes, return_counts=True)
    srt = np.sort(hyp_codes, axis=1)
    col = np.arange(srt.shape[1])
    run_start = np.ones(srt.shape, dtype=bool)
    run_start[:, 1:] = srt[:, 1:] != srt[:, :-1]
    rank = col - np.maximum.accumulate(np.where(run_start, col, 0), axis=1)
    pos = np.minimum(np.searchsorted(codes, srt), len(codes) - 1)
    limit = np.where(codes[pos] == srt, counts[pos], 0)
    return np.count_nonzero(rank < limit, axis=1)


def bleu_sentence(hyp, ref):
    """Smoothed sentence BLEU: 4-gram precisions with add-one smoothing for
    n >= 2, geometric mean, times the brevity penalty. Empty hypothesis
    scores 0."""
    hyp, ref = tuple(hyp), tuple(ref)
    if not hyp:
        return 0.0
    log_prec = 0.0
    for n in range(1, MAX_N + 1):
        hyp_n = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
        ref_n = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        matched = _clipped_matches(hyp_n, ref_n)
        total = sum(hyp_n.values())
        if n >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_prec += math.log(matched / total)
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(hyp)))
    return bp * math.exp(log_prec / MAX_N)


def corpus_bleu(hyps, refs):
    """Corpus-level 4-gram BLEU: counts pooled over the corpus, no smoothing."""
    matched = [0] * MAX_N
    total = [0] * MAX_N
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs, strict=True):
        hyp, ref = tuple(hyp), tuple(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            hyp_n = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
            ref_n = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
            matched[n - 1] += _clipped_matches(hyp_n, ref_n)
            total[n - 1] += sum(hyp_n.values())
    if hyp_len == 0 or any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total))
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * math.exp(log_prec / MAX_N)


@dataclass(frozen=True)
class RewardFn:
    """A named reward: GLEU for training, smoothed BLEU for evaluation."""

    kind: str = "GLEU"
    max_n: int = MAX_N

    def __post_init__(self):
        if self.kind not in ("GLEU", "BLEU"):
            raise ValueError(f"unknown reward kind {self.kind!r}")

    def __call__(self, hyp, ref):
        if self.kind == "GLEU":
            return gleu(hyp, ref, self.max_n)
        return bleu_sentence(hyp, ref)

    def batch(self, tokens, ref):
        """The reward of every row of an (R, T) token matrix: one value per
        row, bitwise equal to calling the reward on that row."""
        if self.kind == "GLEU":
            return gleu_rows(tokens, ref, self.max_n)
        return np.array([bleu_sentence(row, ref) for row in np.asarray(tokens).tolist()])


def memoize_reward(reward):
    """Cache a pure reward function on (hyp, ref) tuples.

    Useful when an estimator evaluates the same tiny sequences many times.
    """
    cache = {}

    def wrapped(hyp, ref):
        key = (tuple(hyp), tuple(ref))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = reward(key[0], key[1])
        return hit

    return wrapped
