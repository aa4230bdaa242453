"""Sentence-level rewards on token-id sequences: GLEU (training) and BLEU (eval).

All functions are pure and safe to call from any number of threads. Rewards
operate on token ids, never on detokenized strings, and always land in [0, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

MAX_N = 4


def ngram_counts(tokens, max_n=MAX_N):
    """Multiset of all contiguous n-grams for n in 1..max_n."""
    if max_n < 1:
        raise ContractError(f"max_n must be >= 1, got {max_n}")
    tokens = tuple(tokens)
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tokens[i : i + n]] += 1
    return counts


def _clipped_matches(hyp_counts, ref_counts):
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items() if g in ref_counts)


def gleu(hyp, ref):
    """Pooled GLEU: min of clipped n-gram precision and recall over n=1..MAX_N.

    Identical sequences score 1; if either side has no n-grams and the
    sequences differ, the score is 0.
    """
    hyp, ref = tuple(hyp), tuple(ref)
    if hyp == ref:
        return 1.0
    hyp_counts = ngram_counts(hyp)
    ref_counts = ngram_counts(ref)
    total_hyp = sum(hyp_counts.values())
    total_ref = sum(ref_counts.values())
    if total_hyp == 0 or total_ref == 0:
        return 0.0
    matched = _clipped_matches(hyp_counts, ref_counts)
    return min(matched / total_hyp, matched / total_ref)


def gleu_rows(tokens, ref):
    """``gleu(row, ref)`` for every row of an (R, T) token matrix, as a
    float64 vector, bitwise equal to the scalar calls.

    Prefix-slot counting. Tokens are renumbered densely over the reference
    vocabulary: ids 1..m, and 0 for a token absent from the reference. Slot
    0 is a sink, slots 1..m are the reference unigrams, and each distinct
    reference n-gram of order 2..MAX_N gets the next slot. A table built
    from the reference maps (prefix slot, last id) to the n-gram's slot, so
    each hypothesis n-gram's slot is one lookup from its order-(n-1)
    prefix's, and every n-gram the reference lacks lands in the sink, whose
    reference count is 0. One ``bincount`` counts all orders' slots per
    row; clipping the counts by the reference counts and summing gives the
    matched n-grams as exact integers. For a length-L reference the table
    has at most (min(MAX_N, L) * L + 1) x (L + 1) entries, whatever the
    token ids, so nothing can overflow and every input takes this one path.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ContractError(f"expected an R x T token matrix, got shape {tokens.shape}")
    ref = np.asarray(ref, dtype=np.int64).reshape(-1)
    (R, T), L = tokens.shape, ref.shape[0]
    total_hyp = sum(max(T - n + 1, 0) for n in range(1, MAX_N + 1))
    total_ref = sum(max(L - n + 1, 0) for n in range(1, MAX_N + 1))
    if not (total_hyp and total_ref):
        # gleu: equal sequences score 1, and here only two empty ones can be
        return np.full(R, float(T == L == 0))
    top = min(MAX_N, T, L)
    vocab, ref_ids = np.unique(ref, return_inverse=True)
    width = len(vocab) + 1
    ref_ids = (ref_ids + 1).tolist()
    slot_of = {}  # prefix slot * width + last id -> slot, over orders 2..top
    ref_slots = prefix = ref_ids
    for n in range(2, top + 1):
        prefix = [
            slot_of.setdefault(p * width + tok, width + len(slot_of))
            for p, tok in zip(prefix, ref_ids[n - 1 :])
        ]
        ref_slots = ref_slots + prefix
    n_slots = width + len(slot_of)
    table = np.zeros(n_slots * width, dtype=np.int64)
    table[list(slot_of)] = list(slot_of.values())
    ref_counts = np.bincount(ref_slots, minlength=n_slots).astype(np.float64)

    # ids = j + 1 where a token equals vocab[j], else 0: searchsorted gives
    # the number of vocab entries <= the token, and the shifted vocab holds
    # the largest of them at that index
    ids = np.searchsorted(vocab, tokens, side="right")
    ids *= np.concatenate((vocab[:1], vocab))[ids] == tokens
    slots = [ids]
    for n in range(2, top + 1):
        key = slots[-1][:, :-1] * width
        key += ids[:, n - 1 :]
        slots.append(table[key])
    slots = np.concatenate(slots, axis=1)
    slots += np.arange(0, R * n_slots, n_slots)[:, None]  # row r counts in its own block
    counts = np.bincount(slots.ravel(), minlength=R * n_slots).reshape(R, n_slots)
    # integer-valued doubles far below 2**53: the matrix product sums exactly
    matched = np.minimum(counts, ref_counts) @ np.ones(n_slots)
    # A row equal to the reference matches all its n-grams, so it scores
    # matched / total = 1.0 exactly, as gleu's early return does.
    return np.minimum(matched / total_hyp, matched / total_ref)


def _order_matches(hyp, ref, n):
    """Clipped matches and hypothesis count of the order-n n-grams."""
    hyp_n = Counter(hyp[i : i + n] for i in range(len(hyp) - n + 1))
    ref_n = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
    return _clipped_matches(hyp_n, ref_n), sum(hyp_n.values())


def bleu_sentence(hyp, ref):
    """Smoothed sentence BLEU: 4-gram precisions with add-one smoothing for
    n >= 2, geometric mean, times the brevity penalty. Empty hypothesis
    scores 0."""
    hyp, ref = tuple(hyp), tuple(ref)
    if not hyp:
        return 0.0
    log_prec = 0.0
    for n in range(1, MAX_N + 1):
        matched, total = _order_matches(hyp, ref, n)
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
            m, t = _order_matches(hyp, ref, n)
            matched[n - 1] += m
            total[n - 1] += t
    if hyp_len == 0 or any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total))
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * math.exp(log_prec / MAX_N)


@dataclass(frozen=True)
class RewardFn:
    """A named reward: GLEU for training, smoothed BLEU for evaluation."""

    kind: str = "GLEU"

    def __post_init__(self):
        if self.kind not in ("GLEU", "BLEU"):
            raise ContractError(f"unknown reward kind {self.kind!r}")

    def __call__(self, hyp, ref):
        if self.kind == "GLEU":
            return gleu(hyp, ref)
        return bleu_sentence(hyp, ref)

    def batch(self, tokens, ref):
        """The reward of every row of an (R, T) token matrix: one value per
        row, bitwise equal to calling the reward on that row."""
        if self.kind == "GLEU":
            return gleu_rows(tokens, ref)
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
