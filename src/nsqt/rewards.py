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
# rows per block of gleu_rows' counting
_ROW_BLOCK = 1024


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


def gleu_rows(tokens, refs, which):
    """``gleu(tokens[i], refs[which[i]])`` for every row i of an (R, T) token
    matrix, as a float64 vector, bitwise equal to the scalar calls.

    Prefix-slot counting against each row's own reference. Reference g's
    n-gram at position i, of order n = 1..MAX_N, gets the slot of its first
    occurrence among that reference's order-n n-grams: slot 0 is a sink,
    slots 1..L are the unigrams, and each order's L - n + 1 occurrence
    slots follow. A token's id in reference g is its unigram slot, 0 when
    the reference lacks it. A table maps (reference, prefix slot, last id)
    to the n-gram's slot, so each hypothesis n-gram's slot is one lookup
    from its order-(n-1) prefix's, and every n-gram the reference lacks
    lands in the sink, whose reference count is 0. The slots and tables of
    all references are built in one vectorised pass per reference length.
    One ``bincount`` counts all orders' slots per row; clipping the counts
    by the row's reference counts and summing gives the matched n-grams as
    exact integers.

    Token ids find their reference ids through a table indexed by the
    token's residue mod P, where P is the smallest prime at least the
    number of distinct reference tokens at which those tokens have distinct
    residues; a token counts as found only where it equals the reference
    token of its residue. Any int64 ids take this one path: a difference of
    two ids has at most 15 prime factors, so P stays near the vocabulary
    size. For references of length at most L the tables have about
    len(refs) * (MAX_N * L + 1) * (L + 1) entries, so nothing can overflow.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 2:
        raise ContractError(f"expected an R x T token matrix, got shape {tokens.shape}")
    R, T = tokens.shape
    which = np.asarray(which, dtype=np.int64)
    if which.shape != (R,):
        raise ContractError(f"expected {R} reference indices, got shape {which.shape}")
    if R and not 0 <= which.min() <= which.max() < len(refs):
        raise ContractError(f"reference indices must lie in [0, {len(refs)})")
    refs = [np.asarray(ref, dtype=np.int64).reshape(-1) for ref in refs]
    lengths = np.array([len(ref) for ref in refs], dtype=np.int64)
    orders = np.arange(MAX_N)
    total_hyp = int(np.maximum(T - orders, 0).sum())
    per_order = np.maximum(lengths[:, None] - orders, 0)  # n-grams of order orders + 1
    total_ref = per_order.sum(axis=1)
    if total_hyp == 0:
        # gleu: equal sequences score 1, and here only two empty ones can be
        return (total_ref[which] == 0).astype(np.float64)

    vocab = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *refs]))
    P = _residue_prime(vocab)
    at = np.zeros(P, dtype=np.int64)  # the reference token of each residue
    at[vocab % P] = vocab
    G, W = len(refs), int(lengths.max(initial=0)) + 1
    # slots per reference: the sink, then one per n-gram of each order n <= T
    S = 1 + int((per_order * (orders < T)).sum(axis=1).max(initial=0))
    ids_of = np.zeros(G * P, dtype=np.int64)  # (reference, residue) -> id
    # (reference g, prefix slot, id) -> g * S + slot: the table of reference
    # g starts at g * S * W, and a slot g * S + s indexes its prefix s; an
    # n-gram the reference lacks maps to its sink g * S
    table = np.repeat(np.arange(0, G * S, S), S * W)
    ref_slots = []
    for L in np.unique(lengths[lengths > 0]).tolist():
        members = np.flatnonzero(lengths == L)
        grams = np.array([refs[g] for g in members.tolist()])
        offset = members[:, None] * S
        ids = _first_occurrence(grams) + 1
        ids_of[members[:, None] * P + grams % P] = ids
        slots = prev = ids + offset
        base = 1 + L
        for n in range(2, min(MAX_N, T, L) + 1):
            index = prev[:, : L - n + 1] * W + ids[:, n - 1 :]
            prev = offset + base + _first_occurrence(index)
            table[index] = prev
            slots = np.concatenate((slots, prev), axis=1)
            base += L - n + 1
        ref_slots.append(slots.ravel())
    ref_counts = np.bincount(
        np.concatenate([np.empty(0, dtype=np.int64), *ref_slots]), minlength=G * S
    ).reshape(G, S)

    total_ref = np.maximum(total_ref, 1)
    scores = np.empty(R)
    # position-major blocks of rows: every order's slots are one contiguous
    # run, and the per-slot count matrices stay in cache
    tokens = tokens.T.copy()
    for lo in range(0, R, _ROW_BLOCK):
        block, refs_of = tokens[:, lo : lo + _ROW_BLOCK], which[lo : lo + _ROW_BLOCK]
        rows = len(refs_of)
        residues = block % P
        ids = ids_of[refs_of * P + residues]
        ids *= at[residues] == block
        slots = np.empty((total_hyp, rows), dtype=np.int64)
        prev = np.add(ids, refs_of * S, out=slots[:T])
        at_row = T
        for n in range(2, min(MAX_N, T, W - 1) + 1):
            key = prev[:-1] * W
            key += ids[n - 1 :]
            prev = np.take(table, key, out=slots[at_row : at_row + T - n + 1])
            at_row += T - n + 1
        # orders above the longest reference's all land in the sink
        slots[at_row:] = refs_of * S
        # row r counts slot g * S + s of its reference g at r * S + s
        slots += (np.arange(rows) - refs_of) * S
        counts = np.bincount(slots.ravel(), minlength=rows * S).reshape(rows, S)
        matched = np.minimum(counts, np.take(ref_counts, refs_of, axis=0), out=counts).sum(axis=1)
        # A row equal to its reference matches all its n-grams, so it scores
        # matched / total = 1.0 exactly, as gleu's early return does. An
        # empty reference has no slots, so its rows match nothing and score 0.
        np.minimum(matched / total_hyp, matched / total_ref[refs_of], out=scores[lo : lo + rows])
    return scores


def _first_occurrence(keys):
    """Per row of ``keys``, the column of each entry's first equal entry."""
    return (keys[:, :, None] == keys[:, None, :]).argmax(axis=2)


def _residue_prime(vocab):
    """The smallest prime P >= len(vocab) at which the ids in ``vocab`` have
    distinct residues mod P."""
    p = max(len(vocab), 2)
    while True:
        prime = all(p % d for d in range(2, math.isqrt(p) + 1))
        if prime and len(np.unique(vocab % p)) == len(vocab):
            return p
        p += 1


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
    """The training reward by name; GLEU is its only kind. Evaluation scores
    BLEU with ``bleu_sentence`` and ``corpus_bleu`` directly."""

    kind: str = "GLEU"

    def __post_init__(self):
        if self.kind != "GLEU":
            raise ContractError(f"unknown reward kind {self.kind!r}")

    def __call__(self, hyp, ref):
        return gleu(hyp, ref)

    def batch(self, tokens, refs, which):
        """The reward of every row i of an (R, T) token matrix against
        ``refs[which[i]]``: one value per row, bitwise equal to calling the
        reward on that row and reference."""
        return gleu_rows(tokens, refs, which)


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
