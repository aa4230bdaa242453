"""Corpora, vocabularies, synthetic tasks, and length tables.

File formats:
* corpus: UTF-8 plain text, one whitespace-tokenized sentence per line,
  source and target files matched line-by-line;
* vocabulary: one token per line, no token twice and no reserved token;
  blank lines are skipped, so the n-th token (from 0) gets id n + 4, after
  the reserved ids pad=0, bos=1, eos=2, unk=3. A line of several words is
  an error: no corpus word could match it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ContractError, EmptyCorpusError, FormatError
from .models import N_RESERVED, UNK, LengthTable

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


@dataclass
class Vocabulary:
    tokens: tuple

    def __post_init__(self):
        if tuple(self.tokens[:N_RESERVED]) != RESERVED_TOKENS:
            raise FormatError("vocabulary must start with the reserved tokens")
        self._ids = {}
        for i, t in enumerate(self.tokens):
            if t in self._ids:
                raise FormatError(f"vocabulary repeats token {t!r}")
            self._ids[t] = i

    @property
    def size(self):
        return len(self.tokens)

    @classmethod
    def from_file(cls, path):
        tokens = []
        for number, line in enumerate(_read_text(path, "vocabulary").split("\n"), 1):
            words = line.split()
            if len(words) > 1:
                raise FormatError(f"{path}:{number}: expected one token, got {line.strip()!r}")
            tokens.extend(words)
        return cls(RESERVED_TOKENS + tuple(tokens))

    @classmethod
    def synthetic(cls, size):
        """Numeric placeholder tokens for generated tasks."""
        if size <= N_RESERVED:
            raise ContractError(f"vocab size must exceed {N_RESERVED}, got {size}")
        return cls(RESERVED_TOKENS + tuple(f"tok{i}" for i in range(N_RESERVED, size)))

    def encode(self, line):
        return tuple(self._ids.get(w, UNK) for w in line.split())

    def decode(self, ids):
        """An id past the vocabulary (a model's vocab_size can exceed it) reads <unk>."""
        return " ".join(self.tokens[i] if i < self.size else "<unk>" for i in ids)


@dataclass
class ParallelCorpus:
    """Token-id sentence pairs under a shared vocabulary."""

    pairs: list
    vocab: Vocabulary | None = None

    def __post_init__(self):
        for src, tgt in self.pairs:
            if len(src) == 0 or len(tgt) == 0:
                raise FormatError("empty sequence in corpus pair")

    @property
    def size(self):
        return len(self.pairs)


def _read_text(path, what):
    """A UTF-8 file's text, or a ``FormatError`` naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise FormatError(f"cannot read {what} file {path}: {e}") from e


def load_parallel_corpus(src_path, tgt_path, vocab):
    """Read matched source/target files into id pairs, one per line pair and
    none dropped; unknown tokens map to UNK, and a blank line is a
    ``FormatError`` naming its file and line. Whether the sentences fit a
    model's positions is the caller's check."""
    src_lines = _read_text(src_path, "corpus").splitlines()
    tgt_lines = _read_text(tgt_path, "corpus").splitlines()
    if len(src_lines) != len(tgt_lines):
        raise FormatError(
            f"line count mismatch: {src_path} has {len(src_lines)}, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = [(vocab.encode(s), vocab.encode(t)) for s, t in zip(src_lines, tgt_lines)]
    for number, pair in enumerate(pairs, 1):
        for path, sentence in zip((src_path, tgt_path), pair):
            if not sentence:
                raise FormatError(f"{path}:{number}: blank line, expected a sentence")
    return ParallelCorpus(pairs, vocab)


SYNTHETIC_KINDS = ("copy", "reverse", "sort", "echo_runs")


def gen_synthetic_task(kind, vocab_size, len_range, count, rng):
    """Uniform random sources with a deterministic target transform.

    ``echo_runs`` doubles each source token with probability 0.3, making
    legitimate adjacent repeats common: the repetition-prone task.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ContractError(f"unknown synthetic task {kind!r}")
    vocab = Vocabulary.synthetic(vocab_size)
    lo, hi = len_range
    pairs = []
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        src = tuple(int(x) for x in rng.integers(N_RESERVED, vocab_size, size=length))
        if kind == "copy":
            tgt = src
        elif kind == "reverse":
            tgt = src[::-1]
        elif kind == "sort":
            tgt = tuple(sorted(src))
        else:  # echo_runs
            doubled = rng.random(length) < 0.3
            tgt = tuple(t for tok, d in zip(src, doubled) for t in ((tok, tok) if d else (tok,)))
        pairs.append((src, tgt))
    return ParallelCorpus(pairs, vocab)


def build_length_table(corpus):
    """Mode of target lengths per source length, ties toward the shorter."""
    if corpus.size == 0:
        raise EmptyCorpusError("cannot build a length table from an empty corpus")
    by_src = {}
    for src, tgt in corpus.pairs:
        by_src.setdefault(len(src), Counter())[len(tgt)] += 1
    table = {
        s: min(counts, key=lambda L: (-counts[L], L)) for s, counts in by_src.items()
    }
    return LengthTable(table)
