"""Corpus, vocabulary, synthetic-task, and length-table behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsqt import data
from nsqt.data import (
    FormatError,
    ParallelCorpus,
    Vocabulary,
    build_length_table,
    gen_synthetic_task,
    load_parallel_corpus,
    save_corpus,
)
from nsqt.models import EOS, N_RESERVED, PAD, UNK, predict_length


# ---------------------------------------------------------------------------
# vocabulary


def test_reserved_ids():
    v = Vocabulary.synthetic(8)
    assert v.tokens[PAD] == "<pad>"
    assert v.tokens[1] == "<bos>"
    assert v.tokens[EOS] == "<eos>"
    assert v.tokens[UNK] == "<unk>"
    assert v.size == 8


def test_vocab_file_round_trip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\nbeta\ngamma\n")
    v = Vocabulary.from_file(path)
    assert v.size == N_RESERVED + 3
    assert v.encode("beta alpha") == (N_RESERVED + 1, N_RESERVED)
    out = tmp_path / "vocab_out.txt"
    v.save(out)
    assert Vocabulary.from_file(out).tokens == v.tokens


def test_unknown_token_maps_to_unk(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("alpha\n")
    v = Vocabulary.from_file(path)
    assert v.encode("alpha zeta") == (N_RESERVED, UNK)


def test_decode_inverts_encode_on_known_tokens():
    v = Vocabulary.synthetic(10)
    line = "tok4 tok7 tok9"
    assert v.decode(v.encode(line)) == line


# ---------------------------------------------------------------------------
# parallel corpus files


def _write_corpus(tmp_path, src_lines, tgt_lines):
    src = tmp_path / "x.src"
    tgt = tmp_path / "x.tgt"
    src.write_text("\n".join(src_lines) + "\n")
    tgt.write_text("\n".join(tgt_lines) + "\n")
    return src, tgt


def test_load_three_line_files(tmp_path):
    v = Vocabulary.synthetic(10)
    src, tgt = _write_corpus(tmp_path, ["tok4", "tok5 tok6", "tok7"], ["tok4", "tok6", "tok7"])
    corpus = load_parallel_corpus(src, tgt, v)
    assert corpus.size == 3
    assert corpus.pairs[1] == ((5, 6), (6,))


def test_unseen_token_becomes_unk_id(tmp_path):
    v = Vocabulary.synthetic(6)
    src, tgt = _write_corpus(tmp_path, ["tok4 zork"], ["tok5"])
    corpus = load_parallel_corpus(src, tgt, v)
    assert UNK in corpus.pairs[0][0]


def test_line_count_mismatch_names_both_counts(tmp_path):
    v = Vocabulary.synthetic(6)
    src, tgt = _write_corpus(tmp_path, ["tok4"] * 10, ["tok4"] * 9)
    with pytest.raises(FormatError, match="10.*9"):
        load_parallel_corpus(src, tgt, v)


def test_unreadable_file_raises(tmp_path):
    v = Vocabulary.synthetic(6)
    with pytest.raises(FormatError):
        load_parallel_corpus(tmp_path / "no.src", tmp_path / "no.tgt", v)


def test_overlong_pairs_dropped(tmp_path):
    v = Vocabulary.synthetic(6)
    src, tgt = _write_corpus(
        tmp_path, ["tok4", "tok4 tok5 tok4 tok5"], ["tok5", "tok5"]
    )
    corpus = load_parallel_corpus(src, tgt, v, max_len=3)
    assert corpus.size == 1


def test_empty_sequence_rejected():
    with pytest.raises(FormatError):
        ParallelCorpus([((4,), ())])
    with pytest.raises(FormatError):
        ParallelCorpus([((), (4,))])


def test_save_corpus_round_trip(tmp_path):
    corpus = gen_synthetic_task("copy", 12, (2, 5), 20, np.random.default_rng(3))
    save_corpus(corpus, tmp_path / "c.src", tmp_path / "c.tgt", corpus.vocab)
    back = load_parallel_corpus(tmp_path / "c.src", tmp_path / "c.tgt", corpus.vocab)
    assert back.pairs == corpus.pairs


# ---------------------------------------------------------------------------
# synthetic tasks


def test_copy_targets_equal_sources():
    corpus = gen_synthetic_task("copy", 15, (3, 6), 30, np.random.default_rng(0))
    for src, tgt in corpus.pairs:
        assert tgt == src


def test_reverse_definition():
    corpus = gen_synthetic_task("reverse", 15, (3, 6), 30, np.random.default_rng(0))
    for src, tgt in corpus.pairs:
        assert tgt == src[::-1]
    # the worked case: [5, 6, 7] reversed is [7, 6, 5]
    assert tuple(reversed((5, 6, 7))) == (7, 6, 5)


def test_sort_definition():
    corpus = gen_synthetic_task("sort", 15, (3, 6), 30, np.random.default_rng(0))
    for src, tgt in corpus.pairs:
        assert tgt == tuple(sorted(src))
    assert tuple(sorted((9, 4, 7))) == (4, 7, 9)


def test_payload_ids_avoid_reserved_range():
    for kind in data.SYNTHETIC_KINDS:
        corpus = gen_synthetic_task(kind, 9, (2, 7), 25, np.random.default_rng(1))
        for src, tgt in corpus.pairs:
            assert all(N_RESERVED <= t < 9 for t in src + tgt)


def test_lengths_respect_range():
    corpus = gen_synthetic_task("copy", 9, (2, 7), 100, np.random.default_rng(2))
    lengths = {len(src) for src, _ in corpus.pairs}
    assert lengths <= set(range(2, 8))
    assert {2, 7} <= lengths  # both endpoints reachable


def test_seed_reproducible():
    a = gen_synthetic_task("echo_runs", 20, (4, 12), 50, np.random.default_rng(7))
    b = gen_synthetic_task("echo_runs", 20, (4, 12), 50, np.random.default_rng(7))
    assert a.pairs == b.pairs


def test_echo_runs_contains_adjacent_repeats():
    corpus = gen_synthetic_task("echo_runs", 20, (4, 12), 100, np.random.default_rng(5))
    doubled = sum(
        any(x == y for x, y in zip(tgt, tgt[1:])) for _, tgt in corpus.pairs
    )
    assert doubled > 50  # legitimate doubles are common by construction
    for src, tgt in corpus.pairs:
        assert len(src) <= len(tgt) <= 2 * len(src)


def test_unknown_task_rejected():
    with pytest.raises(FormatError):
        gen_synthetic_task("shuffle", 9, (2, 4), 5, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# length table


def test_length_table_mode():
    corpus = ParallelCorpus([((4,) * 3, (5,) * 4), ((4,) * 3, (5,) * 4), ((4,) * 3, (5,) * 5)])
    assert build_length_table(corpus).table[3] == 4


def test_length_table_single_pair():
    corpus = ParallelCorpus([((4,) * 7, (5,) * 7)])
    assert build_length_table(corpus).table[7] == 7


def test_length_table_tie_prefers_shorter():
    corpus = ParallelCorpus([((4,) * 2, (5,) * 3), ((4,) * 2, (5,) * 4)])
    assert build_length_table(corpus).table[2] == 3


def test_length_table_empty_corpus():
    with pytest.raises(FormatError):
        build_length_table(ParallelCorpus([]))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9)), min_size=1, max_size=30))
def test_length_table_values_observed(pairs):
    corpus = ParallelCorpus(
        [((4,) * s, (5,) * t) for s, t in pairs]
    )
    table = build_length_table(corpus)
    observed = {}
    for s, t in pairs:
        observed.setdefault(s, set()).add(t)
    assert set(table.table) == set(observed)
    for s, t in table.table.items():
        assert t in observed[s]
        # the mode: nothing occurs strictly more often
        counts = [u for x, u in pairs if x == s]
        assert counts.count(t) == max(counts.count(u) for u in counts)


def test_predict_length_reads_the_built_table():
    table = build_length_table(ParallelCorpus([((4,) * 3, (5,) * 4)]))
    assert predict_length(3, table) == 4
    assert predict_length(5, table) == 4  # nearest key fallback
