"""Command-line interface: config handling, dispatch, exit codes, reports."""

import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsqt import cli
from nsqt import pipeline as pl
from nsqt.checkpoint import save_model
from nsqt.models import ModelConfig, build_model

FAST = [
    "--d_model", "16", "--d_hidden", "32", "--vocab_size", "10",
    "--len_min", "2", "--len_max", "4", "--train_pairs", "24",
    "--valid_pairs", "6", "--max_steps", "8", "--eval_every", "4",
    "--max_len", "16",
]


def run(args):
    return cli.run_command([str(a) for a in args])


def _tiny_checkpoint(tmp_path, kind="nat"):
    cfg = ModelConfig(
        d_model=16, d_hidden=32, n_layer=2, n_head=2, p_dropout=0.0,
        vocab_size=10, max_len=16,
    )
    path = tmp_path / f"{kind}.nsqt"
    save_model(build_model(kind, cfg, seed=4), path, seed=4)
    return path


# ---------------------------------------------------------------------------
# argument and config handling


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_lists_commands(capsys):
    assert run(["frobnicate"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown command 'frobnicate'; expected one of: train-ce, "
        "finetune-rl, decode, evaluate, distill, estimator-bench, topk-stats, "
        "emit-report\n"
    )


def test_missing_config_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert run(["train-ce", "--config", missing]) == 1
    assert str(missing) in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    assert run(["train-ce", "--out", tmp_path, "--bogus_key", "3"]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_config_file_comments_and_override_precedence(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a comment\nvocab_size = 10  # inline comment\nmax_steps = 8\n")
    out = tmp_path / "run"
    code = run(
        ["train-ce", "--config", cfg, "--out", out, "--seed", "1", "--max_steps", "3"]
        + FAST[:10]
    )
    assert code == 0
    resolved = (out / "config.resolved.cfg").read_text()
    assert "max_steps = 3" in resolved  # flag beats file
    assert "vocab_size = 10" in resolved
    steps = [line.split(",")[0] for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert max(int(s) for s in steps) == 3


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("just a line without equals\n")
    assert run(["train-ce", "--config", cfg]) == 1
    assert "key=value" in capsys.readouterr().err


def test_bad_value_type_is_usage_error(tmp_path, capsys):
    assert run(["train-ce", "--out", tmp_path, "--max_steps", "soon"]) == 1
    assert "max_steps" in capsys.readouterr().err


def test_non_integer_seed_is_usage_error(tmp_path, capsys):
    assert run(["train-ce", "--out", tmp_path, "--seed", "abc"] + FAST) == 1
    assert "--seed" in capsys.readouterr().err


def test_negative_seed_is_usage_error(tmp_path, capsys):
    assert run(["train-ce", "--out", tmp_path, "--seed", "-1"] + FAST) == 1
    assert capsys.readouterr().err == "error: --seed: expected a non-negative integer\n"


def test_thread_env_not_read(tmp_path, monkeypatch):
    """NSQT_THREADS is no knob: any value is ignored, and the resolved
    config holds only documented keys and the seed."""
    monkeypatch.setenv("NSQT_THREADS", "many")
    assert run(["train-ce", "--out", tmp_path] + FAST) == 0
    resolved = (tmp_path / "config.resolved.cfg").read_text().splitlines()
    keys = {line.split(" = ")[0] for line in resolved}
    assert keys == set(cli.DEFAULTS) | {"seed"}


# the full resolved configuration of every command run with no config file,
# flags or seed (empty values without their trailing space): a changed
# default, derived or hand-written, shows up here
DEFAULT_RESOLVED = """\
adam_beta1 = 0.9
adam_beta2 = 0.98
adam_eps = 1e-09
batch_size = 16
beam = 1
bench_instances = 5
bench_len = 3
bench_reps = 2000
bench_vocab = 10
d_hidden = 64
d_model = 32
data_seed = 0
dedup = True
eval_every = 200
init_checkpoint =
k = 5
len_max = 12
len_min = 4
lr = 0.01
max_len = 32
max_steps = 2000
model = nat
n = 20
n_head = 2
n_layer = 2
p_dropout = 0.0
patience = 10
residual_epsilon = 1e-06
seed = 0
task = copy
teacher_checkpoint =
topk_k = 1,5,10
train_pairs = 2000
train_src =
train_tgt =
valid_pairs = 200
valid_src =
valid_tgt =
vocab_file =
vocab_size = 20
warmup = 200
"""


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_default_resolved_config_is_pinned(tmp_path, command):
    cfg = cli.resolve_config({}, {}, 0, command)
    cli.write_resolved_config(cfg, tmp_path)
    want = DEFAULT_RESOLVED
    if command == "estimator-bench":
        want = want.replace("\nk = 5\n", "\nk = 0,1,5,10\n")
    assert (tmp_path / "config.resolved.cfg").read_text().replace(" \n", "\n") == want


def test_every_default_key_is_read():
    """No unused knobs: every key is a model or training config field, or
    read as ``cfg["<key>"]`` in cli.py."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = set(re.findall(r'cfg\["(\w+)"\]', source))
    config_fields = {
        f.name for cls in (ModelConfig, pl.TrainConfig) for f in dataclasses.fields(cls)
    }
    assert set(cli.DEFAULTS) - config_fields - read == set()


def _readme_recipes():
    """Every ``nsqt ...`` line of the README's fenced code blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    recipes = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("nsqt "):
                recipes.append(shlex.split(line)[1:])
    return recipes


def test_readme_recipes_parse_and_resolve():
    recipes = _readme_recipes()
    assert {r[0] for r in recipes} >= {
        "train-ce", "finetune-rl", "evaluate", "estimator-bench", "topk-stats"
    }
    for argv in recipes:
        command, config_path, seed, _, overrides = cli._parse_args(argv)
        assert config_path is None, argv
        cli.resolve_config({}, overrides, seed, command)


def test_resolved_config_written_before_work(tmp_path):
    out = tmp_path / "run"
    # fails at runtime (distill without a teacher checkpoint = usage error),
    # but the resolved config must already be on disk
    assert run(["distill", "--out", out] + FAST) == 1
    assert (out / "config.resolved.cfg").exists()


# ---------------------------------------------------------------------------
# empty corpora


def test_training_on_empty_file_corpus_exits_2(tmp_path):
    """Every pair is dropped as longer than max_len, leaving no batch; a
    subprocess, so that a training loop that never ends fails the test
    instead of hanging the suite."""
    (tmp_path / "vocab.txt").write_text("a\nb\n")
    (tmp_path / "train.src").write_text("a b a\n")
    (tmp_path / "train.tgt").write_text("b a b\n")
    args = [
        "train-ce", "--out", tmp_path / "run", "--max_len", "2",
        "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "nsqt.cli", *map(str, args)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: EmptyCorpusError: training corpus is empty\n"


@pytest.mark.parametrize("command", ["train-ce", "decode", "evaluate", "topk-stats"])
def test_empty_validation_corpus_exits_2(tmp_path, capsys, command):
    args = [command, "--out", tmp_path / "run"] + FAST + ["--valid_pairs", "0"]
    if command != "train-ce":
        args += ["--init_checkpoint", _tiny_checkpoint(tmp_path)]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: EmptyCorpusError: ") and "corpus is empty" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "run" / "decodes.txt").exists()


@pytest.mark.parametrize(
    "key, value", [("eval_every", "0"), ("batch_size", "0"), ("max_steps", "-5")]
)
def test_train_config_out_of_range_exits_2(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + [f"--{key}", value]) == 2
    assert capsys.readouterr().err == f"error: ContractError: {key} must be >= 1, got {value}\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("lr", "-0.5"), ("lr", "0"), ("lr", "nan"), ("lr", "inf"),
        ("adam_beta1", "-0.1"), ("adam_beta1", "1"), ("adam_beta2", "1.5"),
        ("adam_beta2", "nan"), ("adam_eps", "-1"), ("adam_eps", "0"), ("adam_eps", "inf"),
    ],
)
def test_optimiser_config_out_of_range_exits_2(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + [f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ContractError: {key} must be ") and err.count("\n") == 1
    assert not (out / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# command behavior


def test_train_ce_deterministic_metrics(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["train-ce", "--out", out, "--seed", "1"] + FAST) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["train-ce", "finetune-rl"])
def test_rerun_into_same_out_leaves_one_run(tmp_path, command):
    """A second identical run into the same directory replaces the first
    run's metrics instead of appending duplicate rows."""
    args = [command, "--seed", "1"] + FAST
    if command == "finetune-rl":
        args += ["--init_checkpoint", _tiny_checkpoint(tmp_path), "--k", "2", "--n", "2"]
    for out, times in ((tmp_path / "once", 1), (tmp_path / "twice", 2)):
        for _ in range(times):
            assert run(args + ["--out", out]) == 0
    for name in ("metrics.csv", "report_curve.csv"):
        assert (tmp_path / "twice" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()
    assert (tmp_path / "once" / "report_curve.csv").read_text().count("\n") > 1


def test_finetune_rl_runs_and_logs(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "rl"
    code = run(
        ["finetune-rl", "--out", out, "--seed", "2", "--init_checkpoint", ckpt,
         "--k", "2", "--n", "2", "--max_steps", "4"] + FAST[:14]
    )
    assert code == 0
    text = (out / "metrics.csv").read_text()
    assert "surrogate" in text and text.startswith("step,split,metric,value")


def test_finetune_rl_rejects_nan_residual_epsilon(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    assert run(
        ["finetune-rl", "--out", tmp_path / "rl", "--init_checkpoint", ckpt,
         "--residual_epsilon", "nan"] + FAST
    ) == 2
    err = capsys.readouterr().err
    assert "residual_epsilon" in err and err.count("\n") == 1


def test_finetune_rl_rejects_k_list(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    assert run(
        ["finetune-rl", "--out", tmp_path / "rl", "--init_checkpoint", ckpt,
         "--k", "0,5"] + FAST
    ) == 1
    assert "single k" in capsys.readouterr().err


def test_finetune_rl_on_ar_checkpoint_is_runtime_error(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path, kind="ar")
    code = run(
        ["finetune-rl", "--out", tmp_path / "rl", "--init_checkpoint", ckpt,
         "--k", "2", "--n", "2", "--max_steps", "2"] + FAST[:14]
    )
    assert code == 2


def test_decode_writes_one_line_per_sentence(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "dec"
    assert run(["decode", "--out", out, "--init_checkpoint", ckpt] + FAST) == 0
    lines = (out / "decodes.txt").read_text().splitlines()
    assert len(lines) == 6  # one per validation sentence


def test_decode_without_validation_files_decodes_the_training_corpus(tmp_path):
    # six words fill the tiny checkpoint's vocabulary of ten after the reserved ids
    (tmp_path / "vocab.txt").write_text("a\nb\nc\nd\ne\nf\n")
    (tmp_path / "train.src").write_text("a b a\nb b\n")
    (tmp_path / "train.tgt").write_text("b a b\na a\n")
    out = tmp_path / "dec"
    args = [
        "decode", "--out", out, "--init_checkpoint", _tiny_checkpoint(tmp_path),
        "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    assert run(args) == 0
    assert len((out / "decodes.txt").read_text().splitlines()) == 2


@pytest.mark.parametrize(
    "kind, beam, mode",
    [("nat", 1, "nat_argmax"), ("ar", 1, "greedy"), ("ar", 4, "beam"), ("fs", 3, "beam")],
)
def test_beam_selects_the_decode_mode(tmp_path, monkeypatch, kind, beam, mode):
    seen = []
    evaluate = pl.evaluate

    def spy(model, corpus, dec, table=None):
        seen.append((dec.mode, dec.beam))
        return evaluate(model, corpus, dec, table)

    monkeypatch.setattr(pl, "evaluate", spy)
    ckpt = _tiny_checkpoint(tmp_path, kind=kind)
    args = ["evaluate", "--out", tmp_path / "ev", "--init_checkpoint", ckpt, "--beam", beam]
    assert run(args + FAST) == 0
    assert seen == [(mode, beam)]


@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_beam_on_nat_model_is_usage_error(tmp_path, capsys, command):
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "run"
    assert run([command, "--out", out, "--init_checkpoint", ckpt, "--beam", "4"] + FAST) == 1
    assert capsys.readouterr().err == "error: key beam: NAT models decode by argmax, got beam 4\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


def test_evaluate_writes_reports(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "ev"
    assert run(["evaluate", "--out", out, "--init_checkpoint", ckpt] + FAST) == 0
    eval_rows = dict(
        line.split(",") for line in (out / "eval.csv").read_text().splitlines()[1:]
    )
    assert {"corpus_bleu", "mean_gleu", "decoder_calls"} <= set(eval_rows)
    assert float(eval_rows["decoder_calls"]) == 1.0
    assert (out / "length_buckets.csv").exists()
    assert (out / "report_length_buckets.csv").exists()


def test_distill_writes_corpus(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path, kind="ar")
    out = tmp_path / "kd"
    assert run(["distill", "--out", out, "--teacher_checkpoint", ckpt] + FAST) == 0
    src = (out / "distilled.src").read_text().splitlines()
    tgt = (out / "distilled.tgt").read_text().splitlines()
    assert len(src) == len(tgt) == 24
    # the written corpus and vocabulary are enough to train a student on
    student = tmp_path / "student"
    code = run(
        ["train-ce", "--out", student, "--model", "nat",
         "--train_src", out / "distilled.src", "--train_tgt", out / "distilled.tgt",
         "--vocab_file", out / "distilled.vocab"] + FAST
    )
    assert code == 0
    assert (student / "model.nsqt").exists()


@pytest.mark.parametrize(
    "given, missing",
    [
        ({"train_src": "a.src", "vocab_file": "v.txt"}, "train_tgt"),
        ({"train_src": "a.src", "train_tgt": "a.tgt"}, "vocab_file"),
        ({"valid_src": "b.src", "vocab_file": "v.txt"}, "valid_tgt"),
        ({"valid_src": "b.src", "valid_tgt": "b.tgt"}, "vocab_file"),
    ],
    ids=["train_tgt", "train_vocab", "valid_tgt", "valid_vocab"],
)
def test_file_corpus_without_its_companion_key_is_usage_error(tmp_path, capsys, given, missing):
    args = ["train-ce", "--out", tmp_path / "run"] + FAST
    for key, name in given.items():
        args += [f"--{key}", tmp_path / name]
    assert run(args) == 1
    side = "train" if "train_src" in given else "valid"
    assert capsys.readouterr().err == f"error: key {side}_src requires key {missing}\n"


def test_estimator_bench_one_row_per_k(tmp_path):
    out = tmp_path / "bench"
    code = run(
        ["estimator-bench", "--out", out, "--k", "0,1,5,10",
         "--bench_reps", "50", "--bench_instances", "2", "--n", "2"]
    )
    assert code == 0
    lines = (out / "variance.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["k", "0", "1", "5", "10"]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_estimator_bench_without_instances_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "bench"
    code = run(
        ["estimator-bench", "--out", out, "--bench_instances", value,
         "--bench_reps", "5", "--n", "2"]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: key bench_instances: expected >= 1, got {value}\n"
    assert not (out / "variance.csv").exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("bench_len", "0", "key bench_len: expected >= 1, got 0"),
        ("bench_len", "-1", "key bench_len: expected >= 1, got -1"),
        ("bench_vocab", "0", "key bench_vocab: expected >= 1, got 0"),
        ("bench_reps", "1", "key bench_reps: expected >= 2, got 1"),
        ("bench_vocab", "5", "key k: expected values <= bench_vocab (5), got 10"),
    ],
    ids=["len_0", "len_negative", "vocab_0", "reps_1", "k_above_vocab"],
)
def test_estimator_bench_bad_size_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "bench"
    code = run(["estimator-bench", "--out", out, f"--{flag}", value, "--n", "2"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "variance.csv").exists()


def test_estimator_bench_honours_residual_epsilon(tmp_path):
    base = ["--bench_reps", "50", "--bench_instances", "1", "--k", "1"]
    tables = []
    for extra in ([], ["--residual_epsilon", "0.9"]):
        out = tmp_path / f"bench{len(extra)}"
        assert run(["estimator-bench", "--out", out] + base + extra) == 0
        tables.append((out / "variance.csv").read_text())
    assert tables[0] != tables[1]


def test_estimator_bench_single_k_is_not_the_default_sweep(tmp_path):
    out = tmp_path / "bench"
    code = run(
        ["estimator-bench", "--out", out, "--k", "5",
         "--bench_reps", "20", "--bench_instances", "1", "--n", "2"]
    )
    assert code == 0
    lines = (out / "variance.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["k", "5"]


def test_topk_stats_means_reproducible_from_dump(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "topk"
    code = run(
        ["topk-stats", "--out", out, "--init_checkpoint", ckpt,
         "--topk_k", "1,3,10"] + FAST
    )
    assert code == 0
    dump = {}
    for line in (out / "topk_values.csv").read_text().splitlines()[1:]:
        k, _, v = line.split(",")
        dump.setdefault(int(k), []).append(float(v))
    summary = (out / "topk_summary.csv").read_text().splitlines()[1:]
    means = {}
    for line in summary:
        parts = line.split(",")
        means[int(parts[0])] = float(parts[1])
        assert sum(int(h) for h in parts[2:]) == len(dump[int(parts[0])])
    for k, vals in dump.items():
        assert abs(sum(vals) / len(vals) - means[k]) <= 1e-12
    # top-10 of a 10-token vocabulary is the whole distribution
    assert means[10] == pytest.approx(1.0, abs=1e-12)
    assert means[1] <= means[3] <= means[10]


def test_topk_stats_k0_covers_no_mass(tmp_path):
    corpus = cli._load_corpora({**cli.DEFAULTS, "vocab_size": 10, "train_pairs": 4, "valid_pairs": 2})[1]
    model = cli.checkpoint.load_model(_tiny_checkpoint(tmp_path))
    values, summary = pl.topk_stats(model, corpus, [0, 1])
    assert set(values[0]) == {0.0}
    assert summary[0][1] == 0.0 and summary[1][1] > 0.0


def test_topk_stats_malformed_k_is_usage_error(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    args = ["topk-stats", "--out", tmp_path / "t", "--init_checkpoint", ckpt] + FAST
    assert run(args + ["--topk_k", "1,x"]) == 1
    assert "topk_k" in capsys.readouterr().err


def test_topk_stats_requires_nat(tmp_path):
    ckpt = _tiny_checkpoint(tmp_path, kind="ar")
    assert run(["topk-stats", "--out", tmp_path / "t", "--init_checkpoint", ckpt] + FAST) == 1


# ---------------------------------------------------------------------------
# emit-report


def test_emit_report_missing_metrics_exits_2(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run(["emit-report", "--out", out]) == 2
    assert "metrics.csv" in capsys.readouterr().err


def test_emit_report_idempotent(tmp_path):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out, "--seed", "3"] + FAST) == 0
    first = (out / "report_curve.csv").read_bytes()
    assert run(["emit-report", "--out", out]) == 0
    assert (out / "report_curve.csv").read_bytes() == first
    curve = first.decode().splitlines()
    assert curve[0] == "step,valid_gleu"
    assert len(curve) == 1 + 2  # one row per eval point (steps 4 and 8)
