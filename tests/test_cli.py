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
from hypothesis import given, settings
from hypothesis import strategies as st

from nsqt import cli, estimators, models
from nsqt import pipeline as pl
from nsqt.checkpoint import save_model
from nsqt.errors import ContractError
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


def test_config_file_not_utf8_names_path(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"max_st\xffeps = 3\n")
    assert run(["train-ce", "--config", cfg, "--out", tmp_path / "run"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}: ")
    assert "can't decode byte 0xff in position 6" in err and err.count("\n") == 1


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(str),
    st.sampled_from(["true", "no", "1e400", "nan", "-0", "1_000", "\u0663", "9" * 5000]),
)
_CONFIG_KEYS = st.one_of(st.sampled_from(sorted(cli.DEFAULTS)), st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(
    text=st.one_of(
        st.lists(
            st.tuples(_CONFIG_KEYS, st.sampled_from(["=", " = ", "", "==", " # "]), _CONFIG_VALUES),
            max_size=6,
        ).map(lambda lines: "\n".join(k + sep + v for k, sep, v in lines)),
        st.text(max_size=60),
    ),
    raw=st.one_of(st.none(), st.binary(max_size=40)),
    command=st.one_of(st.sampled_from(cli.COMMANDS), st.text(max_size=8)),
    flags=st.lists(
        st.one_of(
            st.tuples(
                st.one_of(
                    st.sampled_from(["--seed", "--out"]),
                    _CONFIG_KEYS.map(lambda k: "--" + k),
                ),
                _CONFIG_VALUES,
            ).map(list),
            st.lists(st.text(max_size=6), max_size=1),
        ),
        max_size=5,
    ),
)
def test_config_text_and_flags_give_a_result_or_contract_error(tmp_path_factory, text, raw, command, flags):
    # the only allowed failure of argument and config handling is a
    # ContractError: exit 1 with a one-line message
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    if raw is None:
        path.write_text(text, encoding="utf-8")
    else:
        path.write_bytes(raw)
    argv = [command] + [token for flag in flags for token in flag]
    try:
        command, _, seed, _, overrides = cli._parse_args(argv)
        cli.resolve_config(cli.parse_config_file(path), overrides, seed, command)
    except ContractError as e:
        assert "\n" not in str(e)


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


@pytest.mark.parametrize("seed", [str(2**64), "9" * 5000], ids=["2^64", "5000-digits"])
def test_seed_beyond_u64_is_usage_error(tmp_path, capsys, seed):
    # checkpoints store the seed as a u64: a larger seed trained and then
    # failed at the save, and 5000 digits made int() raise a bare ValueError
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out, "--seed", seed] + FAST) == 1
    assert capsys.readouterr().err == f"error: --seed: expected at most {2**64 - 1}\n"
    assert not out.exists()


def test_thread_env_not_read(tmp_path, monkeypatch):
    """NSQT_THREADS is no knob: any value is ignored, and the resolved
    config holds only the seed comment and documented keys."""
    monkeypatch.setenv("NSQT_THREADS", "many")
    assert run(["train-ce", "--out", tmp_path] + FAST) == 0
    seed, *resolved = (tmp_path / "config.resolved.cfg").read_text().splitlines()
    assert seed == "# seed = 0"
    assert {line.split(" = ")[0] for line in resolved} == set(cli.DEFAULTS)


# the full resolved configuration of every command run with no config file,
# flags or seed (empty values without their trailing space): a changed
# default, derived or hand-written, shows up here
DEFAULT_RESOLVED = """\
# seed = 0
batch_size = 16
beam = 1
bench_instances = 5
bench_len = 3
bench_reps = 2000
bench_vocab = 10
d_hidden = 64
d_model = 32
data_seed = 0
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
task = copy
teacher_checkpoint =
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
    k_list = {"estimator-bench": "0,1,5,10", "topk-stats": "1,5,10"}.get(command)
    if k_list:
        want = want.replace("\nk = 5\n", f"\nk = {k_list}\n")
    assert (tmp_path / "config.resolved.cfg").read_text().replace(" \n", "\n") == want


def test_old_resolved_config_with_dedup_loads_once_the_line_is_deleted(tmp_path, capsys):
    """A resolved config written while `dedup`, `patience` and
    `residual_epsilon` were keys, and the seed was a key line, is refused as
    it stands, naming each of those lines in turn; it loads once they are
    deleted (README, CLI)."""
    text = (
        DEFAULT_RESOLVED.replace("# seed = 0\n", "")
        .replace("\neval_every", "\ndedup = True\neval_every")
        .replace("\ntask", "\npatience = 10\nresidual_epsilon = 1e-06\nseed = 0\ntask")
    )
    old, out = tmp_path / "old.cfg", tmp_path / "run"
    for line in ("dedup = True", "patience = 10", "residual_epsilon = 1e-06", "seed = 0"):
        key = line.split(" = ")[0]
        old.write_text(text)
        assert run(["train-ce", "--config", old, "--out", out] + FAST) == 1
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
        assert not out.exists()
        text = text.replace(f"\n{line}\n", "\n")
    old.write_text(text)
    assert run(["train-ce", "--config", old, "--out", out] + FAST) == 0
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_resolved_config_feeds_back(tmp_path, command):
    """A resolved config given back with --config and the same --seed
    resolves to the config that was written: the seed is a comment."""
    cfg = cli.resolve_config({"n": "3", "k": "2"}, {"lr": "0.5"}, 7, command)
    cli.write_resolved_config(cfg, tmp_path)
    again = cli.parse_config_file(tmp_path / "config.resolved.cfg")
    assert cli.resolve_config(again, {}, 7, command) == cfg


@pytest.mark.parametrize("how", ["flag", "config"])
def test_residual_epsilon_is_no_key(tmp_path, capsys, how):
    # the residual cutoff is a constant of the estimator
    out = tmp_path / "rl"
    args = ["finetune-rl", "--out", out, "--init_checkpoint", _tiny_checkpoint(tmp_path)] + FAST
    if how == "flag":
        args += ["--residual_epsilon", "1e-6"]
    else:
        (tmp_path / "old.cfg").write_text("residual_epsilon = 1e-6\n")
        args += ["--config", tmp_path / "old.cfg"]
    assert run(args) == 1
    assert capsys.readouterr().err == "error: unknown config key 'residual_epsilon'\n"
    assert not out.exists()


def test_every_default_is_an_int_a_float_or_a_str():
    """``_coerce`` parses these three types only: a bool default would be
    read by ``int`` and refuse ``true``."""
    assert {k: type(v) for k, v in cli.DEFAULTS.items() if type(v) not in (int, float, str)} == {}


def test_every_default_key_is_read():
    """No unused knobs: every key is a model or training config field, or
    read as ``cfg["<key>"]`` in cli.py."""
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = set(re.findall(r'cfg\["(\w+)"\]', source))
    config_fields = {
        f.name for cls in (ModelConfig, pl.TrainConfig) for f in dataclasses.fields(cls)
    }
    assert set(cli.DEFAULTS) - config_fields - read == set()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_recipes():
    """Every ``nsqt ...`` line of the README's fenced code blocks, with
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    recipes = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("nsqt "):
                recipes.append(shlex.split(line)[1:])
    return recipes


def test_every_key_is_documented():
    """Each settable key is named in the README, as `key` or --key."""
    text = README.read_text(encoding="utf-8")
    missing = [k for k in cli.DEFAULTS if not re.search(rf"`{k}`|--{k}\b", text)]
    assert missing == []


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
# input the user cannot fix by a value: empty corpora, corrupt checkpoints


def test_training_on_empty_file_corpus_exits_2(tmp_path):
    """Files without a line give no batch; a subprocess, so that a training
    loop that never ends fails the test instead of hanging the suite."""
    (tmp_path / "vocab.txt").write_text("a\nb\n")
    (tmp_path / "train.src").write_text("")
    (tmp_path / "train.tgt").write_text("")
    args = [
        "train-ce", "--out", tmp_path / "run",
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


def test_repeated_vocabulary_token_exits_2(tmp_path, capsys):
    (tmp_path / "vocab.txt").write_text("a\nb\na\n")
    (tmp_path / "train.src").write_text("a b\n")
    (tmp_path / "train.tgt").write_text("b a\n")
    out = tmp_path / "run"
    args = [
        "train-ce", "--out", out, "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: FormatError: vocabulary repeats token 'a'\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


def _file_corpus_args(tmp_path, src_text, tgt_text=None):
    """Flags for train.src and train.tgt (the source again by default) under
    the three-word vocab.txt, all written to tmp_path."""
    texts = {"vocab_file": ("vocab.txt", "a\nb\nc\n"), "train_src": ("train.src", src_text),
             "train_tgt": ("train.tgt", src_text if tgt_text is None else tgt_text)}
    args = []
    for key, (name, text) in texts.items():
        (tmp_path / name).write_text(text)
        args += [f"--{key}", tmp_path / name]
    return args


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_blank_corpus_line_exits_2_naming_file_and_line(tmp_path, capsys, side):
    texts = {"src": "a b\nb c\nc\n", "tgt": "a b\nb c\nc\n"}
    texts[side] = "a b\n  \nc\n"
    args = _file_corpus_args(tmp_path, texts["src"], texts["tgt"])
    assert run(["train-ce", "--out", tmp_path / "run"] + args) == 2
    path = tmp_path / f"train.{side}"
    assert capsys.readouterr().err == (
        f"error: FormatError: {path}:2: blank line, expected a sentence\n"
    )


@pytest.mark.parametrize("name", ["vocab.txt", "train.src"])
def test_file_not_utf8_exits_2_naming_path(tmp_path, capsys, name):
    args = _file_corpus_args(tmp_path, "a b\n")
    (tmp_path / name).write_bytes(b"a b\xff\n")
    assert run(["train-ce", "--out", tmp_path / "run"] + args) == 2
    err = capsys.readouterr().err
    what = "vocabulary" if name == "vocab.txt" else "corpus"
    assert err.startswith(f"error: FormatError: cannot read {what} file {tmp_path / name}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.resolved.cfg"]


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


def test_truncated_checkpoint_exits_2(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    assert run(["evaluate", "--out", tmp_path / "run", "--init_checkpoint", ckpt] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: CheckpointError: {ckpt}: truncated at byte ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# values the user can fix: exit 1


@pytest.mark.parametrize(
    "key, value", [("eval_every", "0"), ("batch_size", "0"), ("max_steps", "-5")]
)
def test_train_config_out_of_range_exits_1(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + [f"--{key}", value]) == 1
    assert capsys.readouterr().err == f"error: {key} must be >= 1, got {value}\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("lr", "-0.5"), ("lr", "0"), ("lr", "nan"), ("lr", "inf")],
)
def test_optimiser_config_out_of_range_exits_1(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + [f"--{key}", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not (out / "metrics.csv").exists()


# Adam's decay rates and offset are fixed constants, NAT output is scored as
# the model emits it, and training runs max_steps steps without stopping
# early: none of these is a settable key
@pytest.mark.parametrize(
    "key, value",
    [
        ("adam_beta1", "0.5"), ("adam_beta2", "0.9"), ("adam_eps", "1e-8"), ("dedup", "false"),
        ("patience", "10"),
    ],
)
def test_removed_key_is_unknown(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + [f"--{key}", value]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not out.exists()


# any other value or combination the user can fix is a ContractError too:
# exit 1 with a one-line message and no run output
@pytest.mark.parametrize(
    "command, checkpoint, extra, message",
    [
        ("train-ce", None, ["--d_model", "0"], "d_model must be >= 1, got 0"),
        ("train-ce", None, ["--model", "xyz"], "unknown model kind 'xyz'"),
        ("train-ce", None, ["--task", "shuffle"], "unknown synthetic task 'shuffle'"),
        ("train-ce", None, ["--vocab_size", "4"], "vocab size must exceed 4, got 4"),
        ("estimator-bench", None, ["--n", "0"], "n must be positive, got 0"),
        ("finetune-rl", "nat", ["--n", "0"], "n must be positive, got 0"),
        (
            "finetune-rl", "ar", [],
            "sequence-level fine-tuning is defined for the factorized NAT output "
            "only, got model kind 'ar'",
        ),
    ],
    ids=[
        "d_model_0", "unknown_model", "unknown_task", "vocab_size_4",
        "estimator_bench_n_0", "finetune_rl_n_0", "finetune_rl_on_ar",
    ],
)
def test_user_fixable_value_exits_1(tmp_path, capsys, command, checkpoint, extra, message):
    out = tmp_path / "run"
    args = [command, "--out", out] + FAST + extra
    if checkpoint:
        args += ["--init_checkpoint", _tiny_checkpoint(tmp_path, kind=checkpoint)]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


@pytest.mark.parametrize("command", ["train-ce", "decode"])
def test_corpus_vocabulary_larger_than_the_model_is_usage_error(tmp_path, capsys, command):
    """A file vocabulary of 30 tokens (34 ids) at the default vocab_size 20,
    or a checkpoint of vocab_size 10 on the default synthetic vocabulary of
    20: rejected before any work instead of an IndexError mid-run."""
    out = tmp_path / "run"
    if command == "train-ce":
        (tmp_path / "vocab.txt").write_text("".join(f"w{i}\n" for i in range(30)))
        (tmp_path / "train.src").write_text("w0 w29\n")
        (tmp_path / "train.tgt").write_text("w29 w0\n")
        args = [
            "--vocab_file", tmp_path / "vocab.txt",
            "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
        ]
        model_v, corpus_v = 20, 34
    else:
        args = ["--init_checkpoint", _tiny_checkpoint(tmp_path), "--valid_pairs", "6"]
        model_v, corpus_v = 10, 20
    assert run([command, "--out", out] + args) == 1
    assert capsys.readouterr().err == (
        f"error: key vocab_size: the model's vocab_size {model_v} is below the "
        f"corpus vocabulary's {corpus_v} tokens\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


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


def test_finetune_rl_rejects_k_list(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    assert run(
        ["finetune-rl", "--out", tmp_path / "rl", "--init_checkpoint", ckpt,
         "--k", "0,5"] + FAST
    ) == 1
    assert "single k" in capsys.readouterr().err


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


@pytest.mark.parametrize("seed", ["4", "6"])
def test_ids_past_the_file_vocabulary_are_written_as_unk(tmp_path, seed):
    """A model with more ids than the three-word file vocabulary decodes
    every line, writing ``<unk>`` for the ids the file lacks, in decode and
    distill alike."""
    args = _file_corpus_args(tmp_path, "a b c\nb c\nc a b a\n")
    ckpt = tmp_path / "ck"
    assert run(["train-ce", "--out", ckpt, "--seed", seed, "--model", "nat",
                "--vocab_size", "12", "--max_steps", "1"] + args) == 0
    model = ["--init_checkpoint", ckpt / "model.nsqt"]
    assert run(["decode", "--out", tmp_path / "dec"] + model + args) == 0
    decodes = (tmp_path / "dec" / "decodes.txt").read_text().splitlines()
    assert len(decodes) == 3 and "<unk>" in " ".join(decodes)
    kd = tmp_path / "kd"
    assert run(["distill", "--out", kd, "--teacher_checkpoint", ckpt / "model.nsqt"] + args) == 0
    assert len((kd / "distilled.src").read_text().splitlines()) == 3
    assert (kd / "distilled.tgt").read_text().splitlines() == decodes


@pytest.mark.parametrize("command", ["decode", "evaluate"])
def test_long_file_sentences_are_all_decoded(tmp_path, command):
    # sources above the max_len key's default of 32 fit a checkpoint of 48;
    # every line pair is decoded and scored, none dropped. Six words fill
    # the checkpoint's vocabulary of ten after the reserved ids
    lengths = [4, 40, 6, 40, 2, 28]
    lines = "".join(" ".join("abcdef"[i % 6] for i in range(n)) + "\n" for n in lengths)
    (tmp_path / "vocab.txt").write_text("a\nb\nc\nd\ne\nf\n")
    (tmp_path / "train.src").write_text(lines)
    (tmp_path / "train.tgt").write_text(lines)
    cfg = ModelConfig(d_model=16, d_hidden=32, vocab_size=10, max_len=48)
    ckpt = tmp_path / "nat48.nsqt"
    save_model(build_model("nat", cfg, seed=4), ckpt, seed=4)
    out = tmp_path / "run"
    args = [
        command, "--out", out, "--init_checkpoint", ckpt,
        "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    assert run(args) == 0
    if command == "decode":
        assert len((out / "decodes.txt").read_text().splitlines()) == len(lengths)
        return
    buckets = (out / "length_buckets.csv").read_text().splitlines()[1:]
    assert sum(int(row.split(",")[1]) for row in buckets) == len(lengths)
    eval_rows = dict(line.split(",") for line in (out / "eval.csv").read_text().splitlines()[1:])
    assert float(eval_rows["mean_ref_len"]) == sum(lengths) / len(lengths)


@pytest.mark.parametrize(
    "kind, beam, mode",
    [("nat", 1, "nat_argmax"), ("ar", 1, "greedy"), ("ar", 4, "beam"), ("fs", 3, "beam")],
)
def test_beam_selects_the_decode_mode(tmp_path, monkeypatch, kind, beam, mode):
    seen = []
    evaluate = pl.evaluate

    def spy(model, corpus, dec, table):
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


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--len_min", "5", "--len_max", "3"], "key len_max: expected >= 5, got 3"),
        (["--len_min", "0"], "key len_min: expected >= 1, got 0"),
        (["--data_seed", "-1"], "key data_seed: expected >= 0, got -1"),
        (["--train_pairs", "-1"], "key train_pairs: expected >= 0, got -1"),
        (["--valid_pairs", "-3"], "key valid_pairs: expected >= 0, got -3"),
    ],
    ids=[
        "len_max_below_len_min", "len_min_0", "data_seed_negative",
        "train_pairs_negative", "valid_pairs_negative",
    ],
)
def test_out_of_range_synthetic_data_key_is_usage_error(tmp_path, capsys, extra, message):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + extra) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize(
    "command,kind,extra,message",
    [
        ("train-ce", "nat", ["--len_min", "17", "--len_max", "20"], "needs 20 positions"),
        # echo_runs doubles tokens: sources of 14 give targets longer than 16
        (
            "finetune-rl", "nat", ["--task", "echo_runs", "--len_min", "14", "--len_max", "14"],
            "needs 21 positions,",
        ),
        # the EOS makes a target of 16 one position too long
        (
            "train-ce", "ar", ["--len_min", "16", "--len_max", "16"],
            "needs 17 positions (targets with EOS)",
        ),
    ],
    ids=["nat", "nat_echo_runs", "ar_eos"],
)
def test_corpus_longer_than_max_len_is_usage_error(tmp_path, capsys, command, kind, extra, message):
    out = tmp_path / "run"
    assert run([command, "--out", out, "--model", kind] + FAST + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: key len_max: the training corpus ") and message in err
    assert err.endswith(", above the model's max_len 16\n") and err.count("\n") == 1
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


@pytest.mark.parametrize(
    "kind,train_tgt,valid_src,message",
    [
        # a source of 20 tokens; the checkpoint has 16 positions
        ("nat", "b a", "a " * 20, "the validation corpus needs 20 positions,"),
        # a target of 16 tokens; its EOS makes it 17
        ("ar", "b " * 16, "a b", "the training corpus needs 17 positions (targets with EOS),"),
    ],
    ids=["validation_source", "ar_eos"],
)
def test_file_corpus_longer_than_max_len_is_usage_error(
    tmp_path, capsys, kind, train_tgt, valid_src, message
):
    for name, text in [("vocab.txt", "a\nb\n"), ("train.src", "a b"), ("train.tgt", train_tgt),
                       ("valid.src", valid_src), ("valid.tgt", "a b")]:
        (tmp_path / name).write_text(text + "\n")
    out = tmp_path / "run"
    args = [
        "train-ce", "--out", out, "--max_steps", "2", "--eval_every", "1",
        "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
        "--valid_src", tmp_path / "valid.src", "--valid_tgt", tmp_path / "valid.tgt",
    ]
    if kind == "nat":
        args += ["--init_checkpoint", _tiny_checkpoint(tmp_path)]
    else:
        args += ["--model", "ar", "--max_len", "16", "--d_model", "16", "--d_hidden", "32"]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: key max_len: {message} above the model's max_len 16\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


@pytest.mark.parametrize(
    "command,corpus",
    [("decode", "validation"), ("evaluate", "validation"), ("distill", "training"),
     ("topk-stats", "validation")],
)
def test_source_longer_than_checkpoint_max_len_is_usage_error(tmp_path, capsys, command, corpus):
    out = tmp_path / "run"
    ckpt = "--teacher_checkpoint" if command == "distill" else "--init_checkpoint"
    args = [command, "--out", out, ckpt, _tiny_checkpoint(tmp_path)] + FAST
    assert run(args + ["--len_min", "20", "--len_max", "20"]) == 1
    assert capsys.readouterr().err == (
        f"error: key len_max: the {corpus} corpus needs 20 positions, "
        f"above the model's max_len 16\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


def test_file_pair_longer_than_max_len_key_is_usage_error(tmp_path, capsys):
    # the file corpus is read whole: its longer pair is refused, not dropped
    for name, text in [("vocab.txt", "a\nb\n"), ("train.src", "a b\na b a b a b"),
                       ("train.tgt", "b a\nb a b a b a")]:
        (tmp_path / name).write_text(text + "\n")
    out = tmp_path / "run"
    args = [
        "train-ce", "--out", out, "--max_len", "4", "--max_steps", "2",
        "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    assert run(args) == 1
    assert capsys.readouterr().err == (
        "error: key max_len: the training corpus needs 6 positions, "
        "above the model's max_len 4\n"
    )
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


def test_topk_stats_target_longer_than_max_len_is_usage_error(tmp_path, capsys):
    # echo_runs doubles tokens: sources of 14 fit, their targets do not
    ckpt = _tiny_checkpoint(tmp_path)
    args = ["topk-stats", "--out", tmp_path / "run", "--init_checkpoint", ckpt]
    args += FAST + ["--task", "echo_runs", "--len_min", "14", "--len_max", "14"]
    assert run(args) == 1
    err = capsys.readouterr().err
    need = int(re.fullmatch(
        r"error: key len_max: the validation corpus needs (\d+) positions, "
        r"above the model's max_len 16\n", err,
    ).group(1))
    assert need > 16


def test_max_len_above_the_bound_is_usage_error(tmp_path, capsys, monkeypatch):
    # refused by ModelConfig before a 100000-row positional table is built
    monkeypatch.setattr(models, "sinusoidal_encoding", lambda *a: pytest.fail("table built"))
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out] + FAST + ["--max_len", "100000"]) == 1
    assert capsys.readouterr().err == "error: max_len must be <= 10000, got 100000\n"
    assert sorted(p.name for p in out.iterdir()) == ["config.resolved.cfg"]


def test_corpus_at_max_len_trains(tmp_path):
    # a NAT target of max_len tokens fits; an AR one would not
    extra = ["--len_min", "16", "--len_max", "16"]
    assert run(["train-ce", "--out", tmp_path / "run"] + FAST + extra) == 0


def test_estimator_bench_one_row_per_k(tmp_path):
    out = tmp_path / "bench"
    code = run(
        ["estimator-bench", "--out", out, "--k", "0,1,5,10",
         "--bench_reps", "50", "--bench_instances", "2", "--n", "2"]
    )
    assert code == 0
    lines = (out / "variance.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["k", "0", "1", "5", "10"]


def test_estimator_bench_sizes_its_batches_to_the_bound(tmp_path, monkeypatch):
    # at n=700 a repetition at k=10 builds at most 3 * 10 * 700 * 3 = 63000
    # clamped tokens: a bound of 63000 runs one repetition per call, with
    # the numbers of 20 per call, and one token less refuses the sweep
    args = ["estimator-bench", "--n", "700", "--bench_reps", "20", "--bench_instances", "1"]
    assert run(args + ["--out", tmp_path / "wide"]) == 0
    monkeypatch.setattr(estimators, "ENUM_LIMIT", 63000)
    assert run(args + ["--out", tmp_path / "narrow"]) == 0
    for name in ("variance.csv", "report_variance_sweep.csv"):
        assert (tmp_path / "narrow" / name).read_bytes() == (tmp_path / "wide" / name).read_bytes()
    monkeypatch.setattr(estimators, "ENUM_LIMIT", 62999)
    assert run(args + ["--out", tmp_path / "over"]) == 1
    assert sorted(p.name for p in (tmp_path / "over").iterdir()) == ["config.resolved.cfg"]


def test_finetune_rl_past_the_bound_is_usage_error(tmp_path, capsys, monkeypatch):
    # batches of 3 x 2 tokens and 1 x 6 tokens: at k=1, n=2 over the
    # checkpoint's 10 tokens the second builds up to 144 clamped tokens, so
    # a bound of 143 refuses the run before its first step
    for name, text in [("vocab.txt", "a\nb"), ("train.src", "a b\n" * 3 + "a b a b a b"),
                       ("train.tgt", "a b\n" * 3 + "a b a b a b")]:
        (tmp_path / name).write_text(text + "\n")
    args = [
        "finetune-rl", "--k", "1", "--n", "2", "--max_steps", "2", "--eval_every", "1",
        "--init_checkpoint", _tiny_checkpoint(tmp_path), "--vocab_file", tmp_path / "vocab.txt",
        "--train_src", tmp_path / "train.src", "--train_tgt", tmp_path / "train.tgt",
    ]
    monkeypatch.setattr(estimators, "ENUM_LIMIT", 143)
    assert run(args + ["--out", tmp_path / "over"]) == 1
    assert capsys.readouterr().err == (
        "error: n 2 is too large: a batch of 1 x 6 tokens at k 1 could build 144 clamped "
        "tokens, above the enumeration bound 143\n"
    )
    assert sorted(p.name for p in (tmp_path / "over").iterdir()) == ["config.resolved.cfg"]
    monkeypatch.setattr(estimators, "ENUM_LIMIT", 144)
    assert run(args + ["--out", tmp_path / "fits"]) == 0


def test_estimator_bench_header_has_the_logit_column(tmp_path):
    out = tmp_path / "bench"
    assert run(["estimator-bench", "--out", out, "--k", "0,2", "--bench_reps", "20",
                "--bench_instances", "2", "--n", "2"]) == 0
    header, *rows = (out / "variance.csv").read_text().splitlines()
    assert header == "k,mean_total_variance,mean_logit_variance,instance_0,instance_1"
    for row in rows:
        _, total, logit, *instances = (float(x) for x in row.split(","))
        assert np.isclose(total, np.mean(instances), rtol=1e-8)
        assert 0.0 < logit < total


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


def test_estimator_bench_refuses_a_repeated_k(tmp_path, capsys):
    # the same sweep would run twice
    out = tmp_path / "bench"
    assert run(["estimator-bench", "--out", out, "--k", "5,1,5", "--bench_reps", "5"]) == 1
    assert capsys.readouterr().err == "error: key k: expected distinct values, got '5,1,5'\n"
    assert not (out / "variance.csv").exists()


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
         "--k", "1,3,10"] + FAST
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


def test_topk_stats_requires_nat(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path, kind="ar")
    args = ["topk-stats", "--out", tmp_path / "t", "--init_checkpoint", ckpt] + FAST
    assert run(args) == 1
    assert capsys.readouterr().err == "error: topk-stats requires a NAT model\n"
    # positions are checked on loading, before the model kind: a corpus too
    # long for the AR checkpoint reports its length
    assert run(args + ["--len_min", "20", "--len_max", "20"]) == 1
    assert capsys.readouterr().err == (
        "error: key len_max: the validation corpus needs 20 positions, "
        "above the model's max_len 16\n"
    )


def test_topk_stats_refuses_a_repeated_k(tmp_path, capsys):
    # every position would be written twice to topk_values.csv
    ckpt = _tiny_checkpoint(tmp_path)
    out = tmp_path / "t"
    assert run(["topk-stats", "--out", out, "--init_checkpoint", ckpt, "--k", "1,1"] + FAST) == 1
    assert capsys.readouterr().err == "error: key k: expected distinct values, got '1,1'\n"
    assert not (out / "topk_values.csv").exists()


def test_topk_stats_malformed_k_is_usage_error(tmp_path, capsys):
    ckpt = _tiny_checkpoint(tmp_path)
    args = ["topk-stats", "--out", tmp_path / "t", "--init_checkpoint", ckpt] + FAST
    assert run(args + ["--k", "1,x"]) == 1
    assert capsys.readouterr().err.startswith("error: key k: ")


# ---------------------------------------------------------------------------
# emit-report


def test_emit_report_missing_metrics_exits_2(tmp_path, capsys):
    out = tmp_path / "empty"
    assert run(["emit-report", "--out", out]) == 2
    assert capsys.readouterr().err == "error: FormatError: missing inputs: metrics.csv\n"


@pytest.mark.parametrize(
    "row, reason",
    [
        ("1,train,loss", "not enough values to unpack"),
        ("x,valid,gleu,0.5", "invalid literal for int()"),
        ("6,valid,gleu,abc", "could not convert string to float"),
    ],
    ids=["three-fields", "step-x", "value-abc"],
)
def test_emit_report_malformed_metrics_names_file_and_line(tmp_path, capsys, row, reason):
    out = tmp_path / "run"
    out.mkdir()
    (out / "metrics.csv").write_text(f"step,split,metric,value\n4,valid,gleu,0.5\n{row}\n")
    assert run(["emit-report", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FormatError: metrics.csv line 3: ") and err.count("\n") == 1
    assert reason in err
    assert not (out / "report_curve.csv").exists()


def test_emit_report_idempotent(tmp_path):
    out = tmp_path / "run"
    assert run(["train-ce", "--out", out, "--seed", "3"] + FAST) == 0
    first = (out / "report_curve.csv").read_bytes()
    assert run(["emit-report", "--out", out]) == 0
    assert (out / "report_curve.csv").read_bytes() == first
    curve = first.decode().splitlines()
    assert curve[0] == "step,valid_gleu"
    assert len(curve) == 1 + 2  # one row per eval point (steps 4 and 8)
