"""Command-line front end.

Commands: train-ce, finetune-rl, decode, evaluate, distill, estimator-bench,
topk-stats, emit-report. Common flags: --config PATH (plain ``key=value``
lines, ``#`` comments), --seed N, --out DIR, plus ``--key value`` overrides
that take precedence over the config file. Every command writes its resolved
configuration to the output directory before doing any work.

Every command that reads a corpus loads it, gets its model and checks that
each sentence fits the model's positions before any work: the training
commands through ``_training_setup``, decode, evaluate and topk-stats through
``_evaluation_setup``, and distill against its teacher.

Exit codes: 0 success; 1 for a ``ContractError``, a value or combination of
values the user can fix (an unknown key, an out-of-range number such as a
max_len above ``models.MAX_POSITIONS`` or an n past the estimator's bound,
a model or corpus that does not fit the command), printed as
``error: <message>``; 2 for every other exception (an unreadable or empty
corpus, a corrupt checkpoint, diverged training), printed as
``error: <Type>: <message>``.
``train-ce`` and ``finetune-rl`` write their own ``metrics.csv``, replacing
one an earlier run left in the same directory.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint, data, estimators, pipeline, rewards
from .errors import ContractError, FormatError
from .models import ModelConfig, build_model


def _field_defaults(cls, names):
    return {f.name: f.default for f in fields(cls) if f.name in names}


_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
# the training seed comes from --seed
_TRAIN_KEYS = tuple(f.name for f in fields(pipeline.TrainConfig) if f.name != "rng_seed")

# every key has a documented default; values double as type witnesses. Keys
# named after a field of the library's config dataclasses take its default,
# except k, which the CLI sets here
DEFAULTS = {
    # model; vocab_size is also the synthetic tasks' vocabulary
    "model": "nat",  # ar | nat | fs
    **_field_defaults(ModelConfig, _MODEL_KEYS),
    # synthetic data (used when train_src is empty)
    "task": "copy",  # copy | reverse | sort | echo_runs
    "len_min": 4,
    "len_max": 12,
    "train_pairs": 2000,
    "valid_pairs": 200,
    "data_seed": 0,
    # file data
    "train_src": "",
    "train_tgt": "",
    "valid_src": "",
    "valid_tgt": "",
    "vocab_file": "",
    # training
    **_field_defaults(pipeline.TrainConfig, _TRAIN_KEYS),
    # estimator; k is a comma list for estimator-bench and topk-stats, a
    # single int elsewhere; both list commands default it in COMMAND_DEFAULTS
    "k": "5",
    **_field_defaults(estimators.EstimatorConfig, ("n",)),
    # decoding; the mode follows from the model kind and beam (_decode_config)
    **_field_defaults(pipeline.DecodeConfig, ("beam",)),
    # checkpoints
    "init_checkpoint": "",
    "teacher_checkpoint": "",
    # estimator-bench
    "bench_vocab": 10,
    "bench_len": 3,
    "bench_reps": 2000,
    "bench_instances": 5,
}

# defaults that differ for one command; the resolved config records them
COMMAND_DEFAULTS = {"estimator-bench": {"k": "0,1,5,10"}, "topk-stats": {"k": "1,5,10"}}


def _k_list(raw):
    try:
        ks = [int(x) for x in str(raw).split(",") if x != ""]
    except ValueError as e:
        raise ContractError(f"key k: {e}") from e
    if not ks or any(k < 0 for k in ks):
        raise ContractError(f"key k: expected non-negative integers, got {raw!r}")
    if len(set(ks)) < len(ks):
        raise ContractError(f"key k: expected distinct values, got {raw!r}")
    return ks


def _k_single(raw):
    ks = _k_list(raw)
    if len(ks) != 1:
        raise ContractError(f"this command takes a single k, got {raw!r}")
    return ks[0]


def fmt(x):
    """CSV float formatting: 9 significant digits."""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def fmt_full(x):
    """Full-precision float formatting, for files whose consumers must be
    able to reproduce aggregates exactly."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def parse_config_file(path):
    entries = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise ContractError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries


def _coerce(key, raw):
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as e:
        raise ContractError(f"key {key}: {e}") from e
    return raw


def resolve_config(file_entries, overrides, seed, command):
    cfg = {**DEFAULTS, **COMMAND_DEFAULTS.get(command, {})}
    for source in (file_entries, overrides):
        for key, raw in source.items():
            if key not in DEFAULTS:
                raise ContractError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, raw)
    cfg["seed"] = seed
    return cfg


def write_resolved_config(cfg, out_dir):
    """Every key in sorted order; the seed, which only --seed sets, as a
    comment, so the file can be fed back with --config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"# seed = {cfg['seed']}"] + [f"{k} = {cfg[k]}" for k in sorted(cfg) if k != "seed"]
    (out_dir / "config.resolved.cfg").write_text("\n".join(lines) + "\n")


def write_csv(path, header, rows, formatter=fmt):
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(formatter(v) for v in row) + "\n"
    Path(path).write_text(text)


def write_metrics(path, rows):
    """Write one run's metric rows (step, split, metric, value) as a whole
    file, so rerunning into the same directory leaves no duplicate rows."""
    rows = [(s, sp, m, float(v)) for s, sp, m, v in rows]
    write_csv(path, ("step", "split", "metric", "value"), rows)


def _require_at_least(cfg, lows):
    """A usage error naming the first key of ``lows`` whose value is below
    its lower bound."""
    for key, low in lows.items():
        if cfg[key] < low:
            raise ContractError(f"key {key}: expected >= {low}, got {cfg[key]}")


def _model_config(cfg):
    return ModelConfig(**{key: cfg[key] for key in _MODEL_KEYS})


def _load_corpora(cfg):
    for side in ("train", "valid"):
        if cfg[f"{side}_src"]:
            for key in (f"{side}_tgt", "vocab_file"):
                if not cfg[key]:
                    raise ContractError(f"key {side}_src requires key {key}")
    if cfg["train_src"]:
        vocab = data.Vocabulary.from_file(cfg["vocab_file"])
        train = data.load_parallel_corpus(cfg["train_src"], cfg["train_tgt"], vocab)
        valid = None
        if cfg["valid_src"]:
            valid = data.load_parallel_corpus(cfg["valid_src"], cfg["valid_tgt"], vocab)
        return train, valid
    lows = {"len_min": 1, "len_max": cfg["len_min"], "data_seed": 0}
    _require_at_least(cfg, {**lows, "train_pairs": 0, "valid_pairs": 0})
    rng = np.random.default_rng(cfg["data_seed"])
    len_range = (cfg["len_min"], cfg["len_max"])
    train = data.gen_synthetic_task(
        cfg["task"], cfg["vocab_size"], len_range, cfg["train_pairs"], rng
    )
    valid = data.gen_synthetic_task(
        cfg["task"], cfg["vocab_size"], len_range, cfg["valid_pairs"], rng
    )
    valid.vocab = train.vocab
    return train, valid


def _train_config(cfg):
    return pipeline.TrainConfig(
        rng_seed=cfg["seed"], **{key: cfg[key] for key in _TRAIN_KEYS}
    )


def _decode_config(cfg, kind):
    """NAT models decode by argmax; AR and FS greedily at beam 1 and by beam
    search above it."""
    beam = cfg["beam"]
    if kind == "nat":
        if beam > 1:
            raise ContractError(f"key beam: NAT models decode by argmax, got beam {beam}")
        mode = "nat_argmax"
    else:
        mode = "greedy" if beam == 1 else "beam"
    return pipeline.DecodeConfig(mode=mode, beam=beam)


def _check_vocab(model, vocab):
    """Token ids index the model's embedding rows, so a corpus vocabulary
    larger than the model's would fail mid-run."""
    if vocab.size > model.config.vocab_size:
        raise ContractError(
            f"key vocab_size: the model's vocab_size {model.config.vocab_size} "
            f"is below the corpus vocabulary's {vocab.size} tokens"
        )


def _check_fits(cfg, model, name, lengths, note=""):
    """A usage error when the corpus ``name`` needs more positions than the
    model has; ``lengths`` holds each pair's need. Synthetic corpora are as
    long as len_max makes them, file corpora as their longest line: the
    loader keeps every line pair, so this is the only length rule."""
    need = max(lengths, default=0)
    if need > model.config.max_len:
        key = "max_len" if cfg["train_src"] else "len_max"
        raise ContractError(
            f"key {key}: the {name} corpus needs {need} positions{note}, "
            f"above the model's max_len {model.config.max_len}"
        )


def _get_model(cfg, vocab):
    """The model of init_checkpoint, or a new one built from the keys; either
    must cover the corpus vocabulary ``vocab``."""
    if cfg["init_checkpoint"]:
        model = checkpoint.load_model(cfg["init_checkpoint"])
    else:
        model = build_model(cfg["model"], _model_config(cfg), seed=cfg["seed"])
    _check_vocab(model, vocab)
    return model


def _training_setup(cfg):
    """The training and validation corpora and the model of train-ce and
    finetune-rl. Training would fail mid-run on a sentence longer than the
    model's positions: sources and training targets must fit max_len, AR and
    FS targets with their EOS; validation decodes only its sources, at
    lengths the training targets set."""
    train, valid = _load_corpora(cfg)
    model = _get_model(cfg, train.vocab)
    eos = 0 if model.kind == "nat" else 1
    _check_fits(
        cfg, model, "training", (max(len(src), len(tgt) + eos) for src, tgt in train.pairs),
        " (targets with EOS)" if eos else "",
    )
    if valid is not None:
        _check_fits(cfg, model, "validation", (len(src) for src, _ in valid.pairs))
    return train, valid, model


def _finish_training(cfg, out_dir, model, rows):
    write_metrics(out_dir / "metrics.csv", rows)
    checkpoint.save_model(model, out_dir / "model.nsqt", seed=cfg["seed"])
    emit_report(out_dir, required=False)


def cmd_train_ce(cfg, out_dir):
    train, valid, model = _training_setup(cfg)
    rows = pipeline.train_ce(model, train, _train_config(cfg), valid=valid)
    _finish_training(cfg, out_dir, model, rows)


def cmd_finetune_rl(cfg, out_dir):
    train, valid, model = _training_setup(cfg)
    est_cfg = estimators.EstimatorConfig(k=_k_single(cfg["k"]), n=cfg["n"], rng_seed=cfg["seed"])
    rows = pipeline.finetune_rl(
        model, train, est_cfg, rewards.RewardFn("GLEU"), _train_config(cfg), valid=valid
    )
    _finish_training(cfg, out_dir, model, rows)


def _evaluation_setup(cfg, need=lambda src, tgt: len(src)):
    """The training corpus, the corpus decode, evaluate and topk-stats read
    (the validation corpus when there is one) and the model. Each pair of
    the corpus read needs ``need(src, tgt)`` positions, by default its
    source's."""
    train, valid = _load_corpora(cfg)
    corpus, name = (valid, "validation") if valid is not None else (train, "training")
    model = _get_model(cfg, train.vocab)
    _check_fits(cfg, model, name, (need(src, tgt) for src, tgt in corpus.pairs))
    return train, corpus, model


def cmd_decode(cfg, out_dir):
    train, corpus, model = _evaluation_setup(cfg)
    table = data.build_length_table(train)
    hyps = pipeline.decode_corpus(model, corpus, _decode_config(cfg, model.kind), table)
    with open(out_dir / "decodes.txt", "w", encoding="utf-8") as f:
        for hyp in hyps:
            f.write(corpus.vocab.decode(hyp) + "\n")


def cmd_evaluate(cfg, out_dir):
    train, corpus, model = _evaluation_setup(cfg)
    table = data.build_length_table(train)
    report = pipeline.evaluate(model, corpus, _decode_config(cfg, model.kind), table)
    summary = [
        ("corpus_bleu", report.corpus_bleu),
        ("mean_gleu", report.mean_gleu),
        ("mean_sentence_bleu", report.mean_sentence_bleu),
        ("mean_ref_len", report.mean_ref_len),
        ("mean_hyp_len", report.mean_hyp_len),
    ] + sorted(report.invocations.items())
    write_csv(out_dir / "eval.csv", ("metric", "value"), summary)
    write_csv(
        out_dir / "length_buckets.csv",
        ("bucket_lo", "count", "mean_gleu", "mean_sentence_bleu"),
        report.buckets,
    )
    emit_report(out_dir, required=False)


def cmd_distill(cfg, out_dir):
    train, _ = _load_corpora(cfg)
    if not cfg["teacher_checkpoint"]:
        raise ContractError("distill requires teacher_checkpoint")
    teacher = checkpoint.load_model(cfg["teacher_checkpoint"])
    _check_vocab(teacher, train.vocab)
    _check_fits(cfg, teacher, "training", (len(src) for src, _ in train.pairs))
    dec = _decode_config(cfg, teacher.kind)
    distilled = pipeline.distill_corpus(teacher, train, dec)
    data.save_corpus(
        distilled, out_dir / "distilled.src", out_dir / "distilled.tgt", train.vocab
    )
    train.vocab.save(out_dir / "distilled.vocab")


def cmd_estimator_bench(cfg, out_dir):
    """Total-variance sweep over k on random instances with a GLEU reward."""
    ks = _k_list(cfg["k"])
    _require_at_least(cfg, {"bench_instances": 1, "bench_len": 1, "bench_vocab": 1, "bench_reps": 2})
    V = cfg["bench_vocab"]
    if max(ks) > V:
        raise ContractError(f"key k: expected values <= bench_vocab ({V}), got {max(ks)}")
    est_cfg = estimators.EstimatorConfig(n=cfg["n"])
    sweep = estimators.variance_sweep(
        ks, cfg["bench_len"], V, est_cfg, cfg["bench_instances"], cfg["bench_reps"],
        rewards.RewardFn("GLEU"), cfg["seed"],
    )
    rows = []
    for k, stats in zip(ks, sweep):
        totals = [s.total_variance for s in stats]
        logit = float(np.mean([s.logit_total_variance for s in stats]))
        rows.append((k, float(np.mean(totals)), logit, *totals))
    header = (
        "k", "mean_total_variance", "mean_logit_variance",
        *(f"instance_{i}" for i in range(cfg["bench_instances"])),
    )
    write_csv(out_dir / "variance.csv", header, rows)
    emit_report(out_dir, required=False)


def cmd_topk_stats(cfg, out_dir):
    # NAT runs at each target's length
    _, corpus, model = _evaluation_setup(cfg, need=lambda src, tgt: max(len(src), len(tgt)))
    if model.kind != "nat":
        raise ContractError("topk-stats requires a NAT model")
    ks = _k_list(cfg["k"])
    values, summary = pipeline.topk_stats(model, corpus, ks)
    dump_rows = [(k, i, v) for k in ks for i, v in enumerate(values[k])]
    # full precision so recomputing the means from the dump is exact
    write_csv(out_dir / "topk_values.csv", ("k", "position", "p_k"), dump_rows, fmt_full)
    write_csv(
        out_dir / "topk_summary.csv",
        ("k", "mean_p_k", "hist_0", "hist_1", "hist_2", "hist_3", "hist_4"),
        summary,
        fmt_full,
    )


def emit_report(run_dir, required=True):
    """Derive plot-ready CSVs from a run directory.

    Always writes the training-curve CSV from metrics.csv; copies the
    length-bucket and variance-sweep CSVs into report files when their
    sources exist. Byte-idempotent. With ``required``, a missing metrics.csv
    is an error naming the missing file.
    """
    run_dir = Path(run_dir)
    metrics = run_dir / "metrics.csv"
    if metrics.exists():
        rows = []
        for number, line in enumerate(metrics.read_text().splitlines()[1:], start=2):
            try:
                step, split, metric, value = line.split(",")
                if split == "valid" and metric == "gleu":
                    rows.append((int(step), float(value)))
            except ValueError as e:
                raise FormatError(f"metrics.csv line {number}: {e}") from None
        write_csv(run_dir / "report_curve.csv", ("step", "valid_gleu"), rows)
    elif required:
        raise FormatError("missing inputs: metrics.csv")
    for src_name, dst_name in (
        ("length_buckets.csv", "report_length_buckets.csv"),
        ("variance.csv", "report_variance_sweep.csv"),
    ):
        src = run_dir / src_name
        if src.exists():
            (run_dir / dst_name).write_text(src.read_text())


HANDLERS = {
    "train-ce": cmd_train_ce,
    "finetune-rl": cmd_finetune_rl,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "distill": cmd_distill,
    "estimator-bench": cmd_estimator_bench,
    "topk-stats": cmd_topk_stats,
    "emit-report": lambda cfg, out_dir: emit_report(out_dir),
}
COMMANDS = tuple(HANDLERS)


def _parse_args(argv):
    if not argv:
        raise ContractError(f"usage: nsqt COMMAND [--config PATH] [--seed N] "
                         f"[--out DIR] [--key value ...]; commands: {', '.join(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        raise ContractError(
            f"unknown command {command!r}; expected one of: {', '.join(COMMANDS)}"
        )
    config_path, seed, out = None, 0, "run"
    overrides = {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        if not flag.startswith("--") or i + 1 >= len(rest):
            raise ContractError(f"expected --key value pairs, got {flag!r}")
        value = rest[i + 1]
        key = flag[2:]
        if key == "config":
            config_path = value
        elif key == "seed":
            if not value.isdecimal():
                raise ContractError("--seed: expected a non-negative integer")
            # checkpoints store the seed as a u64
            if len(value) > 20 or int(value) >= 2**64:
                raise ContractError(f"--seed: expected at most {2**64 - 1}")
            seed = int(value)
        elif key == "out":
            out = value
        else:
            overrides[key] = value
        i += 2
    return command, config_path, seed, Path(out), overrides


def run_command(argv):
    try:
        command, config_path, seed, out_dir, overrides = _parse_args(argv)
        file_entries = parse_config_file(config_path) if config_path else {}
        cfg = resolve_config(file_entries, overrides, seed, command)
        write_resolved_config(cfg, out_dir)
        HANDLERS[command](cfg, out_dir)
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
