"""Command-line front end.

Commands: train-ce, finetune-rl, decode, evaluate, distill, estimator-bench,
topk-stats, emit-report. Common flags: --config PATH (plain ``key=value``
lines, ``#`` comments), --seed N, --out DIR, plus ``--key value`` overrides
that take precedence over the config file. Every command writes its resolved
configuration to the output directory before doing any work.

Exit codes: 0 success, 1 usage error, 2 runtime error. ``train-ce`` and
``finetune-rl`` write their own ``metrics.csv``, replacing one an earlier run
left in the same directory.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint, data, estimators, pipeline, rewards
from .models import ModelConfig, build_model


def _field_defaults(cls, names):
    return {f.name: f.default for f in fields(cls) if f.name in names}


_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
# the training seed comes from --seed
_TRAIN_KEYS = tuple(f.name for f in fields(pipeline.TrainConfig) if f.name != "rng_seed")

# every key has a documented default; values double as type witnesses. Keys
# named after a field of the library's config dataclasses take its default,
# except vocab_size, max_len and k, which the CLI sets here
DEFAULTS = {
    # model
    "model": "nat",  # ar | nat | fs
    **_field_defaults(ModelConfig, _MODEL_KEYS),
    "vocab_size": 20,  # also the synthetic tasks' vocabulary
    "max_len": 32,
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
    # estimator; k is a comma list for the sweep commands, a single int
    # elsewhere; estimator-bench defaults to 0,1,5,10 (COMMAND_DEFAULTS)
    "k": "5",
    **_field_defaults(estimators.EstimatorConfig, ("n", "residual_epsilon")),
    # decoding; the mode follows from the model kind and beam (_decode_config)
    **_field_defaults(pipeline.DecodeConfig, ("beam", "dedup")),
    # checkpoints
    "init_checkpoint": "",
    "teacher_checkpoint": "",
    # estimator-bench
    "bench_vocab": 10,
    "bench_len": 3,
    "bench_reps": 2000,
    "bench_instances": 5,
    # topk-stats
    "topk_k": "1,5,10",
}

# defaults that differ for one command; the resolved config records them
COMMAND_DEFAULTS = {"estimator-bench": {"k": "0,1,5,10"}}


def _k_list(raw, key="k"):
    try:
        ks = [int(x) for x in str(raw).split(",") if x != ""]
    except ValueError as e:
        raise UsageError(f"key {key}: {e}") from e
    if not ks or any(k < 0 for k in ks):
        raise UsageError(f"key {key}: expected non-negative integers, got {raw!r}")
    return ks


def _k_single(raw):
    ks = _k_list(raw)
    if len(ks) != 1:
        raise UsageError(f"this command takes a single k, got {raw!r}")
    return ks[0]


class UsageError(ValueError):
    pass


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
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    return entries


def _coerce(key, raw):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"key {key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as e:
        raise UsageError(f"key {key}: {e}") from e
    return raw


def resolve_config(file_entries, overrides, seed, command):
    cfg = {**DEFAULTS, **COMMAND_DEFAULTS.get(command, {})}
    for source in (file_entries, overrides):
        for key, raw in source.items():
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, raw)
    cfg["seed"] = seed
    return cfg


def write_resolved_config(cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
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


def _model_config(cfg):
    return ModelConfig(**{key: cfg[key] for key in _MODEL_KEYS})


def _load_corpora(cfg):
    for side in ("train", "valid"):
        if cfg[f"{side}_src"]:
            for key in (f"{side}_tgt", "vocab_file"):
                if not cfg[key]:
                    raise UsageError(f"key {side}_src requires key {key}")
    if cfg["train_src"]:
        vocab = data.Vocabulary.from_file(cfg["vocab_file"])
        train = data.load_parallel_corpus(
            cfg["train_src"], cfg["train_tgt"], vocab, cfg["max_len"]
        )
        valid = None
        if cfg["valid_src"]:
            valid = data.load_parallel_corpus(
                cfg["valid_src"], cfg["valid_tgt"], vocab, cfg["max_len"]
            )
        return train, valid
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
            raise UsageError(f"key beam: NAT models decode by argmax, got beam {beam}")
        mode = "nat_argmax"
    else:
        mode = "greedy" if beam == 1 else "beam"
    return pipeline.DecodeConfig(mode=mode, beam=beam, dedup=cfg["dedup"])


def _get_model(cfg):
    if cfg["init_checkpoint"]:
        return checkpoint.load_model(cfg["init_checkpoint"])
    return build_model(cfg["model"], _model_config(cfg), seed=cfg["seed"])


def cmd_train_ce(cfg, out_dir):
    train, valid = _load_corpora(cfg)
    model = _get_model(cfg)
    rows = pipeline.train_ce(model, train, _train_config(cfg), valid=valid)
    write_metrics(out_dir / "metrics.csv", rows)
    checkpoint.save_model(model, out_dir / "model.nsqt", seed=cfg["seed"])
    emit_report(out_dir, required=False)
    return 0


def cmd_finetune_rl(cfg, out_dir):
    train, valid = _load_corpora(cfg)
    model = _get_model(cfg)
    est_cfg = estimators.EstimatorConfig(
        k=_k_single(cfg["k"]),
        n=cfg["n"],
        rng_seed=cfg["seed"],
        residual_epsilon=cfg["residual_epsilon"],
    )
    rows = pipeline.finetune_rl(
        model, train, est_cfg, rewards.RewardFn("GLEU"), _train_config(cfg), valid=valid
    )
    write_metrics(out_dir / "metrics.csv", rows)
    checkpoint.save_model(model, out_dir / "model.nsqt", seed=cfg["seed"])
    emit_report(out_dir, required=False)
    return 0


def cmd_decode(cfg, out_dir):
    train, valid = _load_corpora(cfg)
    corpus = valid if valid is not None else train
    model = _get_model(cfg)
    table = data.build_length_table(train)
    hyps = pipeline.decode_corpus(model, corpus, _decode_config(cfg, model.kind), table)
    with open(out_dir / "decodes.txt", "w", encoding="utf-8") as f:
        for hyp in hyps:
            f.write(corpus.vocab.decode(hyp) + "\n")
    return 0


def cmd_evaluate(cfg, out_dir):
    train, valid = _load_corpora(cfg)
    corpus = valid if valid is not None else train
    model = _get_model(cfg)
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
    return 0


def cmd_distill(cfg, out_dir):
    train, _ = _load_corpora(cfg)
    if not cfg["teacher_checkpoint"]:
        raise UsageError("distill requires teacher_checkpoint")
    teacher = checkpoint.load_model(cfg["teacher_checkpoint"])
    dec = _decode_config(cfg, teacher.kind)
    distilled = pipeline.distill_corpus(teacher, train, dec)
    data.save_corpus(
        distilled, out_dir / "distilled.src", out_dir / "distilled.tgt", train.vocab
    )
    train.vocab.save(out_dir / "distilled.vocab")
    return 0


def cmd_estimator_bench(cfg, out_dir):
    """Total-variance sweep over k on random instances with a GLEU reward."""
    ks = _k_list(cfg["k"])
    lows = {"bench_instances": 1, "bench_len": 1, "bench_vocab": 1, "bench_reps": 2}
    for key, low in lows.items():
        if cfg[key] < low:
            raise UsageError(f"key {key}: expected >= {low}, got {cfg[key]}")
    V = cfg["bench_vocab"]
    if max(ks) > V:
        raise UsageError(f"key k: expected values <= bench_vocab ({V}), got {max(ks)}")
    est_cfg = estimators.EstimatorConfig(n=cfg["n"], residual_epsilon=cfg["residual_epsilon"])
    totals = estimators.total_variance_sweep(
        ks, cfg["bench_len"], V, est_cfg, cfg["bench_instances"], cfg["bench_reps"],
        rewards.RewardFn("GLEU"), cfg["seed"],
    )
    rows = [(k, float(np.mean(t)), *t) for k, t in zip(ks, totals)]
    header = ("k", "mean_total_variance", *(f"instance_{i}" for i in range(cfg["bench_instances"])))
    write_csv(out_dir / "variance.csv", header, rows)
    emit_report(out_dir, required=False)
    return 0


def cmd_topk_stats(cfg, out_dir):
    train, valid = _load_corpora(cfg)
    corpus = valid if valid is not None else train
    model = _get_model(cfg)
    if model.kind != "nat":
        raise UsageError("topk-stats requires a NAT model")
    ks = _k_list(cfg["topk_k"], key="topk_k")
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
    return 0


class ReportError(RuntimeError):
    pass


def emit_report(run_dir, required=True):
    """Derive plot-ready CSVs from a run directory.

    Always writes the training-curve CSV from metrics.csv; copies the
    length-bucket and variance-sweep CSVs into report files when their
    sources exist. Byte-idempotent. With ``required``, a missing metrics.csv
    is an error naming the missing file.
    """
    run_dir = Path(run_dir)
    written = []
    metrics = run_dir / "metrics.csv"
    if metrics.exists():
        rows = []
        for line in metrics.read_text().splitlines()[1:]:
            step, split, metric, value = line.split(",")
            if split == "valid" and metric == "gleu":
                rows.append((int(step), float(value)))
        write_csv(run_dir / "report_curve.csv", ("step", "valid_gleu"), rows)
        written.append("report_curve.csv")
    elif required:
        raise ReportError("missing inputs: metrics.csv")
    for src_name, dst_name in (
        ("length_buckets.csv", "report_length_buckets.csv"),
        ("variance.csv", "report_variance_sweep.csv"),
    ):
        src = run_dir / src_name
        if src.exists():
            (run_dir / dst_name).write_text(src.read_text())
            written.append(dst_name)
    return written


def cmd_emit_report(cfg, out_dir):
    emit_report(out_dir, required=True)
    return 0


HANDLERS = {
    "train-ce": cmd_train_ce,
    "finetune-rl": cmd_finetune_rl,
    "decode": cmd_decode,
    "evaluate": cmd_evaluate,
    "distill": cmd_distill,
    "estimator-bench": cmd_estimator_bench,
    "topk-stats": cmd_topk_stats,
    "emit-report": cmd_emit_report,
}
COMMANDS = tuple(HANDLERS)


def _parse_args(argv):
    if not argv:
        raise UsageError(f"usage: nsqt COMMAND [--config PATH] [--seed N] "
                         f"[--out DIR] [--key value ...]; commands: {', '.join(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; expected one of: {', '.join(COMMANDS)}"
        )
    config_path, seed, out = None, 0, "run"
    overrides = {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        if not flag.startswith("--") or i + 1 >= len(rest):
            raise UsageError(f"expected --key value pairs, got {flag!r}")
        value = rest[i + 1]
        key = flag[2:]
        if key == "config":
            config_path = value
        elif key == "seed":
            if not value.isdecimal():
                raise UsageError("--seed: expected a non-negative integer")
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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_resolved_config(cfg, out_dir)
        return HANDLERS[command](cfg, out_dir)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
