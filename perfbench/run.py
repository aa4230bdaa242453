#!/usr/bin/env python3
"""Run one benchmark workload against the library in ../src and print its
metrics.

    python3 perfbench/run.py --workload rl_finetune --seed 3 --seconds 20 --trace 0

Workloads: ce_pretrain, rl_finetune, decode_eval, variance_sweep (see
README.md). With ``--trace 0`` the last line of output is a JSON object whose
``metrics`` are the end-to-end metrics, normalised to the reference host's
speed (calibration.py); with ``--trace 1`` they are the per-layer metrics of a
traced run plus its tracing overhead. The line before it holds the run's
provenance, the per-kind breakdown and, untraced, the raw end-to-end figures.

Exit codes: 0 when a result was printed (its ``correct`` field says whether
every output check passed), 2 when the library cannot be found or the
arguments are invalid.
"""

import os

# one process on one thread: pin BLAS pools before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402

SPAN_CAP = 500_000  # keeps a traced run's spans near 50 MB of memory
MODULES = ("tensor", "models", "estimators", "rewards", "pipeline", "data", "checkpoint")


class SetupError(RuntimeError):
    pass


def load_library(src=SRC):
    """Import nsqt from the checkout's ``src``, never from elsewhere."""
    package = src / "nsqt"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"library sources not found at {package}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"nsqt.{name}") for name in MODULES}
    for mod in mods.values():
        if Path(mod.__file__).resolve().parent != package.resolve():
            raise SetupError(f"imported {mod.__name__} from {mod.__file__}, not {package}")
    return types.SimpleNamespace(**mods)


def round_sequence(cycle):
    """Round indices of a run: the first cycle, a reset (None), the first
    cycle again, then onwards."""
    yield from range(cycle)
    yield None
    i = 0
    while True:
        yield i
        i += 1


def measure(wl, seconds=None, rounds=None, full=lambda: False, calibrate=True):
    """Closed loop of rounds until ``seconds`` have passed or ``full()``
    holds, or until ``rounds`` rounds ran. The repeated first cycle always
    completes, and a timed loop stops only after a whole cycle, so every run
    holds the workload's kinds in the same proportion. With ``calibrate``,
    the calibration kernel runs between rounds and each round's ``speed`` is
    taken from the kernel times on either side of it."""
    done = []
    start = wls.now()
    kernel = calibration.kernel_seconds() if calibrate else None
    for i in round_sequence(wl.cycle):
        if rounds is not None and len(done) >= rounds:
            break
        cycle_done = len(done) >= 2 * wl.cycle and len(done) % wl.cycle == 0
        if rounds is None and cycle_done and (wls.now() - start >= seconds * 1e9 or full()):
            break
        if i is None:
            wl.reset()
            continue
        t = wls.now()
        r = wl.run_round(i)
        r.seconds = (wls.now() - t) / 1e9
        if calibrate:
            after = calibration.kernel_seconds()
            r.speed = calibration.speed_factor((kernel + after) / 2)
            kernel = after
        done.append(r)
    return done


def set_up(make, reps):
    """Set the workload up ``reps`` times from scratch; returns the last
    instance, the raw and the normalised set-up times, and whether every
    set-up built the same inputs."""
    raw, normalised, digests, wl = [], [], [], None
    for _ in range(reps):
        speed = calibration.speed_factor(calibration.kernel_seconds())
        wl = make()
        t = wls.now()
        digests.append(wl.setup())
        raw.append((wls.now() - t) / 1e9)
        normalised.append(raw[-1] * speed)
    return wl, raw, normalised, len(set(digests)) == 1 and wl.setup_failures == 0


def checks(wl, rounds, setup_ok):
    """Whole-run output checks as (description, ok)."""
    c = wl.cycle
    first, again = [r.digest for r in rounds[:c]], [r.digest for r in rounds[c : 2 * c]]
    return [
        ("set-up is deterministic and checkpoints round-trip bitwise", setup_ok),
        ("first cycle reproduces its digests bitwise", first == again),
    ] + wl.final_checks()


def run(nsqt, sizes, name, seed, seconds, trace, build_dir=BUILD, src=SRC):
    os.makedirs(build_dir, exist_ok=True)
    cls = wls.WORKLOADS[name]
    warm, build_s = (None, 0.0)
    if cls.warm_start:
        warm, build_s = wls.warm_checkpoints(nsqt, sizes, build_dir, src / "nsqt")
    tracer = tracing.Tracer(nsqt) if trace else None

    def make():
        wl = cls(nsqt, sizes, seed, build_dir, tracer)
        wl.warm = warm
        return wl

    if tracer is not None:
        tracer.install()
    try:
        wl, setup_raw, setup_norm, setup_ok = set_up(make, sizes.setup_reps)
        if tracer is None:
            rounds = measure(wl, seconds)
        else:
            with tracer.span("bench.measure") as root:
                rounds = measure(wl, seconds / 2, full=lambda: len(tracer.spans) >= SPAN_CAP, calibrate=False)
    finally:
        if tracer is not None:
            tracer.restore()
    results = checks(wl, rounds, setup_ok)
    if tracer is None:
        metrics = end_to_end(rounds, setup_norm)
        raw = end_to_end(rounds, setup_raw, normalised=False)
        extra = {"raw": {k: v for k, (v, _) in raw.items()}, "host_speed": host_speed(rounds)}
    else:
        # the same rounds again, untraced, from the same state
        wl.tracer = None
        wl.reset()
        replay = measure(wl, rounds=len(rounds), calibrate=False)
        same = [r.digest for r in replay] == [r.digest for r in rounds]
        results.append(("untraced replay reproduces the traced digests", same))
        metrics = layer_metrics(tracer, wl, rounds, root, replay)
        traces = Path(build_dir) / "traces"
        os.makedirs(traces, exist_ok=True)
        tracer.write(traces / f"{name}-{seed}.csv")
        extra = {}
    info = {
        "provenance": provenance(seed, name, build_s, setup_raw, src),
        "checks": {desc: bool(ok) for desc, ok in results},
        "breakdown": wl.breakdown(rounds),
        "digest": wls.digest([r.digest for r in rounds[: wl.cycle]]),
        **extra,
    }
    units = sum(r.units for r in rounds)
    failed = sum(r.failed for r in rounds) + sum(1 for _, ok in results if not ok)
    attempted = units + len(results)
    return info, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(rounds, setup_times, normalised=True):
    """End-to-end metrics as name -> (value, unit); ``normalised`` takes the
    rounds' timings to the reference host."""
    return {
        "setup_s": (float(np.median(setup_times)), "s"),
        "step_ms": (wls.composite_mean_ms(rounds, normalised), "ms"),
        "work_per_s": (wls.work_per_s(rounds, normalised), "1/s"),
    }


def _median(xs):
    return float(np.median(xs)) if len(xs) else 0.0


def batch_waits(tracer, rounds):
    """Per training step: from the end of the previous optimizer step (or the
    start of the training call) to the step asking for its distributions."""
    adam_ends = sorted(s[3] for s in tracer.spans if s[0] == "pipeline.adam_step")
    waits = []
    for r in rounds:
        if "step_marks" not in r.extra:
            continue
        start, stamps = r.extra["step_marks"]
        prev = start
        for stamp in stamps:
            j = bisect.bisect_left(adam_ends, stamp)
            if j and adam_ends[j - 1] > prev:
                prev = adam_ends[j - 1]
            waits.append((stamp - prev) / 1e6)
    return waits


def layer_metrics(tracer, wl, rounds, root, replay):
    d = tracer.durations_ms
    units = sum(r.units for r in rounds)
    m = {}
    m["tensor.backward_ms"] = (_median(d("tensor.backward")), "ms")
    m["tensor.graph_nodes"] = (_median(tracer.graph_nodes), "count")
    m["tensor.nodes_per_decode_call"] = (_median(tracer.decode_nodes), "count")
    for kind in ("nat", "ar", "fs"):
        m[f"models.forward_ms.{kind}"] = (_median(d(f"models.forward.{kind}", inside_eval=False)), "ms")
    m["models.encode_ms"] = (_median(d("models.encode")), "ms")
    m["models.step_call_ms.ar"] = (_median(d("models.forward.ar", inside_eval=True)), "ms")
    m["models.step_call_ms.fs"] = (_median(d("models.fuse_and_top", inside_eval=True)), "ms")
    calls = defaultdict(list)
    for r in rounds:
        if "invocations" in r.extra:
            kind, per_sentence = r.extra["invocations"]
            counts = [sum(c) for c in zip(*(v for n, v in per_sentence.items() if n != "encoder_calls"))]
            calls[kind] += counts
    for kind in ("nat", "ar", "fs"):
        m[f"models.decoder_calls_per_sentence.{kind}"] = (float(np.mean(calls[kind])) if calls[kind] else 0.0, "count")

    self_ns = tracer.self_ns(root)
    estimates = len(d("estimators.reinforce_nat_step"))

    def per_estimate(ns):
        return ns / 1e6 / estimates if estimates else 0.0

    m["estimators.step_ms"] = (_median(d("estimators.reinforce_nat_step")), "ms")
    m["estimators.self_ms"] = (per_estimate(sum(v for k, v in self_ns.items() if k.startswith("estimators."))), "ms")
    m["estimators.estimate_reward_at.self_ms"] = (per_estimate(self_ns["estimators.estimate_reward_at"]), "ms")
    m["estimators.topk_partition_ms"] = (per_estimate(self_ns["estimators.top_k_partition"]), "ms")
    m["estimators.covered_mass"] = (float(np.mean(tracer.covered_mass)) if tracer.covered_mass else 0.0, "share")
    m["estimators.residual_share"] = (float(np.mean(tracer.residual_drawn)) if tracer.residual_drawn else 0.0, "share")

    reward_ms = d("rewards.reward")
    n_calls = len(reward_ms)
    m["rewards.calls"] = (n_calls / units, "count")
    m["rewards.ms"] = (sum(reward_ms) / units, "ms")
    m["rewards.us_per_call"] = (1000 * sum(reward_ms) / n_calls if n_calls else 0.0, "us")
    repeats = sum(r.extra["reward"][1] for r in rounds if "reward" in r.extra)
    share = repeats / n_calls if n_calls else 0.0
    memoized = wl.name == "variance_sweep"
    m["rewards.repeat_share"] = (share, "share")
    m["rewards.memo_hit_share"] = (share if memoized else 0.0, "share")

    m["pipeline.adam_ms"] = (_median(d("pipeline.adam_step")), "ms")
    m["pipeline.batch_wait_ms"] = (_median(batch_waits(tracer, rounds)), "ms")
    scoring = sum(v for k, v in self_ns.items() if k.startswith("pipeline.eval_scoring."))
    m["pipeline.eval_scoring_ms"] = (scoring / 1e6 / units if wl.name == "decode_eval" else 0.0, "ms")
    m["data.gen_ms"] = (_median(d("data.gen_synthetic_task")), "ms")
    m["data.length_table_ms"] = (_median(d("data.build_length_table")), "ms")
    m["checkpoint.save_ms"] = (_median(d("checkpoint.save_model")), "ms")
    m["checkpoint.load_ms"] = (_median(d("checkpoint.load_model")), "ms")

    total = tracer.spans[root][3] - tracer.spans[root][2]
    layer_ns = defaultdict(int)
    for span_name, ns in self_ns.items():
        layer_ns[span_name.split(".", 1)[0]] += ns
    for layer in tracing.LAYERS:
        m[f"{layer}.self_share"] = (layer_ns[layer] / total, "share")
    traced_ms = 1000 * sum(r.seconds for r in rounds) / units
    untraced_ms = 1000 * sum(r.seconds for r in replay) / units
    m["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    m["trace.overhead_share"] = ((traced_ms - untraced_ms) / untraced_ms, "share")
    m["trace.spans"] = (float(len(tracer.spans)), "count")
    return m


def host_speed(rounds):
    """Spread of the speed factors the normalised timings used."""
    speeds = [r.speed for r in rounds]
    return {
        "ref_kernel_ms": 1000 * calibration.REF_KERNEL_S,
        "speed_factor": {"min": min(speeds), "median": float(np.median(speeds)), "max": max(speeds)},
    }


def git_revision():
    """HEAD of the repository rooted at ROOT; None when ROOT is not the top of
    a git work tree (a checkout nested in another repository included)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(seed, name, build_s, setup_raw, src):
    return {
        "workload": name,
        "seed": seed,
        "git_revision": git_revision(),
        "source_digest": wls.source_digest(src / "nsqt"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "warm_start_build_s": build_s,
        "setup_s_raw_samples": setup_raw,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        nsqt = load_library()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info, result = run(nsqt, wls.Sizes(), args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
