"""Smoke test: every workload at tiny size, untraced and traced.

Run with ``python3 -m pytest -q perfbench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = replace(
    workloads.Sizes(),
    setup_reps=2,
    warm_pairs=64,
    warm_steps=3,
    ce_pairs=64,
    ce_round_steps=2,
    rl_pool=200,
    rl_n=2,
    valid_pairs=12,
    decode_chunk=4,
    beam_subset=4,
    beam_chunk=2,
    sweep_reps=3,
    sweep_pool=4,
)


@pytest.fixture(scope="module")
def nsqt():
    return run.load_library()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_checks_and_repeats(nsqt, name, tmp_path):
    info, result = run.run(nsqt, TINY, name, 7, 0.01, trace=False, build_dir=tmp_path)
    assert result["correct"], info["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "step_ms", "work_per_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(info["raw"]) == set(result["metrics"]) and info["host_speed"]["speed_factor"]["min"] > 0
    again, _ = run.run(nsqt, TINY, name, 7, 0.01, trace=False, build_dir=tmp_path)
    assert again["digest"] == info["digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_layers(nsqt, name, tmp_path):
    info, result = run.run(nsqt, TINY, name, 7, 0.01, trace=True, build_dir=tmp_path)
    assert result["correct"], info["checks"]
    metrics = result["metrics"]
    assert "trace.overhead_ms" in metrics and metrics["trace.spans"]["value"] > 0
    shares = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0, abs=1e-6)
    assert (tmp_path / "traces" / f"{name}-7.csv").is_file()


def test_missing_library_is_refused(tmp_path):
    with pytest.raises(run.SetupError):
        run.load_library(tmp_path / "src")
