"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py

They take about two minutes, most of it in the smoke run.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ferroflow.algebra  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_configs_depend_only_on_their_key():
    for wl in workloads.COMMANDS:
        assert workloads.config_text(wl, 1, 0, 3) == workloads.config_text(wl, 1, 0, 3)
    for wl in ("flow-desk", "majorant-pair"):
        assert workloads.config_text(wl, 1, 0, 3) != workloads.config_text(wl, 2, 0, 3)
    assert workloads.config_text("verify-wide", 1, 0, 0, "probe") is None
    assert workloads.config_text("verify-wide", 7, 0, 0) == "seed = 42\ngenerators = 12\n"


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile([1.0] * 20) is None
    pct, value = run.tail_percentile([float(i) for i in range(100)])
    assert pct == 90 and math.isclose(value, 89.9)


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_traced_run_gives_identical_outputs(workload, tmp_path):
    """Wrappers must not change results: identical CSV bytes and stdout
    (the verify table), and self times that partition the root span."""
    text = workloads.config_text(workload, 5, 0, 0, "smoke")
    worker.run_once(workload, text, tmp_path)  # cold
    plain = worker.run_once(workload, text, tmp_path)
    tracer = Tracer()
    original = ferroflow.algebra.wedge
    traced = worker.run_once(workload, text, tmp_path, tracer)
    assert ferroflow.algebra.wedge is original
    assert plain["error"] is None and traced["error"] is None
    assert plain["output"] == traced["output"]
    metrics = tracer.metrics()
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert math.isclose(self_total, tracer.root_duration(), rel_tol=1e-9)
    assert metrics["cli.self_s"][0] > 0


def test_smoke_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "flow-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_sweep_reports_every_kernel():
    import sweep

    metrics, samples = sweep.sweep((4, 6), lambda line: None)
    for n in (4, 6):
        assert metrics[f"sweep.wedge.n{n}.cold_s"]["value"] > 0
        for kernel in ("wedge", "laplacian", "exp_of", "log_of", "heat_kernel_convolve",
                       "rg_map", "pfaffian", "flow_rk4_step"):
            assert metrics[f"sweep.{kernel}.n{n}.s"]["value"] > 0
            assert samples[f"sweep.{kernel}.n{n}.s"] >= 1
