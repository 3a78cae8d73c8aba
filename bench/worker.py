"""One benchmark worker: a fresh interpreter that runs one workload.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/worker.py '<json spec>'

The spec names the workload, seed, interpreter index, mode, time budget in
seconds, run length and work directory.  The worker prints one JSON object
as its last stdout line.

``setup``: the time of ``import ferroflow.cli`` plus the cold extra of the
workload's probe run (a cold and a warm run of the same short config).

``measure``: a cold run, then warm runs of fresh configs until the warm
time would exceed the budget.

``trace``: a cold run, then pairs of untraced and traced warm runs of one
config until the budget would be exceeded.  Per-layer metrics are medians
over the traced runs.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_C0 = time.process_time()

import ferroflow.cli  # noqa: E402  (timed: the import a CLI user pays)

IMPORT_S = time.perf_counter() - _T0
IMPORT_CPU_S = time.process_time() - _C0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def run_once(workload: str, text: str, work: Path, tracer=None) -> dict:
    """One timed CLI run from config text to written output, then its check.
    Records wall time and process time.

    With a tracer, the tracer is installed around the timed region only.
    """
    cfg_path = work / f"{workload}.cfg"
    out_path = work / f"{workload}.csv"
    argv = workloads.cli_argv(workload, cfg_path, out_path)
    stdout = io.StringIO()
    stderr = io.StringIO()
    error = None
    out_path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                cfg_path.write_text(text)
                rc = ferroflow.cli.main(argv)
            except Exception as exc:  # a raising run is a failed run
                rc, error = -1, f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - cpu_start
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            error = workloads.check_output(workload, text, rc, stdout.getvalue(),
                                           out_path)
        except Exception as exc:  # a check that cannot read the output fails it
            error = f"output check raised {type(exc).__name__}: {exc}"
    if error and stderr.getvalue():
        error += f" (stderr: {stderr.getvalue().strip()[:300]})"
    digest = hashlib.sha256(stdout.getvalue().encode())
    if out_path.exists():
        digest.update(out_path.read_bytes())
    return {"wall_s": wall, "cpu_s": cpu, "warnings": len(caught), "error": error,
            "output": digest.hexdigest()}


def setup(spec: dict, work: Path) -> dict:
    """Import time plus the cold extra of the workload's probe run."""
    wl = spec["workload"]
    text = workloads.config_text(wl, spec["seed"], spec["worker"], 0, "probe")
    runs = [run_once(wl, text, work) for _ in range(2)] if text else []
    return {
        "setup_s": IMPORT_S + (runs[0]["wall_s"] - runs[1]["wall_s"] if runs else 0.0),
        "setup_cpu_s": IMPORT_CPU_S + (runs[0]["cpu_s"] - runs[1]["cpu_s"] if runs else 0.0),
        "import_s": IMPORT_S,
        "configs": [text] if text else [],
        "errors": [r["error"] for r in runs if r["error"]],
        "attempted": len(runs),
    }


def measure(spec: dict, work: Path) -> dict:
    """A cold run, then warm runs of fresh configs until the warm time would
    exceed the budget."""
    wl, seed, worker, length = (spec[k] for k in ("workload", "seed", "worker", "length"))
    configs = [workloads.config_text(wl, seed, worker, 0, length)]
    cold = run_once(wl, configs[0], work)
    runs = []
    while not runs or sum(r["wall_s"] for r in runs) + statistics.fmean(
            r["wall_s"] for r in runs) <= spec["budget"]:
        configs.append(workloads.config_text(wl, seed, worker, len(configs), length))
        runs.append(run_once(wl, configs[-1], work))
    return {
        "warm_s": [r["wall_s"] for r in runs],
        "warm_cpu_s": [r["cpu_s"] for r in runs],
        "configs": configs,
        "warnings": [r["warnings"] for r in [cold] + runs],
        "errors": [r["error"] for r in [cold] + runs if r["error"]],
        "attempted": 1 + len(runs),
    }


def trace(spec: dict, work: Path) -> dict:
    from tracer import Tracer

    wl = spec["workload"]
    text = workloads.config_text(wl, spec["seed"], spec["worker"], 0, spec["length"])
    cold = run_once(wl, text, work)
    tracer = Tracer()
    plain: list[dict] = []
    traced: list[dict] = []
    per_layer: list[dict] = []
    while True:
        plain.append(run_once(wl, text, work))
        traced.append(run_once(wl, text, work, tracer))
        if traced[-1]["output"] != plain[-1]["output"] and not traced[-1]["error"]:
            traced[-1]["error"] = "traced output differs from untraced output"
        per_layer.append(tracer.metrics())
        root = tracer.root_duration()
        spent = sum(r["wall_s"] for r in plain + traced)
        if spent + spent / len(plain) > spec["budget"]:
            break
    units = {k: unit for k, (_, unit) in per_layer[0].items()}
    metrics = {k: statistics.median(m[k][0] for m in per_layer) for k in units}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["cli.warnings"] = statistics.median(r["warnings"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in plain)
    # harness time outside cli.main: config write and output capture
    metrics["trace.unattributed_s"] = traced[-1]["wall_s"] - root
    units.update({"cli.warnings": "count", "trace.wall_s": "s",
                  "trace.overhead_s": "s", "trace.unattributed_s": "s"})
    runs = [cold] + plain + traced
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "configs": [text],
        "repeats": len(traced),
        "errors": [r["error"] for r in runs if r["error"]],
        "attempted": len(runs),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    result = {"setup": setup, "measure": measure, "trace": trace}[spec["mode"]](spec, work)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
