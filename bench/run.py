"""Benchmark entry point for the ferroflow CLI.

Run from the root of a checkout::

    python3 bench/run.py --workload flow-desk --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --smoke

Each run starts fresh worker interpreters one after another (``worker.py``),
each with ``src`` on the import path and BLAS pinned to one thread.  With
``--trace 0`` it reports the end-to-end metrics ``wall_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` the per-layer metrics of a traced run.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (environment,
configs, samples) is written under ``.bench_build/ferroflow-bench``.
``--smoke`` runs every workload once at reduced length, untraced and traced,
and checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "ferroflow-bench"
DEADLINE_S = 170.0
# fresh interpreters per untraced run that time import plus the probe's
# cold extra; set-up time is their median
SETUP_SAMPLES = 9
SMOKE_DEADLINE_S = 900.0
# the worker runs a single thread: no layer waits on another
PINNED_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed workload run)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def spawn(argv: list[str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run deadline passed before a worker could start")
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def run_worker(spec: dict, deadline: float) -> dict:
    out = spawn([str(BENCH / "worker.py"), json.dumps(spec)], deadline)
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD commit read from ``.git`` without running git; ``unknown`` in an
    exported checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least ten samples
    beyond it, or ``None`` when there are too few samples."""
    n = len(samples)
    pct = 100 * (n - 10) // n if n else 0
    if pct <= 50:
        return None
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def measure(workload: str, seed: int, seconds: float, length: str,
            deadline: float) -> tuple[dict, dict]:
    base = {"workload": workload, "seed": seed, "length": length,
            "work": str(WORK / workload)}
    def setup(first: int, last: int) -> list[dict]:
        return [run_worker({**base, "mode": "setup", "worker": i, "budget": 0.0},
                           deadline) for i in range(first, last)]

    # half the set-up samples before the warm runs and half after, so their
    # median spans the run rather than the few seconds before it
    half = SETUP_SAMPLES // 2 + 1
    setups = setup(1, half)
    result = run_worker({**base, "mode": "measure", "worker": 0,
                         "budget": seconds}, deadline)
    setups += setup(half, SETUP_SAMPLES + 1)
    warm = result["warm_s"]
    metrics = {
        "wall_s": {"value": statistics.median(warm), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in setups),
                    "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    detail = {
        "warm_s": warm,
        "warm_cpu_s": result["warm_cpu_s"],
        "wall_tail": tail_percentile(warm),
        "setup_s": [r["setup_s"] for r in setups],
        "setup_cpu_s": [r["setup_cpu_s"] for r in setups],
        "import_s": [r["import_s"] for r in setups],
        "warnings": result["warnings"],
        "configs": result["configs"] + [c for r in setups for c in r["configs"]],
        "errors": result["errors"] + [e for r in setups for e in r["errors"]],
        "attempted": result["attempted"] + sum(r["attempted"] for r in setups),
        "repeats": {"setup_interpreters": SETUP_SAMPLES, "warm_runs": len(warm)},
        "environment": result["environment"],
    }
    return metrics, detail


def trace(workload: str, seed: int, seconds: float, length: str,
          deadline: float) -> tuple[dict, dict]:
    result = run_worker({"workload": workload, "seed": seed, "worker": 0,
                         "mode": "trace", "budget": seconds, "length": length,
                         "work": str(WORK / workload)}, deadline)
    detail = {k: result[k] for k in ("configs", "errors", "attempted", "environment")}
    detail["repeats"] = {"traced_runs": result["repeats"]}
    return result["metrics"], detail


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
        deadline: float) -> tuple[dict, dict]:
    """Metrics and run record of one workload; primes the bytecode cache first
    so that no timed import compiles sources."""
    spawn(["-c", "import ferroflow.cli"], deadline)
    metrics, detail = (trace if traced else measure)(
        workload, seed, seconds, "smoke" if smoke else "full", deadline)
    detail["environment"].update({
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_blas_threads": int(PINNED_THREADS),
    })
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "smoke": smoke, "metrics": metrics, **detail}
    WORK.mkdir(parents=True, exist_ok=True)
    name = f"record-{workload}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    return metrics, record


def summary(record: dict) -> str:
    failed = len(record["errors"])
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{record['repeats']}, {record['attempted']} runs attempted, {failed} failed"]
    m = record["metrics"]
    if not record["trace"]:
        tail = record["wall_tail"]
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no tail percentile: that needs at least 21 warm runs")
        lines += [
            f"  wall_s       {m['wall_s']['value']:.4f} s  median of "
            f"{len(record['warm_s'])} warm runs; {tail_text}",
            f"  (cpu time    {statistics.median(record['warm_cpu_s']):.4f} s  median "
            "process time of the same runs; not gated)",
            f"  setup_s      {m['setup_s']['value']:.4f} s  median of "
            f"{len(record['setup_s'])} fresh interpreters (import + probe cold extra)",
            f"  peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB",
            f"  error_rate   {failed / record['attempted']:.4f} ratio "
            f"({failed}/{record['attempted']})",
        ]
    else:
        for key in sorted(m):
            lines.append(f"  {key:45s} {m[key]['value']:.6g} {m[key]['unit']}")
    lines += [f"  failure: {e}" for e in record["errors"][:5]]
    return "\n".join(lines)


def smoke(deadline: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.COMMANDS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics, record = run(workload, 1, 0.0, traced, True, deadline)
            print(summary(record), flush=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in metrics.items()}
            if want != got:
                problems.append(f"{workload} {key}: missing {sorted(set(want) - set(got))}"
                                f", unexpected {sorted(set(got) - set(want))}, units "
                                f"{[k for k in want if k in got and want[k] != got[k]]}")
            problems += [f"{workload}: {e}" for e in record["errors"]]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.COMMANDS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at reduced length and "
                             "check the emitted metric names and units")
    args = parser.parse_args(argv)
    if not (args.smoke or args.workload):
        parser.error("--workload or --smoke is required")
    if not (ROOT / "src" / "ferroflow" / "cli.py").is_file():
        print(f"error: no ferroflow sources under {ROOT / 'src'}; run from the "
              "root of a ferroflow checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(time.monotonic() + SMOKE_DEADLINE_S)
        names = sorted(workloads.COMMANDS) if args.workload == "all" else [args.workload]
        for name in names:
            metrics, record = run(name, args.seed, args.seconds, bool(args.trace),
                                  False, time.monotonic() + DEADLINE_S)
            print(summary(record), flush=True)
            failed = len(record["errors"])
            print(json.dumps({"correct": failed == 0, "attempted": record["attempted"],
                              "failed": failed, "metrics": metrics}), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
