"""Kernel sweep: warm median time per call of each layer kernel over
generator counts 4..14.

Run from the root of a checkout::

    python3 bench/sweep.py --out .bench_build/sweep.json   # about 2 minutes

Metrics are ``sweep.<kernel>.n<k>.s`` (warm median per call) and
``sweep.wedge.n<k>.cold_s`` (the first wedge call at that size, which builds
the index tables).  A case whose first warm call takes longer than the
per-case budget records that single timing and is not repeated.  The sweep
never runs 16 generators: above 12 the wedge takes its sparse path, and at
14 one RK4 step already takes about 20 s.  Per-layer numbers only; nothing
here is gated.  The result is printed as JSON and written to ``--out``.
"""

from __future__ import annotations

import os

from run import PINNED_THREADS, THREAD_VARS

# pin BLAS before numpy loads, as the benchmark's workers do
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ferroflow import algebra, flow, gaussian  # noqa: E402
from ferroflow.algebra import GeneratorSet, GrassmannElement  # noqa: E402
from ferroflow.schedule import ScaleSchedule  # noqa: E402
from worker import environment  # noqa: E402

N_GENS = (4, 6, 8, 10, 12, 14)
BUDGET_S = 1.0      # first warm call above this: single timing, no repeats
REPEATS = 7         # at most this many warm calls per case
CASE_CAP_S = 3.0    # and stop repeating once the warm calls add up to this


def _antisymmetric(rng, n: int, scale: float) -> np.ndarray:
    m = rng.normal(size=(n, n)) * scale
    return m - m.T


def _even_normalized(rng, gens: GeneratorSet, scale: float) -> GrassmannElement:
    """Dense even element with zero scalar part, real coefficients."""
    c = rng.normal(size=gens.dim) * scale
    odd = np.array([bin(i).count("1") % 2 for i in range(gens.dim)], dtype=bool)
    c[odd] = 0.0
    c[0] = 0.0
    return GrassmannElement(gens, c)


def _constant_schedule(rng, pairs: int) -> ScaleSchedule:
    g = rng.normal(size=(pairs, pairs)) * 0.15
    cdot = g @ g.T
    rate = 4.0 * float(np.max(np.diag(cdot)))
    return ScaleSchedule.from_cdot(lambda tau: cdot, T=1.0, pairs=pairs,
                                   gram_rate=lambda tau: rate)


def cases(n: int, rng) -> dict:
    """Kernel name -> zero-argument call at ``n`` generators.

    Operands follow the verify command's scaling, so that ``rg_map`` stays
    in the logarithm's domain.
    """
    gens = GeneratorSet(n)
    f = _even_normalized(rng, gens, 0.4 / n)
    g = _even_normalized(rng, gens, 0.4 / n)
    a = _antisymmetric(rng, n, 1.6 / n)
    one_plus_f = f + 1.0
    sched = _constant_schedule(rng, n // 2)
    return {
        "wedge": lambda: algebra.wedge(f, g),
        "laplacian": lambda: gaussian.laplacian(a, f),
        "exp_of": lambda: algebra.exp_of(f),
        "log_of": lambda: algebra.log_of(one_plus_f),
        "heat_kernel_convolve": lambda: gaussian.heat_kernel_convolve(a, f),
        "rg_map": lambda: flow.rg_map(a, f),
        "pfaffian": lambda: gaussian.pfaffian(a),
        # one RK4 step: four evaluations of the private flow right-hand side
        "flow_rk4_step": lambda: flow.flow_integrate(sched, f, steps=1, t_end=0.01),
    }


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def sweep(n_gens, log) -> tuple[dict, dict]:
    metrics: dict[str, dict] = {}
    samples: dict[str, int] = {}
    for n in n_gens:
        rng = np.random.Generator(np.random.Philox(n))
        for kernel, call in cases(n, rng).items():
            if kernel == "wedge":
                metrics[f"sweep.wedge.n{n}.cold_s"] = {"value": timed(call), "unit": "s"}
            times = [timed(call)]
            if times[0] <= BUDGET_S:
                while len(times) < REPEATS and sum(times) < CASE_CAP_S:
                    times.append(timed(call))
            name = f"sweep.{kernel}.n{n}.s"
            metrics[name] = {"value": statistics.median(times), "unit": "s"}
            samples[name] = len(times)
            log(f"{name:36s} {statistics.median(times):.6f} s  ({len(times)} calls)")
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kernel sweep over n_gen 4..14")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON result here as well")
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    metrics, samples = sweep(N_GENS, log)
    result = {
        "n_gen": list(N_GENS),
        "budget_s": BUDGET_S,
        "repeats": {"max": REPEATS, "case_cap_s": CASE_CAP_S, "per_case": samples},
        "environment": {**environment(), "nproc": os.cpu_count()},
        "metrics": metrics,
    }
    text = json.dumps(result, indent=1)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
