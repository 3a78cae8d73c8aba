"""Workload definitions: seeded CLI configs and the output check of each run.

Every run of a workload is one call of ``ferroflow.cli.main`` on a config
text drawn from the benchmark seed.  Configs depend only on
``(workload, seed, worker, index)``, so the same seed gives the same inputs
whatever the timing.  This module imports nothing heavy at module level: the
parent process reads the workload table without importing numpy.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

COMMANDS = {
    "flow-desk": "flow",
    "majorant-pair": "majorant",
    "verify-wide": "verify",
}

# Run lengths.  "smoke" shortens a run while keeping every layer in use.
# "probe" is the shortest run that builds the same lazy tables and caches as
# the full one; set-up samples time it cold and warm.  The flow probe takes
# one RK4 step of the default size, so its output check keeps the full
# tolerance.  verify has no length setting, so verify-wide has no probe.
LENGTHS = ("full", "smoke", "probe")

# verify's run time depends on its seed through the Simpson doublings of the
# synthetic schedule: 6.2 s at seeds 13, 14, 42 and 100 but 6.6 to 11 s at
# seeds 3, 11, 12 and 15 (one 2-CPU machine).  That spread exceeds any bound,
# so verify-wide keeps one seed and the benchmark seed does not change it.
VERIFY_SEED = 42

# grid points of the flow CSV re-derived on the exact heat-kernel path, and
# the agreement required at the CLI's default RK4 step (2/400); smoke runs
# take longer steps and get the tolerance scaled by RK4's h**4 error order
FLOW_CHECK_FRACTIONS = (0.25, 0.5, 1.0)
FLOW_CHECK_RTOL = 1e-9
FLOW_CHECK_ATOL = 1e-12
FLOW_CHECK_STEP = 2.0 / 400


def _rng(workload: str, seed: int, worker: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{worker}/{index}")


def config_text(workload: str, seed: int, worker: int, index: int,
                length: str = "full") -> str | None:
    """Config file text of run ``index`` of ``worker`` for ``workload``, or
    ``None`` when the workload has no run of that length."""
    if length not in LENGTHS:
        raise ValueError(f"unknown run length {length!r}")
    rng = _rng(workload, seed, worker, index)
    steps = {"full": None, "smoke": 40, "probe": 1}[length]
    if workload == "flow-desk":
        lines = [f"alpha = {rng.uniform(0.001, 0.003)!r}"]
        if length == "probe":
            lines.append(f"tMax = {FLOW_CHECK_STEP!r}")
    elif workload == "majorant-pair":
        lines = [f"alpha = {rng.uniform(0.001, 0.003)!r}", "sites = 2"]
    elif workload == "verify-wide":
        if length == "probe":
            return None
        lines = [f"seed = {VERIFY_SEED}", f"generators = {8 if length == 'smoke' else 12}"]
        steps = None
    else:
        raise KeyError(f"unknown workload {workload!r}")
    if steps is not None:
        lines.append(f"steps = {steps}")
    return "\n".join(lines) + "\n"


def cli_argv(workload: str, cfg_path: Path, out_path: Path) -> list[str]:
    command = COMMANDS[workload]
    argv = [command, "--config", str(cfg_path)]
    if command != "verify":
        argv += ["--out", str(out_path)]
    return argv


def check_output(workload: str, text: str, rc: int, stdout: str,
                 out_path: Path) -> str | None:
    """Check one run's outputs; return a failure reason or ``None``.

    Runs outside the timed region and imports ferroflow lazily.
    """
    if rc != 0:
        return f"exit code {rc}"
    if workload == "verify-wide":
        if "10/10 checks passed" not in stdout:
            return "verify table does not report 10/10 checks passed"
        return None
    if workload == "majorant-pair":
        return _check_majorant(text, out_path)
    return _check_flow(text, out_path)


def _check_majorant(text: str, out_path: Path) -> str | None:
    from ferroflow.cli import parse_config

    cfg = parse_config(text)
    report = Path(str(out_path) + ".existence.txt").read_text()
    if "holds = true" not in report:
        return "existence report does not hold"
    rows = out_path.read_text().splitlines()
    if rows[0] != "t,m,F_m,phi_m,margin" or len(rows) < 2:
        return "majorant CSV has no rows"
    for row in rows[1:]:
        margin = float(row.split(",")[4])
        if not margin >= -cfg.tolerance:
            return f"majorant margin {margin:.3e} below -{cfg.tolerance:.1e}"
    return None


def _check_flow(text: str, out_path: Path) -> str | None:
    """Compare CSV ``F_m`` at a few grid times with the exact heat-kernel
    path ``norm_coefficients(effective_action_exact(...))``."""
    import numpy as np

    from ferroflow import psi4
    from ferroflow.cli import parse_config
    from ferroflow.flow import effective_action_exact
    from ferroflow.norms import norm_coefficients

    cfg = parse_config(text)
    values: dict[tuple[str, int], float] = {}
    rows = out_path.read_text().splitlines()
    if rows[0] != "t,m,F_m":
        return "flow CSV header mismatch"
    for row in rows[1:]:
        t, m, fm = row.split(",")
        values[(t, int(m))] = float(fm)
    params = psi4.Psi4Params(
        dimension=cfg.dimension, mass=cfg.mass, lambda0=cfg.lambda0,
        box=cfg.boxL, cutoff_factor=cfg.cutoffFactor)
    inst = psi4.build_desk_instance(params, cfg.alpha, n_sites=cfg.sites,
                                    t_max=cfg.tMax)
    grid = np.linspace(0.0, cfg.tMax, cfg.steps + 1)
    loosen = max(1.0, (cfg.tMax / cfg.steps / FLOW_CHECK_STEP) ** 4)
    for frac in FLOW_CHECK_FRACTIONS:
        t = float(grid[int(round(frac * cfg.steps))])
        exact = norm_coefficients(
            effective_action_exact(inst.schedule, inst.bare_action, t))
        for m in range(1, len(exact) + 1):
            got = values.get((f"{t:.12g}", m))
            if got is None:
                return f"flow CSV lacks t={t:.12g}, m={m}"
            want = exact.coeff(m)
            if not math.isclose(got, want, rel_tol=loosen * FLOW_CHECK_RTOL,
                                abs_tol=loosen * FLOW_CHECK_ATOL):
                return f"F_{m}({t:.12g}) = {got!r}, exact path gives {want!r}"
    return None
