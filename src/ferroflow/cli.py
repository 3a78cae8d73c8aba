"""Command-line entry points: verify | flow | majorant | psi4.

Configuration is plain text, one ``key = value`` per line with ``#``
comments; unknown keys and out-of-range values are rejected before any
computation.  Randomized checks draw from a counter-based generator
(numpy's Philox) keyed by a single 64-bit seed, so instances reproduce
across platforms.  CSV output uses comma separators, ``\\n`` newlines, a
header row, and 12 significant digits; reruns with the same configuration
and seed are byte-identical.

Every command takes ``--config PATH``.  ``flow``, ``majorant`` and ``psi4``
take ``--out PATH``, ``flow`` alone takes ``--truncate``, and ``verify``
alone takes ``--seed``, ``--generators`` and ``--debug-corrupt-pfaffian``;
each flag overrides the config key of its name.  Any other flag is a usage
error, but for ``--truncate``: it and ``truncate = true`` in a config are
refused for every command but ``flow`` as "truncate applies to flow only".

Exit codes: 0 success, 1 failed verification, 2 inadmissible instance,
3 runtime failure, 4 bad configuration or usage, an unreadable config or an
output path that cannot be written included.

``generators`` (even, 2..16) sets the size of verify's RG-map checks.  Each
generator above 12 triples the cost of a product; ``verify --seed 42`` took
0.71 s at 14 generators and 2.6 s (121 MB peak) at 16, one run each on a
2-CPU x86_64 Xeon, against a budget of 10 minutes.

``flow`` takes ``steps`` RK4 steps of the desk flow on ``2 * sites``
generators.  One step took 0.060-0.37, 0.065-0.30 and 0.099-0.50 ms at 2,
3 and 4 sites, where the flow runs on dense operators, and 0.27-1.3 and
1.3-2.5 ms at 5 and 6 sites (best of 3 fresh-process runs of the desk
instance's build and ``flow_integrate`` over 20, 100 and 400 steps, table
builds included, in two rounds on a 2-CPU x86_64 Xeon shared with other
work; the low end is a 400- or 100-step run, the high end the 20-step one,
which the table builds dominate), and single runs took up to 0.40, 1.0,
0.64, 1.6 and 4.2 ms.  ``_STEP_SECONDS`` holds twice the slowest single
runs of an earlier measurement (0.34, 0.48, 0.57, 1.1 and 4.3 ms), rounded
up: at 6 sites it still covers twice the slowest run above, and at 2 to 5
sites no step count the validator admits reaches the budget at either
cost.  A ``flow``
config whose steps would take longer than the same 10-minute budget at
these costs is refused with exit 4 before any computation: more than
66,666 steps at 6 sites, and no step count the validator admits at fewer
sites.

RK4 carries the desk's neutral real action on its neutral masks, as many
unbarred as barred generators, in float64: ``8 * C(2 sites, sites)``
bytes a vector, 7.4 KB at 6 sites, where the even masks in complex128 take
``8 * 4**sites`` bytes (32 KB).  ``flow`` keeps the seminorm series of each
yielded state as one array row of ``8 * sites`` bytes, not the state's
``16 * 4**sites`` bytes, and writes its CSV a block of
``flow._BLOCK_STEPS`` grid times at a time, never as one string: a 6-site
run of 30,000 steps peaked at 43 MiB RSS in 33 s, as one step does,
where the series as one object per state took 76 MiB and keeping every
state took 242 MiB at 3,000 steps (one run each, x86_64 Linux, a 2-CPU
Xeon); one-step runs peaked at 31-33 MiB at 2 and 4 sites.

``psi4`` writes one CSV row per scale of a uniform grid on ``[0, tMax]``:
at most 201 rows (``min(steps, 200) + 1``) below its header, whatever
``steps`` is.

``majorant`` integrates no flow: at each of its 11 printed times on the
``steps`` grid it takes the exact effective action, one ``rg_map`` on
``2 * sites`` generators, so ``steps`` changes neither its cost nor its peak
memory, which stays near the one-step peaks above.  One ``rg_map`` took
0.05-0.09 ms up to 3 sites, 0.11 ms at 4, 0.31-0.33 ms at 5 and 2.1-2.6 ms
at 6 (the same Xeon, best and median of 10 to 200 calls in two sessions).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import psi4
from .algebra import (
    MAX_GENERATORS,
    GeneratorSet,
    GrassmannElement,
    exp_of,
    parity_magnitudes,
    wedge,
)
from .errors import (
    CharacteristicCrossingError,
    ConfigError,
    ExistenceError,
    FerroflowError,
)
from .flow import _BLOCK_STEPS, effective_action_exact, flow_integrate, rg_map
from .gaussian import (
    AntisymmetricCovariance,
    covariance_split_check,
    gaussian_expectation,
    gaussian_moment,
    heat_kernel_convolve,
    pfaffian,
)
from .instances import (
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    synthetic_schedule,
)
from .majorant import (
    MajorantSpec,
    existence_check,
    hopflax_solve,
    majorant_coefficients,
    rhs_coefficient_bound,
)
from .norms import gram_bound_check, norm_coefficients


@dataclass
class RunConfig:
    generators: int = 8
    seed: int = 42
    alpha: float = 0.002
    mass: float = 1.0
    lambda0: float = 2.0
    boxL: float = 4.0
    dimension: int = 4
    tMax: float = 2.0
    steps: int = 400
    sites: int = 4
    cutoffFactor: float = 7.0
    tolerance: float = 1e-9
    truncate: bool = False
    out: str = ""
    debugCorruptPfaffian: bool = False


_RANGES = {
    "generators": (2, MAX_GENERATORS),
    "seed": (0, 2 ** 64 - 1),
    "alpha": (0.0, 1.0),
    "mass": (1e-6, 1e6),
    "lambda0": (1e-6, 1e6),
    "boxL": (1e-6, 1e6),
    "dimension": (3, 8),
    "tMax": (1e-6, 50.0),
    "steps": (1, 100000),
    "sites": (2, 6),
    "cutoffFactor": (1.0, 64.0),
    "tolerance": (1e-15, 1.0),
}


# seconds per RK4 step by site count and flow's budget (module docstring)
_STEP_SECONDS = {2: 7e-4, 3: 1e-3, 4: 2e-3, 5: 3e-3, 6: 9e-3}
_RUN_BUDGET_S = 600.0


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a validated RunConfig."""
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(RunConfig)}
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        kind = types[key]  # a string under postponed annotations
        try:
            if kind == "bool":
                value = _parse_bool(raw, key)
            elif kind == "int":
                value = int(raw, 0)
            elif kind == "float":
                value = float(raw)
            else:
                value = raw
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {raw!r}") from exc
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for key, (lo, hi) in _RANGES.items():
        value = getattr(cfg, key)
        if not lo <= value <= hi:
            raise ConfigError(f"key {key} = {value} outside [{lo}, {hi}]")
    if cfg.generators % 2 != 0:
        raise ConfigError("generators must be even")
    if cfg.lambda0 <= cfg.mass:
        raise ConfigError("lambda0 must exceed mass")


def check_command(command: str, cfg: RunConfig) -> None:
    """Refuse what ``command`` cannot honour: ``truncate`` outside ``flow``,
    and a ``flow`` config whose RK4 steps would exceed the run-time
    budget."""
    if command != "flow":
        if cfg.truncate:
            raise ConfigError("truncate applies to flow only")
        return
    step = _STEP_SECONDS[cfg.sites]
    if cfg.steps * step > _RUN_BUDGET_S:
        raise ConfigError(
            f"steps = {cfg.steps} at sites = {cfg.sites} would take about "
            f"{cfg.steps * step / 60:.0f} min, over the budget of "
            f"{_RUN_BUDGET_S / 60:.0f} min; at most "
            f"{int(_RUN_BUDGET_S / step)} steps at {cfg.sites} sites")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _CheckTable:
    def __init__(self):
        self.rows: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.rows.append((name, bool(ok), detail))

    def render(self) -> str:
        width = max(len(name) for name, _, _ in self.rows)
        lines = []
        for name, ok, detail in self.rows:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"{mark}  {name.ljust(width)}  {detail}")
        total = sum(ok for _, ok, _ in self.rows)
        lines.append(f"{total}/{len(self.rows)} checks passed")
        return "\n".join(lines)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.rows)


def cmd_verify(cfg: RunConfig) -> int:
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    table = _CheckTable()
    corrupt = 1.0005 if cfg.debugCorruptPfaffian else 1.0

    # Pfaffian squares to the determinant
    drawn = [rand_antisymmetric(rng, int(rng.integers(1, 7)) * 2) for _ in range(40)]
    pf_of = {}  # one stacked Pfaffian per dimension
    for dim in {a.shape[0] for a in drawn}:
        group = [i for i, a in enumerate(drawn) if a.shape[0] == dim]
        pf_of.update(zip(group, pfaffian(np.stack([drawn[i] for i in group])).tolist()))
    worst = 0.0
    witness = ""
    for i, a in enumerate(drawn):
        pf = pf_of[i] * corrupt
        det = np.linalg.det(a)
        rel = abs(pf * pf - det) / max(abs(det), 1e-300)
        if rel > worst:
            worst = rel
            if rel > 1e-9:
                witness = f"; counterexample dim={a.shape[0]}, first row={a[0].tolist()}"
    table.add("pfaffian-identity", worst <= 1e-9, f"worst rel dev {worst:.3e}{witness}")

    # moments against the explicit-density evaluation
    gens6 = GeneratorSet(6)
    a6 = rand_antisymmetric(rng, 6)
    worst = 0.0
    ainv = np.linalg.inv(a6)
    quad = GrassmannElement.zero(gens6)
    for i in range(6):
        for j in range(6):
            quad = quad + GrassmannElement.monomial(gens6, [i, j], ainv[i, j])
    dens = exp_of(quad * (-0.5))
    pf_a = pfaffian(a6)
    for mask, direct in enumerate(gaussian_moment(a6, np.arange(64)).tolist()):
        idx = [b for b in range(6) if (mask >> b) & 1]
        mono = GrassmannElement.monomial(gens6, idx)
        oracle = pf_a * wedge(mono, dens).coeffs[-1]
        worst = max(worst, abs(direct - oracle))
    table.add("moment-oracle", worst <= 1e-10, f"worst abs dev {worst:.3e}")

    # heat kernel scalar part and covariance splitting
    gens8 = GeneratorSet(8)
    worst_hk = 0.0
    worst_split = 0.0
    for _ in range(10):
        a = rand_antisymmetric(rng, 8, 0.3)
        b = rand_antisymmetric(rng, 8, 0.3)
        f = rand_element(rng, gens8, 0.5)
        hk = heat_kernel_convolve(a, f)
        worst_hk = max(worst_hk, abs(hk.scalar_part - gaussian_expectation(a, f)))
        worst_split = max(worst_split, covariance_split_check(a, b, f))
    table.add("heat-kernel-moment", worst_hk <= 1e-10, f"worst dev {worst_hk:.3e}")
    table.add("covariance-splitting", worst_split <= 1e-10,
              f"worst residual {worst_split:.3e}")

    # semigroup and parity of the RG map
    worst_semi = 0.0
    worst_odd = 0.0
    cov_scale = 1.6 / cfg.generators  # keep the convolved scalar in the log domain
    for _ in range(5):
        a1 = rand_antisymmetric(rng, cfg.generators, cov_scale)
        a2 = rand_antisymmetric(rng, cfg.generators, cov_scale)
        f = rand_even_normalized(rng, GeneratorSet(cfg.generators), 0.4 / cfg.generators)
        joint = rg_map(a1 + a2, f)
        staged = rg_map(a1, rg_map(a2, f))
        worst_semi = max(worst_semi, float(np.max(np.abs(joint.coeffs - staged.coeffs))))
        even_mag, odd_mag = parity_magnitudes(joint)
        worst_odd = max(worst_odd, odd_mag / max(even_mag, 1e-300))
    table.add("rg-semigroup", worst_semi <= 1e-9, f"worst dev {worst_semi:.3e}")
    table.add("rg-parity", worst_odd <= 1e-10, f"worst odd ratio {worst_odd:.3e}")

    # Gram correlation bound, exhaustive subsets at four pairs
    ok = True
    worst_ratio = 0.0
    for _ in range(3):
        g1 = rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4))
        cov = AntisymmetricCovariance.from_split(
            g1 @ g1.T + 0.1 * np.eye(4), g2 @ g2.T + 0.1 * np.eye(4))
        rep = gram_bound_check(cov, np.arange(1, 256))
        worst_ratio = max(worst_ratio, float(np.max(rep.lhs / np.maximum(rep.rhs, 1e-300))))
        ok = ok and bool(rep.holds.all())
    table.add("gram-bound", ok, f"worst lhs/rhs {worst_ratio:.6f}")

    # coefficient bound dominates the exact flow
    sched = synthetic_schedule(rng, 4)
    bare = psi4.quartic_bare_action(GeneratorSet(8), 0.02)
    traj = flow_integrate(sched, bare, steps=200, t_end=1.0)
    ok = True
    worst_margin = float("inf")
    for i in (66, 133, 200):
        bounds = rhs_coefficient_bound(traj, sched, range(1, 5), traj.grid[i])
        for k, bound in enumerate(bounds, start=1):
            margin = bound - traj.norms[i, k - 1]
            worst_margin = min(worst_margin, margin)
            ok = ok and margin >= -1e-8
    table.add("coefficient-bound", ok, f"worst margin {worst_margin:.3e}")

    # majorant domination on the same instance
    spec = MajorantSpec(schedule=sched, quartic_alpha=0.02)
    ok = existence_check(spec, 1.0).holds
    worst_margin = float("inf")
    if ok:
        for i in (66, 133, 200):
            phi = majorant_coefficients(
                spec, existence_check(spec, traj.grid[i]), m_max=4)
            for m in range(1, 5):
                margin = phi.coeff(m) - traj.norms[i, m - 1]
                worst_margin = min(worst_margin, margin)
                ok = ok and margin >= -1e-8
    table.add("majorant-domination", ok, f"worst margin {worst_margin:.3e}")

    # Hopf-Lax comparison
    ys = np.linspace(-3.0, 3.0, 1001)
    ok = True
    for _ in range(5):
        coeffs = rng.normal(size=3) * 0.3
        g1 = coeffs[0] * np.sin(0.7 * ys) + coeffs[1] * np.cos(0.4 * ys) \
            + 0.05 * coeffs[2] * ys ** 2
        g2 = g1 + 0.1 + 0.1 * np.cos(0.5 * ys) ** 2
        for z in np.linspace(-1.0, 1.0, 11):
            w1 = hopflax_solve(ys, g1, 0.8, float(z))
            w2 = hopflax_solve(ys, g2, 0.8, float(z))
            ok = ok and (w2 - w1 >= -1e-10)
    table.add("hopflax-comparison", ok, "monotone on sampled pairs")

    print(table.render())
    return 0 if table.all_passed else 1


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _psi4_params(cfg: RunConfig) -> psi4.Psi4Params:
    return psi4.Psi4Params(
        dimension=cfg.dimension, mass=cfg.mass, lambda0=cfg.lambda0,
        box=cfg.boxL, cutoff_factor=cfg.cutoffFactor)


def _desk_instance(cfg: RunConfig) -> psi4.DeskInstance:
    return psi4.build_desk_instance(_psi4_params(cfg), cfg.alpha,
                                    n_sites=cfg.sites, t_max=cfg.tMax)


def _write(path: str, lines: Iterable[str | tuple]) -> None:
    """Write ``lines`` to ``path`` as they come, a string as it is (one
    line or a block of them) and a tuple as its fields by ``_fmt``,
    comma-separated."""
    try:
        with open(path, "w", encoding="ascii", newline="\n") as out:
            for line in lines:
                if not isinstance(line, str):
                    line = ",".join(map(_fmt, line))
                out.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _flow_blocks(grid: np.ndarray, norms: np.ndarray) -> Iterator[str]:
    """The ``t,m,F_m`` rows of a flow trajectory, a block of
    ``_BLOCK_STEPS`` grid times to a string, each time formatted once."""
    for first in range(0, len(grid), _BLOCK_STEPS):
        last = first + _BLOCK_STEPS
        yield "\n".join(
            f"{t},{m},{_fmt(fm)}"
            for t, row in zip(map(_fmt, grid[first:last].tolist()),
                              norms[first:last].tolist())
            for m, fm in enumerate(row, start=1))


def cmd_flow(cfg: RunConfig) -> int:
    inst = _desk_instance(cfg)
    traj = flow_integrate(inst.schedule, inst.bare_action, steps=cfg.steps,
                          t_end=cfg.tMax, truncate_ge2=cfg.truncate)
    out = cfg.out or "flow.csv"
    _write(out, itertools.chain(["t,m,F_m"],
                                _flow_blocks(traj.grid, traj.norms)))
    print(f"wrote {out} ({len(traj.grid)} grid points)")
    for note in traj.notes:
        print(f"note: {note}")
    return 0


def _margin_certificate(rows: list[tuple]) -> str:
    """The worst absolute margin ``phi_m - F_m`` and the worst relative
    margin ``(phi_m - F_m) / phi_m`` of the majorant CSV's ``(t, m, F_m,
    phi_m, margin)`` rows, each with its ``(t, m)``, the first in CSV order
    on a tie.  Only rows at t > 0 count, because at t = 0 ``phi_m = F_m``
    exactly, and the relative margin only where ``phi_m > 0``."""
    later = [row for row in rows if row[0] > 0.0]
    t, m, _, _, margin = min(later, key=lambda row: row[4])
    text = f"over t > 0, worst margin {margin:.3e} at (t {_fmt(t)}, m {m})"
    relative = [(row[4] / row[3], row) for row in later if row[3] > 0.0]
    if not relative:
        return text + ", no relative margin: phi_m = 0 at every t > 0"
    ratio, (t, m, *_) = min(relative, key=lambda pair: pair[0])
    return text + (f", worst relative margin {ratio:.3e} at "
                   f"(t {_fmt(t)}, m {m})")


def cmd_majorant(cfg: RunConfig) -> int:
    inst = _desk_instance(cfg)
    spec = MajorantSpec(schedule=inst.schedule, quartic_alpha=inst.alpha)
    report = existence_check(spec, cfg.tMax)
    out = cfg.out or "majorant.csv"
    report_path = out + ".existence.txt"
    _write(report_path, report.as_text().splitlines())
    print(report.as_text(), end="")
    if not report.holds:
        print("existence condition fails; no majorant CSV written")
        return 2
    grid = np.linspace(0.0, cfg.tMax, cfg.steps + 1)
    n = inst.generators.pairs
    # ascending, so duplicates are neighbours; np.unique would import
    # numpy.ma, which took 10-15 ms in a fresh process on a 2-CPU x86_64 host
    picks = np.linspace(0, cfg.steps, 11).astype(int)
    picks = picks[np.diff(picks, prepend=-1) > 0]
    rows = []
    times = grid[picks]
    for t, at_t in zip(times.tolist(), existence_check(spec, times)):
        series = norm_coefficients(
            effective_action_exact(inst.schedule, inst.bare_action, t))
        phi = majorant_coefficients(spec, at_t, m_max=n)
        for m in range(1, n + 1):
            fm, pm = series.coeff(m), phi.coeff(m)
            rows.append((t, m, fm, pm, pm - fm))
    _write(out, itertools.chain(["t,m,F_m,phi_m,margin"], rows))
    print(f"wrote {out}; {_margin_certificate(rows)}")
    if min(row[4] for row in rows) < -cfg.tolerance:
        print("margin below tolerance")
        return 1
    return 0


def cmd_psi4(cfg: RunConfig) -> int:
    params = _psi4_params(cfg)
    header_lines = []
    bound = None
    count = min(cfg.steps, 200)
    scales = np.linspace(0.0, cfg.tMax, count + 1)
    clock = psi4.effective_flow_time(params, scales)
    if cfg.dimension == 4:
        bound = psi4.coupling_bound(params)
        header_lines.append(f"# coupling_bound = {_fmt(bound)}")
        if cfg.alpha > bound:
            header_lines.append(
                f"# warning: alpha = {_fmt(cfg.alpha)} exceeds the coupling bound")
            sigma_resc = math.sqrt(
                psi4.sigma_squared_closed_form(params, 0.0, cfg.tMax)) / params.lambda0
            # the last scale of the linspace is exactly tMax
            window = 1.0 - 12.0 * cfg.alpha * clock.value[-1] * sigma_resc ** 2
            if window <= 0.0:
                print("\n".join(header_lines))
                print(f"rescaled existence window closed ({window:.3e}); aborting")
                return 2
    rows = ["s,Lambda_s,cdot_norm,sigma2,tau_tilde,tau_tilde_bound"]
    for s, tau_tilde, tau_bound in zip(scales.tolist(), clock.value.tolist(),
                                       clock.bound.tolist()):
        lam = params.lambda_at(s)
        rate = psi4.covariance_rate_norm(params, s)
        sig2 = psi4.sigma_squared_closed_form(params, 0.0, s)
        rows.append((s, lam, rate, sig2, tau_tilde, tau_bound))
    out = cfg.out or "psi4.csv"
    _write(out, header_lines + rows)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferroflow",
        description="Fermionic RG flows with Hamilton-Jacobi norm majorants")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left out is absent from the namespace, and every other dest is
    # the RunConfig field it overrides
    subs = {name: sub.add_parser(name, help=help_text,
                                 argument_default=argparse.SUPPRESS)
            for name, help_text in (
                ("verify", "run the invariant battery and print a check table"),
                ("flow", "integrate a desk-scale flow and emit t,m,F_m CSV"),
                ("majorant", "emit majorant coefficients, margins, and existence"),
                ("psi4", "emit the scale summary of the quartic model"))}
    for name, p in subs.items():
        p.add_argument("--config", type=str, default=None, help="config file path")
        # unlisted outside flow, where check_command refuses it by name
        p.add_argument("--truncate", action="store_true",
                       help="project the flow onto degree >= 4"
                       if name == "flow" else argparse.SUPPRESS)
    for name in ("flow", "majorant", "psi4"):
        subs[name].add_argument("--out", type=str, help="output CSV path")
    verify = subs["verify"]
    verify.add_argument("--seed", type=int, help="64-bit seed")
    verify.add_argument("--generators", type=int,
                        help="generator count of the RG-map checks (even, "
                             "2..16; verify took 0.71 s at 14 and 2.6 s at 16 "
                             "on a 2-CPU x86_64 machine)")
    verify.add_argument("--debug-corrupt-pfaffian", action="store_true",
                        dest="debugCorruptPfaffian",
                        help="fault injection: break the Pfaffian normalization")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is the
        # code of an inadmissible instance here
        return 4 if exc.code else 0
    command, config = args.pop("command"), args.pop("config")
    try:
        cfg = parse_config(Path(config).read_text() if config else "")
        for key, value in args.items():
            setattr(cfg, key, value)
        validate_config(cfg)
        check_command(command, cfg)
        return _COMMANDS[command](cfg)
    except (ConfigError, OSError) as exc:
        # OSError: an unreadable config
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except (ExistenceError, CharacteristicCrossingError) as exc:
        print(f"inadmissible instance: {exc}", file=sys.stderr)
        return 2
    except FerroflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


_COMMANDS = {"verify": cmd_verify, "flow": cmd_flow, "majorant": cmd_majorant,
             "psi4": cmd_psi4}


if __name__ == "__main__":
    sys.exit(main())
