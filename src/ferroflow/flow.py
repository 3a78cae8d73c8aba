"""The renormalization-group map and the flow equation of the effective action.

The exact path convolves ``exp(-f)`` with the Gaussian of the accumulated
covariance and takes minus the logarithm.  The differential path integrates
the nonlinear flow of the normalized effective action

    dF/dt = (1/2) Delta_rate F + (1/2) <grad F, rate grad F> - (scalar part)

with classic fixed-step RK4.  The state is the coefficient vector over the
masks of the bare action's parity: the 2**(n_gen - 1) even masks when its
odd coefficients are all exactly zero (the flow keeps them zero), all masks
otherwise.  The sign of the quadratic term is tied to the Laplacian
convention of :mod:`ferroflow.gaussian`; the pair is pinned by
cross-validating the two paths against each other, which the test suite
does continuously.

``flow_states`` yields the states one grid time at a time; a trajectory
keeps only their seminorm series, in one array: all that checks read.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _BOTH,
    _EVEN,
    _PARITY_ATOL,
    _WEDGE_LEAF,
    GrassmannElement,
    _index_set,
    _is_exactly_even,
    _pair_table,
    _popcount_table,
    _require_even,
    _wedge_blocks,
    exp_of,
    log_of,
)
from .errors import LogDomainError, ResolutionError
from .gaussian import _check_dimension, _laplacian_coeffs, _laplacian_weights
from .norms import norm_coefficients
from .schedule import ScaleSchedule

# Sign of the quadratic gradient pairing relative to sum_ij rate_ij d_iF ^ d_jF;
# pinned by the exact-path cross-validation tests.
_BILINEAR_SIGN = 1.0

_SCALAR_WARN_FLOOR = 0.1


@dataclass
class FlowTrajectory:
    """The seminorm series of the effective action on an ordered time grid:
    ``norms[i, m - 1]`` is ``F_m`` of ``norm_coefficients`` of the state at
    ``grid[i]``, whose scalar part is zero, in one read-only float64 array
    of shape ``(len(grid), pairs)``; ``log_norm[i]`` is the
    log-normalization accumulated up to it.  The states are not kept."""

    grid: np.ndarray
    norms: np.ndarray
    log_norm: np.ndarray
    truncated: bool = False
    notes: list[str] = field(default_factory=list)


def rg_map(a, f: GrassmannElement) -> GrassmannElement:
    """One fluctuation-integration step: ``-log`` of the Gaussian convolution
    of ``exp(-f)``.

    Raises ``LogDomainError`` when the convolved scalar part leaves the
    domain of the logarithm, and warns when it drops below 0.1 (the log stays
    defined but conditioning degrades).
    """
    from .gaussian import heat_kernel_convolve

    _require_even(f, "rg_map")
    conv = heat_kernel_convolve(a, exp_of(-f))
    scalar = conv.scalar_part
    if not (scalar.real > 0.0 and abs(scalar.imag) <= 1e-10 * max(1.0, abs(scalar))):
        raise LogDomainError(
            f"flow left log domain: convolved scalar part {scalar}",
            scalar_part=scalar)
    if scalar.real < _SCALAR_WARN_FLOOR:
        warnings.warn(
            f"convolved scalar part {scalar.real:.3g} below "
            f"{_SCALAR_WARN_FLOOR}; logarithm is ill-conditioned",
            stacklevel=2)
    return -log_of(conv)


def effective_action_exact(schedule: ScaleSchedule, f0: GrassmannElement,
                           t: float) -> GrassmannElement:
    """Normalized effective action at scale ``t`` through the heat-kernel
    route: one ``rg_map`` of the slice ``schedule.covariance(0, t)``, which
    refuses a ``t`` outside ``[0, T]``, with the scalar part that ``rg_map``
    keeps set to zero; at ``t = 0``, ``f0`` itself, free of exp/log rounding."""
    if t == 0.0:
        _require_even(f0, "effective_action_exact")
        out = f0
    else:
        out = rg_map(schedule.covariance(0.0, t), f0)
    c = out.coeffs.copy()
    c[0] = 0.0
    return GrassmannElement(out.gens, c)


def _flow_rhs(weights: np.ndarray, y: np.ndarray, n_gen: int, even: bool,
              low: np.ndarray | None) -> tuple[np.ndarray, complex]:
    """Flow right-hand side on coefficients ``y`` over the index set ``S =
    _index_set(n_gen, even)``, for a rate with Laplacian weights ``weights
    = _laplacian_weights(rate, n_gen, even)``; returns (dF, dlog_norm), dF
    over ``S`` with the entries that ``low`` marks, if given, zeroed.

    The bilinear term takes two Laplacians and the products ``F ^ F`` and
    ``F ^ Delta F``.  For even ``F`` up to ``_WEDGE_LEAF`` generators these
    walk the chunks of the even x even ``_pair_table(n_gen, 0)`` as they
    are: its pairs are ranks in ``S`` and its unions are ``S`` in rank
    order, so the union sums, concatenated, are the product over ``S``.
    Every sum runs over the same terms in the same order as the public
    ``wedge`` and ``laplacian`` on the full coefficient vector, so dF is
    bitwise the one of that product rule."""
    # product rule for even F, with Delta = laplacian(rate, .):
    #   sum_ij rate_ij d_iF ^ d_jF = -(1/2) [Delta(F ^ F) - 2 F ^ Delta F]
    lap = _laplacian_coeffs(weights, y, n_gen, even)
    if not even or n_gen > _WEDGE_LEAF:
        # with odd content, or above the pair table's leaf, the products
        # go through _wedge_blocks on full vectors
        index = _index_set(n_gen, even)
        full = np.zeros(1 << n_gen, dtype=np.complex128)
        full[index] = y
        full_lap = np.zeros(1 << n_gen, dtype=np.complex128)
        full_lap[index] = lap
        parts = _EVEN if even else _BOTH
        square = _wedge_blocks(full, full, n_gen, parts, parts)[index]
        cross = _wedge_blocks(full, full_lap, n_gen, parts, parts)[index]
    else:
        chunks = _pair_table(n_gen, 0)
        square, cross = [], []
        for j, k, sgn, _, seg in chunks:
            # F ^ F and F ^ Delta F share the left factor F[J] * sgn; it
            # stays the first operand, because numpy rounds the imaginary
            # part of a complex product by operand order
            left = y.take(j)
            left *= sgn
            terms = y.take(k)
            square.append(np.add.reduceat(
                np.multiply(left, terms, out=terms), seg))
            terms = lap.take(k)
            cross.append(np.add.reduceat(
                np.multiply(left, terms, out=terms), seg))
        square = square[0] if len(chunks) == 1 else np.concatenate(square)
        cross = cross[0] if len(chunks) == 1 else np.concatenate(cross)
    lap_square = _laplacian_coeffs(weights, square, n_gen, even)
    bil = -0.5 * (lap_square - 2.0 * cross)
    dlog = 0.5 * lap[0]
    out = 0.5 * lap + (0.5 * _BILINEAR_SIGN) * bil
    out[0] = 0.0  # normalization: the scalar part stays exactly zero
    if low is not None:
        out[low] = 0.0
    return out, complex(dlog)


def flow_states(schedule: ScaleSchedule, f0: GrassmannElement,
                grid: np.ndarray, truncate_ge2: bool = False
                ) -> Iterator[tuple[GrassmannElement, complex]]:
    """Integrate the flow equation of the normalized effective action by
    RK4 on the step boundaries ``grid``, yielding ``(state, log_norm)`` at
    each grid time, ``f0`` with a zero scalar part first; each state is a
    fresh element that the generator does not keep.

    With ``truncate_ge2`` the right-hand side is projected onto degree >= 4,
    which removes the two-point insertions while keeping the normalization
    subtraction.  RK4 carries the even coefficients only when every odd
    coefficient of ``f0`` is exactly zero, and all of them otherwise, so odd
    content that the parity check tolerates is still integrated.  Each step
    reads the rate at its midpoint and end, and computes the rate's
    Laplacian weights once for both evaluations there; the rate at the
    start is the previous step's end.
    """
    _require_even(f0, "flow_states")
    if abs(f0.scalar_part) > _PARITY_ATOL * max(1.0, f0.max_abs()):
        raise ValueError("bare action must be normalized (zero scalar part)")
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise ValueError("trajectory grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("trajectory grid must be strictly increasing")
    if grid[-1] > schedule.T * (1 + 1e-12):
        raise ValueError("trajectory grid exceeds the schedule's upper scale")
    gens = f0.gens
    n_gen = gens.count
    y0 = f0.coeffs.copy()
    y0[0] = 0.0
    # found from exact zeros, not from _require_even's tolerance; RK4 keeps
    # exact zeros exactly zero, so one inspection holds for every state
    even = _is_exactly_even(y0)
    index = _index_set(n_gen, even)
    low = _popcount_table(n_gen)[index] < 4 if truncate_ge2 else None
    y = y0[index]
    c = 0.0 + 0.0j
    a4 = schedule.adot(grid[0])
    _check_dimension(a4, f0)
    w4 = _laplacian_weights(a4, n_gen, even)
    yield GrassmannElement._adopt(gens, y0), c
    for i in range(len(grid) - 1):
        t0, t1 = grid[i], grid[i + 1]
        h = t1 - t0
        w1 = w4  # the rate at the end of the previous step
        w2 = _laplacian_weights(schedule.adot(t0 + 0.5 * h), n_gen, even)
        w4 = _laplacian_weights(schedule.adot(t1), n_gen, even)
        k1, c1 = _flow_rhs(w1, y, n_gen, even, low)
        k2, c2 = _flow_rhs(w2, y + 0.5 * h * k1, n_gen, even, low)
        k3, c3 = _flow_rhs(w2, y + 0.5 * h * k2, n_gen, even, low)
        k4, c4 = _flow_rhs(w4, y + h * k3, n_gen, even, low)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0] = 0.0
        c = c + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        state = np.zeros(1 << n_gen, dtype=np.complex128)
        state[index] = y
        yield GrassmannElement._adopt(gens, state), c


def flow_integrate(schedule: ScaleSchedule, f0: GrassmannElement,
                   grid: np.ndarray | None = None, truncate_ge2: bool = False,
                   steps: int = 400, t_end: float | None = None
                   ) -> FlowTrajectory:
    """The trajectory of ``flow_states`` on ``grid`` (default: ``steps``
    uniform steps up to ``t_end`` or the schedule's upper scale): the
    seminorm series of each state, written into its row of ``norms`` as it
    comes.  A series or log-normalization that is not finite raises
    ``ResolutionError`` at its grid time, in place of overflow warnings; the
    first time ``exp(-log_norm)`` falls below 0.1 is noted."""
    if grid is None:
        end = schedule.T if t_end is None else float(t_end)
        grid = np.linspace(0.0, end, steps + 1)
    grid = np.asarray(grid, dtype=float)
    norms = np.empty((len(grid), f0.gens.pairs))
    log_norm = np.empty(len(grid), dtype=np.complex128)
    notes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (state, c) in enumerate(flow_states(schedule, f0, grid,
                                                   truncate_ge2)):
            t = grid[i]
            norms[i] = norm_coefficients(state).coefficients
            if not (np.isfinite(c) and np.isfinite(norms[i]).all()):
                raise ResolutionError(
                    f"the flow diverged: its seminorm series or "
                    f"log-normalization is not finite at t={t:.6g}")
            if not notes and np.exp(-c.real) < _SCALAR_WARN_FLOOR:
                notes.append(
                    f"normalization scalar exp(-{c.real:.3g}) below "
                    f"{_SCALAR_WARN_FLOOR} at t={t:.6g}; conditioning degrades")
            log_norm[i] = c
    norms.setflags(write=False)
    return FlowTrajectory(grid, norms, log_norm, truncated=truncate_ge2,
                          notes=notes)
