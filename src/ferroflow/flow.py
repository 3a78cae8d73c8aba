"""The renormalization-group map and the flow equation of the effective action.

The exact path convolves ``exp(-f)`` with the Gaussian of the accumulated
covariance and takes minus the logarithm.  The differential path integrates
the nonlinear flow of the normalized effective action

    dF/dt = (1/2) Delta_rate F + (1/2) <grad F, rate grad F> - (scalar part)

with classic fixed-step RK4.  Every rate of a ``ScaleSchedule`` is the
block embedding ``[[0, C], [-C, 0]]`` of a real kernel ``C``, so its
Laplacian pairs a psi only with a psibar: the flow keeps the charge ``#psi -
#psibar`` of every monomial and keeps real data real, as it keeps the
parity.  The bare action must be even, every odd coefficient exactly zero,
and the state is its coefficient vector over the smaller of two carriers
that holds it exactly, chosen once from its exact zeros: a real action
whose charged coefficients are all exactly zero, such as the quartic
``psibar psi psibar psi``, is carried on the neutral masks in float64 (70
of the 128 even masks at 8 generators), any other on the even masks in
complex128.  Each rate is read as its kernel ``C``, a block of steps at a
time.  The sign of the quadratic term is tied to the Laplacian convention
of :mod:`ferroflow.gaussian`; the pair is pinned by cross-validating the
two paths against each other, which the test suite does continuously.

``flow_states`` yields the states one grid time at a time; a trajectory
keeps only their seminorm series, in one array: all that checks read.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _EVEN,
    _PARITY_ATOL,
    _WEDGE_LEAF,
    GrassmannElement,
    _index_set,
    _is_exactly_even,
    _is_exactly_neutral_real,
    _pair_table,
    _popcount_table,
    _require_even,
    _wedge_blocks,
    exp_of,
    log_of,
)
from .errors import DimensionMismatchError, LogDomainError, ParityError, ResolutionError
from .gaussian import AntisymmetricCovariance, _laplacian_coeffs, _laplacian_weights
from .norms import _norm_row
from .schedule import ScaleSchedule

# Sign of the quadratic gradient pairing relative to sum_ij rate_ij d_iF ^ d_jF;
# pinned by the exact-path cross-validation tests.
_BILINEAR_SIGN = 1.0

_SCALAR_WARN_FLOOR = 0.1

# RK4 steps whose rates are read in one call of the kernel.  The block's
# weights are held while it runs, so its length is bounded by memory: at 5
# sites a block of 8 steps about doubles the flow's peak traced memory, and
# a block of 16 steps triples it
_BLOCK_STEPS = 8


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


def _flow_rhs(weights: np.ndarray, y: np.ndarray, n_gen: int,
              low: np.ndarray | None, neutral: bool = False
              ) -> tuple[np.ndarray, complex]:
    """Flow right-hand side on the coefficients ``y`` of an even ``F`` over
    the carrier ``S = _index_set(n_gen, True, neutral)``, for a rate with
    Laplacian weights ``weights = _laplacian_weights(rate, n_gen, True,
    neutral)``, the rate read as its kernel on the neutral masks; returns
    (dF, dlog_norm), dF over ``S`` with the entries that ``low`` marks, if
    given, zeroed.

    The bilinear term takes two Laplacians and the products ``F ^ F`` and
    ``F ^ Delta F``.  Up to ``_WEDGE_LEAF`` generators these walk the
    chunks of the carrier's ``_pair_table(n_gen, 0, neutral)`` as they are:
    its pairs are ranks in ``S`` and its unions are ``S`` in rank order, so
    the union sums, concatenated, are the product over ``S``; above it they
    go through ``_wedge_blocks`` on full vectors.  On the even masks every
    sum runs over the same terms in the same order as the public ``wedge``
    and ``laplacian`` on the full coefficient vector, so dF is bitwise the
    one of that product rule; on the neutral masks the sums leave out the
    terms that are exactly zero there, and float64 adds the rest in its own
    order."""
    # product rule for even F, with Delta = laplacian(rate, .):
    #   sum_ij rate_ij d_iF ^ d_jF = -(1/2) [Delta(F ^ F) - 2 F ^ Delta F]
    lap = _laplacian_coeffs(weights, y, n_gen, True, neutral)
    if n_gen > _WEDGE_LEAF:
        index = _index_set(n_gen, True)
        full = np.zeros(1 << n_gen, dtype=np.complex128)
        full[index] = y
        full_lap = np.zeros(1 << n_gen, dtype=np.complex128)
        full_lap[index] = lap
        square = _wedge_blocks(full, full, n_gen, _EVEN, _EVEN)[index]
        cross = _wedge_blocks(full, full_lap, n_gen, _EVEN, _EVEN)[index]
    else:
        chunks = _pair_table(n_gen, 0, True) if neutral else _pair_table(n_gen, 0)
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
    lap_square = _laplacian_coeffs(weights, square, n_gen, True, neutral)
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
    subtraction.  An ``f0`` whose odd coefficients are not all exactly zero
    is refused with ``ParityError``.  RK4 runs on the smaller carrier that
    holds ``f0`` exactly, found once from exact zeros, not from a
    tolerance: up to ``_WEDGE_LEAF`` generators, the neutral coefficients
    in float64 when every charged coefficient and every imaginary part of
    ``f0`` is exactly zero, and the even coefficients in complex128
    otherwise.  The yielded states are full elements on either carrier.

    The rate is read a block of ``_BLOCK_STEPS`` steps at a time: one call
    of ``schedule.cdot`` on the 1-D array of the block's midpoints and
    ends, in time order, and one stacked ``_laplacian_weights`` of its
    kernels; the rate at a step's start is the previous step's end, and
    the start of the grid is read alone, as an array of one scale.  Every
    node and midpoint is read once.  A block holds ``2 * _BLOCK_STEPS``
    rows of weights, one per entry of the carrier's Laplacian table, and
    only the last row of the previous block: at 6 sites they raised the
    peak traced memory of a 40-step flow from 0.8 to 1.8 MB on the neutral
    carrier and from 2.8 to 10.4 MB on the even one.  Blocks start at every
    ``_BLOCK_STEPS``-th step of the grid, so a rerun reads the same blocks.
    A stacked kernel may differ from the kernel at one scale in the last
    bits (see :mod:`ferroflow.schedule`), and the states with it.

    A kernel that does not depend on the scale, one ``(pairs, pairs)``
    matrix for the array, holds over the block; any other shape than
    ``(scales, pairs, pairs)`` for the pairs of ``f0`` raises
    ``DimensionMismatchError`` naming it.  On the neutral carrier a kernel
    with an imaginary part would move the state off it, and is refused
    with a ``ValueError`` naming the first such scale of its block, before
    any state of the block is yielded.  A grid with a NaN or infinite time
    is refused before anything else, and an empty grid next.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all():
        raise ValueError("trajectory grid must be finite")
    if not _is_exactly_even(f0.coeffs):
        raise ParityError("flow_states requires an exactly even element")
    if abs(f0.scalar_part) > _PARITY_ATOL * max(1.0, f0.max_abs()):
        raise ValueError("bare action must be normalized (zero scalar part)")
    if not grid.size:
        raise ValueError("trajectory grid must not be empty")
    if grid[0] != 0.0:
        raise ValueError("trajectory grid must start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("trajectory grid must be strictly increasing")
    if grid[-1] > schedule.T * (1 + 1e-12):
        raise ValueError("trajectory grid exceeds the schedule's upper scale")
    gens = f0.gens
    n_gen = gens.count
    pairs = gens.pairs
    y0 = f0.coeffs.copy()
    y0[0] = 0.0
    # found from exact zeros; RK4 keeps exact zeros exactly zero, so one
    # inspection holds for every state
    neutral = n_gen <= _WEDGE_LEAF and _is_exactly_neutral_real(y0)
    index = _index_set(n_gen, True, neutral)
    low = _popcount_table(n_gen)[index] < 4 if truncate_ge2 else None
    y = y0[index].real if neutral else y0[index]

    def rate_weights(ts):
        """Laplacian weights of the rate at each scale of ``ts``, a row
        each."""
        c = schedule.cdot(ts)
        if c.shape == (pairs, pairs):
            c = np.broadcast_to(c, (ts.size, pairs, pairs))
        elif c.shape != (ts.size, pairs, pairs):
            raise DimensionMismatchError(
                f"the schedule's kernel has shape {c.shape} at {ts.size} "
                f"scales; the flow on {n_gen} generators needs ({ts.size}, "
                f"{pairs}, {pairs}), or ({pairs}, {pairs}) for a kernel "
                f"that does not depend on the scale")
        if not neutral:
            return _laplacian_weights(AntisymmetricCovariance._block(c),
                                      n_gen, True)
        imaginary = np.imag(c).any(axis=(1, 2))
        if imaginary.any():
            raise ValueError(
                f"the rate at scale {ts[np.argmax(imaginary)]:.6g} is not "
                f"the block embedding of a real kernel, which the flow of a "
                f"neutral real action needs")
        return _laplacian_weights(np.real(c), n_gen, True, True)

    c = 0.0 + 0.0j
    w_end = rate_weights(grid[:1])[0]
    yield GrassmannElement._adopt(gens, y0), c
    for first in range(0, len(grid) - 1, _BLOCK_STEPS):
        ends = grid[first + 1:first + 1 + _BLOCK_STEPS]
        starts = grid[first:first + ends.size]
        steps = ends - starts
        nodes = np.empty(2 * ends.size)
        nodes[0::2] = starts + 0.5 * steps
        nodes[1::2] = ends
        w = rate_weights(nodes)  # midpoint and end of step i: rows 2i, 2i+1
        for i, h in enumerate(steps):
            k1, c1 = _flow_rhs(w_end, y, n_gen, low, neutral)
            k2, c2 = _flow_rhs(w[2 * i], y + 0.5 * h * k1, n_gen, low, neutral)
            k3, c3 = _flow_rhs(w[2 * i], y + 0.5 * h * k2, n_gen, low, neutral)
            w_end = w[2 * i + 1]
            k4, c4 = _flow_rhs(w_end, y + h * k3, n_gen, low, neutral)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0] = 0.0
            c = c + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            state = np.zeros(1 << n_gen, dtype=np.complex128)
            state[index] = y
            yield GrassmannElement._adopt(gens, state), c
        # the next block is read with only this block's last rate held
        w_end = w_end.copy()
        del w


def flow_integrate(schedule: ScaleSchedule, f0: GrassmannElement,
                   truncate_ge2: bool = False, steps: int = 400,
                   t_end: float | None = None) -> FlowTrajectory:
    """The trajectory of ``flow_states`` on ``steps`` uniform steps up to
    ``t_end`` (default: the schedule's upper scale): the seminorm series of
    each state, exactly even, from one pass over its coefficients into its
    row of ``norms`` as it comes.  A negative ``steps`` or a NaN or infinite
    ``t_end`` raises ``ValueError``; ``steps = 0`` gives the one-point
    trajectory at 0.  A series or log-normalization that is not finite
    raises ``ResolutionError`` at its grid time, in place of overflow
    warnings; the first time ``exp(-log_norm)`` falls below 0.1 is
    noted."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    end = schedule.T if t_end is None else float(t_end)
    if not np.isfinite(end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    grid = np.linspace(0.0, end, steps + 1)
    norms = np.empty((len(grid), f0.gens.pairs))
    log_norm = np.empty(len(grid), dtype=np.complex128)
    notes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (state, c) in enumerate(flow_states(schedule, f0, grid,
                                                   truncate_ge2)):
            t = grid[i]
            norms[i] = _norm_row(state.coeffs, f0.gens.count)
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
