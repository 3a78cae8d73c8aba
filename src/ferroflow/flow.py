"""The renormalization-group map and the flow equation of the effective action.

The exact path convolves ``exp(-f)`` with the Gaussian of the accumulated
covariance and takes minus the logarithm.  The differential path integrates
the nonlinear flow of the normalized effective action

    dF/dt = (1/2) Delta_rate F + (1/2) <grad F, rate grad F> - (scalar part)

with classic fixed-step RK4.  Every rate of a ``ScaleSchedule`` is the
block embedding ``[[0, C], [-C, 0]]`` of a real kernel ``C``, so its
Laplacian pairs a psi only with a psibar: the flow keeps the charge ``#psi -
#psibar`` of every monomial and keeps real data real, as it keeps the
parity.  RK4 carries a real bare action whose charged coefficients are
all exactly zero, such as the quartic ``psibar psi psibar psi``, on the
neutral masks in float64 (70 of the 128 even masks at 8 generators), and
any other even one on the even masks in complex128; ``_carrier_flow``
states the choice and its right-hand sides.  The sign of the quadratic term
is tied to the Laplacian convention of :mod:`ferroflow.gaussian`; the pair
is pinned by cross-validating the two paths against each other, which the
test suite does continuously.
"""

from __future__ import annotations

import functools
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
    _rank,
    _require_even,
    _wedge_blocks,
    exp_of,
    log_of,
)
from .errors import DimensionMismatchError, LogDomainError, ParityError, ResolutionError
from .gaussian import (
    AntisymmetricCovariance,
    _laplacian_coeffs,
    _laplacian_table,
    _laplacian_weights,
)
from .norms import _norm_row
from .schedule import ScaleSchedule

# Sign of the quadratic gradient pairing relative to sum_ij rate_ij d_iF ^ d_jF;
# pinned by the exact-path cross-validation tests.
_BILINEAR_SIGN = 1.0

_SCALAR_WARN_FLOOR = 0.1

# RK4 steps whose rates are read in one call of the kernel.  The block's
# weights are held while it runs, 2 * _BLOCK_STEPS rows of them, so its
# length is bounded by memory; on the dense path they are half-Laplacians of
# S x S float64, 2 * _BLOCK_STEPS * 8 * S**2 bytes.  Measured in
# BENCH_block-read.json
_BLOCK_STEPS = 8

# Most generators whose neutral flow runs on dense S x S operators; at 12
# generators (S = 924) one block of them would hold 109 MB.  Measured in
# BENCH_dense-carrier.json
_DENSE_LEAF = 8


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
    neutral)``; returns (dF, dlog_norm), dF over ``S`` with the entries that
    ``low`` marks, if given, zeroed.

    The bilinear term takes two Laplacians and the products ``F ^ F`` and
    ``F ^ Delta F``.  On the neutral masks these walk the chunks of
    ``_pair_table(n_gen, 0, True)`` as they are: its pairs are ranks in
    ``S`` and its unions are ``S`` in rank order, so the union sums,
    concatenated, are the product over ``S``; the sums leave out the terms
    that are exactly zero there, and float64 adds the rest in its own
    order.  On the even masks they go through ``_wedge_blocks`` on full
    vectors, and every sum runs over the same terms in the same order as
    the public ``wedge`` and ``laplacian`` on the full coefficient vector,
    so dF is bitwise the one of that product rule."""
    # product rule for even F, with Delta = laplacian(rate, .):
    #   sum_ij rate_ij d_iF ^ d_jF = -(1/2) [Delta(F ^ F) - 2 F ^ Delta F]
    lap = _laplacian_coeffs(weights, y, n_gen, True, neutral)
    if neutral:
        square, cross = [], []
        for j, k, sgn, _, seg in _pair_table(n_gen, 0, True):
            # F ^ F and F ^ Delta F share the left factor F[J] * sgn
            left = y.take(j)
            left *= sgn
            terms = y.take(k)
            square.append(np.add.reduceat(
                np.multiply(left, terms, out=terms), seg))
            terms = lap.take(k)
            cross.append(np.add.reduceat(
                np.multiply(left, terms, out=terms), seg))
        square, cross = np.concatenate(square), np.concatenate(cross)
    else:
        index = _index_set(n_gen, True)
        full = np.zeros(1 << n_gen, dtype=np.complex128)
        full[index] = y
        full_lap = np.zeros(1 << n_gen, dtype=np.complex128)
        full_lap[index] = lap
        square = _wedge_blocks(full, full, n_gen, _EVEN, _EVEN)[index]
        cross = _wedge_blocks(full, full_lap, n_gen, _EVEN, _EVEN)[index]
    lap_square = _laplacian_coeffs(weights, square, n_gen, True, neutral)
    bil = -0.5 * (lap_square - 2.0 * cross)
    dlog = 0.5 * lap[0]
    out = 0.5 * lap + (0.5 * _BILINEAR_SIGN) * bil
    out[0] = 0.0  # normalization: the scalar part stays exactly zero
    if low is not None:
        out[low] = 0.0
    return out, complex(dlog)


def _dense_rhs(half: np.ndarray, y: np.ndarray, table: tuple[np.ndarray, ...],
               low: np.ndarray | None) -> tuple[np.ndarray, complex]:
    """``_flow_rhs`` on the neutral carrier from dense ``S x S`` operators:
    ``half`` is the half-Laplacian ``H`` of the rate, ``y`` the coefficients
    over the ``S`` neutral masks and ``table = _dense_table(n_gen)``.  With
    ``M`` the matrix of ``F ^ .``, filled by one scatter of ``y[J] * sgn``,

        h = H y,  dF = h + sign (M h - (1/2) H (M y)),  dlog = h[0],

    the product rule of ``_flow_rhs`` with ``Delta = 2 H``.  The sums run
    over the same terms as there, the exact zeros of ``H`` and ``M`` added
    in, in the order of the matrix products."""
    _, j, sgn, product = table
    size = y.size
    m = np.zeros(size * size)
    m[product] = y[j] * sgn
    m = m.reshape(size, size)
    # ndarray.dot: the matmul ufunc costs more than the product at S = 70
    h = half.dot(y)
    out = h + _BILINEAR_SIGN * (m.dot(h) - 0.5 * half.dot(m.dot(y)))
    out[0] = 0.0  # normalization: the scalar part stays exactly zero
    if low is not None:
        out[low] = 0.0
    return out, complex(h[0])


@functools.cache
def _dense_table(n_gen: int) -> tuple[np.ndarray, ...]:
    """Flat positions of the dense operators of ``_dense_rhs`` on the ``S``
    neutral masks of ``n_gen`` generators, as ``(laplacian, j, sgn,
    product)``: entry ``e`` of ``_laplacian_table(n_gen, True, True)`` sits
    at ``laplacian[e] = target * S + source`` of the Laplacian, and pair
    ``p`` of ``_pair_table(n_gen, 0, True)`` puts ``y[j[p]] * sgn[p]`` at
    ``product[p] = union * S + k[p]`` of the matrix of ``F ^ .``.  Both
    position sets are unique: a target and a source fix the generator pair
    that ``d_i d_j`` removes, and a union and ``K`` fix ``J``."""
    size = _index_set(n_gen, True, True).size
    _, _, src, _, targets, starts = _laplacian_table(n_gen, True, True)
    laplacian = np.repeat(targets, np.diff(starts, append=src.size)) * size + src
    chunks = _pair_table(n_gen, 0, True)
    rank = _rank(n_gen, True, True)
    union = np.concatenate([np.repeat(rank[unions], np.diff(seg, append=j.size))
                            for j, _, _, unions, seg in chunks])
    j, k, sgn = (np.concatenate([chunk[i] for chunk in chunks])
                 for i in range(3))
    return laplacian, j, sgn, union * size + k


def _half_laplacians(weights: np.ndarray, n_gen: int) -> np.ndarray:
    """The dense half-Laplacians ``H`` of ``_dense_rhs`` on the ``S``
    neutral masks of ``n_gen`` generators, for rows of weights
    ``_laplacian_weights(c, n_gen, True, True)``: one scatter of ``weights
    / 2`` to the positions ``_dense_table(n_gen)[0]``, shape ``(rows, S,
    S)``."""
    size = _index_set(n_gen, True, True).size
    half = np.zeros((len(weights), size * size))
    half[:, _dense_table(n_gen)[0]] = 0.5 * weights
    return half.reshape(len(weights), size, size)


def _carrier_flow(schedule: ScaleSchedule, f0: GrassmannElement,
                  grid: np.ndarray, truncate_ge2: bool
                  ) -> tuple[bool, Iterator[tuple[np.ndarray, complex]]]:
    """RK4 of the flow equation from the bare action ``f0`` on the step
    boundaries ``grid``, on the smaller carrier that holds ``f0`` exactly:
    returns ``(neutral, states)``, where ``states`` yields ``(y,
    log_norm)`` at each grid time, ``f0`` with a zero scalar part first,
    ``y`` a fresh vector over ``_index_set(n_gen, True, neutral)``.  With
    ``truncate_ge2`` the right-hand side is projected onto degree >= 4,
    which removes the two-point insertions while keeping the normalization
    subtraction.

    The carrier is found once from exact zeros, not from a tolerance: up to
    ``_WEDGE_LEAF`` generators, the neutral coefficients in float64 when
    every charged coefficient and every imaginary part of ``f0`` is exactly
    zero, and the even coefficients in complex128 otherwise.  Up to
    ``_DENSE_LEAF`` generators the neutral carrier's right-hand side is
    ``_dense_rhs``, whose sums add the exact zeros of its operators in and
    run in the order of the matrix products, so its states differ from
    those of ``_flow_rhs`` in the last bits; above it, and on the even
    carrier, it is ``_flow_rhs``.

    Refused at the call, in this order, each with a ``ValueError`` unless
    named: a grid with a NaN or infinite time; an ``f0`` whose odd
    coefficients are not all exactly zero (``ParityError``); an ``f0``
    whose scalar part is not zero within ``_PARITY_ATOL`` of its largest
    coefficient; an empty grid; a grid that does not start at 0, is not
    strictly increasing, or ends above the schedule's upper scale.

    The rate is read a block of ``_BLOCK_STEPS`` steps at a time: one call
    of ``schedule.cdot`` on the 1-D array of the block's midpoints and
    ends, in time order, and one stacked ``_laplacian_weights`` of its
    kernels; the rate at a step's start is the previous step's end, and
    the start of the grid is read alone, as an array of one scale, before
    the first state is yielded.  Every node and midpoint is read once, and
    blocks start at every ``_BLOCK_STEPS``-th step of the grid, so a rerun
    reads the same blocks.  A block holds ``2 * _BLOCK_STEPS`` rows of
    weights, one per entry of the carrier's Laplacian table, or on the
    dense path as many half-Laplacians, ``2 * _BLOCK_STEPS * 8 * S**2``
    bytes, and only the last row of the previous block.  A stacked kernel
    may differ from the kernel at one scale in the last bits (see
    :mod:`ferroflow.schedule`), and the states with it.

    A kernel that does not depend on the scale, one ``(pairs, pairs)``
    matrix for the array, holds over the block; any other shape than
    ``(scales, pairs, pairs)`` for the pairs of ``f0`` raises
    ``DimensionMismatchError`` naming it.  On the neutral carrier a kernel
    with an imaginary part would move the state off it, and is refused
    with a ``ValueError`` naming the first such scale of its block, before
    any state of the block is yielded."""
    grid = np.asarray(grid, dtype=float)
    if not np.isfinite(grid).all():
        raise ValueError("trajectory grid must be finite")
    if not _is_exactly_even(f0.coeffs):
        raise ParityError("the flow requires an exactly even element")
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
    n_gen = f0.gens.count
    pairs = f0.gens.pairs
    y0 = f0.coeffs.copy()
    y0[0] = 0.0
    # found from exact zeros; RK4 keeps exact zeros exactly zero, so one
    # inspection holds for every state
    neutral = n_gen <= _WEDGE_LEAF and _is_exactly_neutral_real(y0)
    index = _index_set(n_gen, True, neutral)
    low = _popcount_table(n_gen)[index] < 4 if truncate_ge2 else None

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

    if neutral and n_gen <= _DENSE_LEAF:
        table = _dense_table(n_gen)

        def rates(ts):
            return _half_laplacians(rate_weights(ts), n_gen)

        def rhs(half, y):
            return _dense_rhs(half, y, table, low)
    else:
        rates = rate_weights

        def rhs(weights, y):
            return _flow_rhs(weights, y, n_gen, low, neutral)

    def states(y):
        c = 0.0 + 0.0j
        r_end = rates(grid[:1])[0]
        yield y, c
        for first in range(0, len(grid) - 1, _BLOCK_STEPS):
            ends = grid[first + 1:first + 1 + _BLOCK_STEPS]
            starts = grid[first:first + ends.size]
            steps = ends - starts
            nodes = np.empty(2 * ends.size)
            nodes[0::2] = starts + 0.5 * steps
            nodes[1::2] = ends
            r = rates(nodes)  # midpoint and end of step i: rows 2i, 2i+1
            for i, h in enumerate(steps):
                k1, c1 = rhs(r_end, y)
                k2, c2 = rhs(r[2 * i], y + 0.5 * h * k1)
                k3, c3 = rhs(r[2 * i], y + 0.5 * h * k2)
                r_end = r[2 * i + 1]
                k4, c4 = rhs(r_end, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                y[0] = 0.0
                c = c + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                yield y, c
            # the next block is read with only this block's last rate held
            r_end = r_end.copy()
            del r

    return neutral, states(y0[index].real if neutral else y0[index])


def flow_integrate(schedule: ScaleSchedule, f0: GrassmannElement,
                   truncate_ge2: bool = False, steps: int = 400,
                   t_end: float | None = None) -> FlowTrajectory:
    """The trajectory of the flow equation of the normalized effective
    action from the bare action ``f0``: RK4 on ``steps`` uniform steps up to
    ``t_end`` (default: the schedule's upper scale) by ``_carrier_flow``,
    whose docstring states the carriers, the block reads of the rate and
    the refusals.  Each state's seminorm series, exactly even, is read off
    its carrier vector into its row of ``norms`` as it comes, bitwise the
    row of the full state; no full state is built.

    A negative ``steps`` or a NaN or infinite ``t_end`` raises
    ``ValueError`` before the refusals of ``_carrier_flow``; ``steps = 0``
    gives the one-point trajectory at 0.  A series or log-normalization
    that is not finite raises ``ResolutionError`` at its grid time, in
    place of overflow warnings; the first time ``exp(-log_norm)`` falls
    below 0.1 is noted."""
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    end = schedule.T if t_end is None else float(t_end)
    if not np.isfinite(end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    grid = np.linspace(0.0, end, steps + 1)
    n_gen = f0.gens.count
    norms = np.empty((len(grid), f0.gens.pairs))
    log_norm = np.empty(len(grid), dtype=np.complex128)
    notes = []
    neutral, states = _carrier_flow(schedule, f0, grid, truncate_ge2)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (y, c) in enumerate(states):
            t = grid[i]
            norms[i] = _norm_row(y, n_gen, True, neutral)
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
