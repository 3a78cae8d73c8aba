"""Continuous scale decompositions of a covariance, with quadrature access.

A schedule is built from the scale derivative ``cdot(tau)`` of a symmetric
covariance kernel over ``[0, T]`` and from two slice integrals that whoever
builds the kernel supplies: the kernel integral ``c_between(s, t)`` of
``cdot`` and the Gram parameter ``sigma_between(s, t)``, the integral of a
rate dominating ``4 max_i cdot(tau)_ii`` (``from_cdot`` supplies both by
Simpson quadrature).  The rate matrix ``Adot(tau)`` is the block embedding
of ``cdot(tau)``; the schedule serves the kernel (``ScaleSchedule.cdot``),
not the embedding, and every slice covariance is the block embedding of
``c_between``.  The schedule integrates only the rate it derives itself,
the norm of ``Adot`` behind the rescaled time, in one cumulative table
built on ``[0, T]`` on first use and certified by doubling at every even
node; a query adds one Simpson panel from the last node below it.  Simpson
runs on a uniform grid, doubled until two successive values agree to a
relative tolerance.  Queries take a scale or an array of scales, and every
grid of a table or of a query is one array evaluation of its rate.

A kernel read at an array of scales need not be bitwise its reads one
scale at a time: a stacked matrix product may round otherwise than the
product of one matrix.  The psi4 desk kernel does, by up to 4.3e-16 of its
largest entry (2.3e-15 of an entry) on the flow's 400-step grids at 2 to 6
sites; which bits move depends on how many scales are read together.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ResolutionError
from .gaussian import AntisymmetricCovariance

DEFAULT_PANELS = 512
DEFAULT_RTOL = 1e-10
_MAX_DOUBLINGS = 10


def _simpson_values(vals: np.ndarray, h: float):
    """Composite Simpson combination along axis 0 (odd node count)."""
    weights = np.ones(vals.shape[0])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return np.tensordot(weights, vals, axes=(0, 0)) * (h / 3.0)


def _sampler(fn: Callable, vectorized: bool) -> Callable:
    """``fn`` evaluated at a 1-D array of scales, stacked along axis 0."""
    if vectorized:
        return lambda nodes: np.asarray(fn(nodes), dtype=np.complex128)
    return lambda nodes: np.asarray([fn(float(x)) for x in nodes],
                                    dtype=np.complex128)


def _settled(new: np.ndarray, old: np.ndarray, rtol: float) -> bool:
    """The doubling rule: the estimate moved by at most ``rtol`` times its
    largest entry."""
    scale = max(float(np.max(np.abs(new))), 1e-300)
    return float(np.max(np.abs(new - old))) <= rtol * scale


def _settled_entrywise(new: np.ndarray, old: np.ndarray, rtol: float) -> bool:
    """The doubling rule on every entry of a cumulative vector, compared on
    the nodes of the coarser grid (every other entry of ``new``)."""
    new = new[::2]
    return bool(np.all(np.abs(new - old)
                       <= rtol * np.maximum(np.abs(new), 1e-300)))


def _refine_by_doubling(evaluate: Callable, a: float, b: float, panels: int,
                        rtol: float, combine: Callable, settled: Callable):
    """Sample [a, b] on a uniform grid, doubling it until converged.

    Starts from ``panels`` (at least 2, rounded up to even) and keeps every
    sample at each doubling.  ``combine(vals, h)`` turns the node values into
    an estimate; the loop stops once ``settled(new, previous, rtol)``.
    Returns the estimate, the nodes and the node values of the final grid.
    """
    n = max(int(panels), 2)
    n += n % 2
    nodes = np.linspace(a, b, n + 1)
    vals = evaluate(nodes)
    est = combine(vals, (b - a) / n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        nodes = np.linspace(a, b, n + 1)
        merged = np.empty((n + 1,) + vals.shape[1:], dtype=np.complex128)
        merged[0::2] = vals
        merged[1::2] = evaluate(nodes[1::2])
        vals = merged
        refined = combine(vals, (b - a) / n)
        if settled(refined, est, rtol):
            return refined, nodes, vals
        est = refined
    raise ResolutionError(
        f"Simpson refinement did not converge to rtol={rtol} on [{a}, {b}]")


def simpson_refine(fn: Callable, a: float, b: float, panels: int = DEFAULT_PANELS,
                   rtol: float = DEFAULT_RTOL, vectorized: bool = False):
    """Composite Simpson on [a, b], doubling the grid until convergence.

    ``fn`` maps a scale to a scalar or array; with ``vectorized=True`` it
    must accept a 1-D array of scales and return values stacked along the
    first axis.
    """
    if b < a:
        raise ValueError(f"integration range reversed: [{a}, {b}]")
    evaluate = _sampler(fn, vectorized)
    if b == a:
        out = np.zeros_like(evaluate(np.asarray([a]))[0])
        return out if out.ndim else _as_plain_scalar(out)
    refined, _, _ = _refine_by_doubling(evaluate, a, b, panels, rtol,
                                        _simpson_values, _settled)
    return refined if refined.ndim else _as_plain_scalar(refined)


def _cumulative_simpson(vals: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson integrals from the first node to every even node."""
    pairs = (vals[0:-2:2] + 4.0 * vals[1::2] + vals[2::2]) * (h / 3.0)
    return np.concatenate((np.zeros(1, dtype=pairs.dtype), np.cumsum(pairs)))


def _check_scales(x, T: float) -> np.ndarray:
    """``x`` as a flat float array; ``ValueError`` naming the first scale
    outside ``[0, T]``, NaN included."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    outside = ~((flat >= 0.0) & (flat <= T * (1 + 1e-12)))
    if outside.any():
        raise ValueError(f"scale {flat[np.argmax(outside)]} outside [0, {T}]")
    return flat


class _CumulativeTable:
    """Certified cumulative Simpson integral of a scalar rate on [0, T].

    The table is built on its first query and holds the integral from 0 to
    every even node of the first doubled grid on which the doubling rule
    holds at every even node of the previous one.  ``fn`` maps a 1-D array
    of scales to the rates there, and a ``ValueError`` naming the rate
    ``name`` says when it does not.  A query ``x``, a scale or an array of
    scales, adds to the value at the last even node ``x_k <= x`` one
    Simpson panel over ``[x_k, x]``: one ``searchsorted`` places every
    query, and the midpoints and ends of all queries off a node are
    evaluated in one call.  A node is read exactly.
    """

    def __init__(self, fn: Callable, T: float, name: str):
        self.T = T
        self._fn = fn
        self._name = name
        self.nodes = None

    def _build(self) -> None:
        cum, nodes, vals = _refine_by_doubling(
            self._evaluate, 0.0, self.T, DEFAULT_PANELS, DEFAULT_RTOL,
            _cumulative_simpson, _settled_entrywise)
        self.nodes = nodes[::2]
        self.cum = np.real(cum)
        self.vals = np.real(vals[::2])

    def _evaluate(self, nodes: np.ndarray) -> np.ndarray:
        vals = np.asarray(self._fn(nodes), dtype=np.complex128)
        if vals.shape != nodes.shape:
            raise ValueError(
                f"the schedule's {self._name} must map a 1-D array of scales "
                f"to values stacked along axis 0; {len(nodes)} scales gave "
                f"a rate of shape {vals.shape}")
        return vals

    def at(self, x):
        """Integral from 0 to ``x``: a ``float`` for a scale, an array of the
        same shape for an array; ``ValueError`` if any scale lies outside
        ``[0, T]``."""
        xs = np.asarray(x, dtype=float)
        flat = _check_scales(xs, self.T)
        if self.nodes is None:
            self._build()
        k = np.searchsorted(self.nodes, flat, side="right") - 1
        x0 = self.nodes[k]
        out = self.cum[k]
        off = flat != x0
        if off.any():
            xo, x0o, ko = flat[off], x0[off], k[off]
            mid, end = np.real(self._evaluate(
                np.concatenate((0.5 * (x0o + xo), xo)))).reshape(2, -1)
            out[off] = self.cum[ko] + (xo - x0o) / 6.0 * (
                self.vals[ko] + 4.0 * mid + end)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    def between(self, s, t):
        """Integral over ``[s, t]``, ``at(t) - at(s)``, broadcast over
        arrays of scales."""
        return self.at(t) - self.at(s)


def _as_plain_scalar(x: np.ndarray):
    z = complex(x)
    return z.real if abs(z.imag) <= 1e-14 * max(1.0, abs(z)) else z


class ScaleSchedule:
    """A covariance decomposition generated by one kernel family on [0, T].

    ``cdot(tau)`` is the symmetric positive-semidefinite ``pairs x pairs``
    scale derivative of the covariance kernel; for a 1-D array of scales it
    returns the kernels stacked along axis 0, and the schedule serves it as
    ``cdot``.  The rate matrix is its block embedding ``[[0, C], [-C,
    0]]``.  The builder supplies the slice integrals for ``0 <= s <= t <=
    T``: ``c_between(s, t)`` is the integral of ``cdot`` over ``[s, t]``,
    exactly zero when ``s == t``, and the split of every slice is
    ``(c_between(s, t), 0)``; ``sigma_between(s, t)``, broadcast over
    arrays of scales, is the Gram parameter ``sigma^2``, the integral of a
    rate dominating ``4 max_i cdot_ii``.  Only the rescaled time is
    integrated here.  ``T`` must be finite.
    """

    def __init__(self, cdot: Callable, T: float, pairs: int,
                 c_between: Callable, sigma_between: Callable):
        if pairs < 1:
            raise ValueError("a schedule needs at least one generator pair")
        if not 0 <= T < np.inf:
            raise ValueError(f"upper scale T must be finite and nonnegative, "
                             f"got {T}")
        self.dim = 2 * pairs
        self.T = float(T)
        self._cdot = cdot
        self._c_between = c_between
        self._sigma_between = sigma_between
        # late-bound, so the table calls adot_norm_at as the class has it
        self._tau_table = _CumulativeTable(
            lambda x: self.adot_norm_at(x), self.T, "cdot")

    @classmethod
    def from_cdot(cls, cdot: Callable, T: float, pairs: int,
                  gram_rate: Callable) -> "ScaleSchedule":
        """A schedule whose kernel is known by its derivative alone: every
        slice is ``simpson_refine`` of ``cdot`` over ``[s, t]``, and
        ``sigma^2`` is read from a cumulative table of ``gram_rate``, which
        maps a 1-D array of scales to rates dominating ``4 max_i
        cdot_ii``."""
        return cls(cdot, T, pairs, lambda s, t: simpson_refine(cdot, s, t),
                   _CumulativeTable(gram_rate, float(T), "gram_rate").between)

    # -- pointwise access ----------------------------------------------------

    def cdot(self, tau):
        """The kernel's scale derivative ``C`` at a scale, or the kernels
        stacked along axis 0 at a 1-D array of scales; the rate matrix is
        its block embedding ``[[0, C], [-C, 0]]``.  A stacked kernel may
        differ from the kernel at its scale alone in the last bits (the
        desk's by up to 4.3e-16 of its largest entry)."""
        return np.asarray(self._cdot(tau))

    def adot_norm_at(self, tau):
        """Max-row-sum norm of the rate matrix at a scale or at a 1-D array
        of scales: ``max_i sum_j |C_ij|`` over the kernel or the stacked
        kernels, which is the norm of the block embedding."""
        c = self.cdot(tau)
        return np.max(np.sum(np.abs(c), axis=-1), axis=-1)

    # -- integrals -----------------------------------------------------------

    def _check_slice(self, s, t) -> None:
        """``ValueError`` unless ``0 <= s <= t <= T``, elementwise for
        arrays of scales; NaN is refused."""
        _check_scales(s, self.T)
        _check_scales(t, self.T)
        if np.any(np.asarray(s) > np.asarray(t)):
            raise ValueError(f"need s <= t, got s={s}, t={t}")

    def sigma_squared(self, s, t):
        """Gram parameter between scales ``s <= t``, from the builder's
        ``sigma_between``; either may be an array of scales (broadcast
        elementwise)."""
        self._check_slice(s, t)
        return self._sigma_between(s, t)

    def tau(self, s):
        """Rescaled time: integral of the rate norm from 0 to ``s``, a scale
        or an array of scales."""
        return self._tau_table.at(s)

    def covariance(self, s: float, t: float) -> AntisymmetricCovariance:
        """Slice covariance over [s, t]: the block embedding of the kernel
        integral ``C = c_between(s, t)``, with the split ``(C, 0)``;
        ``ValueError`` if a scale lies outside ``[0, T]`` or ``s > t``."""
        self._check_slice(s, t)
        c = np.real(np.asarray(self._c_between(s, t)))
        return AntisymmetricCovariance(AntisymmetricCovariance._block(c),
                                       c_plus=c, c_minus=np.zeros_like(c))
