"""Continuous scale decompositions of a covariance, with quadrature access.

A schedule supplies the rate matrix ``Adot(tau)`` of a covariance
decomposition over ``[0, T]`` together with the data needed for Gram bounds.
Integrals are evaluated by composite Simpson quadrature on a uniform grid,
refined by doubling until two successive values agree to a relative
tolerance.  The rescaled time (the integral of the rate norm) and the
integrated Gram bound come from one cumulative table per schedule and kind,
built on ``[0, T]`` on first use and certified by doubling at every even
node; a query adds one Simpson panel from the last node below it.  Queries
take a scale or an array of scales, and every grid of a table or of a query
is one array evaluation of the rate: on a vectorized schedule built from a
kernel ``cdot``, the rate norm of an array of scales is one reduction over
the stacked kernels.  Slice covariances are matrix-valued and integrated
over ``[s, t]`` directly.  Scalar results are cached; evaluation is
deterministic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ResolutionError
from .gaussian import AntisymmetricCovariance
from .norms import matrix_norm_1inf

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


class _CumulativeTable:
    """Certified cumulative Simpson integral of a scalar rate on [0, T].

    The table holds the integral from 0 to every even node of the first
    doubled grid on which the doubling rule holds at every even node of the
    previous one.  ``fn`` maps a 1-D array of scales to the rates there.  A
    query ``x``, a scale or an array of scales, adds to the value at the
    last even node ``x_k <= x`` one Simpson panel over ``[x_k, x]``: one
    ``searchsorted`` places every query, and the midpoints and ends of all
    queries off a node are evaluated in one call.  A node is read exactly.
    """

    def __init__(self, fn: Callable, T: float, panels: int, rtol: float):
        self.T = T
        self._evaluate = _sampler(fn, True)
        cum, nodes, vals = _refine_by_doubling(
            self._evaluate, 0.0, T, panels, rtol, _cumulative_simpson,
            _settled_entrywise)
        self.nodes = nodes[::2]
        self.cum = np.real(cum)
        self.vals = np.real(vals[::2])

    def at(self, x):
        """Integral from 0 to ``x``: a ``float`` for a scale, an array of the
        same shape for an array; ``ValueError`` if any scale lies outside
        ``[0, T]``."""
        xs = np.asarray(x, dtype=float)
        flat = xs.reshape(-1)
        outside = ~((flat >= 0.0) & (flat <= self.T * (1 + 1e-12)))
        if outside.any():
            raise ValueError(
                f"scale {flat[np.argmax(outside)]} outside [0, {self.T}]")
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


def _as_plain_scalar(x: np.ndarray):
    z = complex(x)
    return z.real if abs(z.imag) <= 1e-14 * max(1.0, abs(z)) else z


class ScaleSchedule:
    """A family ``tau -> Adot(tau)`` on ``[0, T]`` with quadrature access.

    Exactly one of ``gram_rate`` (a scalar function dominating
    ``4 max C^{+-}_{ii}(tau)``) or ``cdot_diags`` (the split derivative
    diagonals) must be supplied for the integrated Gram bound.  The rate
    norm defaults to the max-row-sum norm of the actual matrix.  With
    ``vectorized_rates``, the supplied ``gram_rate``, ``adot_norm`` and
    ``cdot`` also accept a 1-D array of scales and stack their values along
    axis 0.
    """

    def __init__(self, dim: int, T: float, adot: Callable[[float], np.ndarray],
                 gram_rate: Callable | None = None,
                 cdot_diags: Callable | None = None,
                 adot_norm: Callable | None = None,
                 cdot: Callable[[float], np.ndarray] | None = None,
                 panels: int = DEFAULT_PANELS, rtol: float = DEFAULT_RTOL,
                 vectorized_rates: bool = False):
        if dim % 2 != 0 or dim < 2:
            raise ValueError("schedule dimension must be a positive even integer")
        if T < 0:
            raise ValueError("upper scale T must be nonnegative")
        if (gram_rate is None) == (cdot_diags is None):
            raise ValueError("supply exactly one of gram_rate or cdot_diags")
        self.dim = dim
        self.T = float(T)
        self._adot = adot
        self._gram_rate = gram_rate
        self._cdot_diags = cdot_diags
        self._adot_norm = adot_norm
        self._cdot = cdot
        self.panels = panels
        self.rtol = rtol
        self._vectorized = bool(vectorized_rates)
        self._cache: dict = {}
        self._tables: dict[str, _CumulativeTable] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cdot(cls, cdot: Callable[[float], np.ndarray], T: float,
                  pairs: int, gram_rate: Callable | None = None,
                  vectorized_rates: bool = False, **kw) -> "ScaleSchedule":
        """Schedule for a positive-semidefinite derivative kernel family.

        ``cdot(tau)`` is the symmetric ``pairs x pairs`` rate; the covariance
        rate is its antisymmetric block embedding and the split of any slice
        is ``(integral of cdot, 0)``.  With ``vectorized_rates``, ``cdot`` of
        an array of scales returns the kernels stacked along axis 0, and the
        rate norm is reduced from that stack.
        """

        def adot(tau: float) -> np.ndarray:
            return AntisymmetricCovariance._block(np.asarray(cdot(tau)))

        if gram_rate is None:
            def diags(tau: float):
                d = np.diag(np.asarray(cdot(tau)))
                return d, np.zeros_like(d)
            return cls(2 * pairs, T, adot, cdot_diags=diags, cdot=cdot,
                       vectorized_rates=vectorized_rates, **kw)
        return cls(2 * pairs, T, adot, gram_rate=gram_rate, cdot=cdot,
                   vectorized_rates=vectorized_rates, **kw)

    @classmethod
    def from_table(cls, times: np.ndarray, matrices: np.ndarray,
                   gram_rate: Callable | None = None,
                   cdot_diags: Callable | None = None, **kw) -> "ScaleSchedule":
        """Piecewise-linear synthetic schedule through sampled rate matrices."""
        times = np.asarray(times, dtype=float)
        matrices = np.asarray(matrices, dtype=float)
        if times.ndim != 1 or len(times) != matrices.shape[0]:
            raise ValueError("times and matrices must align")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")

        def adot(tau: float) -> np.ndarray:
            tau = min(max(tau, times[0]), times[-1])
            i = int(np.searchsorted(times, tau, side="right") - 1)
            i = min(i, len(times) - 2)
            w = (tau - times[i]) / (times[i + 1] - times[i])
            return (1.0 - w) * matrices[i] + w * matrices[i + 1]

        return cls(matrices.shape[1], float(times[-1]), adot,
                   gram_rate=gram_rate, cdot_diags=cdot_diags, **kw)

    # -- pointwise access ----------------------------------------------------

    def adot(self, tau: float) -> np.ndarray:
        return np.asarray(self._adot(tau))

    def adot_norm_at(self, tau):
        """Max-row-sum norm of the rate matrix at a scale (a ``float``) or at
        a 1-D array of scales (an array).

        A supplied ``adot_norm`` takes precedence.  On a vectorized schedule
        with a kernel ``cdot``, an array of scales takes one reduction over
        the stacked kernels, ``max_i sum_j |C_ij|``, which is the norm of the
        block embedding ``[[0, C], [-C, 0]]``.  Other schedules evaluate one
        scale at a time.
        """
        if np.ndim(tau) == 0:
            if self._adot_norm is not None:
                return self._adot_norm(tau)
            return matrix_norm_1inf(self.adot(float(tau)))
        if self._vectorized and self._adot_norm is not None:
            return np.asarray(self._adot_norm(tau))
        if self._vectorized and self._cdot is not None:
            c = np.asarray(self._cdot(np.asarray(tau, dtype=float)))
            return np.max(np.sum(np.abs(c), axis=-1), axis=-1)
        return np.asarray([self.adot_norm_at(float(x)) for x in np.asarray(tau)])

    def gram_rate_at(self, tau):
        """Gram rate at a scale (a ``float``) or at a 1-D array of scales."""
        if self._gram_rate is not None and (self._vectorized or np.ndim(tau) == 0):
            return self._gram_rate(tau)
        if np.ndim(tau) == 0:
            dp, dm = self._cdot_diags(float(tau))
            return 4.0 * max(float(np.max(dp)), float(np.max(dm)))
        return np.asarray([self.gram_rate_at(float(x)) for x in np.asarray(tau)])

    # -- integrals -----------------------------------------------------------

    def _cum(self, kind: str, fn, x):
        """Integral of the rate ``fn`` from 0 to ``x`` (a scale or an array
        of scales), read from the cumulative table of ``kind`` (built on
        first use); ``ValueError`` outside ``[0, T]``.  Scalar results are
        cached."""
        table = self._tables.get(kind)
        if table is None:
            table = _CumulativeTable(fn, self.T, self.panels, self.rtol)
            self._tables[kind] = table
        if np.ndim(x) != 0:
            return table.at(x)
        key = (kind, float(x))
        val = self._cache.get(key)
        if val is None:
            val = table.at(float(x))
            self._cache[key] = val
        return val

    def sigma_squared(self, s, t):
        """Integrated Gram bound between scales ``s <= t``; either may be an
        array of scales (broadcast elementwise, ``s <= t`` checked for every
        pair)."""
        if np.any(np.asarray(s) > np.asarray(t)):
            raise ValueError(f"need s <= t, got s={s}, t={t}")
        rate = self.gram_rate_at
        return self._cum("sigma", rate, t) - self._cum("sigma", rate, s)

    def tau(self, s):
        """Rescaled time: integral of the rate norm from 0 to ``s``, a scale
        or an array of scales."""
        return self._cum("tau", self.adot_norm_at, s)

    def covariance(self, s: float, t: float) -> AntisymmetricCovariance:
        """Slice covariance: the integral of the rate matrix over [s, t]."""
        if s > t:
            raise ValueError(f"need s <= t, got s={s}, t={t}")
        key = ("cov", float(s), float(t))
        cov = self._cache.get(key)
        if cov is None:
            mat = simpson_refine(self._adot, s, t, self.panels, self.rtol)
            mat = np.real_if_close(np.asarray(mat), tol=100)
            if self._cdot is not None:
                n = self.dim // 2
                c_int = np.real(np.asarray(simpson_refine(
                    self._cdot, s, t, self.panels, self.rtol)))
                cov = AntisymmetricCovariance(mat, c_matrix=c_int, c_plus=c_int,
                                              c_minus=np.zeros((n, n)))
            else:
                cov = AntisymmetricCovariance(mat)
            self._cache[key] = cov
        return cov
