"""A quartically perturbed fermionic model with Gaussian-regularized covariance.

The free covariance in momentum space is ``exp(-(|p|^2 + m^2) / L_s^2) /
(|p|^2 + m^2)`` with the running cutoff ``L_s = L_0 exp(-s)``; positions live
on a periodic box of side ``L`` with momenta on the dual lattice.  Desk-scale
instances place a handful of sites in the box, carry one unbarred and one
barred generator per site, and drive the flow with the block embedding of
the scale-derivative kernel, which has positive Fourier weights and hence a
positive-semidefinite position kernel at every scale.

Position-space matrices are exact truncated lattice sums, taken shell by
shell in ``|p|^2`` (with a certified Gaussian tail bound).  The integrated
Gram parameter and the rate norm are also exposed in their continuum closed
forms, and the rescaled clock as the continuum integral of its rate, read
from one cumulative Simpson table; this is the mixed convention the
surrounding analysis uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import GeneratorSet, GrassmannElement
from .errors import ResolutionError, UnsupportedDimensionError
from .schedule import ScaleSchedule, _CumulativeTable

_TAIL_RTOL = 1e-10
_LATTICE_GUARD = 4_000_000


@dataclass(frozen=True)
class Psi4Params:
    """Model parameters: dimension, mass, UV cutoff, box size, sites."""

    dimension: int
    mass: float
    lambda0: float
    box: float
    sites: tuple[tuple[float, ...], ...] = ()
    cutoff_factor: float = 7.0

    def __post_init__(self):
        if not float(self.dimension).is_integer():
            raise ValueError("dimension must be an integer")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.dimension <= 2:
            raise ValueError("dimension must exceed 2")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.mass < self.lambda0 < math.inf:
            raise ValueError("UV cutoff must be finite and exceed the mass")
        if not 0 < self.box < math.inf:
            raise ValueError("box size must be positive and finite")
        if not 0 < self.cutoff_factor < math.inf:
            raise ValueError("cutoff factor must be positive and finite")
        sites = tuple(tuple(float(x) for x in site) for site in self.sites)
        if len(set(sites)) != len(sites):
            raise ValueError("sites must be distinct")
        for site in sites:
            if len(site) != self.dimension:
                raise ValueError("each site needs one coordinate per dimension")
        object.__setattr__(self, "sites", sites)

    def lambda_at(self, s: float) -> float:
        return self.lambda0 * math.exp(-s)

    def with_chain_sites(self, n_sites: int) -> "Psi4Params":
        """Distinct lattice sites of spacing box/8 along the first axis."""
        if n_sites < 2:
            raise ValueError("need at least two sites for a quartic coupling")
        if n_sites > 8:
            raise ValueError("chain placement supports at most 8 sites")
        sites = []
        for j in range(n_sites):
            x = [0.0] * self.dimension
            x[0] = j * self.box / 8.0
            sites.append(tuple(x))
        return replace(self, sites=tuple(sites))


@lru_cache(maxsize=8)
def _momentum_table(params: Psi4Params):
    """Dual-lattice shells within the cutoff ball, with site-pair phase sums.

    Returns ``(psq, phases)``: ``psq`` holds the distinct shells
    ``h^2 |k|^2`` in ascending order, and ``phases[i*n + j, q]`` is the sum
    of ``cos(h k . (x_i - x_j))`` over the momenta ``k`` of shell ``q``, so a
    diagonal row holds the shell multiplicities.  Every kernel weight
    depends on ``|p|^2`` alone, so the lattice sum over momenta is exactly
    one sum over shells for any placement of the sites.  The table is built
    one slab of the first axis at a time, over the distinct site
    differences only; a shell is an integer ``|k|^2`` that a kept momentum
    takes.
    """
    d = params.dimension
    h = 2.0 * math.pi / params.box
    radius = params.cutoff_factor * params.lambda0
    kmax = int(math.floor(radius / h))
    if (2 * kmax + 1) ** d > _LATTICE_GUARD:
        raise ResolutionError(
            f"momentum lattice too large ({(2 * kmax + 1) ** d} points); "
            "reduce the box, the cutoff factor, or the UV scale")
    axis = np.arange(-kmax, kmax + 1)
    rest = np.stack(np.meshgrid(*[axis] * (d - 1), indexing="ij"),
                    axis=-1).reshape(-1, d - 1)
    rest_sq = np.sum(rest * rest, axis=1)
    # rest in ascending |k|^2, so each slab keeps a prefix, grouped by shell
    order = np.argsort(rest_sq, kind="stable")
    rest, rest_sq = rest[order], rest_sq[order]
    sites = np.asarray(params.sites, dtype=float).reshape(-1, d)
    diffs, pair = np.unique((sites[:, None, :] - sites[None, :, :]).reshape(-1, d),
                            axis=0, return_inverse=True)
    kept = np.zeros(d * kmax * kmax + 1, dtype=bool)
    sums = np.zeros((len(diffs), len(kept)))
    for k1 in axis:
        ksq = k1 * k1 + rest_sq
        ksq = ksq[ksq * h * h <= radius ** 2]
        starts = np.flatnonzero(np.diff(ksq, prepend=-1))
        kvecs = np.column_stack((np.full(len(ksq), k1), rest[:len(ksq)]))
        kept[ksq] = True
        # reduceat sums each shell pairwise; a running sum over the momenta
        # erred about 5 times more and moved a digit of the 6-site flow CSV
        sums[:, ksq[starts]] += np.add.reduceat(
            np.cos(diffs @ (h * kvecs.astype(float)).T), starts, axis=1)
    shells = np.flatnonzero(kept)
    return h * h * shells.astype(float), sums[:, shells][pair.reshape(-1)]


def _chat_weights(params: Psi4Params, s, psq: np.ndarray) -> np.ndarray:
    """Covariance weights ``exp(-(|p|^2+m^2)/L_s^2) / (|p|^2+m^2)``, on the
    shells and scales as ``_cdot_weights`` takes them."""
    lam2 = (params.lambda0 * np.exp(-np.asarray(s, dtype=float)))[..., None] ** 2
    q = psq + params.mass ** 2
    return np.exp(-q / lam2) / q


def _cdot_weights(params: Psi4Params, s, psq: np.ndarray) -> np.ndarray:
    """Scale-derivative weights ``(2/L_s^2) exp(-(|p|^2+m^2)/L_s^2)`` on the
    shells ``psq`` (last axis), broadcast over the shape of ``s``, a scale
    or an array of scales."""
    lam2 = (params.lambda0 * np.exp(-np.asarray(s, dtype=float)))[..., None] ** 2
    return (2.0 / lam2) * np.exp(-(psq + params.mass ** 2) / lam2)


def _site_kernel(w: np.ndarray, phases: np.ndarray, n: int,
                 vol: float) -> np.ndarray:
    """The symmetric ``n x n`` position kernel of the shell weights ``w``,
    stacked over the leading axes of ``w``."""
    mats = (w @ phases.T).reshape(w.shape[:-1] + (n, n)) / vol
    return 0.5 * (mats + mats.swapaxes(-1, -2))


def _gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma ``Q(a, x)`` for ``2a`` a positive
    integer and finite ``x >= 0``; each term is summed in log form, so ``x^b``
    never overflows."""
    n = 2.0 * a
    if not n.is_integer() or n < 1 or not 0.0 <= x < math.inf:
        raise ValueError(f"need 2a a positive integer and finite x >= 0, "
                         f"got a = {a}, x = {x}")
    if x == 0.0:
        return 1.0
    b, q = (0.5, math.erfc(math.sqrt(x))) if n % 2 else (1.0, math.exp(-x))
    while b < a:
        q += math.exp(b * math.log(x) - x - math.lgamma(b + 1.0))
        b += 1.0
    return q


def _tail_certificate(params: Psi4Params, s: float) -> None:
    """Reject the truncation when its Gaussian tail bound is significant.

    The dropped lattice sum over ``|p| > P`` is bounded by a Gaussian
    integral over ``|x| > P - h sqrt(d)`` (cells of the dual lattice of
    spacing ``h`` cover the shell) with the propagator prefactor bounded by
    ``1 / (P^2 + m^2)``; the certificate compares this to the ``p = 0`` term.
    The Gaussian integral is ``pi^(d/2) lam^d Q(d/2, (rho/lam)^2)`` with
    ``Q`` the regularized upper incomplete gamma.  ``Psi4Params`` keeps ``d``
    an integer above 2, so ``a = d/2`` is an integer or a half-integer, where
    ``Q`` has a closed form (``_gammaincc``): ``Q(1, x) = e^-x`` or
    ``Q(1/2, x) = erfc(sqrt x)``, then ``Q(b+1, x) = Q(b, x) +
    x^b e^-x / Gamma(b+1)`` up to ``b + 1 = a``; ``Q(a, 0) = 1``.
    """
    d = params.dimension
    h = 2.0 * math.pi / params.box
    radius = params.cutoff_factor * params.lambda0
    rho = max(radius - h * math.sqrt(d), 0.0)
    lam = params.lambda_at(s)
    m2 = params.mass ** 2
    ratio = (m2 / (radius ** 2 + m2)) * h ** -d * math.pi ** (d / 2.0) \
        * lam ** d * _gammaincc(d / 2.0, (rho / lam) ** 2)
    if ratio > _TAIL_RTOL:
        raise ResolutionError(
            f"momentum truncation tail bound is {ratio:.3e} of the p=0 term "
            f"(tolerance {_TAIL_RTOL}); raise the cutoff factor")


def covariance_matrix(params: Psi4Params, s: float, t: float) -> np.ndarray:
    """Position-space covariance slice ``C_s - C_t`` over the sites, for
    ``s <= t < inf``, as exact lattice sums: the site kernel of the
    difference of the shell weights at ``s`` and ``t``.  The imaginary parts
    cancel exactly by the evenness of the summand, and a slice with ``s ==
    t`` is exactly zero.
    """
    if not s <= t < math.inf:
        raise ValueError(
            f"need s <= t < inf for a covariance slice, got s={s}, t={t}")
    _tail_certificate(params, s)
    psq, phases = _momentum_table(params)
    w = _chat_weights(params, s, psq) - _chat_weights(params, t, psq)
    return _site_kernel(w, phases, len(params.sites),
                        params.box ** params.dimension)


def sigma_squared_closed_form(params: Psi4Params, s: float, t: float) -> float:
    """Continuum Gram parameter ``rho_d (L_s^(d-2) - L_t^(d-2))``."""
    if not s <= t:
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    d = params.dimension
    rho = 2.0 * math.pi ** (d / 2.0) / (d - 2.0)
    return rho * (params.lambda_at(s) ** (d - 2) - params.lambda_at(t) ** (d - 2))


def covariance_rate_norm(params: Psi4Params, s: float) -> float:
    """Continuum norm of the scale-derivative kernel:
    ``(2 / L_s^2) exp(-m^2 / L_s^2)``; bounded by ``2 / m^2`` uniformly."""
    lam2 = params.lambda_at(s) ** 2
    return (2.0 / lam2) * math.exp(-params.mass ** 2 / lam2)


class FlowClock(NamedTuple):
    value: float | np.ndarray
    bound: float | np.ndarray


def effective_flow_time(params: Psi4Params, t) -> FlowClock:
    """Rescaled clock ``integral_0^t exp(-m^2 / L_s^2) ds`` with its bound,
    at a time or at an array of times (then arrays of the same shape).

    Every time is read from one cumulative Simpson table of the rate on
    ``[0, max t]`` (``schedule._CumulativeTable``); a time of 0 gives
    exactly 0.  The analytic bound is ``1/(2e) + min(t, log(L_0 / m))``:
    the clock essentially stops once the running cutoff falls below the
    mass.  A negative, NaN or infinite time raises ``ValueError``.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts < math.inf)):
        raise ValueError("time must be finite and nonnegative")
    m2 = params.mass ** 2

    def rate(s):
        return np.exp(-m2 / (params.lambda0 * np.exp(-s)) ** 2)

    value = _CumulativeTable(rate, float(np.max(ts)), "clock rate").at(ts)
    bound = 1.0 / (2.0 * math.e) + np.minimum(
        ts, math.log(params.lambda0 / params.mass))
    return FlowClock(value, float(bound) if ts.ndim == 0 else bound)


def coupling_bound(params: Psi4Params) -> float:
    """Coupling size below which the rescaled quartic existence window stays
    open for all scales (four dimensions only)."""
    if params.dimension != 4:
        raise UnsupportedDimensionError(
            "the coupling bound is derived for dimension 4 only")
    rho4 = math.pi ** 2
    return 1.0 / (12.0 * rho4 * (1.0 + math.log(params.lambda0 / params.mass)))


def quartic_bare_action(gens: GeneratorSet, alpha: float) -> GrassmannElement:
    """Local quartic action over site pairs with norm coefficient
    ``F_2 = alpha``.

    Sites carry generator ``j`` (unbarred) and ``j + n`` (barred); the action
    sums ``psibar_j psi_j psibar_k psi_k`` over the cyclic site chain, scaled
    so the degree-2 seminorm coefficient is exactly ``alpha``.
    """
    n = gens.pairs
    if n < 2:
        raise ValueError("need at least two sites for a quartic action")
    f = GrassmannElement.zero(gens)
    edges = [(0, 1)] if n == 2 else [(j, (j + 1) % n) for j in range(n)]
    # every site appears in exactly two edge terms (the n == 2 chain has a
    # doubled single edge), so a factor 2 alpha / multiplicity gives F_2 = alpha
    scale = 4.0 * alpha if n == 2 else 2.0 * alpha
    for j, k in edges:
        f = f + GrassmannElement.monomial(gens, [j + n, j, k + n, k], scale)
    return f


@dataclass(frozen=True)
class DeskInstance:
    """A finite, fully assembled flow problem for the quartic model."""

    params: Psi4Params
    alpha: float
    generators: GeneratorSet
    schedule: ScaleSchedule
    bare_action: GrassmannElement


def build_desk_instance(params: Psi4Params, alpha: float,
                        n_sites: int | None = None,
                        t_max: float | None = None) -> DeskInstance:
    """Assemble schedule, Gram bound, and bare action for a site chain.

    The schedule's kernel ``cdot`` is the lattice scale-derivative kernel
    over the sites, at one scale or stacked over an array of scales: one
    product of the shell weights with the phase sums of
    ``_momentum_table``.  The slices are ``C_s - C_t`` of
    ``covariance_matrix``, the exact integral of ``cdot``, since ``d/ds
    exp(-q/L_s^2)/q = -(2/L_s^2) exp(-q/L_s^2)``.  Translation invariance
    makes the diagonal uniform, so the Gram rate is ``4 C_ii`` and its
    integral, the Gram parameter, is exactly ``4 (C_s - C_t)_00``: the
    difference of the shell weights summed against the shell
    multiplicities, broadcast over arrays of scales.  Each kernel computes
    its own weights and nothing is shared between calls.  The upper scale
    defaults to ``log(L_0/m) + 3``, far past where the flow has stopped.
    """
    if n_sites is not None:
        params = params.with_chain_sites(n_sites)
    if not params.sites:
        raise ValueError("params carry no sites; pass n_sites or set sites")
    n = len(params.sites)
    gens = GeneratorSet(2 * n)
    _tail_certificate(params, 0.0)
    psq, phases = _momentum_table(params)
    vol = params.box ** params.dimension
    T = float(t_max) if t_max is not None else \
        math.log(params.lambda0 / params.mass) + 3.0

    def cdot(s) -> np.ndarray:
        return _site_kernel(_cdot_weights(params, s, psq), phases, n, vol)

    schedule = ScaleSchedule(
        cdot, T=T, pairs=n,
        c_between=lambda s, t: covariance_matrix(params, s, t),
        sigma_between=lambda s, t: 4.0 * ((
            _chat_weights(params, s, psq) - _chat_weights(params, t, psq))
            @ phases[0]) / vol)
    return DeskInstance(params=params, alpha=alpha, generators=gens,
                        schedule=schedule,
                        bare_action=quartic_bare_action(gens, alpha))
