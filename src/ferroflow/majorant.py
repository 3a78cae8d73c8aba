"""Hamilton-Jacobi norm majorants solved by the method of characteristics.

The majorant of the effective-action norm solves a Hamilton-Jacobi equation
in the rescaled time ``tau`` (the integrated rate norm), with an initial
datum built from the bare norm series shifted by the Gram parameter
``sigma``.  Along a characteristic through ``z0`` the solution is closed
form:

    z(tau) = z0 - tau * u0(z0),      phi(tau, z) = phi0(z0) - tau * u0(z0)**2 / 2,

with ``u0`` the derivative of the datum.  Both data are power series in
``z0``, so the Taylor coefficients that the domination test compares with
the flow (``majorant_coefficients``) come from reverting ``z(z0)`` as a
truncated series.  The characteristic through one real ``z`` exists while
the characteristic map is monotone, that is for ``|z|`` below the fold
value ``z_window``: there ``invert`` finds ``z0`` by Newton's method from
``|z|``, all nodes at once, and refuses every other ``z`` as a
characteristic crossing.

Two closed-form data are supported: the exact quartic datum for a purely
quartic bare series, and a logarithmic upper-bound datum for a general
series with convergence radius ``R``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CharacteristicCrossingError, ExistenceError, ResolutionError
from .flow import FlowTrajectory
from .norms import NormSeries, convergence_radius
from .schedule import ScaleSchedule, _simpson_values

_NEWTON_STEPS = 60


# ---------------------------------------------------------------------------
# characteristic solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicSolution:
    """Characteristic representation of one Hamilton-Jacobi solution.

    ``kind`` tags the closed-form initial datum: ``"logarithmic"`` with
    parameter ``lam`` or ``"quartic"`` with coupling ``alpha`` and Gram shift
    ``sigma``.  ``z0_window`` bounds ``|z0|`` where the characteristic map is
    monotone, up to its fold (``inf`` at ``tau = 0``), and ``z_window`` is
    the map's value there.  ``invert`` takes a real scalar or a real array
    inside that window and treats all nodes of an array in one pass.
    """

    kind: str
    tau: float
    lam: float = 0.0
    alpha: float = 0.0
    sigma: float = 0.0

    @classmethod
    def logarithmic(cls, lam: float, tau: float) -> "CharacteristicSolution":
        if lam <= 0:
            raise ValueError("lam must be positive")
        return cls(kind="logarithmic", tau=float(tau), lam=float(lam))

    @classmethod
    def quartic(cls, alpha: float, sigma: float, tau: float
                ) -> "CharacteristicSolution":
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        return cls(kind="quartic", tau=float(tau), alpha=float(alpha),
                   sigma=float(sigma))

    # -- datum ---------------------------------------------------------------

    def u0(self, z0):
        if self.kind == "logarithmic":
            l2 = self.lam ** 2
            return l2 * z0 / (1.0 - l2 * z0 * z0)
        a, s2 = self.alpha, self.sigma ** 2
        return 12.0 * a * s2 * z0 + 4.0 * a * z0 ** 3

    # -- characteristic map ----------------------------------------------------

    def forward(self, z0):
        return z0 - self.tau * self.u0(z0)

    def slope(self, z0):
        if self.kind == "logarithmic":
            l2 = self.lam ** 2
            return 1.0 - l2 * self.tau * (1.0 + l2 * z0 * z0) / (1.0 - l2 * z0 * z0) ** 2
        a, s2 = self.alpha, self.sigma ** 2
        return 1.0 - 12.0 * a * s2 * self.tau - 12.0 * a * self.tau * z0 ** 2

    @property
    def z0_window(self) -> float:
        """First positive zero ``w`` of ``slope``: the map is monotone for
        ``|z0| < w`` and folds at ``|z0| = w``.

        Exact for both data.  Logarithmic: with ``a = lam^2 tau`` and
        ``u = lam^2 z0^2`` the slope vanishes at the smaller root of
        ``(1 - u)^2 = a (1 + u)``,
        ``u* = 2 (1 - a) / ((2 + a) + sqrt(a^2 + 8a))``
        (the rationalized form, free of cancellation as ``a -> 1``).
        Quartic: ``1 - 12 alpha sigma^2 tau = 12 alpha tau z0^2``.  The window
        is nonempty exactly when ``existence_check`` holds; ``0.0`` otherwise.
        """
        if self.tau <= 0.0:
            return float("inf")
        if self.kind == "logarithmic":
            l2 = self.lam ** 2
            a = l2 * self.tau
            if a >= 1.0:
                return 0.0
            u_star = 2.0 * (1.0 - a) / ((2.0 + a) + math.sqrt(a * (a + 8.0)))
            return math.sqrt(u_star / l2)
        a, s2 = self.alpha, self.sigma ** 2
        den = 12.0 * a * self.tau
        if den == 0.0:
            return float("inf")  # alpha == 0, or alpha tau below float range
        num = 1.0 - 12.0 * a * s2 * self.tau
        if num <= 0.0:
            return 0.0
        return math.sqrt(num / den)

    @property
    def z_window(self) -> float:
        """Fold value ``forward(z0_window)``: the largest real ``z`` reached
        by characteristics inside the window.

        Quartic: ``12 alpha tau w^2 = 1 - 12 alpha sigma^2 tau`` at the fold
        ``w``, so ``forward(w) = (2/3) w (1 - 12 alpha sigma^2 tau)``, which
        stays finite where ``w**3`` would overflow (tiny ``alpha``).
        """
        w = self.z0_window
        if not math.isfinite(w):
            return float("inf")
        if self.kind == "quartic":
            return (2.0 / 3.0) * w * (1.0 - 12.0 * self.alpha * self.sigma ** 2
                                      * self.tau)
        return float(self.forward(w))

    def invert(self, z):
        """Initial point ``z0`` with ``forward(z0) == z`` for a real ``z``
        inside the window, ``|z| < z_window``.

        A scalar gives a ``float``, an array an array of its shape (all nodes
        in one pass).  Complex input raises ``TypeError``; a node outside the
        window or not finite raises ``CharacteristicCrossingError`` with the
        fold on its side, ``critical_z0 = +-z0_window``.  Newton's method
        runs on ``|z|`` from ``x = |z|``: on ``[0, z0_window)`` ``forward``
        rises and is concave (``u0`` is convex there on both data), so
        ``forward(x) <= x`` starts it below the root and every tangent step
        stays below it, where the slope is positive.  Near the fold, where
        ``z_window`` is the rounded ``forward(z0_window)`` and the slope
        tends to zero, rounding can still ask for a step back, past the fold,
        or a NaN or infinite one: an iterate never falls and never passes
        ``z0_window``.  A node stops once its step is at most ``2 eps x``
        (``z0 == z`` at ``tau = 0``) or it did not move; one still moving
        after ``_NEWTON_STEPS`` steps raises as well.
        """
        if np.iscomplexobj(z):
            raise TypeError("characteristic inversion takes real z only")
        zs = np.asarray(z, dtype=float)
        target = np.abs(zs).ravel()
        outside = ~(target < self.z_window)
        if outside.any():
            bad = zs.flat[np.argmax(outside)]
            raise CharacteristicCrossingError(
                f"characteristic crossing: |z|={abs(bad):.6g} outside "
                f"certified window {self.z_window:.6g}",
                critical_z0=math.copysign(self.z0_window, bad))
        x = target.copy()
        live = np.arange(x.size)
        for _ in range(_NEWTON_STEPS):
            xl = x[live]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = (target[live] - self.forward(xl)) / self.slope(xl)
            # fmax drops a NaN step, so that its node stops where it is
            x[live] = np.fmin(xl + np.fmax(step, 0.0), self.z0_window)
            live = live[(step > 2.0 * np.finfo(float).eps * xl)
                        & (x[live] != xl)]
            if not live.size:
                break
        else:
            bad = zs.flat[live[0]]
            raise CharacteristicCrossingError(
                f"characteristic inversion did not settle at z={bad:.6g}",
                critical_z0=math.copysign(self.z0_window, bad))
        z0 = np.copysign(x.reshape(zs.shape), zs)
        return z0 if z0.ndim else float(z0)


# ---------------------------------------------------------------------------
# majorant evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceReport:
    radius: float
    tau: float
    sigma: float
    holds: bool
    kind: str
    lhs: float
    rhs: float

    def as_text(self) -> str:
        return (
            "existence report\n"
            f"  kind  = {self.kind}\n"
            f"  R     = {self.radius:.12g}\n"
            f"  tau   = {self.tau:.12g}\n"
            f"  sigma = {self.sigma:.12g}\n"
            f"  lhs   = {self.lhs:.12g}\n"
            f"  rhs   = {self.rhs:.12g}\n"
            f"  holds = {'true' if self.holds else 'false'}\n")


@dataclass(frozen=True)
class MajorantSpec:
    """What to majorize: a bare norm series (or closed-form tag) plus the
    schedule whose Gram parameter and rate norm drive the evolution.

    ``quartic_alpha`` selects the sharp quartic datum; otherwise the general
    logarithmic upper-bound datum with radius ``R`` is used (``radius``
    overrides the radius computed from ``bare_series``).
    """

    schedule: ScaleSchedule
    bare_series: NormSeries | None = None
    quartic_alpha: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.quartic_alpha is None and self.bare_series is None \
                and self.radius is None:
            raise ValueError("need a bare series, a quartic coupling, or a radius")
        # NaN passes ``< 0``; convergence_radius would skip it, and a NaN
        # radius would surface as R = nan
        if self.quartic_alpha is not None and not self.quartic_alpha >= 0:
            raise ValueError("quartic coupling must be nonnegative")
        if self.radius is not None and not self.radius >= 0:
            raise ValueError("radius must be nonnegative")
        if self.bare_series is not None \
                and np.isnan(self.bare_series.coefficients).any():
            raise ValueError("bare series must not hold NaN")

    @property
    def kind(self) -> str:
        return "quartic" if self.quartic_alpha is not None else "logarithmic"

    @property
    def R(self) -> float:
        if self.radius is not None:
            return float(self.radius)
        if self.quartic_alpha is not None:
            if self.quartic_alpha == 0.0:
                return float("inf")
            return (4.0 * self.quartic_alpha) ** -0.25
        return convergence_radius(self.bare_series)

    def characteristic(self, report: ExistenceReport) -> CharacteristicSolution:
        """The characteristic at the scale of ``existence_check``'s report,
        from its ``tau``, ``sigma`` and ``R``."""
        tau, sigma, r = report.tau, report.sigma, report.radius
        if self.kind == "quartic":
            return CharacteristicSolution.quartic(self.quartic_alpha, sigma, tau)
        if sigma >= r:
            raise ExistenceError(
                f"Gram parameter sigma={sigma:.6g} reached the radius R={r:.6g}")
        lam = (1.0 / r) / (1.0 - sigma / r)
        return CharacteristicSolution.logarithmic(lam, tau)


def existence_check(spec: MajorantSpec, t
                    ) -> ExistenceReport | list[ExistenceReport]:
    """Evaluate the majorant existence inequality at scale ``t``, or at
    each scale of a 1-D array ``t``, one report per scale in a list.

    Quartic data: ``12 alpha sigma^2 tau < 1``.  Logarithmic data:
    ``sqrt(tau) + sigma < R``.  An array reads ``tau`` in one array query
    of the schedule and ``sigma^2`` one scale at a time: the desk's array
    form of ``sigma^2`` differs from its scalar values in the last bits.
    """
    if np.ndim(t):
        return [_existence_report(spec, tau, s) for tau, s in
                zip(spec.schedule.tau(t).tolist(), np.asarray(t).tolist())]
    return _existence_report(spec, spec.schedule.tau(t), t)


def _existence_report(spec: MajorantSpec, tau: float, t: float
                      ) -> ExistenceReport:
    sigma = math.sqrt(spec.schedule.sigma_squared(0.0, t))
    r = spec.R
    if spec.kind == "quartic":
        lhs = 12.0 * spec.quartic_alpha * sigma ** 2 * tau
        return ExistenceReport(radius=r, tau=tau, sigma=sigma,
                               holds=bool(lhs < 1.0), kind="quartic",
                               lhs=lhs, rhs=1.0)
    lhs = math.sqrt(tau) + sigma
    return ExistenceReport(radius=r, tau=tau, sigma=sigma,
                           holds=bool(lhs < r), kind="logarithmic",
                           lhs=lhs, rhs=r)


def majorant_coefficients(spec: MajorantSpec, report: ExistenceReport,
                          m_max: int) -> NormSeries:
    """Even-degree Taylor coefficients ``phi_m(t)`` for ``m <= m_max``, at
    the scale ``t`` of ``report = existence_check(spec, t)``; a report that
    does not hold raises ``ExistenceError``.

    The gradient of the solution is transported along characteristics,
    ``dphi/dz = u0(z0)``, and ``z0 = z + tau u0(z0)``, so ``phi_m`` is
    ``f_(m-1) / (2m)`` for the power series ``f(w) = u0(z0(z)) / z`` in
    ``w = z**2``.  Clearing the datum's denominator turns the characteristic
    equation into a fixed point that solves the linear term
    ``c1 = u0'(0)`` exactly, ``f = (c1 + w P) / (1 - tau c1)`` with
    ``y = z0 / z = 1 + tau f`` and ``P = 4 alpha y**3`` (quartic) or
    ``P = lam**2 y**2 f`` (logarithmic).  ``f_k`` depends on ``f_j`` for
    ``j < k`` only, so each pass of truncated convolutions fixes one more
    coefficient and ``m_max - 1`` passes give them all, from sums of
    nonnegative terms (``tau c1 < 1`` is the existence condition).  A
    vanishing datum (quartic ``alpha = 0``, or an infinite radius) has the
    zero majorant, and its coefficients are zeros.
    """
    if not report.holds:
        raise ExistenceError(
            "majorant existence condition fails: " + report.as_text())
    if (spec.quartic_alpha == 0.0 if spec.kind == "quartic"
            else report.radius == math.inf):
        return NormSeries(np.zeros(m_max))  # zero datum, zero majorant
    char = spec.characteristic(report)
    quartic = char.kind == "quartic"
    c1 = 12.0 * char.alpha * char.sigma ** 2 if quartic else char.lam ** 2
    den = 1.0 - char.tau * c1
    f = np.zeros(m_max)
    f[:1] = c1 / den
    for _ in range(m_max - 1):
        y = char.tau * f
        y[0] += 1.0
        y2 = np.convolve(y, y)[:m_max - 1]
        if quartic:
            p = 4.0 * char.alpha * np.convolve(y2, y)[:m_max - 1]
        else:
            p = c1 * np.convolve(y2, f)[:m_max - 1]
        f[1:] = p / den
    return NormSeries(f / (2.0 * np.arange(1, m_max + 1)))


# ---------------------------------------------------------------------------
# integral bound on the flow's norm coefficients
# ---------------------------------------------------------------------------


def _gamma_factor(l: int, m: int, k: int, xi: float) -> float:
    total = 0.0
    for kp in range(1, 2 * l, 2):
        kpp = 2 * k - kp
        if kpp < 1 or kpp > 2 * m - 1 or kpp % 2 == 0:
            continue
        total += (math.comb(2 * l - 1, kp) * xi ** (2 * l - 1 - kp)
                  * math.comb(2 * m - 1, kpp) * xi ** (2 * m - 1 - kpp))
    return 4.0 * l * m * total


def rhs_coefficient_bound(traj: FlowTrajectory, schedule: ScaleSchedule,
                          k: int | Sequence[int], t: float,
                          check_tol: float = 1e-6) -> float | list[float]:
    """A-priori bound on the degree-``2k`` norm coefficient at scale ``t``.

    Combines the Gram-spread bare series with the integrated quadratic
    source of the flow,

        (1/2) |Adot(s)| sum_{l,m} f_l(s) f_m(s) gamma(l, m, k, xi(s)),
        xi(s)^2 = sigma^2(s, t),

    evaluated by composite Simpson on the trajectory grid (midpoints filled
    by linear interpolation of the norm coefficients).  Every term of
    ``gamma`` carries the same power of ``xi``, so
    ``gamma(l, m, k, xi) = G[l, m] xi^(2(l + m - 1 - k))`` with
    ``G[l, m] = _gamma_factor(l, m, k, 1.0)`` (zero where the power would be
    negative).  One Simpson grid is one contraction over nodes, ``l`` and
    ``m``, after one array call each for the rate norm and for ``sigma^2``.
    A further refinement must agree to ``check_tol`` relatively, otherwise
    the grid is too coarse.

    For a sequence of ``k`` the bounds come back as a list in its order,
    each bitwise the bound of that ``k`` alone: what does not depend on
    ``k``, ``sigma^2`` and the rate norm at the nodes of both Simpson grids
    and the interpolated coefficients, is read once for all of them.  A
    ``k`` below 1 is refused before anything is read, and the first ``k``
    whose refinement disagrees raises.
    """
    scalar = np.ndim(k) == 0
    ks = [k] if scalar else list(k)
    if any(kk < 1 for kk in ks):
        raise ValueError("degree index k starts at 1")
    grid = traj.grid
    pos = int(np.argmin(np.abs(grid - t)))
    if abs(grid[pos] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the trajectory grid")
    sig0t = schedule.sigma_squared(0.0, float(t))
    terms1 = [sum(fm * math.comb(2 * m, 2 * kk) * sig0t ** (m - kk)
                  for m, fm in enumerate(traj.norms[0, kk - 1:], start=kk))
              for kk in ks]
    if pos == 0:
        bounds = [float(term1) for term1 in terms1]
        return bounds[0] if scalar else bounds

    fvals = traj.norms[:pos + 1]
    svals = grid[:pos + 1]
    deg = np.arange(1, fvals.shape[1] + 1)

    def nodes_on(level: int) -> tuple:
        # level-fold midpoint refinement with linear interpolation of F
        ss = np.linspace(svals[0], svals[-1], level * pos + 1)
        fs = np.stack([np.interp(ss, svals, col) for col in fvals.T], axis=1)
        xi2 = np.maximum(schedule.sigma_squared(ss, float(t)), 0.0)
        return ss[1] - ss[0], fs, xi2, schedule.adot_norm_at(ss)

    def simpson_on(nodes: tuple, gam: np.ndarray, power: np.ndarray) -> float:
        h, fs, xi2, rate = nodes
        source = np.einsum("il,im,lm,ilm->i", fs, fs, gam,
                           xi2[:, None, None] ** power)
        return float(_simpson_values(0.5 * rate * source, h))

    coarse, fine = nodes_on(2), nodes_on(4)
    bounds = []
    for kk, term1 in zip(ks, terms1):
        gam = np.array([[_gamma_factor(l, m, kk, 1.0) for m in deg]
                        for l in deg])
        power = np.maximum(deg[:, None] + deg[None, :] - 1 - kk, 0)
        base = simpson_on(coarse, gam, power)
        refined = simpson_on(fine, gam, power)
        scale = max(abs(refined), abs(term1), 1e-300)
        if abs(refined - base) > check_tol * scale:
            raise ResolutionError(
                f"trajectory grid too coarse for the coefficient bound: "
                f"Simpson refinement moved by {abs(refined - base):.3e}")
        bounds.append(float(term1 + refined))
    return bounds[0] if scalar else bounds


# ---------------------------------------------------------------------------
# Hopf-Lax comparison oracle
# ---------------------------------------------------------------------------


def hopflax_solve(ys: Sequence[float], gs: Sequence[float], t: float, z: float
                  ) -> float:
    """Hopf-Lax envelope ``max_y [-(z - y)^2 / t + g(y)]`` on a sampled grid.

    Discrete maximization with a local quadratic refinement; a maximizer on
    the grid boundary triggers a window warning.
    """
    if t <= 0.0:
        raise ValueError("Hopf-Lax time must be positive")
    ys = np.asarray(ys, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if ys.shape != gs.shape or ys.ndim != 1 or len(ys) < 3:
        raise ValueError("need matching 1-D samples with at least 3 points")
    vals = -((z - ys) ** 2) / t + gs
    i = int(np.argmax(vals))
    if i == 0 or i == len(ys) - 1:
        warnings.warn("Hopf-Lax maximizer on the grid boundary; enlarge the "
                      "sampling window", stacklevel=2)
        return float(vals[i])
    y3 = ys[i - 1:i + 2]
    v3 = vals[i - 1:i + 2]
    denom = (y3[0] - y3[1]) * (y3[0] - y3[2]) * (y3[1] - y3[2])
    a = (y3[2] * (v3[1] - v3[0]) + y3[1] * (v3[0] - v3[2])
         + y3[0] * (v3[2] - v3[1])) / denom
    if a >= 0.0:
        return float(vals[i])
    b = (y3[2] ** 2 * (v3[0] - v3[1]) + y3[1] ** 2 * (v3[2] - v3[0])
         + y3[0] ** 2 * (v3[1] - v3[2])) / denom
    c = (y3[1] * y3[2] * (y3[1] - y3[2]) * v3[0]
         + y3[2] * y3[0] * (y3[2] - y3[0]) * v3[1]
         + y3[0] * y3[1] * (y3[0] - y3[1]) * v3[2]) / denom
    vertex = c - b * b / (4.0 * a)
    return float(max(vertex, vals[i]))
