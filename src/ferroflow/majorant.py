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
truncated series.  A value at one ``z`` (``majorant_value``) inverts the
cubic characteristic equation for ``z0(tau, z)`` on the branch continuously
connected to the identity at ``tau = 0``, in closed form (Cardano for the
largest root, a stable quadratic for the other two, one Newton step each),
all nodes at once.  The map loses monotonicity at a characteristic
crossing, which is the existence boundary.

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

_HOMOTOPY_STEPS = 16
_RESIDUAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# characteristic solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicSolution:
    """Characteristic representation of one Hamilton-Jacobi solution.

    ``kind`` tags the closed-form initial datum: ``"logarithmic"`` with
    parameter ``lam`` or ``"quartic"`` with coupling ``alpha`` and Gram shift
    ``sigma``.  ``z0_window`` bounds ``|z0|`` where the characteristic map is
    monotone, up to the first critical point (``inf`` at ``tau = 0``); the
    inversion method is homotopy continuation from the identity, each step
    solving the characteristic cubics in closed form (``_cubic_roots``), with
    a safeguarded Newton polish.  ``invert`` and ``value`` take a scalar or
    an array of nodes and treat all nodes of an array in one pass.
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

    def datum(self, z0):
        """Initial value ``phi0(z0)`` of the majorant datum (z-dependent part
        plus its constant)."""
        if self.kind == "logarithmic":
            l2 = self.lam ** 2
            return -0.5 * np.log(1.0 - l2 * z0 * z0)
        a, s = self.alpha, self.sigma
        return 0.5 * a * ((s + z0) ** 4 + (s - z0) ** 4)

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
        return float(np.real(self.forward(w)))

    def _cubic_coeffs(self, tau: float, z):
        """Coefficients (highest power first) of the characteristic cubic."""
        if self.kind == "logarithmic":
            l2 = self.lam ** 2
            return [-l2, l2 * z, 1.0 - l2 * tau, -z]
        a, s2 = self.alpha, self.sigma ** 2
        return [4.0 * a * tau, 0.0, 12.0 * a * s2 * tau - 1.0, z]

    def invert(self, z, enforce_window: bool = True):
        """Initial points ``z0`` with ``forward(z0) == z``, continuous in tau.

        ``z`` is a scalar or an array of nodes; a scalar gives a ``float``
        (``complex`` for complex input).  Homotopy continuation from
        ``tau = 0`` (where ``z0 == z``) selects the branch: each step solves
        the cubics of all nodes at once by the closed form of
        ``_cubic_roots`` and every node keeps the root nearest its previous
        ``z0``.  A Newton polish brings every forward residual below 1e-12; a
        node that misses it (a non-finite root included, without a numpy
        warning) raises ``CharacteristicCrossingError`` with that node's
        ``z0``.  With ``enforce_window`` (real inputs), a result outside the
        certified monotonicity window raises likewise.
        """
        if self.tau == 0.0:
            return z if np.ndim(z) == 0 else np.array(z)
        zs = np.asarray(z)
        shape = zs.shape
        zs = zs.astype(np.result_type(zs.dtype, np.float64)).ravel()
        z0 = zs
        for j in range(1, _HOMOTOPY_STEPS + 1):
            tau_j = self.tau * j / _HOMOTOPY_STEPS
            coeffs = self._cubic_coeffs(tau_j, zs)
            if abs(coeffs[0]) < 1e-300:
                continue  # linear datum: z0 stays z (alpha == 0)
            roots = _cubic_roots(coeffs, zs)
            pick = np.argmin(np.abs(roots - z0[:, None]), axis=1)
            z0 = roots[np.arange(len(zs)), pick]
        with np.errstate(all="ignore"):  # non-finite z0 fail the check below
            z0 = self._polish(np.array(z0), zs)
            resid = np.abs(self.forward(z0) - zs)
        bad = ~(resid <= _RESIDUAL_TOL * np.maximum(1.0, np.abs(zs)))
        if bad.any():
            i = int(np.argmax(bad))
            raise CharacteristicCrossingError(
                f"characteristic inversion failed: residual {resid[i]:.3e}",
                critical_z0=z0[i].item())
        if np.iscomplexobj(zs):
            z0 = z0.astype(np.complex128)
        else:
            z0 = np.real(z0)
            if enforce_window:
                self._check_window(z0)
        return z0.reshape(shape) if shape else z0[0].item()

    def _check_window(self, z0: np.ndarray) -> None:
        """Raise at the first real ``z0`` outside the monotonicity window."""
        w = self.z0_window
        outside = np.abs(z0) >= w
        if outside.any():
            x = float(z0[np.argmax(outside)])
            raise CharacteristicCrossingError(
                f"characteristic crossing: |z0|={abs(x):.6g} outside "
                f"certified window {w:.6g}", critical_z0=x)
        folded = self.slope(z0) <= 0.0
        if folded.any():
            x = float(z0[np.argmax(folded)])
            raise CharacteristicCrossingError(
                f"characteristic crossing: dz/dz0 <= 0 at z0={x:.6g}",
                critical_z0=x)

    def _polish(self, z0: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Damped Newton on ``forward(z0) == z``, per node, in place."""
        tol = 0.25 * _RESIDUAL_TOL * np.maximum(1.0, np.abs(z))
        for _ in range(60):
            resid = self.forward(z0) - z
            d = self.slope(z0)
            live = ~(np.abs(resid) <= tol) & (d != 0)
            if not live.any():
                break
            step = resid[live] / d[live]
            # damp huge steps to stay on the tracked branch
            limit = 0.5 * np.maximum(1.0, np.abs(z0[live]))
            big = np.abs(step) > limit
            step[big] *= limit[big] / np.abs(step[big])
            z0[live] -= step
        return z0

    def value(self, z):
        """Majorant value ``phi(tau, z)`` along the tracked characteristic,
        at a scalar or at an array of nodes."""
        z0 = self.invert(z, enforce_window=False)
        u = self.u0(z0)
        return self.datum(z0) - 0.5 * self.tau * u * u


# the cube roots of unity, written out: a complex exp at import would page
# in numpy's complex kernels for every command
_CUBE_UNITS = np.array([1.0, complex(-0.5, 0.75 ** 0.5),
                        complex(-0.5, -0.75 ** 0.5)])


def _cubic_roots(coeffs, z: np.ndarray) -> np.ndarray:
    """All roots of the cubics ``coeffs`` (highest power first, each a
    scalar or one value per node of ``z``), shape ``(nodes, 3)``, complex.

    Closed form per node, on the monic cubic ``x^3 + B x^2 + C x + D`` of
    ``x / scale``, where ``scale`` is a power of two near the size of the
    roots (exact; it keeps ``p^3`` and ``q^2`` in float range when the
    leading coefficient is tiny):

    - Cardano's formula gives the root ``r`` of largest modulus; the square
      root of the discriminant takes the sign that avoids cancellation, and
      ``w = 0`` is the triple root;
    - deflating by ``r`` leaves ``x^2 + B1 x + C1`` with ``B1 = B + r`` and
      ``C1 = -D / r``, solved stably as ``q = -(B1 + s sqrt(B1^2 - 4 C1))/2``
      with the roots ``q`` and ``C1 / q`` (both zero when ``q = 0``);
    - one Newton step on the monic cubic polishes each root.

    Non-finite coefficients give non-finite roots without a warning.
    """
    with np.errstate(all="ignore"):
        a, b, c, d = (np.full(z.shape, x, dtype=np.complex128)
                      for x in coeffs)
        mag = np.maximum(np.abs(b) / np.abs(a), np.maximum(
            np.sqrt(np.abs(c)) / np.sqrt(np.abs(a)),
            np.cbrt(np.abs(d)) / np.cbrt(np.abs(a))))
        scale = np.ldexp(1.0, np.frexp(mag)[1])
        as1 = a * scale
        as2 = as1 * scale
        B, C, D = b / as1, c / as2, d / (as2 * scale)
        shift = B / 3.0
        p = C - B * shift
        q = D + shift * (2.0 * shift * shift - C)
        sq = np.sqrt(0.25 * q * q + p * p * p / 27.0)
        sq = np.where((np.conj(q) * sq).real < 0.0, -sq, sq)
        w = -(0.5 * q + sq)
        u = (w ** (1.0 / 3.0))[:, None] * _CUBE_UNITS
        big = np.where(u == 0.0, 0.0, u - p[:, None] / (3.0 * u)) \
            - shift[:, None]
        r = big[np.arange(len(z)), np.argmax(np.abs(big), axis=1)]
        b1 = B + r
        c1 = np.where(r == 0.0, 0.0, -D / r)
        sq1 = np.sqrt(b1 * b1 - 4.0 * c1)
        sq1 = np.where((np.conj(b1) * sq1).real < 0.0, -sq1, sq1)
        q1 = -0.5 * (b1 + sq1)
        roots = np.stack((r, q1, np.where(q1 == 0.0, 0.0, c1 / q1)), axis=1)
        B, C, D = B[:, None], C[:, None], D[:, None]
        f = ((roots + B) * roots + C) * roots + D
        df = (3.0 * roots + 2.0 * B) * roots + C
        step = f / df
        return np.where(np.isfinite(step), roots - step, roots) \
            * scale[:, None]


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
        if self.quartic_alpha is not None and self.quartic_alpha < 0:
            raise ValueError("quartic coupling must be nonnegative")

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

    def characteristic(self, t: float) -> CharacteristicSolution:
        tau = self.schedule.tau(t)
        sigma = math.sqrt(self.schedule.sigma_squared(0.0, t))
        if self.kind == "quartic":
            return CharacteristicSolution.quartic(self.quartic_alpha, sigma, tau)
        r = self.R
        if sigma >= r:
            raise ExistenceError(
                f"Gram parameter sigma={sigma:.6g} reached the radius R={r:.6g}")
        lam = (1.0 / r) / (1.0 - sigma / r)
        return CharacteristicSolution.logarithmic(lam, tau)


def existence_check(spec: MajorantSpec, t: float) -> ExistenceReport:
    """Evaluate the majorant existence inequality at scale ``t``.

    Quartic data: ``12 alpha sigma^2 tau < 1``.  Logarithmic data:
    ``sqrt(tau) + sigma < R``.
    """
    tau = spec.schedule.tau(t)
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


def majorant_value(spec: MajorantSpec, t: float, z: float) -> float:
    """Majorant ``phi(t, z)``: the Hamilton-Jacobi solution at rescaled time
    ``tau(t)`` with the Gram-shifted datum, plus the datum's constant part.
    """
    report = existence_check(spec, t)
    if not report.holds:
        raise ExistenceError(
            "majorant existence condition fails: " + report.as_text())
    char = spec.characteristic(t)
    value = char.value(z)
    return float(np.real(value)) + _datum_constant(spec, report.sigma)


def _datum_constant(spec: MajorantSpec, sigma: float) -> float:
    if spec.kind == "quartic":
        return 0.0  # the quartic datum already carries its constant
    return -math.log(1.0 - sigma / spec.R)


def majorant_coefficients(spec: MajorantSpec, t: float, m_max: int
                          ) -> NormSeries:
    """Even-degree Taylor coefficients ``phi_m(t)`` for ``m <= m_max``.

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
    report = existence_check(spec, t)
    if not report.holds:
        raise ExistenceError(
            "majorant existence condition fails: " + report.as_text())
    if (spec.quartic_alpha == 0.0 if spec.kind == "quartic"
            else spec.R == math.inf):
        return NormSeries(np.zeros(m_max))  # zero datum, zero majorant
    char = spec.characteristic(t)
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
                          k: int, t: float, check_tol: float = 1e-6) -> float:
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
    """
    if k < 1:
        raise ValueError("degree index k starts at 1")
    grid = traj.grid
    pos = int(np.argmin(np.abs(grid - t)))
    if abs(grid[pos] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the trajectory grid")
    series = traj.norms
    n = len(series[0])
    f0 = series[0]
    sig0t = schedule.sigma_squared(0.0, float(t))
    term1 = sum(f0.coeff(m) * math.comb(2 * m, 2 * k) * sig0t ** (m - k)
                for m in range(k, n + 1))
    if pos == 0:
        return float(term1)

    fvals = np.array([[series[i].coeff(m) for m in range(1, n + 1)]
                      for i in range(pos + 1)])
    svals = grid[:pos + 1]
    deg = np.arange(1, n + 1)
    gam = np.array([[_gamma_factor(l, m, k, 1.0) for m in deg] for l in deg])
    power = np.maximum(deg[:, None] + deg[None, :] - 1 - k, 0)

    def simpson_on(level: int) -> float:
        # level-fold midpoint refinement with linear interpolation of F
        ss = np.linspace(svals[0], svals[-1], level * pos + 1)
        fs = np.stack([np.interp(ss, svals, fvals[:, col]) for col in range(n)],
                      axis=1)
        xi2 = np.maximum(schedule.sigma_squared(ss, float(t)), 0.0)
        rate = schedule.adot_norm_at(ss)
        source = np.einsum("il,im,lm,ilm->i", fs, fs, gam,
                           xi2[:, None, None] ** power)
        return float(_simpson_values(0.5 * rate * source, ss[1] - ss[0]))

    base = simpson_on(2)
    refined = simpson_on(4)
    scale = max(abs(refined), abs(term1), 1e-300)
    if abs(refined - base) > check_tol * scale:
        raise ResolutionError(
            f"trajectory grid too coarse for the coefficient bound: "
            f"Simpson refinement moved by {abs(refined - base):.3e}")
    return float(term1 + refined)


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
