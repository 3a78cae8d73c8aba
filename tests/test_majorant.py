import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ferroflow import cli as cli_module
from ferroflow import flow as flow_module
from ferroflow.algebra import GeneratorSet
from ferroflow.errors import (
    CharacteristicCrossingError,
    ExistenceError,
    ResolutionError,
)
from ferroflow.flow import flow_integrate
from ferroflow.majorant import (
    CharacteristicSolution,
    MajorantSpec,
    existence_check,
    hopflax_solve,
    majorant_coefficients,
    rhs_coefficient_bound,
    _gamma_factor,
)
from ferroflow.norms import NormSeries
from ferroflow.psi4 import quartic_bare_action
from ferroflow.schedule import ScaleSchedule, _simpson_values, simpson_refine

from conftest import count_rate_norm_calls, desk_instance, synthetic_schedule
from oracles import initial_datum, majorant_value


def cardano_roots(coeffs):
    """Independent closed-form cubic solver (trigonometric/Cardano)."""
    a, b, c, d = (float(x) for x in coeffs)
    if a == 0.0:
        raise ValueError("not a cubic")
    # depress: x = t - b / (3a)
    shift = b / (3.0 * a)
    p = (3.0 * a * c - b * b) / (3.0 * a * a)
    q = (2.0 * b ** 3 - 9.0 * a * b * c + 27.0 * a * a * d) / (27.0 * a ** 3)
    roots = []
    if p == 0.0:
        roots = [np.cbrt(-q)]
    else:
        disc = -4.0 * p ** 3 - 27.0 * q * q
        if p < 0.0 and disc >= 0.0:
            m = 2.0 * math.sqrt(-p / 3.0)
            arg = 3.0 * q / (p * m)
            arg = min(1.0, max(-1.0, arg))
            theta = math.acos(arg)
            roots = [m * math.cos((theta - 2.0 * math.pi * k) / 3.0)
                     for k in range(3)]
        else:
            half = -q / 2.0
            rad = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
            roots = [np.cbrt(half + rad) + np.cbrt(half - rad)]
    out = [r - shift for r in roots]
    for r in out:
        resid = abs(((a * r + b) * r + c) * r + d)
        scale = max(abs(a), abs(b), abs(c), abs(d))
        assert resid <= 1e-10 * max(scale, 1.0), "oracle root inaccurate"
    return out


HOMOTOPY_STEPS = 16
RESIDUAL_TOL = 1e-12


def cubic_coeffs(char, tau, z):
    """Coefficients (highest power first) of the characteristic cubic of
    ``char`` at time ``tau``: ``forward(z0) == z`` with its denominator
    cleared."""
    if char.kind == "logarithmic":
        l2 = char.lam ** 2
        return [-l2, l2 * z, 1.0 - l2 * tau, -z]
    a, s2 = char.alpha, char.sigma ** 2
    return [4.0 * a * tau, 0.0, 12.0 * a * s2 * tau - 1.0, z]


def invert_by_roots(char, z):
    """Reference inversion of one real or complex node by another method
    than ``CharacteristicSolution.invert``: 16 homotopy steps from the
    identity at ``tau = 0``, each solving the node's cubic with ``np.roots``
    and keeping the root nearest the previous one, then a damped Newton
    polish and the residual check; a real node also gets the window check."""
    if char.tau == 0.0:
        return z
    z0 = z
    for j in range(1, HOMOTOPY_STEPS + 1):
        tau_j = char.tau * j / HOMOTOPY_STEPS
        coeffs = cubic_coeffs(char, tau_j, z)
        if abs(coeffs[0]) < 1e-300:
            continue
        roots = np.roots(coeffs)
        z0 = roots[np.argmin(np.abs(roots - z0))]
    z0 = polish_by_node(char, z0, z)
    resid = abs(char.forward(z0) - z)
    if not np.isfinite(resid) or resid > RESIDUAL_TOL * max(1.0, abs(z)):
        raise CharacteristicCrossingError("inversion failed", critical_z0=z0)
    if isinstance(z, complex):
        return complex(z0)
    z0 = float(np.real(z0))
    if abs(z0) >= char.z0_window or char.slope(z0) <= 0.0:
        raise CharacteristicCrossingError("crossing", critical_z0=z0)
    return z0


def polish_by_node(char, z0, z):
    """Scalar reference of the damped Newton polish of one node."""
    for _ in range(60):
        resid = char.forward(z0) - z
        if abs(resid) <= 0.25 * RESIDUAL_TOL * max(1.0, abs(z)):
            break
        d = char.slope(z0)
        if d == 0:
            break
        step = resid / d
        if abs(step) > 0.5 * max(1.0, abs(z0)):
            step *= 0.5 * max(1.0, abs(z0)) / abs(step)
        z0 = z0 - step
    return z0


def random_characteristic(rng, kind):
    """An admissible quartic ``(alpha, sigma, tau)`` or logarithmic
    ``(lam, tau)`` characteristic."""
    if kind == "quartic":
        alpha = float(rng.uniform(0.05, 0.4))
        sigma = float(rng.uniform(0.1, 0.6))
        tau = float(rng.uniform(0.05, 0.8)) / (12.0 * alpha * sigma ** 2 + 1.0)
        return CharacteristicSolution.quartic(alpha, sigma, tau)
    lam = float(rng.uniform(0.5, 2.0))
    tau = float(rng.uniform(0.05, 0.9)) / lam ** 2
    return CharacteristicSolution.logarithmic(lam, tau)


def half_circle(radius, nodes=64):
    """The upper half of the ``nodes`` extraction nodes on a circle."""
    theta = 2.0 * np.pi * np.arange(nodes // 2) / nodes
    return radius * np.exp(1j * theta)


def cauchy_coefficients(char, m_max, nodes=128):
    """Oracle for ``majorant_coefficients``: the Cauchy integral of
    ``phi = datum(z0) - tau u0(z0)**2 / 2``, with ``z0`` from
    ``invert_by_roots``, by trapezoid (discrete Fourier) quadrature on a
    circle of half the smaller of ``char.z_window`` and the datum's radius
    (``1/lam``; 1 for the entire quartic datum), ``phi`` being even in ``z``.
    Returns the coefficients ``phi_1 .. phi_m_max`` and the oracle's rounding
    floor ``64 eps max_j |phi(z_j)| / radius**(2m)`` of each."""
    datum = 1.0 / char.lam if char.kind == "logarithmic" else 1.0
    radius = 0.5 * min(char.z_window, datum)
    z0 = np.array([invert_by_roots(char, complex(z))
                   for z in half_circle(radius, nodes)])
    u = char.u0(z0)
    half = initial_datum(char, z0) - 0.5 * char.tau * u * u
    vals = np.concatenate([half, half])
    spectrum = np.fft.fft(vals) / nodes
    scale = radius ** (2 * np.arange(1, m_max + 1))
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(vals)) / scale
    return spectrum[2:2 * m_max + 1:2].real / scale, floor


class TestRescaledTime:
    def test_zero(self, rng):
        sched = synthetic_schedule(rng, 3)
        assert sched.tau(0.0) == 0.0

    def test_constant_rate(self):
        c0 = np.eye(2)
        sched = ScaleSchedule.from_cdot(
            lambda t: np.broadcast_to(c0, np.shape(t) + c0.shape), T=3.0,
            pairs=2, gram_rate=lambda t: np.full(np.shape(t), 4.0))
        assert sched.tau(2.0) == pytest.approx(2.0, rel=1e-12)

    def test_additive(self, rng):
        sched = synthetic_schedule(rng, 3)
        total = sched.tau(1.0)
        split = sched.tau(0.4) + simpson_refine(
            lambda s: sched.adot_norm_at(s), 0.4, 1.0)
        assert abs(total - np.real(split)) < 1e-10


class TestCharacteristicInversion:
    def test_identity_at_zero_time(self):
        assert CharacteristicSolution.logarithmic(1.2, 0.0).invert(0.37) == 0.37
        assert CharacteristicSolution.quartic(0.3, 0.4, 0.0).invert(0.37) == 0.37

    def test_origin_fixed(self):
        assert CharacteristicSolution.logarithmic(1.2, 0.2).invert(0.0) == \
            pytest.approx(0.0, abs=1e-14)
        assert CharacteristicSolution.quartic(0.3, 0.4, 0.2).invert(0.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_forward_residual_random_admissible(self, rng):
        for _ in range(40):
            alpha = float(rng.uniform(0.05, 0.5))
            sigma = float(rng.uniform(0.0, 0.8))
            char = CharacteristicSolution.quartic(alpha, sigma, 0.0)
            tau_max = 0.9 / (12.0 * alpha * max(sigma ** 2, 1e-9))
            tau = float(rng.uniform(0.05, min(tau_max, 2.0)))
            char = CharacteristicSolution.quartic(alpha, sigma, tau)
            z0_true = float(rng.uniform(-0.9, 0.9)) * char.z0_window
            z = char.forward(z0_true)
            z0 = char.invert(z)
            assert abs(char.forward(z0) - z) <= 1e-12 * max(1.0, abs(z))
            assert z0 == pytest.approx(z0_true, abs=1e-9)

    def test_forward_residual_log(self, rng):
        for _ in range(40):
            lam = float(rng.uniform(0.5, 2.0))
            tau = float(rng.uniform(0.05, 0.9)) / lam ** 2
            char = CharacteristicSolution.logarithmic(lam, tau)
            z0_true = float(rng.uniform(-0.9, 0.9)) * char.z0_window
            z = char.forward(z0_true)
            z0 = char.invert(z)
            assert abs(char.forward(z0) - z) <= 1e-12 * max(1.0, abs(z))
            assert z0 == pytest.approx(z0_true, abs=1e-9)

    def test_cardano_oracle_agreement(self, rng):
        for _ in range(25):
            alpha = float(rng.uniform(0.05, 0.4))
            sigma = float(rng.uniform(0.1, 0.6))
            tau = float(rng.uniform(0.05, 0.8)) / (12.0 * alpha * sigma ** 2 + 1.0)
            char = CharacteristicSolution.quartic(alpha, sigma, tau)
            z = 0.7 * char.z_window
            z0 = char.invert(z)
            roots = cardano_roots(cubic_coeffs(char, tau, z))
            assert min(abs(z0 - r) for r in roots) <= 1e-11

    def test_crossing_detected_with_critical_point(self):
        char = CharacteristicSolution.quartic(0.3, 0.4, 0.5)
        with pytest.raises(CharacteristicCrossingError) as info:
            char.invert(char.z_window * 1.1)
        assert info.value.critical_z0 is not None

    def test_slope_condition_matches_window(self):
        char = CharacteristicSolution.quartic(0.25, 0.3, 0.6)
        w = char.z0_window
        assert char.slope(0.99 * w) > 0.0
        assert char.slope(1.01 * w) < 0.0
        charl = CharacteristicSolution.logarithmic(1.1, 0.4)
        wl = charl.z0_window
        assert charl.slope(0.99 * wl) > 0.0
        assert charl.slope(1.01 * wl) < 0.0

    def test_log_window_is_exact_fold(self):
        char = CharacteristicSolution.logarithmic(1.1, 0.4)
        assert char.z0_window == pytest.approx(0.43485064721052, abs=1e-12)
        assert abs(char.slope(char.z0_window)) <= 1e-12

    def test_log_no_false_crossing_inside_exact_window(self):
        # 0.42 (slope +0.051) lies between the lower bound 0.41434 given by
        # (1 - u)^2 >= 1 - 2u and the exact window 0.43485
        char = CharacteristicSolution.logarithmic(1.1, 0.4)
        assert char.slope(0.42) > 0.0
        assert char.invert(char.forward(0.42)) == pytest.approx(0.42, abs=1e-12)

    def test_log_crossing_detected_with_critical_point(self):
        char = CharacteristicSolution.logarithmic(1.1, 0.4)
        with pytest.raises(CharacteristicCrossingError) as info:
            char.invert(char.z_window * 1.1)
        assert info.value.critical_z0 is not None

    def test_log_window_accurate_near_boundary(self):
        # lam = 1 makes u* = z0_window^2 with a = tau; compare against the
        # textbook root evaluated in 50-digit decimal arithmetic
        for a in (1e-6, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            with localcontext() as ctx:
                ctx.prec = 50
                ad = Decimal(a)
                exact = ((2 + ad) - (ad * ad + 8 * ad).sqrt()) / 2
            w = CharacteristicSolution.logarithmic(1.0, a).z0_window
            assert w * w == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert CharacteristicSolution.logarithmic(1.0, 1.0).z0_window == 0.0
        assert CharacteristicSolution.logarithmic(2.0, 0.3).z0_window == 0.0

    def test_odd_symmetry_of_transported_derivative(self, rng):
        char = CharacteristicSolution.quartic(0.2, 0.3, 0.25)
        for z in (0.05, 0.2, 0.4):
            zp = char.invert(z)
            zm = char.invert(-z)
            assert zp == pytest.approx(-zm, abs=1e-12)
            assert char.u0(zp) == pytest.approx(-char.u0(zm), abs=1e-12)

    def test_nonnegative_alpha_required(self):
        with pytest.raises(ValueError):
            CharacteristicSolution.quartic(-0.1, 0.3, 0.1)

    def test_quartic_z_window_is_the_fold_value(self, rng):
        for _ in range(20):
            char = random_characteristic(rng, "quartic")
            fold = char.forward(char.z0_window)
            assert char.z_window == pytest.approx(fold, rel=1e-14, abs=0.0)
        # where forward(z0_window) would overflow
        tiny = CharacteristicSolution.quartic(1e-300, 0.2, 0.03)
        assert math.isfinite(tiny.z_window) and tiny.z_window > 1e149

    def test_non_finite_nodes_fail_quietly(self):
        char = CharacteristicSolution.quartic(0.2, 0.3, 0.25)
        for bad in (np.inf, -np.inf, np.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CharacteristicCrossingError):
                    char.invert(np.array([0.1, bad, 0.2]))
                with pytest.raises(CharacteristicCrossingError):
                    CharacteristicSolution.quartic(0.2, 0.3, 0.0).invert(bad)

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_matches_mpmath_root(self, rng, kind):
        # the root of the float-parametrized map in 50 digits, bracketed on
        # [0, z0_window] where forward is monotone; Newton's error is
        # measured as a forward residual, |z0 - r| slope(r)
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        for _ in range(4):
            char = random_characteristic(rng, kind)
            with mpmath.workdps(50):
                tau = mpmath.mpf(char.tau)
                if kind == "quartic":
                    a, s2 = mpmath.mpf(char.alpha), mpmath.mpf(char.sigma ** 2)

                    def u0(x):
                        return 12 * a * s2 * x + 4 * a * x ** 3
                else:
                    l2 = mpmath.mpf(char.lam ** 2)

                    def u0(x):
                        return l2 * x / (1 - l2 * x * x)

                for frac in (0.5, 0.9, 0.99, 0.999):
                    for z in (frac * char.z_window, -frac * char.z_window):
                        r = mpmath.findroot(
                            lambda x: x - tau * u0(x) - abs(z),
                            (0, mpmath.mpf(char.z0_window)), solver="illinois")
                        r = math.copysign(float(r), z)
                        z0 = char.invert(z)
                        err = abs(z0 - r) * char.slope(r)
                        assert err <= 4 * eps * max(abs(z), abs(r)), (frac, z)

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_inverts_close_to_the_fold(self, rng, kind):
        # the fold is a double root of forward(z0) == z_window, where the
        # slope tends to zero; Newton still settles inside the window, with
        # a residual at the rounding of forward (of the size of z0, not z)
        for _ in range(10):
            char = random_characteristic(rng, kind)
            for frac in (1.0 - 1e-10, 1.0 - 1e-14):
                z = frac * char.z_window
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    z0 = char.invert(z)
                assert 0.0 < z0 < char.z0_window
                assert abs(char.forward(z0) - z) <= \
                    4 * np.finfo(float).eps * z0
            with pytest.raises(CharacteristicCrossingError):
                char.invert(char.z_window)

    def test_last_float_below_the_window_stays_inside_the_fold(self, rng):
        # z_window is forward(z0_window) rounded, and the fold is a double
        # root, so a free Newton step there can land past z0_window: an
        # unclamped iteration ended past it on this characteristic and on
        # 33 of the 600 random ones
        eps = np.finfo(float).eps
        chars = [CharacteristicSolution.logarithmic(
            lam=1.358286645890059, tau=0.46878139744642633)]
        chars += [random_characteristic(rng, kind)
                  for _ in range(300) for kind in ("quartic", "logarithmic")]
        for char in chars:
            z = np.nextafter(char.z_window, 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                z0 = char.invert(z)
                assert char.invert(-z) == -z0
            assert 0.0 < z0 <= char.z0_window, (char, z0)
            assert abs(char.forward(z0) - z) <= 4 * eps * z0, char


class TestArrayInversion:
    def test_scalar_inputs_keep_scalar_types(self):
        char = CharacteristicSolution.quartic(0.2, 0.3, 0.25)
        assert type(char.invert(0.2)) is float
        with pytest.raises(TypeError):
            char.invert(0.2 + 0.1j)
        with pytest.raises(TypeError):
            char.invert(np.array([0.2, 0.1j]))
        assert type(char.invert(np.float64(0.2))) is float
        assert char.invert(np.asarray([0.2])).shape == (1,)

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_real_array_inverts_elementwise(self, rng, kind):
        char = random_characteristic(rng, kind)
        zs = np.linspace(-0.9, 0.9, 12).reshape(3, 4) * char.z_window
        zs = char.forward(zs)
        got = char.invert(zs)
        assert got.dtype == np.float64 and got.shape == (3, 4)
        want = [invert_by_roots(char, float(z)) for z in zs.ravel()]
        np.testing.assert_allclose(got.ravel(), want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_one_node_outside_window_raises_with_its_z0(self, rng, kind):
        char = random_characteristic(rng, kind)
        bad = 1.1 * char.z_window
        zs = np.array([0.1 * char.z_window, -0.3 * char.z_window, bad,
                       0.2 * char.z_window])
        with pytest.raises(CharacteristicCrossingError):
            invert_by_roots(char, float(bad))
        with pytest.raises(CharacteristicCrossingError) as got:
            char.invert(zs)
        # the fold on the node's side
        assert got.value.critical_z0 == math.copysign(char.z0_window, bad)
        with pytest.raises(CharacteristicCrossingError) as got:
            char.invert(-zs)
        assert got.value.critical_z0 == -char.z0_window

    def test_coefficients_invert_no_nodes(self, rng, monkeypatch):
        # the series reversion runs no characteristic inversion
        sched = synthetic_schedule(rng, 4)
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.05)
        calls = []
        invert = CharacteristicSolution.invert

        def counted(self, z):
            calls.append(np.shape(z))
            return invert(self, z)

        monkeypatch.setattr(CharacteristicSolution, "invert", counted)
        majorant_coefficients(spec, existence_check(spec, 0.8), m_max=4)
        assert calls == []


class TestMajorantValue:
    def _quartic_spec(self, rng, alpha=0.02):
        sched = synthetic_schedule(rng, 4)
        return MajorantSpec(schedule=sched, quartic_alpha=alpha)

    def test_bare_value_at_time_zero(self, rng):
        spec = self._quartic_spec(rng)
        for z in (0.0, 0.3, 0.9):
            assert majorant_value(spec, 0.0, z) == pytest.approx(
                spec.quartic_alpha * z ** 4, abs=1e-14)

    def test_even_in_z(self, rng):
        spec = self._quartic_spec(rng)
        for z in (0.1, 0.4, 0.8):
            assert majorant_value(spec, 0.7, z) == pytest.approx(
                majorant_value(spec, 0.7, -z), abs=1e-12)

    def test_value_at_origin_is_shifted_datum(self, rng):
        spec = self._quartic_spec(rng)
        sigma2 = spec.schedule.sigma_squared(0.0, 0.8)
        assert majorant_value(spec, 0.8, 0.0) == pytest.approx(
            spec.quartic_alpha * sigma2 ** 2, rel=1e-10)

    def test_monotone_in_time_empirically(self, rng):
        spec = self._quartic_spec(rng)
        times = np.linspace(0.0, 1.0, 6)
        vals = [majorant_value(spec, float(t), 0.5) for t in times]
        assert np.all(np.diff(vals) >= -1e-14)

    def test_matches_derivative_quadrature(self, rng):
        # the value is the datum constant plus the integral of the
        # transported derivative
        spec = self._quartic_spec(rng)
        char = spec.characteristic(existence_check(spec, 0.9))
        v0 = majorant_value(spec, 0.9, 0.0)
        z = 0.45
        grid = np.linspace(0.0, z, 2001)
        u = np.array([np.real(char.u0(char.invert(float(x)))) for x in grid])
        integral = np.trapezoid(u, grid)
        assert majorant_value(spec, 0.9, z) == pytest.approx(v0 + integral,
                                                             abs=1e-8)

    def test_inadmissible_raises(self, rng):
        sched = synthetic_schedule(rng, 4, scale=2.0)
        spec = MajorantSpec(schedule=sched, quartic_alpha=5.0)
        if not existence_check(spec, sched.T).holds:
            with pytest.raises(ExistenceError):
                majorant_value(spec, sched.T, 0.1)

    @pytest.mark.parametrize("spec_args", [
        {"quartic_alpha": 0.3},
        {"radius": 1.5},
    ], ids=["quartic", "logarithmic"])
    def test_beyond_the_window_raises(self, spec_args):
        # past the fold a crossed characteristic gave a negative value
        # (quartic, 10 z_window) or nan (logarithmic, 3 z_window)
        sched = synthetic_schedule(np.random.Generator(np.random.Philox(3)), 4)
        spec = MajorantSpec(schedule=sched, **spec_args)
        z_window = spec.characteristic(existence_check(spec, 0.9)).z_window
        assert majorant_value(spec, 0.9, 0.5 * z_window) > 0.0
        for factor in (1.01, 3.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CharacteristicCrossingError):
                    majorant_value(spec, 0.9, factor * z_window)


class TestMajorantCoefficients:
    def test_time_zero_recovers_bare_quartic(self, rng):
        sched = synthetic_schedule(rng, 4)
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.05)
        phi = majorant_coefficients(spec, existence_check(spec, 0.0), m_max=4)
        assert phi.coeff(2) == pytest.approx(0.05, abs=1e-12)
        assert phi.coeff(1) <= 1e-10
        assert phi.coeff(3) <= 1e-10

    def test_time_zero_rounding_is_quiet(self, rng):
        sched = synthetic_schedule(rng, 4)
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = majorant_coefficients(spec, existence_check(spec, 0.0), m_max=4)
        assert phi.coeff(1) == 0.0

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_series_matches_cauchy_oracle(self, rng, kind):
        sched = synthetic_schedule(rng, 4)
        # radius 1.3 takes lam**2 tau to 0.84 at t = 0.75
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.05) \
            if kind == "quartic" else MajorantSpec(schedule=sched, radius=1.3)
        for t in (0.0, 0.3, 0.6, 0.75):
            for m_max in (1, 4, 6):
                char = spec.characteristic(existence_check(spec, t))
                want, floor = cauchy_coefficients(char, m_max)
                got = majorant_coefficients(spec, existence_check(spec, t),
                                            m_max).coefficients
                assert np.all(np.abs(got - want) <= floor), (t, m_max)

    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_series_matches_mpmath_taylor(self, kind):
        mpmath = pytest.importorskip("mpmath")
        inst = desk_instance(sites=2)
        spec = MajorantSpec(schedule=inst.schedule, quartic_alpha=inst.alpha) \
            if kind == "quartic" else MajorantSpec(schedule=inst.schedule,
                                                   radius=0.6)
        for t in (0.2, 1.0, 2.0):
            char = spec.characteristic(existence_check(spec, t))
            with mpmath.workdps(50):
                tau = mpmath.mpf(char.tau)
                if kind == "quartic":
                    a, s = mpmath.mpf(char.alpha), mpmath.mpf(char.sigma)

                    def u0(x):
                        return 12 * a * s ** 2 * x + 4 * a * x ** 3

                    def phi0(x):
                        return a * ((s + x) ** 4 + (s - x) ** 4) / 2
                else:
                    l2 = mpmath.mpf(char.lam) ** 2

                    def u0(x):
                        return l2 * x / (1 - l2 * x * x)

                    def phi0(x):
                        return -mpmath.log(1 - l2 * x * x) / 2

                def phi(z):
                    z0 = mpmath.findroot(lambda x: x - tau * u0(x) - z, z)
                    return phi0(z0) - tau * u0(z0) ** 2 / 2

                taylor = mpmath.taylor(phi, 0, 6)
                want = np.array([float(taylor[2 * m]) for m in (1, 2, 3)])
            got = majorant_coefficients(spec, existence_check(spec, t),
                                        m_max=3).coefficients
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("spec_args", [
        {"quartic_alpha": 0.02},
        {"quartic_alpha": 0.3},
        {"radius": 1.5},
        {"radius": 3.0},
    ], ids=["quartic-0.02", "quartic-0.3", "logarithmic-1.5", "logarithmic-3"])
    def test_series_matches_newton_value(self, spec_args):
        # series reversion against Newton inversion at real z, two routes
        # with no formula in common: phi(t, z) - phi(t, 0) = sum phi_m z**2m
        # inside half of the window and of the datum's radius (1/lam; 1 for
        # the entire quartic datum)
        sched = synthetic_schedule(np.random.Generator(np.random.Philox(3)), 4)
        spec = MajorantSpec(schedule=sched, **spec_args)
        for t in (0.0, 0.4, 0.9):
            char = spec.characteristic(existence_check(spec, t))
            datum = 1.0 / char.lam if char.kind == "logarithmic" else 1.0
            half = 0.5 * min(char.z_window, datum)
            phi = majorant_coefficients(spec, existence_check(spec, t), m_max=60)
            at_origin = majorant_value(spec, t, 0.0)
            for frac in (0.1, 0.5, 0.9):
                z = frac * half
                want = majorant_value(spec, t, z) - at_origin
                got = 0.0  # sum_m phi_m z**2m by Horner's rule
                for c in phi.coefficients[::-1]:
                    got = (got + c) * z ** 2
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (t, z)

    @pytest.mark.parametrize("spec_args", [
        {"quartic_alpha": 0.0},
        {"bare_series": NormSeries([0.0, 0.0, 0.0])},
    ], ids=["quartic", "logarithmic"])
    def test_zero_datum_has_zero_majorant(self, rng, spec_args):
        spec = MajorantSpec(schedule=synthetic_schedule(rng, 4), **spec_args)
        for t in (0.0, 0.8):
            phi = majorant_coefficients(spec, existence_check(spec, t), m_max=4)
            np.testing.assert_array_equal(phi.coefficients, np.zeros(4))

    @pytest.mark.parametrize("alpha", [1e-160, 1e-300, 1e-310])
    def test_tiny_coupling_is_finite_and_quiet(self, rng, alpha):
        sched = synthetic_schedule(rng, 4)
        spec = MajorantSpec(schedule=sched, quartic_alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = majorant_coefficients(spec, existence_check(spec, 0.8), m_max=6)
        assert np.all(np.isfinite(phi.coefficients))
        assert phi.coeff(2) == pytest.approx(alpha, rel=1e-6)

    def test_tiny_coupling_dominates_the_flow(self):
        # phi_1 ~ alpha sigma**2 sits far below the alpha z**4 term: the
        # majorant still dominates F_1 at every t > 0
        inst = desk_instance(sites=2, alpha=1e-50)
        traj = flow_integrate(inst.schedule, inst.bare_action, steps=20,
                              t_end=2.0)
        spec = MajorantSpec(schedule=inst.schedule, quartic_alpha=1e-50)
        for t, row in zip(traj.grid, traj.norms):
            phi = majorant_coefficients(
                spec, existence_check(spec, float(t)), m_max=2)
            assert phi.coeff(1) >= row[0]
            assert phi.coeff(2) >= row[1]
        assert phi.coeff(1) > 0.0

    @pytest.mark.parametrize("coefficients", [[math.nan], [math.nan, 0.02]],
                             ids=["nan", "nan-and-quartic"])
    def test_nan_bare_series_refused(self, rng, coefficients):
        # NaN passes NormSeries' sign check and convergence_radius skips it:
        # unrefused, [nan] would read as R = inf and the zero majorant, and
        # [nan, 0.02] as the radius of F_2 alone
        with pytest.raises(ValueError, match="NaN"):
            MajorantSpec(schedule=synthetic_schedule(rng, 4),
                         bare_series=NormSeries(coefficients))

    def test_nan_quartic_coupling_refused(self, rng):
        # NaN passes ``< 0``; unrefused, it would surface as an
        # ExistenceError at R = nan
        with pytest.raises(ValueError, match="nonnegative"):
            MajorantSpec(schedule=synthetic_schedule(rng, 4),
                         quartic_alpha=math.nan)

    @pytest.mark.parametrize("radius", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_radius_refused(self, rng, radius):
        # unrefused, NaN surfaced as R = nan in the existence report
        with pytest.raises(ValueError, match="radius"):
            MajorantSpec(schedule=synthetic_schedule(rng, 4), radius=radius)

    def test_infinite_radius_allowed(self, rng):
        spec = MajorantSpec(schedule=synthetic_schedule(rng, 4), radius=math.inf)
        assert spec.R == math.inf

    def test_log_datum_series(self, rng):
        sched = synthetic_schedule(rng, 4)
        spec = MajorantSpec(schedule=sched,
                            bare_series=NormSeries([0.0, 0.02, 0.005, 0.001]))
        assert existence_check(spec, 1.0).holds
        phi = majorant_coefficients(spec, existence_check(spec, 1.0), m_max=4)
        assert np.all(phi.coefficients >= 0.0)
        assert np.all(np.isfinite(phi.coefficients))

    def test_domination_of_flow(self, rng):
        sched = synthetic_schedule(rng, 4)
        alpha = 0.03
        bare = quartic_bare_action(GeneratorSet(8), alpha)
        traj = flow_integrate(sched, bare, steps=80, t_end=1.0)
        spec = MajorantSpec(schedule=sched, quartic_alpha=alpha)
        for i in (20, 50, 80):
            phi = majorant_coefficients(
                spec, existence_check(spec, float(traj.grid[i])), m_max=4)
            for m in range(1, 5):
                assert phi.coeff(m) >= traj.norms[i, m - 1] - 1e-8


class TestExistence:
    def test_zero_schedule_always_holds(self):
        sched = ScaleSchedule.from_cdot(
            lambda t: np.zeros(np.shape(t) + (3, 3)), T=1.0, pairs=3,
            gram_rate=lambda t: np.zeros(np.shape(t)))
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.4)
        rep = existence_check(spec, 1.0)
        assert rep.holds and rep.tau == 0.0 and rep.sigma == 0.0

    def test_log_window_nonempty_iff_existence(self, rng):
        sched = synthetic_schedule(rng, 4)
        for t in (0.3, 0.7, 1.0):
            tau = sched.tau(t)
            sigma = math.sqrt(sched.sigma_squared(0.0, t))
            # radii on both sides of sqrt(tau) + sigma = R, all above sigma
            for f in (0.5, 0.9, 1.1, 2.0):
                spec = MajorantSpec(schedule=sched,
                                    radius=sigma + f * math.sqrt(tau))
                report = existence_check(spec, t)
                assert report.holds == (f > 1.0)
                assert (spec.characteristic(report).z0_window > 0.0) == report.holds

    def test_quartic_violation(self, rng):
        sched = synthetic_schedule(rng, 3, scale=1.2)
        s2 = sched.sigma_squared(0.0, sched.T)
        tau = sched.tau(sched.T)
        alpha_bad = 1.2 / (12.0 * s2 * tau)
        spec = MajorantSpec(schedule=sched, quartic_alpha=alpha_bad)
        assert not existence_check(spec, sched.T).holds

    def test_shrinking_alpha_opens_window(self, rng):
        sched = synthetic_schedule(rng, 3, scale=1.2)
        alpha = 1.0
        found = False
        for _ in range(40):
            spec = MajorantSpec(schedule=sched, quartic_alpha=alpha)
            if existence_check(spec, sched.T).holds:
                found = True
                break
            alpha *= 0.5
        assert found

    @pytest.mark.parametrize("sites", [2, 4, 6])
    @pytest.mark.parametrize("kind", ["quartic", "logarithmic"])
    def test_array_of_scales_gives_the_scalar_reports(self, sites, kind):
        # one tau query for the array, and every report equal to the one of
        # its scale alone, bit for bit
        inst = desk_instance(sites)
        spec = MajorantSpec(schedule=inst.schedule, quartic_alpha=inst.alpha) \
            if kind == "quartic" else MajorantSpec(schedule=inst.schedule,
                                                   radius=0.6)
        times = np.linspace(0.0, 2.0, 401)[np.unique(
            np.linspace(0, 400, 11).astype(int))]
        reports = existence_check(spec, times)
        assert reports == [existence_check(spec, t) for t in times.tolist()]
        assert all(type(report.tau) is float for report in reports)

    def test_coefficients_refuse_a_failed_report(self, rng):
        sched = synthetic_schedule(rng, 3, scale=1.2)
        alpha_bad = 1.2 / (12.0 * sched.sigma_squared(0.0, sched.T)
                           * sched.tau(sched.T))
        spec = MajorantSpec(schedule=sched, quartic_alpha=alpha_bad)
        with pytest.raises(ExistenceError, match="holds = false"):
            majorant_coefficients(spec, existence_check(spec, sched.T), 4)

    def test_report_text_fields(self, rng):
        sched = synthetic_schedule(rng, 3)
        spec = MajorantSpec(schedule=sched, quartic_alpha=0.02)
        text = existence_check(spec, 1.0).as_text()
        for token in ("R", "tau", "sigma", "holds"):
            assert token in text


def rhs_coefficient_bound_by_loop(traj, schedule, k, t):
    """The coefficient bound with the per-node Simpson integrand on the
    refined grid: every node queries sigma^2 and the rate norm at one scale
    and sums ``_gamma_factor`` over degree pairs."""
    grid = traj.grid
    pos = int(np.argmin(np.abs(grid - t)))
    norms = traj.norms
    n = norms.shape[1]
    sig0t = schedule.sigma_squared(0.0, float(t))
    term1 = sum(norms[0, m - 1] * math.comb(2 * m, 2 * k) * sig0t ** (m - k)
                for m in range(k, n + 1))
    fvals = np.array([[norms[i, m - 1] for m in range(1, n + 1)]
                      for i in range(pos + 1)])
    svals = grid[:pos + 1]

    def integrand(s, f_at_s):
        xi = math.sqrt(max(schedule.sigma_squared(float(s), float(t)), 0.0))
        rate = float(schedule.adot_norm_at(float(s)))
        tot = 0.0
        for l in range(1, n + 1):
            for m in range(max(1, k + 1 - l), n + 1):
                tot += f_at_s[l - 1] * f_at_s[m - 1] * _gamma_factor(l, m, k, xi)
        return 0.5 * rate * tot

    ss = np.linspace(svals[0], svals[-1], 4 * pos + 1)
    fs = np.array([np.interp(ss, svals, fvals[:, col]) for col in range(n)]).T
    ys = np.array([integrand(s, f) for s, f in zip(ss, fs)])
    return float(term1 + _simpson_values(ys, ss[1] - ss[0]))


def count_schedule_reads(monkeypatch) -> dict:
    """Count ``ScaleSchedule.sigma_squared`` and ``adot_norm_at`` calls
    from now on."""
    reads = {"sigma_squared": 0, "adot_norm_at": 0}
    for name in reads:
        read = getattr(ScaleSchedule, name)

        def counting(self, *args, _name=name, _read=read):
            reads[_name] += 1
            return _read(self, *args)

        monkeypatch.setattr(ScaleSchedule, name, counting)
    return reads


def bound_instance(which, rng):
    """A schedule and a flow trajectory on it: ``verify``'s synthetic
    instance or the psi4 desk instance."""
    if which == "desk":
        inst = desk_instance()
        sched, bare = inst.schedule, inst.bare_action
    else:
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.04)
    return sched, flow_integrate(sched, bare, steps=60, t_end=1.0)


class TestCoefficientBound:
    @pytest.mark.parametrize("which", ["synthetic", "desk"])
    def test_tensor_form_matches_per_node_loop(self, rng, which):
        sched, traj = bound_instance(which, rng)
        for i in (20, 40, 60):
            t = float(traj.grid[i])
            for k in range(1, 5):
                got = rhs_coefficient_bound(traj, sched, k, t)
                want = rhs_coefficient_bound_by_loop(traj, sched, k, t)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("which", ["synthetic", "desk"])
    def test_sequence_form_is_the_scalar_form(self, rng, which):
        # every bound of a sequence of k is bitwise the bound of that k alone
        sched, traj = bound_instance(which, rng)
        for i in (0, 20, 40, 60):
            t = float(traj.grid[i])
            got = rhs_coefficient_bound(traj, sched, range(1, 5), t)
            assert isinstance(got, list) and len(got) == 4
            for k, bound in enumerate(got, start=1):
                assert bound == rhs_coefficient_bound(traj, sched, k, t)
                if i:
                    want = rhs_coefficient_bound_by_loop(traj, sched, k, t)
                    assert bound == pytest.approx(want, rel=1e-12, abs=0.0)
        assert rhs_coefficient_bound(traj, sched, [], t) == []

    def test_sequence_form_reads_the_schedule_once_per_time(self, rng,
                                                            monkeypatch):
        # sigma^2 from 0 and at the nodes of both Simpson grids, the rate
        # norm at those nodes: three and two reads for all four k
        sched, traj = bound_instance("synthetic", rng)
        reads = count_schedule_reads(monkeypatch)
        rhs_coefficient_bound(traj, sched, range(1, 5), float(traj.grid[40]))
        assert reads == {"sigma_squared": 3, "adot_norm_at": 2}

    def test_sequence_form_refuses_a_k_below_one_before_reading(
            self, rng, monkeypatch):
        sched, traj = bound_instance("synthetic", rng)
        reads = count_schedule_reads(monkeypatch)
        with pytest.raises(ValueError, match="starts at 1"):
            rhs_coefficient_bound(traj, sched, [1, 2, 0], float(traj.grid[40]))
        assert reads == {"sigma_squared": 0, "adot_norm_at": 0}

    def test_verify_reads_the_schedule_once_per_bound_time(self, monkeypatch,
                                                           capsys):
        # verify bounds k = 1..4 at three times in three calls, which read
        # sigma^2 nine times and the rate norm six, where one call per k
        # and time read them 36 and 24 times
        reads = count_schedule_reads(monkeypatch)
        bound = cli_module.rhs_coefficient_bound
        per_call = []

        def bounding(traj, sched, k, t, *args):
            before = dict(reads)
            out = bound(traj, sched, k, t, *args)
            per_call.append({name: reads[name] - before[name]
                             for name in reads})
            return out

        monkeypatch.setattr(cli_module, "rhs_coefficient_bound", bounding)
        assert cli_module.main(["verify"]) == 0
        assert len(per_call) == 3
        assert sum(c["sigma_squared"] for c in per_call) == 9
        assert sum(c["adot_norm_at"] for c in per_call) == 6

    def test_no_per_node_rate_norm(self, rng, monkeypatch):
        sched, traj = bound_instance("synthetic", rng)
        calls = count_rate_norm_calls(monkeypatch)
        bounds = 0
        for i in (20, 40, 60):
            for k in range(1, 5):
                rhs_coefficient_bound(traj, sched, k, float(traj.grid[i]))
                bounds += 1
        # two Simpson grids per bound, at most two rate calls per grid
        assert calls["rate"] <= 2 * 2 * bounds

    def test_time_zero_is_bare_coefficient(self, rng):
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.05)
        traj = flow_integrate(sched, bare, steps=10, t_end=0.5)
        assert rhs_coefficient_bound(traj, sched, 2, 0.0) == pytest.approx(0.05)
        assert rhs_coefficient_bound(traj, sched, 1, 0.0) == 0.0

    def test_gamma_at_zero_spread(self):
        # only the top binomials survive: 4 l m when l + m = k + 1
        assert _gamma_factor(1, 2, 2, 0.0) == pytest.approx(8.0)
        assert _gamma_factor(2, 2, 3, 0.0) == pytest.approx(16.0)
        assert _gamma_factor(2, 2, 2, 0.0) == 0.0
        assert _gamma_factor(1, 1, 3, 0.0) == 0.0

    def test_gamma_polynomial_case(self):
        # l = m = 2, k = 2: odd splittings of 4 are (1,3) and (3,1)
        xi = 0.7
        expect = 16.0 * 2.0 * (math.comb(3, 1) * xi ** 2 * math.comb(3, 3))
        assert _gamma_factor(2, 2, 2, xi) == pytest.approx(expect)

    def test_domination_along_flow(self, rng):
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, bare, steps=150, t_end=1.0)
        for i in (50, 100, 150):
            for k in range(1, 5):
                bound = rhs_coefficient_bound(traj, sched, k, float(traj.grid[i]))
                assert bound >= traj.norms[i, k - 1] - 1e-8

    def test_seminorms_computed_once_per_trajectory(self, rng, monkeypatch):
        # one row per grid node, read off the 70 neutral float64
        # coefficients that RK4 carries at 8 generators
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.04)
        calls = []
        row = flow_module._norm_row

        def counting(coeffs, n_gen, *carrier):
            calls.append((coeffs.shape, coeffs.dtype, carrier))
            return row(coeffs, n_gen, *carrier)

        monkeypatch.setattr(flow_module, "_norm_row", counting)
        traj = flow_integrate(sched, bare, steps=30, t_end=1.0)
        assert len(calls) == len(traj.grid) == 31
        assert set(calls) == {((70,), np.dtype(np.float64), (True, True))}
        for i in (10, 20, 30):
            for k in range(1, 5):
                rhs_coefficient_bound(traj, sched, k, float(traj.grid[i]))
        assert len(calls) == 31

    def test_resolution_error_on_tight_tolerance(self, rng):
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, bare, steps=12, t_end=1.0)
        with pytest.raises(ResolutionError):
            rhs_coefficient_bound(traj, sched, 1, 1.0, check_tol=1e-15)

    def test_off_grid_time_rejected(self, rng):
        sched = synthetic_schedule(rng, 4)
        bare = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, bare, steps=10, t_end=1.0)
        with pytest.raises(ValueError):
            rhs_coefficient_bound(traj, sched, 1, 0.123456)


class TestHopfLax:
    def test_zero_datum(self):
        ys = np.linspace(-2, 2, 501)
        assert hopflax_solve(ys, np.zeros_like(ys), 0.5, 0.3) == pytest.approx(
            0.0, abs=1e-12)

    def test_quadratic_closed_form(self):
        ys = np.linspace(-4, 4, 1001)
        c, t = 0.35, 1.2
        for z in (-0.8, 0.0, 0.6):
            val = hopflax_solve(ys, c * ys ** 2, t, z)
            assert val == pytest.approx(c * z * z / (1.0 - c * t), abs=1e-8)

    def test_monotone_comparison(self, rng):
        ys = np.linspace(-3, 3, 1001)
        for _ in range(10):
            w = rng.normal(size=3) * 0.3
            g1 = w[0] * np.sin(0.7 * ys) + w[1] * np.cos(0.4 * ys) \
                + 0.05 * w[2] * ys ** 2
            g2 = g1 + 0.05 + 0.1 * np.cos(0.5 * ys) ** 2
            for z in np.linspace(-1, 1, 9):
                assert hopflax_solve(ys, g2, 0.8, float(z)) >= \
                    hopflax_solve(ys, g1, 0.8, float(z)) - 1e-10

    def test_boundary_warning(self):
        ys = np.linspace(-0.5, 0.5, 51)
        gs = 2.0 * ys  # maximizer pushed to the boundary
        with pytest.warns(UserWarning, match="boundary"):
            hopflax_solve(ys, gs, 1.0, 3.0)

    def test_time_must_be_positive(self):
        ys = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError):
            hopflax_solve(ys, np.zeros_like(ys), 0.0, 0.0)
