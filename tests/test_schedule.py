import math

import numpy as np
import pytest

from ferroflow.errors import ResolutionError
from ferroflow.norms import matrix_norm_1inf
from ferroflow.psi4 import build_desk_instance, covariance_matrix
from ferroflow.schedule import (
    _MAX_DOUBLINGS,
    DEFAULT_PANELS,
    ScaleSchedule,
    simpson_refine,
)

from conftest import (count_rate_norm_calls, desk_instance, gram_rate_of,
                      rate_at, synthetic_schedule)


class TestSimpson:
    def test_polynomial_exact(self):
        val = simpson_refine(lambda x: x ** 3 - 2 * x, 0.0, 2.0, panels=4)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_smooth_closed_form(self):
        val = simpson_refine(math.exp, 0.0, 1.0)
        assert val == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        a = simpson_refine(lambda x: np.sin(3 * x), 0.0, 2.0)
        b = simpson_refine(lambda xs: np.sin(3 * xs), 0.0, 2.0, vectorized=True)
        assert a == pytest.approx(b, rel=1e-13)

    def test_matrix_valued(self):
        out = simpson_refine(lambda x: np.array([[x, 1.0], [0.0, x * x]]), 0.0, 1.0)
        assert np.allclose(np.real(out), [[0.5, 1.0], [0.0, 1.0 / 3.0]], atol=1e-12)

    def test_empty_range(self):
        assert simpson_refine(math.exp, 0.7, 0.7) == 0.0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            simpson_refine(math.exp, 1.0, 0.0)

    def test_nonconvergent_raises(self):
        # white-noise integrand never stabilizes to 1e-10
        state = np.random.default_rng(0)
        with pytest.raises(ResolutionError):
            simpson_refine(lambda x: state.normal(), 0.0, 1.0, panels=2)


class TestScaleSchedule:
    def test_rate_is_antisymmetric_block(self, rng):
        sched = synthetic_schedule(rng, 3)
        a = rate_at(sched, 0.3)
        assert np.max(np.abs(a + a.T)) < 1e-14
        assert np.all(a[:3, :3] == 0.0)

    def test_covariance_semigroup_of_slices(self, rng):
        sched = synthetic_schedule(rng, 3)
        whole = sched.covariance(0.0, 1.0).matrix
        parts = sched.covariance(0.0, 0.4).matrix + sched.covariance(0.4, 1.0).matrix
        assert np.max(np.abs(whole - parts)) < 1e-10

    def test_covariance_against_analytic_integral(self):
        # kernel entries with a known antiderivative
        c0 = np.array([[1.0, 0.2], [0.2, 0.5]])

        def cdot(tau):
            return np.multiply.outer(np.exp(-2.0 * np.asarray(tau)), c0)

        sched = ScaleSchedule.from_cdot(
            cdot, T=2.0, pairs=2, gram_rate=lambda t: 4.0 * np.exp(-2.0 * t))
        got = sched.covariance(0.0, 2.0)
        want = (1.0 - math.exp(-4.0)) / 2.0 * c0
        assert np.max(np.abs(got.matrix[:2, 2:] - want)) < 1e-12
        got.require_split()  # GramSplitError without a split

    def test_tau_constant_rate(self):
        c0 = np.eye(2)
        sched = ScaleSchedule.from_cdot(
            lambda t: np.broadcast_to(c0, np.shape(t) + c0.shape), T=3.0,
            pairs=2, gram_rate=lambda t: np.full(np.shape(t), 4.0))
        # block of the identity kernel has row sum 1 at every scale
        assert sched.tau(2.0) == pytest.approx(2.0, rel=1e-12)

    def test_tau_additive_and_monotone(self, rng):
        sched = synthetic_schedule(rng, 3)
        t1 = sched.tau(0.3)
        t2 = sched.tau(1.0)
        assert 0.0 <= t1 <= t2
        mid = simpson_refine(lambda s: matrix_norm_1inf(rate_at(sched, s)), 0.3, 1.0)
        assert t1 + np.real(mid) == pytest.approx(t2, abs=1e-10)

    def test_scalar_only_kernels_name_the_contract(self):
        # kernels that map one scale only (the form of a constant schedule)
        # serve rates and slices, and the scale integrals say what they lack
        c0 = np.array([[0.3, 0.1], [0.1, 0.2]])
        sched = ScaleSchedule.from_cdot(lambda t: c0, T=1.0, pairs=2,
                                        gram_rate=lambda t: 1.2)
        assert np.array_equal(rate_at(sched, 0.5)[:2, 2:], c0)
        assert np.allclose(sched.covariance(0.0, 0.5).c_plus, 0.5 * c0)
        contract = "map a 1-D array of scales to values stacked along axis 0"
        with pytest.raises(ValueError, match=f"cdot must {contract}"):
            sched.tau(0.5)
        with pytest.raises(ValueError, match=f"gram_rate must {contract}"):
            sched.sigma_squared(0.0, 0.5)

    def test_cache_hits_are_consistent(self, rng):
        sched = synthetic_schedule(rng, 3)
        assert sched.sigma_squared(0.0, 0.7) == sched.sigma_squared(0.0, 0.7)
        assert sched.tau(0.7) == sched.tau(0.7)


def desk_schedule():
    """Schedule of the psi4 desk instance at the CLI defaults."""
    return desk_instance().schedule


def schedule_named(which, rng):
    return desk_schedule() if which == "desk" else synthetic_schedule(rng, 4)


@pytest.mark.parametrize("which", ["desk-2", "desk-4", "desk-6", "synthetic"])
def test_slices_match_simpson_of_their_own_cdot(rng, which):
    # a schedule takes its slices from its builder (the lattice sums of the
    # desk, the closed form of the synthetic kernel); Simpson of its own
    # cdot shares no formula with either
    sched = synthetic_schedule(rng, 4, T=2.0) if which == "synthetic" \
        else desk_instance(int(which[-1])).schedule
    for s, t in ((0.0, 0.5), (0.0, sched.T), (0.3, 1.1)):
        got = sched.covariance(s, t).c_plus
        want = np.real(simpson_refine(sched._cdot, s, t))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    for x in (0.0, 0.7, sched.T):
        assert np.all(sched.covariance(x, x).c_plus == 0.0)


@pytest.mark.parametrize("which", ["desk", "synthetic"])
def test_slices_outside_the_schedule_refused(rng, which):
    sched = schedule_named(which, rng)
    T = sched.T
    sched.covariance(0.0, T * (1.0 + 1e-13))
    for s, t in ((-0.1, 0.5), (-1e-300, 0.0), (0.0, T * (1.0 + 1e-9)),
                 (0.2, T + 0.1), (0.0, math.nan)):
        with pytest.raises(ValueError, match=r"outside \[0, "):
            sched.covariance(s, t)
    with pytest.raises(ValueError, match="need s <= t"):
        sched.covariance(0.6, 0.5)
    # in the words of the scale integrals
    with pytest.raises(ValueError) as by_tau:
        sched.tau(T + 0.1)
    with pytest.raises(ValueError) as by_slice:
        sched.covariance(0.0, T + 0.1)
    assert str(by_slice.value) == str(by_tau.value)


@pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
def test_desk_gram_rate_is_four_times_the_diagonal(rng, sites):
    # the desk's sigma^2 is the integral of the Gram rate 4 max_i C_ii of
    # its own cdot, by Simpson, which shares no formula with the lattice
    # sums of the builder
    sched = desk_instance(sites).schedule
    for s, t in ((0.0, 0.5), (0.0, sched.T), (0.3, 1.1)):
        want = np.real(simpson_refine(gram_rate_of(sched._cdot), s, t,
                                      vectorized=True))
        assert sched.sigma_squared(s, t) == pytest.approx(want, rel=1e-10,
                                                          abs=0.0)
    # a scalar kernel call is the stacked row at the same scale
    grid = np.linspace(0.0, sched.T, 9)
    for cdot in (sched._cdot, synthetic_schedule(rng, sites)._cdot):
        stacked = cdot(grid)
        for s, row in zip(grid, stacked):
            got = cdot(float(s))
            assert got.shape == (sites, sites)
            assert np.max(np.abs(got - row)) <= 1e-14 * np.max(np.abs(row))


@pytest.mark.parametrize("sites", [2, 4])
def test_desk_sigma_squared_is_four_times_the_slice_diagonal(sites):
    # the Gram rate is 4 C_ii of cdot, so its integral over [s, t] is
    # 4 (C_s - C_t)_ii of the lattice sums
    inst = desk_instance(sites)
    for s, t in ((0.0, 0.5), (0.0, inst.schedule.T), (0.3, 1.1)):
        want = 4.0 * np.diagonal(covariance_matrix(inst.params, s, t))
        got = inst.schedule.sigma_squared(s, t)
        assert np.all(np.abs(got - want) <= 1e-10 * want)


@pytest.mark.parametrize("which", ["desk", "synthetic"])
def test_sigma_squared_refuses_scales_outside_the_schedule(rng, which):
    # the range check runs before the builder's sigma_between, and in the
    # words of the slices
    sched = schedule_named(which, rng)
    T = sched.T

    def unreached(s, t):
        raise AssertionError("sigma_between reached")

    sched._sigma_between = unreached
    for s, t in ((0.0, math.nan), (math.nan, 0.5), (-0.1, 0.5),
                 (0.0, T * (1.0 + 1e-9)), (np.array([0.0, -1e-300]), 0.5),
                 (0.0, np.array([0.5, T + 0.1]))):
        with pytest.raises(ValueError, match=r"outside \[0, "):
            sched.sigma_squared(s, t)
    with pytest.raises(ValueError) as by_sigma:
        sched.sigma_squared(0.0, T + 0.1)
    with pytest.raises(ValueError) as by_slice:
        sched.covariance(0.0, T + 0.1)
    assert str(by_sigma.value) == str(by_slice.value)


def decaying_schedule(T=3.0):
    """Schedule with kernel ``exp(-2 tau) c0`` and counted evaluations:
    ``evals["tau"]`` lists the number of scales of every array call of the
    kernel, ``evals["sigma"]`` of every Gram-rate call."""
    c0 = np.array([[1.0, 0.2], [0.2, 0.5]])
    norm0 = matrix_norm_1inf(c0)
    evals = {"tau": [], "sigma": []}

    def cdot(s):
        s = np.asarray(s, dtype=float)
        if s.ndim:
            evals["tau"].append(s.size)
        return np.multiply.outer(np.exp(-2.0 * s), c0)

    def gram_rate(s):
        s = np.asarray(s, dtype=float)
        evals["sigma"].append(s.size)
        return 4.0 * np.exp(-2.0 * s)

    sched = ScaleSchedule.from_cdot(cdot, T=T, pairs=2, gram_rate=gram_rate)
    return sched, norm0, evals


class TestCumulativeTable:
    @pytest.mark.parametrize("which", ["desk", "synthetic"])
    def test_matches_fresh_simpson(self, rng, which):
        sched = desk_schedule() if which == "desk" else synthetic_schedule(rng, 3)
        T = sched.T
        xs = np.concatenate([[0.0, T, 0.5 * T, 0.25 * T],  # 0.5 T, 0.25 T: nodes
                             rng.uniform(0.0, T, 50)])
        for x in xs:
            x = float(x)
            want_tau = np.real(simpson_refine(sched.adot_norm_at, 0.0, x,
                                              vectorized=True))
            want_sig = np.real(simpson_refine(gram_rate_of(sched._cdot), 0.0,
                                              x, vectorized=True))
            assert sched.tau(x) == pytest.approx(want_tau, rel=1e-10, abs=0.0)
            assert sched.sigma_squared(0.0, x) == pytest.approx(
                want_sig, rel=1e-10, abs=0.0)

    def test_matches_closed_form(self, rng):
        sched, norm0, _ = decaying_schedule()
        for x in np.concatenate([[sched.T], rng.uniform(0.0, sched.T, 20)]):
            x = float(x)
            decay = -math.expm1(-2.0 * x) / 2.0
            assert sched.tau(x) == pytest.approx(norm0 * decay, rel=1e-10)
            assert sched.sigma_squared(0.0, x) == pytest.approx(4.0 * decay,
                                                                rel=1e-10)

    def test_built_once_per_kind(self, rng):
        sched, _, evals = decaying_schedule()
        sched.tau(1.3)
        built = sum(evals["tau"])
        assert built > DEFAULT_PANELS and evals["sigma"] == []
        for x in rng.uniform(0.0, sched.T, 30):
            before = sum(evals["tau"])
            sched.tau(float(x))
            assert sum(evals["tau"]) - before <= 3
        sched.sigma_squared(0.2, 2.9)
        assert sum(evals["sigma"]) > DEFAULT_PANELS
        for x in rng.uniform(0.0, sched.T, 30):
            before = sum(evals["sigma"])
            sched.sigma_squared(0.0, float(x))
            assert sum(evals["sigma"]) - before <= 3
        # a table node needs no evaluation at all
        before = sum(evals["tau"])
        assert sched.tau(0.5 * sched.T) > 0.0
        assert sum(evals["tau"]) == before

    def test_query_above_T_rejected(self, rng):
        sched = synthetic_schedule(rng, 3)
        sched.tau(sched.T)
        sched.sigma_squared(0.0, sched.T * (1.0 + 1e-13))
        with pytest.raises(ValueError):
            sched.tau(sched.T * (1.0 + 1e-9))
        with pytest.raises(ValueError):
            sched.sigma_squared(0.0, sched.T + 0.1)


class TestArrayQueries:
    @pytest.mark.parametrize("which", ["desk", "synthetic"])
    def test_rate_norm_reduction_matches_block_norm(self, rng, which):
        # the stacked product sums in another order: equal up to a few ulps
        sched = schedule_named(which, rng)
        xs = np.concatenate([np.linspace(0.0, sched.T, 33),
                             rng.uniform(0.0, sched.T, 40)])
        got = sched.adot_norm_at(xs)
        want = [matrix_norm_1inf(rate_at(sched, float(x))) for x in xs]
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("which", ["desk", "synthetic"])
    def test_tau_and_sigma_match_scalar_queries(self, rng, which):
        sched = schedule_named(which, rng)
        T = sched.T
        sched.tau(T)
        sched.sigma_squared(0.0, T)
        nodes = sched._tau_table.nodes
        xs = np.concatenate([[0.0, T], nodes[1::97],
                             rng.uniform(0.0, T, 30)])
        got_tau = sched.tau(xs)
        got_sig = sched.sigma_squared(xs, T)
        got_from0 = sched.sigma_squared(0.0, xs)
        for x, gt, gs, g0 in zip(xs, got_tau, got_sig, got_from0):
            x = float(x)
            assert gt == pytest.approx(sched.tau(x), rel=1e-15, abs=0.0)
            assert gs == pytest.approx(sched.sigma_squared(x, T), rel=1e-15,
                                       abs=1e-300)
            assert g0 == pytest.approx(sched.sigma_squared(0.0, x), rel=1e-15,
                                       abs=0.0)
        assert got_tau[0] == 0.0 and got_tau[1] == sched.tau(T)
        # off the nodes, against Simpson of the scalar block norm from 0
        for j in (-1, -2, -3):
            x = float(xs[j])
            want_tau = simpson_refine(
                lambda s: matrix_norm_1inf(rate_at(sched, s)), 0.0, x)
            want_sig = simpson_refine(gram_rate_of(sched._cdot), 0.0, x,
                                      vectorized=True)
            assert got_tau[j] == pytest.approx(np.real(want_tau), rel=1e-10)
            assert got_from0[j] == pytest.approx(np.real(want_sig), rel=1e-10)
        with pytest.raises(ValueError):
            sched.tau(np.append(xs, T * (1.0 + 1e-9)))
        with pytest.raises(ValueError):
            sched.sigma_squared(np.append(xs, T + 0.1), T + 0.1)
        with pytest.raises(ValueError):
            sched.sigma_squared(np.array([0.1, 0.9 * T]), 0.5 * T)

    def test_array_query_is_one_rate_evaluation(self, rng):
        sched, norm0, evals = decaying_schedule()
        sched.tau(sched.T)
        sched.sigma_squared(0.0, sched.T)
        xs = np.concatenate([[0.0, 0.5 * sched.T], rng.uniform(0.0, sched.T, 25)])
        built = {kind: len(calls) for kind, calls in evals.items()}
        got_tau = sched.tau(xs)
        got_sig = sched.sigma_squared(0.0, xs)
        for kind in ("tau", "sigma"):
            new = evals[kind][built[kind]:]
            assert len(new) == 1 and new[0] <= 2 * len(xs)
        decay = -np.expm1(-2.0 * xs) / 2.0
        np.testing.assert_allclose(got_tau, norm0 * decay, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(got_sig, 4.0 * decay, rtol=1e-10, atol=0.0)

    def test_table_build_rate_calls(self, rng, monkeypatch):
        sched = synthetic_schedule(rng, 4)
        calls = count_rate_norm_calls(monkeypatch)
        sched.tau(sched.T)
        assert 1 <= calls["rate"] <= _MAX_DOUBLINGS + 1


@pytest.mark.parametrize("T", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_upper_scale_refused(T):
    # a NaN T used to build a schedule whose every query then failed as
    # "scale 0.5 outside [0, nan]"
    with pytest.raises(ValueError, match="upper scale T must be finite"):
        ScaleSchedule(lambda t: np.eye(1), T, 1, lambda s, t: np.zeros((1, 1)),
                      lambda s, t: 0.0)
    params = desk_instance(2).params
    with pytest.raises(ValueError, match="upper scale T must be finite"):
        build_desk_instance(params, 0.002, t_max=T)
