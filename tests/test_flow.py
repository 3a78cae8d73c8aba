import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ferroflow.algebra import (
    GeneratorSet,
    GrassmannElement,
    _index_set,
    _is_exactly_even,
    _pair_table,
    parity_magnitudes,
    wedge,
)
from ferroflow.errors import (
    DimensionMismatchError,
    LogDomainError,
    ParityError,
    ResolutionError,
)
from ferroflow.flow import (
    _BILINEAR_SIGN,
    _flow_rhs,
    effective_action_exact,
    flow_integrate,
    flow_states,
    rg_map,
)
from ferroflow import schedule
from ferroflow.gaussian import _laplacian_weights, heat_kernel_convolve, laplacian
from ferroflow.norms import norm_coefficients
from ferroflow.psi4 import Psi4Params, build_desk_instance, quartic_bare_action
from ferroflow.schedule import ScaleSchedule

from conftest import (
    desk_instance,
    gram_rate_of,
    popcounts,
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    states_on,
    synthetic_schedule,
    taylor_by_wedge,
    uniform_grid,
)
from oracles import derivative, step_halving_flow


def flow_rhs_by_generators(rate, coeffs, gens, truncate_ge2):
    """The flow right-hand side with the bilinear term written out as
    ``sum_i d_iF ^ (rate grad F)_i``, one wedge per generator."""
    f = GrassmannElement(gens, coeffs)
    lap = laplacian(rate, f).coeffs
    grad = np.array([derivative(f, i).coeffs for i in range(gens.count)])
    mixed = rate @ grad
    bil = np.zeros(gens.dim, dtype=complex)
    for i in range(gens.count):
        bil += wedge(GrassmannElement(gens, grad[i]),
                     GrassmannElement(gens, mixed[i])).coeffs
    out = 0.5 * lap + (0.5 * _BILINEAR_SIGN) * bil
    out[0] = 0.0
    if truncate_ge2:
        out[popcounts(gens.dim, gens.count) < 4] = 0.0
    return out, 0.5 * lap[0]


def flow_rhs_on_full(rate, coeffs, gens, truncate_ge2, even):
    """``_flow_rhs`` on a full coefficient vector: the coefficients are
    gathered onto the right-hand side's index set and dF is scattered
    back."""
    index = _index_set(gens.count, even)
    low = popcounts(gens.dim, gens.count)[index] < 4 if truncate_ge2 else None
    out = np.zeros(gens.dim, dtype=complex)
    out[index], dlog = _flow_rhs(_laplacian_weights(rate, gens.count, even),
                                 coeffs[index], gens.count, even, low)
    return out, dlog


def flow_rhs_by_product_rule(rate, coeffs, gens, truncate_ge2):
    """The flow right-hand side on the full coefficient vector, with the
    bilinear term as ``-(1/2) [Delta(F ^ F) - 2 F ^ Delta F]`` through the
    public ``wedge`` and ``laplacian``."""
    f = GrassmannElement(gens, coeffs)
    lap = laplacian(rate, f)
    bil = -0.5 * (laplacian(rate, wedge(f, f)).coeffs
                  - 2.0 * wedge(f, lap).coeffs)
    dlog = 0.5 * lap.coeffs[0]
    out = 0.5 * lap.coeffs + (0.5 * _BILINEAR_SIGN) * bil
    out[0] = 0.0
    if truncate_ge2:
        out[popcounts(gens.dim, gens.count) < 4] = 0.0
    return out, complex(dlog)


def rk4_by_product_rule(schedule, f0, grid, truncate_ge2):
    """Classic RK4 on the full coefficient vector, driven by
    ``flow_rhs_by_product_rule``; returns the states and the accumulated
    log-normalization."""
    y = f0.coeffs.copy()
    y[0] = 0.0
    states, log_norm = [y], [0.0 + 0.0j]
    c = 0.0 + 0.0j
    for i in range(len(grid) - 1):
        t0, t1 = grid[i], grid[i + 1]
        h = t1 - t0
        a1, a2, a4 = (schedule.adot(t) for t in (t0, t0 + 0.5 * h, t1))
        k1, c1 = flow_rhs_by_product_rule(a1, y, f0.gens, truncate_ge2)
        k2, c2 = flow_rhs_by_product_rule(a2, y + 0.5 * h * k1, f0.gens,
                                          truncate_ge2)
        k3, c3 = flow_rhs_by_product_rule(a2, y + 0.5 * h * k2, f0.gens,
                                          truncate_ge2)
        k4, c4 = flow_rhs_by_product_rule(a4, y + h * k3, f0.gens,
                                          truncate_ge2)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0] = 0.0
        c = c + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        states.append(y)
        log_norm.append(c)
    return states, log_norm


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlowRhs:
    @pytest.mark.parametrize("n_gen", [4, 6, 8, 10])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_matches_per_generator_sum(self, rng, n_gen, complex_coeffs, truncate):
        g = GeneratorSet(n_gen)
        f = rand_even_normalized(rng, g, 0.3, complex_coeffs=complex_coeffs)
        if complex_coeffs:  # a raw rate: neither antisymmetric nor real
            rate = rng.normal(size=(n_gen, n_gen)) + 1j * rng.normal(size=(n_gen, n_gen))
        else:
            rate = rand_antisymmetric(rng, n_gen)
        got, got_dlog = flow_rhs_on_full(rate, f.coeffs, g, truncate,
                                         _is_exactly_even(f.coeffs))
        want, want_dlog = flow_rhs_by_generators(rate, f.coeffs, g, truncate)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert got_dlog == want_dlog

    @pytest.mark.parametrize("n_gen,steps", [(4, 6), (6, 6), (8, 6), (10, 4),
                                             (12, 2), (14, 1)])
    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_states_equal_product_rule_rk4_bitwise(self, rng, n_gen, steps,
                                                   complex_coeffs, truncate):
        # the kernel over the even masks sums every product and Laplacian
        # over the same terms in the same order as the full-vector product
        # rule, so RK4 through either gives the same bits; the pair table is
        # walked in chunks at 12 generators and split above
        sched = synthetic_schedule(rng, n_gen // 2)
        f = rand_even_normalized(rng, GeneratorSet(n_gen), 0.4 / n_gen,
                                 complex_coeffs=complex_coeffs)
        grid = np.linspace(0.0, 0.05 * steps, steps + 1)
        got = list(flow_states(sched, f, grid, truncate))
        states, log_norm = rk4_by_product_rule(sched, f, grid, truncate)
        assert len(got) == len(states)
        assert np.max(np.abs(states[-1] - f.coeffs)) > 0.0
        for (state, _), want in zip(got, states):
            assert bitwise_equal(state.coeffs, want)
        assert bitwise_equal([c for _, c in got], log_norm)


@pytest.mark.parametrize("n_gen", [2, 4, 8, 12])
def test_rhs_table_unions_own_one_segment_per_block(n_gen):
    # even masks: every mask of S is the union of one segment of the
    # even x even block, in rank order, and the pairs are ranks in S, so
    # the flow reads the block's segment sums as the product over S; at 12
    # generators the block is walked in several chunks
    pop = popcounts(1 << n_gen, n_gen)
    index = _index_set(n_gen, True)
    assert np.array_equal(index, np.flatnonzero(pop % 2 == 0))
    assert np.array_equal(index >> 1, np.arange(len(index)))
    chunks = _pair_table(n_gen, 0)
    unions = np.concatenate([chunk[3] for chunk in chunks])
    assert np.array_equal(unions, index)
    for j, k, _, chunk_unions, seg in chunks:
        owner = np.repeat(chunk_unions, np.diff(np.append(seg, len(j))))
        assert np.array_equal(index[j] | index[k], owner)
    assert (len(chunks) > 1) == (n_gen == 12)
    # all masks: the rank is the mask
    assert np.array_equal(_index_set(n_gen, False), np.arange(1 << n_gen))


class TestRgMap:
    def test_zero_covariance_is_identity(self, rng):
        g = GeneratorSet(8)
        f = rand_even_normalized(rng, g, 0.05)
        out = rg_map(np.zeros((8, 8)), f)
        assert np.max(np.abs(out.coeffs - f.coeffs)) < 1e-12

    def test_semigroup(self, rng):
        g = GeneratorSet(8)
        for _ in range(20):
            a1 = rand_antisymmetric(rng, 8, 0.2)
            a2 = rand_antisymmetric(rng, 8, 0.2)
            f = rand_even_normalized(rng, g, 0.05)
            joint = rg_map(a1 + a2, f)
            staged = rg_map(a1, rg_map(a2, f))
            assert np.max(np.abs(joint.coeffs - staged.coeffs)) <= 1e-9

    def test_parity_preserved(self, rng):
        g = GeneratorSet(8)
        f = rand_even_normalized(rng, g, 0.05)
        out = rg_map(rand_antisymmetric(rng, 8, 0.3), f)
        pop = out.degrees()
        odd = np.abs(out.coeffs[pop % 2 == 1]).max(initial=0.0)
        assert odd <= 1e-10 * out.max_abs()

    def test_odd_input_rejected(self, rng):
        g = GeneratorSet(4)
        with pytest.raises(ParityError):
            rg_map(np.zeros((4, 4)), GrassmannElement.generator(g, 0))

    def test_log_domain_error_reports_scalar(self):
        # a covariance big enough to push the convolved scalar negative
        g = GeneratorSet(2)
        f = GrassmannElement.monomial(g, [0, 1], 4.0)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        # exp(-f) = 1 - 4 Psi01; convolution scalar = 1 - 4*A01 = -3
        with pytest.raises(LogDomainError) as info:
            rg_map(a, f)
        assert info.value.scalar_part is not None
        assert info.value.scalar_part.real == pytest.approx(-3.0)

    def test_conditioning_warning(self):
        g = GeneratorSet(2)
        f = GrassmannElement.monomial(g, [0, 1], 4.0)
        a = np.array([[0.0, 0.22], [-0.22, 0.0]])
        # convolution scalar = 1 - 0.88 = 0.12 stays loggable; 0.24 warns
        rg_map(a, f)
        a = np.array([[0.0, 0.24], [-0.24, 0.0]])
        with pytest.warns(UserWarning, match="ill-conditioned"):
            rg_map(a, f)


class TestEffectiveActionExact:
    def test_t_zero_returns_bare(self, rng):
        # the zero slice gives f0 bitwise, its scalar part set to zero, and
        # refuses odd content as rg_map does
        sched = synthetic_schedule(rng, 4)
        f = rand_even_normalized(rng, GeneratorSet(8), 0.05)
        shifted = f.coeffs.copy()
        shifted[0] = 0.3
        out = effective_action_exact(sched, GrassmannElement(f.gens, shifted), 0.0)
        assert np.array_equal(out.coeffs, f.coeffs)
        odd = rand_element(rng, GeneratorSet(8), 0.05)
        with pytest.raises(ParityError):
            effective_action_exact(sched, odd, 0.0)

    def test_normalization_flag(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.03)
        normalized = effective_action_exact(sched, f, 0.8)
        raw = rg_map(sched.covariance(0.0, 0.8), f)
        assert normalized.scalar_part == 0.0
        assert abs(raw.scalar_part) > 0.0
        assert np.max(np.abs(normalized.coeffs[1:] - raw.coeffs[1:])) == 0.0

    def test_quartic_norms_finite_and_even(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.03)
        out = effective_action_exact(sched, f, 1.0)
        series = norm_coefficients(out)
        assert np.all(np.isfinite(series.coefficients))

    def test_simpson_only_behind_from_cdot(self, rng, monkeypatch):
        # desk and synthetic slices come from their builders; a kernel known
        # by its derivative alone is integrated by Simpson, to the same slice
        calls = []
        simpson = schedule.simpson_refine

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return simpson(*args, **kwargs)

        monkeypatch.setattr(schedule, "simpson_refine", counting)
        f = quartic_bare_action(GeneratorSet(8), 0.03)
        desk = desk_instance(4).schedule
        synthetic = synthetic_schedule(rng, 4)
        exact = [effective_action_exact(sched, f, 0.8)
                 for sched in (desk, synthetic)]
        assert calls == []
        by_cdot = ScaleSchedule.from_cdot(synthetic._cdot, synthetic.T, 4,
                                          gram_rate_of(synthetic._cdot))
        out = effective_action_exact(by_cdot, f, 0.8)
        assert calls == [(0.0, 0.8)]
        assert np.max(np.abs(out.coeffs - exact[1].coeffs)) <= 1e-12

    @pytest.mark.parametrize("sites", [2, 3, 4])
    def test_desk_rk4_seminorms_match_exact_path(self, sites):
        # the flow-desk benchmark's output check, at the CLI's 400 steps
        inst = desk_instance(sites)
        traj = flow_integrate(inst.schedule, inst.bare_action, steps=400,
                              t_end=2.0)
        for i in (100, 200, 400):  # t = 0.5, 1, 2
            got = traj.norms[i]
            want = norm_coefficients(effective_action_exact(
                inst.schedule, inst.bare_action, traj.grid[i]))
            for m in range(1, sites + 1):
                assert math.isclose(got[m - 1], want.coeff(m),
                                    rel_tol=1e-9, abs_tol=1e-12)


class TestFlowIntegrate:
    def test_zero_action_stays_zero(self, rng):
        sched = synthetic_schedule(rng, 4)
        for state in states_on(sched, GrassmannElement.zero(GeneratorSet(8)),
                               uniform_grid(20, 1.0)):
            assert np.all(state.coeffs == 0.0)

    def test_matches_exact_path(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        grid = uniform_grid(200, 1.0)
        states = states_on(sched, f, grid)
        for i in (50, 120, 200):
            exact = effective_action_exact(sched, f, grid[i])
            dev = np.max(np.abs(states[i].coeffs - exact.coeffs))
            assert dev <= 1e-9

    def test_fourth_order_convergence(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        exact = effective_action_exact(sched, f, 1.0)
        devs = []
        for steps in (8, 16, 32):
            last = states_on(sched, f, uniform_grid(steps, 1.0))[-1]
            devs.append(np.max(np.abs(last.coeffs - exact.coeffs)))
        orders = [np.log2(devs[i] / devs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7

    def test_parity_and_normalization_along_trajectory(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        for state in states_on(sched, f, uniform_grid(50, 1.0)):
            assert parity_magnitudes(state)[1] == 0.0
            assert state.scalar_part == 0.0

    def test_quadratic_terms_generated(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, f, steps=50, t_end=1.0)
        assert traj.norms[0, 0] == 0.0
        assert traj.norms[-1, 0] > 0.0

    @pytest.mark.parametrize("pairs", [3, 5])
    def test_schedule_dimension_must_match(self, rng, pairs):
        # a schedule on more generators than f0 must not be read through its
        # top-left block, nor one on fewer fail with an index error
        sched = synthetic_schedule(rng, pairs)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        with pytest.raises(DimensionMismatchError):
            flow_integrate(sched, f, steps=4, t_end=0.5)

    def test_truncated_flow_keeps_low_degrees_empty(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, f, steps=50, t_end=1.0, truncate_ge2=True)
        assert traj.truncated
        for row in traj.norms:
            assert row[0] == 0.0

    def test_truncated_differs_from_full(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        full, trunc = (states_on(sched, f, uniform_grid(50, 1.0), truncate)[-1]
                       for truncate in (False, True))
        dev = np.max(np.abs(full.coeffs - trunc.coeffs))
        assert dev > 0.0

    def test_certificate(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = step_halving_flow(sched, f, steps=40, t_end=1.0)
        assert any("certificate" in note for note in traj.notes)

    def test_one_rate_evaluation_per_node(self, rng, monkeypatch):
        sched = synthetic_schedule(rng, 2)
        bare = quartic_bare_action(GeneratorSet(4), 0.05)
        adot = sched.adot
        calls = []

        def counted(t):
            calls.append(t)
            return adot(t)

        monkeypatch.setattr(sched, "adot", counted)
        flow_integrate(sched, bare, steps=10, t_end=0.5)
        assert len(calls) == 2 * 10 + 1

    def test_unnormalized_bare_rejected(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04) + 0.3
        with pytest.raises(ValueError, match="normalized"):
            flow_integrate(sched, f, steps=10, t_end=1.0)

    def test_bad_grids_rejected(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        with pytest.raises(ValueError):
            flow_integrate(sched, f, grid=np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            flow_integrate(sched, f, grid=np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError):
            flow_integrate(sched, f, grid=np.array([0.0, 2.0]))

    def test_log_norm_accumulates(self, rng):
        # the accumulated normalization reproduces the unnormalized scalar
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        traj = flow_integrate(sched, f, steps=100, t_end=1.0)
        raw = rg_map(sched.covariance(0.0, 1.0), f)
        assert traj.log_norm[-1].real == pytest.approx(raw.scalar_part.real,
                                                       abs=1e-8)


def with_tolerated_odd_content(rng, gens):
    """A real normalized even action plus real odd content at half the
    parity tolerance of ``rg_map`` and ``flow_integrate`` (1e-12 relative)."""
    f = rand_even_normalized(rng, gens, 0.05)
    odd = rand_element(rng, gens, complex_coeffs=False).coeffs.copy()
    odd[popcounts(gens.dim, gens.count) % 2 == 0] = 0.0
    odd *= 0.5e-12 * max(1.0, f.max_abs()) / np.max(np.abs(odd))
    return f + GrassmannElement(gens, odd)


class TestExactParity:
    def test_exactly_even_action_keeps_odd_coefficients_zero(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = rand_even_normalized(rng, GeneratorSet(8), 0.05)
        odd = popcounts(f.gens.dim, f.gens.count) % 2 == 1
        for state in states_on(sched, f, uniform_grid(20, 1.0)):
            assert np.all(state.coeffs[odd] == 0.0)

    def test_tolerated_odd_content_keeps_every_block(self, rng):
        # odd content that _require_even admits must still be multiplied:
        # the flow and rg_map agree with RK4 and rg_map through all four
        # parity blocks
        gens = GeneratorSet(8)
        sched = synthetic_schedule(rng, 4)
        f = with_tolerated_odd_content(rng, gens)
        odd = popcounts(gens.dim, gens.count) % 2 == 1
        grid = np.linspace(0.0, 1.0, 11)
        states = states_on(sched, f, grid)
        y = f.coeffs.copy()
        for i in range(len(grid) - 1):
            t0, h = grid[i], grid[i + 1] - grid[i]
            a1, a2, a4 = sched.adot(t0), sched.adot(t0 + 0.5 * h), sched.adot(t0 + h)
            k1, _ = flow_rhs_on_full(a1, y, gens, False, even=False)
            k2, _ = flow_rhs_on_full(a2, y + 0.5 * h * k1, gens, False, even=False)
            k3, _ = flow_rhs_on_full(a2, y + 0.5 * h * k2, gens, False, even=False)
            k4, _ = flow_rhs_on_full(a4, y + h * k3, gens, False, even=False)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[0] = 0.0
            assert np.max(np.abs(states[i + 1].coeffs - y)) <= 1e-14
        # the odd part moves by more than five times the tolerance of the check
        assert np.max(np.abs(y[odd] - f.coeffs[odd])) > 5e-14

        # rg_map against -log(heat kernel(exp(-f))) with the series of exp
        # and log summed through the public wedge
        a = rand_antisymmetric(rng, 8, 0.2)
        conv = heat_kernel_convolve(a, taylor_by_wedge(lambda k: 1.0, -f))
        c0 = conv.scalar_part.real
        want = -taylor_by_wedge(
            lambda k: np.log(c0) if k == 0
            else (-1.0) ** (k - 1) * math.factorial(k - 1) / c0 ** k, conv).coeffs
        got = rg_map(a, f).coeffs
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(want[odd] - f.coeffs[odd])) > 5e-14


class TestTrajectoryNorms:
    def test_bare_series_at_origin(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.07)
        traj = flow_integrate(sched, f, steps=10, t_end=0.5)
        assert traj.norms[0, 1] == pytest.approx(0.07)
        for row in traj.norms:
            assert np.all(row >= 0.0)

    @pytest.mark.parametrize("truncate", [False, True])
    def test_norms_are_the_series_of_the_yielded_states(self, rng, truncate):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.07)
        grid = uniform_grid(30, 1.0)
        traj = flow_integrate(sched, f, steps=30, t_end=1.0,
                              truncate_ge2=truncate)
        yielded = list(flow_states(sched, f, grid, truncate))
        assert np.array_equal(traj.grid, grid)
        assert len(traj.norms) == len(yielded) == len(grid)
        for row, (state, _) in zip(traj.norms, yielded):
            want = norm_coefficients(state).coefficients
            assert row.tobytes() == want.tobytes()
        assert bitwise_equal(traj.log_norm, [c for _, c in yielded])

    def test_memory_does_not_grow_with_the_steps(self):
        # a trajectory keeps the seminorm series of its states, not the
        # 16 * 4**sites bytes of each: at 5 sites, ten times the steps
        # leave the peak where it was
        inst = desk_instance(5)

        def peak(steps):
            tracemalloc.start()
            try:
                flow_integrate(inst.schedule, inst.bare_action, steps=steps,
                               t_end=2.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the cached index and pair tables are built outside the measurement
        flow_integrate(inst.schedule, inst.bare_action, steps=1, t_end=2.0)
        assert peak(200) <= 1.25 * peak(20)

    def test_trajectory_keeps_one_array_row_per_grid_point(self):
        # the grid, one float64 per degree and one complex log-normalization
        # take 40 bytes per point at 2 sites; an object per point takes more.
        # gc.collect() also empties the interpreter's free lists, which
        # would otherwise count as kept
        inst = desk_instance(2)
        steps = 400
        flow_integrate(inst.schedule, inst.bare_action, steps=steps,
                       t_end=2.0)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            traj = flow_integrate(inst.schedule, inst.bare_action,
                                  steps=steps, t_end=2.0)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= 64 * (steps + 1)
        assert traj.norms.shape == (steps + 1, 2)

    def test_normalization_note_names_the_first_time_below_the_floor(self):
        # one pair, a unit rate and F = a psi_0 psi_1: the normalization
        # scalar exp(-log_norm) is 1 - a t, below 0.1 first at t = 0.95 on
        # the 20-step grid when a = 0.95
        sched = ScaleSchedule(
            lambda t: np.ones(np.shape(t) + (1, 1)), T=1.0, pairs=1,
            c_between=lambda s, t: np.array([[t - s]]),
            sigma_between=lambda s, t: 4.0 * (np.asarray(t) - s))
        f = GrassmannElement.monomial(GeneratorSet(2), [0, 1], 0.95)
        traj = flow_integrate(sched, f, steps=20, t_end=1.0)
        assert np.allclose(np.exp(-traj.log_norm.real), 1.0 - 0.95 * traj.grid,
                           rtol=1e-2, atol=0.0)
        assert len(traj.notes) == 1
        assert "below 0.1 at t=0.95;" in traj.notes[0]


def tiny_box_instance(sites=4):
    """The desk instance in a box of side 1e-6, which the config validator
    admits: the kernel grows as the inverse box volume, and the flow leaves
    the floating-point range within two steps."""
    params = Psi4Params(dimension=4, mass=1.0, lambda0=2.0, box=1e-6)
    return build_desk_instance(params, 0.002, n_sites=sites, t_max=2.0)


def test_diverging_flow_raises_at_the_first_time_it_is_not_finite():
    inst = tiny_box_instance()
    grid = uniform_grid(400, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        series = [norm_coefficients(state).coefficients for state in
                  states_on(inst.schedule, inst.bare_action, grid[:4])]
    assert [bool(np.all(np.isfinite(s))) for s in series] == [
        True, True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResolutionError, match=r"not finite at t=0\.01$"):
            flow_integrate(inst.schedule, inst.bare_action, grid=grid)
