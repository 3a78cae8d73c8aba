import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ferroflow.algebra import (
    GeneratorSet,
    GrassmannElement,
    _index_set,
    _pair_table,
    _rank,
    merge_sign,
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
    rg_map,
)
from ferroflow import algebra, cli, flow, gaussian, schedule
from ferroflow.cli import main
from ferroflow.gaussian import (
    _laplacian_table,
    _laplacian_weights,
    heat_kernel_convolve,
    laplacian,
)
from ferroflow.norms import _norm_row, norm_coefficients
from ferroflow.psi4 import Psi4Params, build_desk_instance, quartic_bare_action
from ferroflow.schedule import ScaleSchedule

from conftest import (
    desk_instance,
    gram_rate_of,
    popcounts,
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    rate_at,
    states_on,
    synthetic_schedule,
    taylor_by_wedge,
    uniform_grid,
)
from oracles import (
    derivative,
    flow_states,
    flow_states_by_node,
    step_halving_flow,
)


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


def flow_rhs_on_full(rate, coeffs, gens, truncate_ge2):
    """``_flow_rhs`` on the full coefficient vector of an even element: the
    coefficients are gathered onto the even masks and dF is scattered
    back."""
    index = _index_set(gens.count, True)
    low = popcounts(gens.dim, gens.count)[index] < 4 if truncate_ge2 else None
    out = np.zeros(gens.dim, dtype=complex)
    out[index], dlog = _flow_rhs(_laplacian_weights(rate, gens.count, True),
                                 coeffs[index], gens.count, low)
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
        a1, a2, a4 = (rate_at(schedule, t) for t in (t0, t0 + 0.5 * h, t1))
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
        got, got_dlog = flow_rhs_on_full(rate, f.coeffs, g, truncate)
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
    # wedge sums each union's terms of the block in one segment, in the
    # order that the even carrier's right-hand side shares through
    # _wedge_blocks; at 12 generators the block is walked in several chunks
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


def charges(n_gen):
    """The charge ``#unbarred - #barred`` of every mask, the generators
    ``0..n-1`` unbarred and ``n..2n-1`` barred."""
    n = n_gen // 2
    masks = np.arange(1 << n_gen)
    pop = popcounts(1 << n, n)
    return pop[masks & ((1 << n) - 1)] - pop[masks >> n]


@pytest.mark.parametrize("n_gen", [2, 4, 8, 12])
def test_neutral_tables_own_the_neutral_masks(n_gen):
    # the neutral set, its ranks, and the two tables built on it: the pairs
    # of two neutral masks, whose unions are the neutral set in rank order,
    # and the psi-psibar entries of the Laplacian, which are the even
    # table's entries with a cross pair and a neutral source
    n = n_gen // 2
    index = _index_set(n_gen, True, True)
    assert np.array_equal(index, np.flatnonzero(charges(n_gen) == 0))
    assert index.size == math.comb(n_gen, n)
    rank = _rank(n_gen, True, True)
    assert np.array_equal(rank[index], np.arange(index.size))
    assert np.all(np.delete(rank, index) == -1)

    chunks = _pair_table(n_gen, 0, True)
    unions = np.concatenate([chunk[3] for chunk in chunks])
    assert np.array_equal(unions, index)
    count = 0
    for j, k, sgn, chunk_unions, seg in chunks:
        owner = np.repeat(chunk_unions, np.diff(np.append(seg, len(j))))
        assert np.all(index[j] & index[k] == 0)
        assert np.array_equal(index[j] | index[k], owner)
        assert sgn.dtype == np.float64
        if n_gen <= 8:
            assert sgn.tolist() == [merge_sign(int(a), int(b))
                                    for a, b in zip(index[j], index[k])]
        count += len(j)
    # every split of a neutral union into two neutral masks, once each
    sub = (index[None, :] & ~index[:, None]) == 0  # row U, column J
    assert count == int(sub.sum())
    assert (len(chunks) > 1) == (n_gen == 12)

    rows, cols, src, pair, targets, starts = _laplacian_table(n_gen, True, True)
    assert np.all(rows < n) and np.all(cols >= n)
    assert rows.size == n * n
    assert src.size == n * n * math.comb(n_gen - 2, n - 1)
    p = pair % rows.size
    source = index[src]
    target = index[np.repeat(targets, np.diff(np.append(starts, src.size)))]
    both = (1 << rows[p]) | (1 << cols[p])
    assert np.all(source & both == both)
    assert np.array_equal(target, source & ~both)
    # each entry keeps the sign flip of the even table's entry for the same
    # source and generator pair
    e_rows, e_cols, e_src, e_pair, _, _ = _laplacian_table(n_gen, True)
    e_p = e_pair % e_rows.size
    flips = dict(zip(zip(_index_set(n_gen, True)[e_src].tolist(),
                         e_rows[e_p].tolist(), e_cols[e_p].tolist()),
                     (e_pair >= e_rows.size).tolist()))
    assert [flips[key] for key in zip(source.tolist(), rows[p].tolist(),
                                      cols[p].tolist())] == \
        (pair >= rows.size).tolist()


def neutral_real_action(rng, gens, scale):
    """A random real normalized action on the neutral masks."""
    c = rng.normal(size=gens.dim) * scale
    c[charges(gens.count) != 0] = 0.0
    c[0] = 0.0
    return GrassmannElement(gens, c)


class TestNeutralCarrier:
    @pytest.mark.parametrize("n_gen,steps", [(4, 6), (6, 6), (8, 6), (10, 4),
                                             (12, 2)])
    @pytest.mark.parametrize("kind", ["quartic", "random"])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_matches_even_carrier_rk4(self, rng, n_gen, steps, kind, truncate):
        # float64 sums over the neutral masks leave out exact zeros and add
        # in their own order: the states moved by at most 1.4e-16 of their
        # largest coefficient at 4-12 generators
        sched = synthetic_schedule(rng, n_gen // 2)
        gens = GeneratorSet(n_gen)
        f = quartic_bare_action(gens, 0.04) if kind == "quartic" \
            else neutral_real_action(rng, gens, 0.4 / n_gen)
        grid = np.linspace(0.0, 0.05 * steps, steps + 1)
        got = list(flow_states(sched, f, grid, truncate))
        states, log_norm = rk4_by_product_rule(sched, f, grid, truncate)
        charged = charges(n_gen) != 0
        for (state, c), want, want_c in zip(got, states, log_norm):
            assert np.all(state.coeffs[charged] == 0.0)
            assert not np.imag(state.coeffs).any()
            assert np.max(np.abs(state.coeffs - want)) <= \
                1e-15 * np.max(np.abs(want))
            assert abs(c - want_c) <= 1e-15 * max(1.0, abs(want_c))
        # truncation leaves degree 4 of 4 generators where it is
        assert (truncate and n_gen == 4) or \
            np.max(np.abs(states[-1] - f.coeffs)) > 0.0

    @pytest.mark.parametrize("content", ["charged", "imaginary"])
    def test_tiny_content_off_the_carrier_keeps_the_even_carrier(self, rng,
                                                                 content):
        # one coefficient of 1e-300 off the neutral real carrier sends RK4
        # to the even complex one, whose states are the product rule's bits
        gens = GeneratorSet(8)
        sched = synthetic_schedule(rng, 4)
        c = quartic_bare_action(gens, 0.04).coeffs.copy()
        if content == "charged":
            c[0b11] = 1e-300  # psi_0 psi_1, charge 2
        else:
            c[0b10001] += 1e-300j  # psi_0 psibar_0
        f = GrassmannElement(gens, c)
        grid = np.linspace(0.0, 0.3, 7)
        got = list(flow_states(sched, f, grid))
        states, log_norm = rk4_by_product_rule(sched, f, grid, False)
        for (state, _), want in zip(got, states):
            assert bitwise_equal(state.coeffs, want)
        assert bitwise_equal([c for _, c in got], log_norm)

    def test_complex_rate_refused_by_scale(self, rng):
        # a kernel with an imaginary part from scale 0.1 on: the neutral
        # real carrier cannot hold the state it would drive.  0.1 is the
        # fourth scale of the only block of 4 steps of 0.05, and the fourth
        # of the second block of 40 steps of 0.01: the states of the start
        # and of the first block are yielded, none of the second's
        base = synthetic_schedule(rng, 4)
        sched = ScaleSchedule(
            lambda t: base._cdot(t) * (
                1.0 + 1e-3j * (np.asarray(t) >= 0.1)[..., None, None]),
            T=1.0, pairs=4, c_between=base._c_between,
            sigma_between=base._sigma_between)
        f = quartic_bare_action(GeneratorSet(8), 0.04)
        g = rand_even_normalized(rng, GeneratorSet(8), 0.05)
        for steps, h, yielded in ((4, 0.05, 1), (40, 0.01, 9)):
            grid = np.linspace(0.0, h * steps, steps + 1)
            got = []
            with pytest.raises(ValueError,
                               match=r"rate at scale 0\.1 is not"):
                for state in flow_states(sched, f, grid):
                    got.append(state)
            assert len(got) == yielded
            # the even carrier integrates the same schedule
            assert len(list(flow_states(sched, g, grid))) == steps + 1


@pytest.fixture
def tables_asked(monkeypatch):
    """The generator counts at which the flow chooses the even carrier, asks
    for the neutral pair table and for the dense table, and runs the
    chunked right-hand side, from now on."""
    asked = {"even": [], "neutral": [], "dense": [], "chunked": []}
    carrier_flow, pair_table, dense_table, flow_rhs = (
        flow._carrier_flow, flow._pair_table, flow._dense_table,
        flow._flow_rhs)

    def choosing(schedule, f0, *args):
        neutral, states = carrier_flow(schedule, f0, *args)
        if not neutral:
            asked["even"].append(f0.gens.count)
        return neutral, states

    def asking(n_gen, block, *neutral):
        asked["neutral"].append(n_gen)
        return pair_table(n_gen, block, *neutral)

    def asking_dense(n_gen):
        asked["dense"].append(n_gen)
        return dense_table(n_gen)

    def chunked(weights, y, n_gen, *args):
        asked["chunked"].append(n_gen)
        return flow_rhs(weights, y, n_gen, *args)

    monkeypatch.setattr(flow, "_carrier_flow", choosing)
    monkeypatch.setattr(flow, "_pair_table", asking)
    monkeypatch.setattr(flow, "_dense_table", asking_dense)
    monkeypatch.setattr(flow, "_flow_rhs", chunked)
    return asked


def test_cli_flows_run_on_the_neutral_carrier(tmp_path, capsys, tables_asked):
    # flow at the defaults and verify's 8-generator quartic flow run on the
    # dense operators of the neutral carrier: a fall back to the chunked
    # right-hand side or to the even complex carrier would cost their speed
    # silently.  The neutral pair table is asked for only to build the
    # dense table, once per process
    for argv in (["flow", "--out", str(tmp_path / "flow.csv")], ["verify"]):
        for asked in tables_asked.values():
            asked.clear()
        assert main(argv) == 0
        assert tables_asked["dense"] and set(tables_asked["dense"]) == {8}
        assert tables_asked["even"] == tables_asked["chunked"] == []
        assert tables_asked["neutral"] in ([], [8])


@pytest.fixture
def carriers_taken(monkeypatch):
    """The dtypes that the exact route's kernels run on from now on, as
    ``(caller, dtype)`` pairs, one per call of ``_exp_log_even`` and of
    ``_heat_series``: ``caller`` names the innermost of the CLI's calls of
    ``rg_map``, ``effective_action_exact``, ``heat_kernel_convolve`` and
    ``covariance_split_check`` that the kernel runs in, else ``None``."""
    taken = []
    callers = [None]

    def labelled(name, fn):
        def call(*args):
            callers.append(name)
            try:
                return fn(*args)
            finally:
                callers.pop()
        return call

    for name in ("rg_map", "effective_action_exact", "heat_kernel_convolve",
                 "covariance_split_check"):
        monkeypatch.setattr(cli, name, labelled(name, getattr(cli, name)))
    exp_log_even, heat_series = algebra._exp_log_even, gaussian._heat_series

    def exp_log(x, n_gen, log):
        taken.append((callers[-1], x.dtype.name))
        return exp_log_even(x, n_gen, log)

    def series(m, y, n_gen, even):
        taken.append((callers[-1], np.result_type(m, y).name))
        return heat_series(m, y, n_gen, even)

    monkeypatch.setattr(algebra, "_exp_log_even", exp_log)
    monkeypatch.setattr(gaussian, "_heat_series", series)
    return taken


def test_cli_exact_routes_run_on_the_real_carrier(tmp_path, capsys,
                                                  carriers_taken):
    # verify's RG-map checks, its moment oracle's exp_of and majorant's
    # exact route have exactly real data and run in float64: a fall back to
    # complex128 would cost their speed silently.  verify's heat-kernel
    # checks draw complex elements and must stay complex128, or their
    # imaginary parts would be dropped
    assert main(["verify"]) == 0
    assert main(["majorant", "--out", str(tmp_path / "majorant.csv")]) == 0
    by_caller = {}
    for caller, dtype in carriers_taken:
        by_caller.setdefault(caller, set()).add(dtype)
    assert by_caller == {
        "rg_map": {"float64"}, "effective_action_exact": {"float64"},
        None: {"float64"}, "heat_kernel_convolve": {"complex128"},
        "covariance_split_check": {"complex128"}}


def test_cli_flows_read_the_kernel_in_blocks(tmp_path, capsys, monkeypatch):
    # flow at the defaults and verify's 8-generator quartic flow read their
    # rates an array of scales at a time: a read at one scale, 2 * steps + 1
    # of them per trajectory, would cost their speed silently
    scales = []
    cdot = ScaleSchedule.cdot

    def reading(self, tau):
        scales.append(np.ndim(tau))
        return cdot(self, tau)

    monkeypatch.setattr(ScaleSchedule, "cdot", reading)
    assert main(["flow", "--out", str(tmp_path / "flow.csv")]) == 0
    assert main(["verify"]) == 0
    assert scales and 0 not in scales


class TestBlockRead:
    @staticmethod
    def off_the_neutral_carrier(f):
        # one charged coefficient of 1e-300 sends RK4 to the even carrier
        c = f.coeffs.copy()
        c[0b11] = 1e-300  # psi_0 psi_1
        return GrassmannElement(f.gens, c)

    @pytest.mark.parametrize("carrier", ["neutral", "even"])
    @pytest.mark.parametrize("instance", ["desk-2", "desk-3", "desk-4",
                                          "desk-5", "desk-6", "synthetic-8"])
    def test_matches_reads_one_scale_at_a_time(self, instance, carrier):
        # a stacked desk kernel differs from the kernel at one scale by up
        # to 4.3e-16 of its largest entry; on one full block and a partial
        # one the states moved by at most 6.8e-18 of the largest coefficient
        kind, n = instance.split("-")
        steps = flow._BLOCK_STEPS + 3
        if kind == "desk":
            inst = desk_instance(int(n))
            sched, f = inst.schedule, inst.bare_action
            grid = uniform_grid(steps, 2.0)
        else:  # verify's flow
            rng = np.random.Generator(np.random.Philox(42))
            sched = synthetic_schedule(rng, 4)
            f = quartic_bare_action(GeneratorSet(8), 0.02)
            grid = uniform_grid(steps, 1.0)
        if carrier == "even":
            f = self.off_the_neutral_carrier(f)
        got = list(flow_states(sched, f, grid))
        want = list(flow_states_by_node(sched, f, grid))
        assert len(got) == len(want) == steps + 1
        for (state, c), (want_state, want_c) in zip(got, want):
            scale = np.max(np.abs(want_state.coeffs))
            assert np.max(np.abs(state.coeffs - want_state.coeffs)) <= \
                1e-15 * scale
            assert abs(c - want_c) <= 1e-15 * max(1.0, abs(want_c))
        assert np.max(np.abs(got[-1][0].coeffs - f.coeffs)) > 0.0

    def test_constant_kernel_holds_over_the_block(self):
        # a kernel that does not depend on the scale returns one matrix for
        # an array of scales; the flow takes it as the same rate at each
        c0 = 0.1 * np.array([[1.0, 0.2], [0.2, 0.5]])

        def schedule(cdot):
            return ScaleSchedule(cdot, T=1.0, pairs=2,
                                 c_between=lambda s, t: (t - s) * c0,
                                 sigma_between=lambda s, t: 2.0 * (t - s))

        f = quartic_bare_action(GeneratorSet(4), 0.05)
        grid = uniform_grid(steps=flow._BLOCK_STEPS + 3, t_end=1.0)
        constant = list(flow_states(schedule(lambda t: c0), f, grid))
        stacked = list(flow_states(schedule(
            lambda t: np.broadcast_to(c0, np.shape(t) + c0.shape)), f, grid))
        assert len(constant) == len(grid)
        for (state, c), (want, want_c) in zip(constant, stacked):
            assert bitwise_equal(state.coeffs, want.coeffs)
            assert bitwise_equal(c, want_c)
        assert np.max(np.abs(constant[-1][0].coeffs - f.coeffs)) > 0.0

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3), (2, 2, 2, 2), (2,)])
    def test_kernel_of_another_shape_named(self, shape):
        # a stack of kernels on one pair more, or a shape that is neither a
        # stack nor one kernel, for the two pairs of f0
        sched = ScaleSchedule(lambda t: np.zeros(shape), T=1.0, pairs=2,
                              c_between=lambda s, t: np.zeros((2, 2)),
                              sigma_between=lambda s, t: 0.0)
        f = quartic_bare_action(GeneratorSet(4), 0.05)
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"kernel has shape {shape}")):
            flow_integrate(sched, f, steps=4, t_end=1.0)


@pytest.fixture
def fresh_tables():
    """Every cached table of ``algebra``, ``gaussian`` and ``flow`` emptied
    before and after the test, so that it sees each table built."""
    def clear():
        for module in (algebra, gaussian, flow):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    clear()
    yield
    clear()


def test_neutral_flow_builds_no_even_table(rng, monkeypatch, fresh_tables):
    # the neutral tables are built on the neutral masks, not filtered from
    # the even x even pair block (4.3 MB at 12 generators) or the even
    # Laplacian table, so a 12-generator neutral flow asks for neither
    asked = []

    def wrap(module, name):
        table = getattr(module, name)

        def asking(n_gen, first, *neutral):
            asked.append((name, n_gen, first, any(neutral)))
            return table(n_gen, first, *neutral)

        monkeypatch.setattr(module, name, asking)

    wrap(algebra, "_pair_table")
    wrap(flow, "_pair_table")
    wrap(gaussian, "_laplacian_table")
    gens = GeneratorSet(12)
    sched = synthetic_schedule(rng, 6)
    for f in (quartic_bare_action(gens, 0.04),
              neutral_real_action(rng, gens, 0.4 / 12)):
        last = states_on(sched, f, np.linspace(0.0, 0.1, 3))[-1]
        assert np.max(np.abs(last.coeffs - f.coeffs)) > 0.0
    assert ("_pair_table", 12, 0, True) in asked
    assert ("_laplacian_table", 12, True, True) in asked
    assert ("_pair_table", 12, 0, False) not in asked
    assert ("_laplacian_table", 12, True, False) not in asked


@pytest.mark.parametrize("n_gen", [10, 12])
def test_wide_neutral_flow_builds_no_dense_table(rng, monkeypatch, n_gen,
                                                 fresh_tables):
    # above _DENSE_LEAF the neutral carrier keeps the chunked right-hand
    # side: at 12 generators one block of dense operators would hold 109 MB
    calls = []
    flow_rhs = flow._flow_rhs

    def chunked(*args):
        calls.append(args[2])
        return flow_rhs(*args)

    monkeypatch.setattr(flow, "_flow_rhs", chunked)
    gens = GeneratorSet(n_gen)
    sched = synthetic_schedule(rng, n_gen // 2)
    traj = flow_integrate(sched, quartic_bare_action(gens, 0.04), steps=2,
                          t_end=0.1)
    assert traj.norms[-1, 1] != traj.norms[0, 1]
    assert calls == [n_gen] * 4 * 2
    assert flow._dense_table.cache_info().currsize == 0


class TestDenseRhs:
    @pytest.mark.parametrize("n_gen", [4, 6, 8])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_matches_chunked_rhs(self, rng, n_gen, truncate):
        # the dense products add the exact zeros of the operators in and
        # sum in their own order.  Measured against the largest number the
        # chunked right-hand side gives without truncation, dlog included,
        # dF moved by at most 4.2e-16 and dlog by 7.1e-16 over 300 random
        # draws at each of 4, 6 and 8 generators
        index = _index_set(n_gen, True, True)
        low = popcounts(1 << n_gen, n_gen)[index] < 4 if truncate else None
        sched = synthetic_schedule(rng, n_gen // 2)
        for scale in (0.1, 0.5, 0.9):
            f = neutral_real_action(rng, GeneratorSet(n_gen), 0.4 / n_gen)
            y = f.coeffs[index].real
            weights = _laplacian_weights(sched.cdot(scale), n_gen, True, True)
            half = flow._half_laplacians(weights[None], n_gen)[0]
            got, got_dlog = flow._dense_rhs(half, y, flow._dense_table(n_gen),
                                            np.zeros((y.size, y.size)), low)
            want, want_dlog = _flow_rhs(weights, y, n_gen, low, True)
            full, _ = _flow_rhs(weights, y, n_gen, None, True)
            tol = 1e-15 * max(np.max(np.abs(full)), abs(want_dlog))
            assert got.dtype == want.dtype == np.float64
            assert np.max(np.abs(got - want)) <= tol
            assert abs(got_dlog - want_dlog) <= tol
            assert got[0] == 0.0
            if truncate:
                assert not got[low].any()

    @pytest.mark.parametrize("n_gen", [4, 6, 8])
    def test_reused_product_matrix_holds_no_stale_entry(self, rng, n_gen):
        # one product matrix serves a whole trajectory: each call overwrites
        # the same positions, so an earlier y leaves nothing behind, also
        # where the next y has exact zeros
        index = _index_set(n_gen, True, True)
        table = flow._dense_table(n_gen)
        sched = synthetic_schedule(rng, n_gen // 2)
        weights = _laplacian_weights(sched.cdot(np.array([0.2, 0.7])), n_gen,
                                     True, True)
        halves = flow._half_laplacians(weights, n_gen)
        ys = [neutral_real_action(rng, GeneratorSet(n_gen),
                                  0.4 / n_gen).coeffs[index].real
              for _ in range(3)]
        sparse = ys[0].copy()
        sparse[1::2] = 0.0
        ys += [sparse, np.zeros(index.size), ys[1]]
        product = np.zeros((index.size, index.size))
        for i, y in enumerate(ys):
            half = halves[i % 2]
            got, got_dlog = flow._dense_rhs(half, y, table, product, None)
            want, want_dlog = flow._dense_rhs(
                half, y, table, np.zeros_like(product), None)
            assert got.tobytes() == want.tobytes()
            assert (np.complex128(got_dlog).tobytes()
                    == np.complex128(want_dlog).tobytes())
            if not y.any():
                assert not product.any()


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
        pop = popcounts(g.dim, g.count)
        odd = np.abs(out.coeffs[pop % 2 == 1]).max(initial=0.0)
        assert odd <= 1e-10 * out.max_abs()

    def test_odd_input_rejected(self, rng):
        g = GeneratorSet(4)
        with pytest.raises(ParityError):
            rg_map(np.zeros((4, 4)), GrassmannElement.monomial(g, [0]))

    def test_log_domain_error_reports_scalar(self, carriers_taken):
        # a covariance big enough to push the convolved scalar negative; the
        # data are real, so the refusal comes from the float64 carrier
        g = GeneratorSet(2)
        f = GrassmannElement.monomial(g, [0, 1], 4.0)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        # exp(-f) = 1 - 4 Psi01; convolution scalar = 1 - 4*A01 = -3
        with pytest.raises(LogDomainError) as info:
            rg_map(a, f)
        assert info.value.scalar_part is not None
        assert info.value.scalar_part.real == pytest.approx(-3.0)
        assert carriers_taken == [(None, "float64")] * 2

    def test_conditioning_warning(self, carriers_taken):
        g = GeneratorSet(2)
        f = GrassmannElement.monomial(g, [0, 1], 4.0)
        a = np.array([[0.0, 0.22], [-0.22, 0.0]])
        # convolution scalar = 1 - 0.88 = 0.12 stays loggable; 0.24 warns
        rg_map(a, f)
        a = np.array([[0.0, 0.24], [-0.24, 0.0]])
        with pytest.warns(UserWarning, match="ill-conditioned"):
            rg_map(a, f)
        assert carriers_taken == [(None, "float64")] * 6


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
        # the kernel is read at every node and midpoint once, in time order,
        # a block of steps per call
        sched = synthetic_schedule(rng, 2)
        bare = quartic_bare_action(GeneratorSet(4), 0.05)
        cdot = sched.cdot
        calls = []

        def counted(t):
            calls.append(t)
            return cdot(t)

        monkeypatch.setattr(sched, "cdot", counted)
        for steps in (1, 8, 10, 17):
            calls.clear()
            flow_integrate(sched, bare, steps=steps, t_end=0.5)
            grid = uniform_grid(steps, 0.5)
            nodes = np.sort(np.concatenate(
                (grid, grid[:-1] + 0.5 * np.diff(grid))))
            assert all(np.ndim(t) == 1 for t in calls)
            assert np.concatenate(calls).tobytes() == nodes.tobytes()
            assert len(calls) <= -(-steps // flow._BLOCK_STEPS) + 1

    def test_unnormalized_bare_rejected(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.04) + 0.3
        with pytest.raises(ValueError, match="normalized"):
            flow_integrate(sched, f, steps=10, t_end=1.0)

    def test_bad_grids_rejected(self, rng):
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        with pytest.raises(ValueError):
            next(flow_states(sched, f, np.array([0.1, 0.5])))
        with pytest.raises(ValueError):
            next(flow_states(sched, f, np.array([0.0, 0.5, 0.4])))
        with pytest.raises(ValueError):
            next(flow_states(sched, f, np.array([0.0, 2.0])))

    def test_non_finite_grid_refused_first(self, rng):
        # [0, nan] used to pass, and flow_integrate then reported a
        # diverged flow; the refusal comes before that of an unnormalized f
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        for grid in ([0.0, math.nan], [0.0, math.inf], [math.nan, 0.5]):
            for f0 in (f, f + 0.3):
                with pytest.raises(ValueError, match="grid must be finite"):
                    next(flow_states(sched, f0, np.array(grid)))

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_t_end_refused(self, rng, t_end):
        # nan used to fail as "trajectory grid must start at 0", and inf
        # the same after a numpy RuntimeWarning from linspace
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t_end must be finite"):
                flow_integrate(sched, f, steps=10, t_end=t_end)

    def test_empty_grid_refused(self, rng):
        # used to raise a bare IndexError from grid[0]
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        with pytest.raises(ValueError, match="grid must not be empty"):
            next(flow_states(sched, f, np.array([])))

    def test_negative_steps_refused(self, rng):
        # steps = -1 used to raise a bare IndexError through its empty
        # linspace; steps = 0 keeps its one-point trajectory
        sched = synthetic_schedule(rng, 4)
        f = quartic_bare_action(GeneratorSet(8), 0.01)
        for steps in (-1, -2):
            with pytest.raises(ValueError, match="steps must be nonnegative"):
                flow_integrate(sched, f, steps=steps, t_end=1.0)
        traj = flow_integrate(sched, f, steps=0, t_end=1.0)
        assert traj.grid.tolist() == [0.0]
        assert traj.norms.shape == (1, 4)
        assert traj.norms[0, 1] == pytest.approx(0.01)

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
    parity tolerance of ``rg_map`` (1e-12 relative)."""
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
        # odd content that _require_even admits is refused by the flow,
        # whose carriers hold even states only, and rg_map still multiplies
        # it: rg_map agrees with its series through all four parity blocks
        gens = GeneratorSet(8)
        sched = synthetic_schedule(rng, 4)
        f = with_tolerated_odd_content(rng, gens)
        odd = popcounts(gens.dim, gens.count) % 2 == 1
        with pytest.raises(ParityError, match="the flow requires an "
                           "exactly even element"):
            next(flow_states(sched, f, np.linspace(0.0, 1.0, 11)))
        with pytest.raises(ParityError):
            flow_integrate(sched, f, steps=10, t_end=1.0)

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

    @pytest.mark.parametrize("n_gen", [4, 8, 10])
    @pytest.mark.parametrize("carrier", ["neutral", "even"])
    def test_norms_are_bitwise_rows_of_the_full_states(self, rng, n_gen,
                                                       carrier):
        # flow_integrate reads each row off the carrier vector, leaving out
        # only exact zeros, so it is bitwise the row of the full state
        sched = synthetic_schedule(rng, n_gen // 2)
        f = quartic_bare_action(GeneratorSet(n_gen), 0.04)
        if carrier == "even":
            f = TestBlockRead.off_the_neutral_carrier(f)
        steps = 12
        traj = flow_integrate(sched, f, steps=steps, t_end=0.6)
        yielded = list(flow_states(sched, f, uniform_grid(steps, 0.6)))
        assert len(traj.norms) == len(yielded) == steps + 1
        for row, (state, _) in zip(traj.norms, yielded):
            assert row.tobytes() == _norm_row(state.coeffs, n_gen).tobytes()
        assert bitwise_equal(traj.log_norm, [c for _, c in yielded])
        assert traj.norms[-1, 1] != traj.norms[0, 1]

    @pytest.mark.parametrize("steps", [1, 7, 9, 37])
    @pytest.mark.parametrize("carrier", ["neutral", "even"])
    def test_blocks_of_any_length_give_the_rows_of_the_states(self, rng, steps,
                                                              carrier):
        # step counts that are not a multiple of _BLOCK_STEPS end on a short
        # block; its rows and log-norms are still those of the states
        sched = synthetic_schedule(rng, 3)
        f = quartic_bare_action(GeneratorSet(6), 0.05)
        if carrier == "even":
            f = TestBlockRead.off_the_neutral_carrier(f)
        traj = flow_integrate(sched, f, steps=steps, t_end=0.7)
        yielded = list(flow_states(sched, f, uniform_grid(steps, 0.7)))
        assert len(traj.norms) == len(yielded) == steps + 1
        want = np.array([_norm_row(state.coeffs, 6) for state, _ in yielded])
        assert traj.norms.tobytes() == want.tobytes()
        assert bitwise_equal(traj.log_norm, [c for _, c in yielded])
        assert traj.norms[-1, 0] != traj.norms[0, 0]

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
            flow_integrate(inst.schedule, inst.bare_action, steps=400,
                           t_end=2.0)
