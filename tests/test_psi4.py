import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ferroflow import psi4, schedule
from ferroflow.cli import main
from ferroflow.errors import ResolutionError, UnsupportedDimensionError
from ferroflow.psi4 import (Psi4Params, _gammaincc, _momentum_table,
                            build_desk_instance, coupling_bound,
                            covariance_matrix, effective_flow_time,
                            sigma_squared_closed_form)

_TINY = np.finfo(float).tiny


def cli_params(cutoff_factor=7.0):
    """The psi4 parameters at the CLI defaults."""
    return Psi4Params(dimension=4, mass=1.0, lambda0=2.0, box=4.0,
                      cutoff_factor=cutoff_factor)


@pytest.mark.parametrize("d", range(3, 9))
def test_gammaincc_matches_scipy(d):
    special = pytest.importorskip("scipy.special")
    for x in np.concatenate([[0.0], np.logspace(-8, 3, 221)]):
        want = float(special.gammaincc(d / 2.0, x))
        got = _gammaincc(d / 2.0, float(x))
        if want >= _TINY:
            assert abs(got - want) <= 1e-12 * want, (x, got, want)
        else:
            assert got < 1e-300 and want < 1e-300, (x, got, want)


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (-0.5, 1.0), (-1.0, 1.0),
                                  (0.25, 1.0), (1.3, 1.0), (math.nan, 1.0),
                                  (2.0, -1.0), (2.0, math.inf)])
def test_gammaincc_refuses_arguments_outside_its_domain(a, x):
    with pytest.raises(ValueError):
        _gammaincc(a, x)


def test_flow_time_matches_the_exponential_integral():
    # integral_0^t exp(-a e^{2s}) ds = [E1(a) - E1(a e^{2t})] / 2, a = m^2/L_0^2
    special = pytest.importorskip("scipy.special")
    params = cli_params()
    a = (params.mass / params.lambda0) ** 2

    def closed_form(t):
        return 0.5 * (special.exp1(a) - special.exp1(a * np.exp(2.0 * t)))

    for t in (0.3, 1.0, 2.0):
        clock = effective_flow_time(params, t)
        assert isinstance(clock.value, float) and isinstance(clock.bound, float)
        assert clock.value == pytest.approx(closed_form(t), rel=1e-10, abs=0.0)
    ts = np.linspace(0.0, 2.0, 201)
    clock = effective_flow_time(params, ts)
    assert clock.value.shape == clock.bound.shape == ts.shape
    assert clock.value[0] == 0.0
    np.testing.assert_allclose(clock.value[1:], closed_form(ts[1:]),
                               rtol=1e-10, atol=0.0)
    assert np.all(clock.value <= clock.bound)
    assert effective_flow_time(params, 0.0).value == 0.0
    with pytest.raises(ValueError):
        effective_flow_time(params, -0.1)


def test_psi4_reads_its_clock_from_one_table(tmp_path, monkeypatch):
    tables = []
    simpson = []
    init = schedule._CumulativeTable.__init__
    refine = schedule.simpson_refine

    def counting_init(self, *args, **kwargs):
        tables.append(args[1:])
        init(self, *args, **kwargs)

    def counting_simpson(*args, **kwargs):
        simpson.append(args[1:3])
        return refine(*args, **kwargs)

    monkeypatch.setattr(schedule._CumulativeTable, "__init__", counting_init)
    for module in (schedule, psi4):
        monkeypatch.setattr(module, "simpson_refine", counting_simpson,
                            raising=False)
    assert main(["psi4", "--out", str(tmp_path / "psi4.csv")]) == 0
    assert len(tables) == 1
    assert simpson == []


@pytest.mark.parametrize("sites", [2, 4])
def test_majorant_builds_one_table(tmp_path, monkeypatch, sites):
    # the desk supplies sigma^2 from its lattice sums, so a run integrates
    # the rescaled time alone, in one table built once
    tables = []
    builds = []
    init = schedule._CumulativeTable.__init__
    build = schedule._CumulativeTable._build

    def counting_init(self, *args, **kwargs):
        tables.append(args[2])
        init(self, *args, **kwargs)

    def counting_build(self):
        builds.append(self._name)
        build(self)

    monkeypatch.setattr(schedule._CumulativeTable, "__init__", counting_init)
    monkeypatch.setattr(schedule._CumulativeTable, "_build", counting_build)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sites = {sites}\nsteps = 20\n")
    assert main(["majorant", "--config", str(cfg),
                 "--out", str(tmp_path / "m.csv")]) == 0
    assert tables == ["cdot"]
    assert builds == ["cdot"]


def test_sigma_squared_closed_form_is_additive():
    params = cli_params()
    s, t = 0.4, 1.3
    whole = sigma_squared_closed_form(params, 0.0, t)
    parts = (sigma_squared_closed_form(params, 0.0, s)
             + sigma_squared_closed_form(params, s, t))
    assert parts == pytest.approx(whole, rel=1e-14)
    assert sigma_squared_closed_form(params, s, s) == 0.0
    with pytest.raises(ValueError):
        sigma_squared_closed_form(params, t, s)


@pytest.mark.parametrize("d", [3, 5])
def test_coupling_bound_is_four_dimensional(d):
    assert coupling_bound(cli_params()) > 0.0
    with pytest.raises(UnsupportedDimensionError):
        coupling_bound(replace(cli_params(), dimension=d))


def test_tail_certificate_refuses_a_short_cutoff():
    with pytest.raises(ResolutionError, match="tail bound"):
        covariance_matrix(cli_params(1.0).with_chain_sites(2), 0.0, 1.0)
    with pytest.raises(ResolutionError, match="tail bound"):
        build_desk_instance(cli_params(1.0), 0.002, n_sites=2)
    covariance_matrix(cli_params().with_chain_sites(2), 0.0, 1.0)
    build_desk_instance(cli_params(), 0.002, n_sites=2)


def test_default_cutoff_passes_the_tail_certificate():
    params = Psi4Params(dimension=4, mass=1.0, lambda0=2.0, box=4.0)
    assert params == cli_params()
    build_desk_instance(params, 0.002, n_sites=2)


def test_dimension_is_stored_as_an_integer():
    params = Psi4Params(dimension=4.0, mass=1.0, lambda0=2.0, box=4.0,
                        cutoff_factor=7.0)
    assert type(params.dimension) is int and params == cli_params()
    assert type(Psi4Params(dimension=np.int64(3), mass=1.0, lambda0=2.0,
                           box=4.0).dimension) is int
    # an integral float dimension runs through the momentum table
    build_desk_instance(params, 0.002, n_sites=2)
    for bad in (3.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            Psi4Params(dimension=bad, mass=1.0, lambda0=2.0, box=4.0)


def test_general_sites_match_the_chain_classes():
    # a chain moved off the lattice multiples, or laid along another axis,
    # sums over the same shells as the chain; by translation and axis
    # symmetry both give the chain's covariance and rescaled time
    chain = cli_params().with_chain_sites(3)
    shifted = replace(chain, sites=tuple((x[0] + 0.1,) + x[1:] for x in chain.sites))
    turned = replace(chain, sites=tuple((0.0, x[0], 0.0, 0.0) for x in chain.sites))
    want = covariance_matrix(chain, 0.0, 1.0)
    want_tau = build_desk_instance(chain, 0.002, t_max=1.0).schedule.tau(1.0)
    shells = len(_momentum_table(chain)[0])
    for params in (shifted, turned):
        assert len(_momentum_table(params)[0]) == shells
        got = covariance_matrix(params, 0.0, 1.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        tau = build_desk_instance(params, 0.002, t_max=1.0).schedule.tau(1.0)
        assert abs(tau - want_tau) <= 1e-14 * abs(want_tau)


def momentum_sum(params):
    """Per-momentum lattice sum (an oracle for the shell table): the squared
    momenta of the cutoff ball and one phase column per momentum."""
    d = params.dimension
    h = 2.0 * math.pi / params.box
    radius = params.cutoff_factor * params.lambda0
    kmax = int(math.floor(radius / h))
    axes = [np.arange(-kmax, kmax + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    kvecs = np.stack([m.ravel() for m in mesh], axis=-1)
    ksq = np.sum(kvecs * kvecs, axis=1)
    keep = ksq * h * h <= radius ** 2
    kvecs = kvecs[keep]
    ksq = ksq[keep]
    sites = np.asarray(params.sites, dtype=float)
    diffs = sites[:, None, :] - sites[None, :, :]
    phases = np.cos(diffs.reshape(-1, d) @ (h * kvecs.astype(float)).T)
    return h * h * ksq.astype(float), ksq, phases


def kernel_by_momenta(params, weights):
    """The symmetric site kernel of per-momentum ``weights`` (last axis)."""
    _, _, phases = momentum_sum(params)
    n = len(params.sites)
    mats = (weights @ phases.T).reshape(weights.shape[:-1] + (n, n))
    mats /= params.box ** params.dimension
    return 0.5 * (mats + mats.swapaxes(-1, -2))


_OFF_LATTICE = ((0.13, -0.71, 0.29, 1.07), (1.19, 0.37, -0.83, 0.41),
                (-0.62, 1.43, 0.55, -0.17))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("placement", ["chain", "off-lattice"])
def test_shell_sum_matches_the_momentum_sum(d, placement):
    params = Psi4Params(dimension=d, mass=1.0, lambda0=1.5, box=4.0)
    if placement == "chain":
        params = params.with_chain_sites(3)
    else:
        params = replace(params, sites=tuple(x[:d] for x in _OFF_LATTICE))
    psq, ksq, _ = momentum_sum(params)
    shells, mult = np.unique(ksq, return_counts=True)
    got_psq, phases = _momentum_table(params)
    assert len(got_psq) == len(shells) < len(psq)
    for i in range(3):
        assert np.array_equal(phases[4 * i], mult.astype(float))
    q = psq + params.mass ** 2

    def rel_err(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    for s, t in ((0.0, 1.0), (0.3, 2.5)):
        lam_s, lam_t = (params.lambda_at(x) ** 2 for x in (s, t))
        want = kernel_by_momenta(params, np.exp(-q / lam_s) / q
                                 - np.exp(-q / lam_t) / q)
        assert rel_err(covariance_matrix(params, s, t), want) <= 1e-13
    cdot = build_desk_instance(params, 0.002, t_max=2.0).schedule._cdot
    for s in (0.7, np.linspace(0.0, 2.0, 5)):
        lam2 = np.exp(-2.0 * np.asarray(s))[..., None] * params.lambda0 ** 2
        want = kernel_by_momenta(params, (2.0 / lam2) * np.exp(-q / lam2))
        got = cdot(s)
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-13


@pytest.mark.parametrize("sites", [4, 6])
def test_table_and_first_scale_integrals_stay_small(sites):
    # the shell table and the first tau and sigma tables at the CLI
    # defaults allocate at most 2 MB at their peak
    params = cli_params()
    _momentum_table.cache_clear()
    tracemalloc.start()
    try:
        sched = build_desk_instance(params, 0.002, n_sites=sites).schedule
        sched.tau(1.0)
        sched.sigma_squared(0.0, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("field, value", [
    ("box", math.inf), ("lambda0", math.inf), ("cutoff_factor", math.nan),
    ("cutoff_factor", math.inf),
], ids=["box-inf", "lambda0-inf", "cutoff-nan", "cutoff-inf"])
def test_non_finite_params_refused(field, value):
    # each used to fail later: an infinite box as a ZeroDivisionError in
    # build_desk_instance, the others in _gammaincc's domain check
    args = dict(dimension=4, mass=1.0, lambda0=2.0, box=4.0, cutoff_factor=7.0)
    args[field] = value
    with pytest.raises(ValueError, match="finite"):
        Psi4Params(**args)


def test_infinite_scale_refused_without_warnings():
    # covariance_matrix(p, 0, inf) used to leak a divide-by-zero
    # RuntimeWarning, and effective_flow_time(p, inf) two RuntimeWarnings
    # before a ResolutionError
    p = cli_params().with_chain_sites(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s, t in ((0.0, math.inf), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="need s <= t < inf"):
                covariance_matrix(p, s, t)
        for t in (math.inf, np.array([0.5, math.inf])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                effective_flow_time(p, t)


def test_nan_scales_refused():
    # covariance_matrix(p, 0, nan) used to return a NaN matrix and
    # sigma_squared_closed_form(p, nan, 1) a NaN
    p = cli_params()
    for s, t in ((0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="need s <= t"):
            covariance_matrix(p, s, t)
        with pytest.raises(ValueError, match="need s <= t"):
            sigma_squared_closed_form(p, s, t)
