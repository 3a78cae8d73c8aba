import math
from dataclasses import replace

import numpy as np
import pytest

from ferroflow.errors import ResolutionError
from ferroflow.psi4 import (Psi4Params, _gammaincc, _is_chain,
                            build_desk_instance, covariance_matrix)

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
    # takes the full momentum sum instead of the chain's classes; by
    # translation and axis symmetry both give the chain's covariance and
    # rescaled time
    chain = cli_params().with_chain_sites(3)
    shifted = replace(chain, sites=tuple((x[0] + 0.1,) + x[1:] for x in chain.sites))
    turned = replace(chain, sites=tuple((0.0, x[0], 0.0, 0.0) for x in chain.sites))
    assert _is_chain(chain)
    want = covariance_matrix(chain, 0.0, 1.0)
    want_tau = build_desk_instance(chain, 0.002, t_max=1.0).schedule.tau(1.0)
    for params in (shifted, turned):
        assert not _is_chain(params)
        for got, ref in zip(covariance_matrix(params, 0.0, 1.0), want):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        tau = build_desk_instance(params, 0.002, t_max=1.0).schedule.tau(1.0)
        assert abs(tau - want_tau) <= 1e-14 * abs(want_tau)
