import numpy as np
import pytest

from ferroflow.instances import (  # noqa: F401  (test modules import them from here)
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    synthetic_schedule,
)
from ferroflow.algebra import GrassmannElement, wedge
from ferroflow.gaussian import AntisymmetricCovariance
from ferroflow.psi4 import Psi4Params, build_desk_instance
from ferroflow.schedule import ScaleSchedule

from oracles import flow_states


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))


def popcounts(dim, n_gen):
    idx = np.arange(dim)
    pop = np.zeros(dim, dtype=int)
    for b in range(n_gen):
        pop += (idx >> b) & 1
    return pop


def taylor_by_wedge(deriv_at, f):
    """``sum_k deriv_at(k) x^k / k!`` for the nilpotent part ``x = f - f_0``,
    every power taken through the public ``wedge`` (an oracle for
    ``exp_of``, ``log_of`` and ``analytic_apply``)."""
    x = f - f.scalar_part
    power = GrassmannElement.scalar(f.gens, 1.0)
    acc = power * deriv_at(0)
    kfact = 1.0
    for k in range(1, f.gens.count + 1):
        power = wedge(power, x)
        kfact *= k
        acc = acc + power * (deriv_at(k) / kfact)
    return acc


def desk_instance(sites=4, alpha=0.002):
    """The psi4 desk instance at the CLI defaults (4 sites, 8 generators),
    or on another number of ``sites`` or coupling ``alpha``."""
    params = Psi4Params(dimension=4, mass=1.0, lambda0=2.0, box=4.0,
                        cutoff_factor=7.0)
    return build_desk_instance(params, alpha, n_sites=sites, t_max=2.0)


def gram_rate_of(cdot):
    """The Gram rate ``4 max_i cdot(tau)_ii`` by its definition, at a scale
    or over an array of scales."""
    return lambda tau: 4.0 * np.max(
        np.diagonal(cdot(tau), axis1=-2, axis2=-1), axis=-1)


def rate_at(schedule, t):
    """The schedule's rate matrix at scale ``t``: the block embedding
    ``[[0, C], [-C, 0]]`` of its kernel ``C = schedule.cdot(t)``."""
    return AntisymmetricCovariance._block(schedule.cdot(t))


def count_rate_norm_calls(monkeypatch) -> dict:
    """Count ``ScaleSchedule.adot_norm_at`` calls (``"rate"``) from now on."""
    calls = {"rate": 0}
    rate = ScaleSchedule.adot_norm_at

    def counting_rate(self, tau):
        calls["rate"] += 1
        return rate(self, tau)

    monkeypatch.setattr(ScaleSchedule, "adot_norm_at", counting_rate)
    return calls


def states_on(schedule, f0, grid, truncate_ge2=False):
    """Every state that ``flow_states`` yields on ``grid``, kept in a list:
    the library keeps none."""
    return [state for state, _ in flow_states(schedule, f0, grid, truncate_ge2)]


def uniform_grid(steps, t_end):
    """``flow_integrate``'s default grid: ``steps`` uniform steps up to
    ``t_end``."""
    return np.linspace(0.0, float(t_end), steps + 1)
