import numpy as np
import pytest

from ferroflow.instances import (  # noqa: F401  (test modules import them from here)
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    synthetic_schedule,
)
from ferroflow import schedule as schedule_module
from ferroflow.algebra import GrassmannElement, wedge
from ferroflow.norms import matrix_norm_1inf
from ferroflow.psi4 import Psi4Params, build_desk_instance
from ferroflow.schedule import ScaleSchedule


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
    ``analytic_apply``)."""
    x = f - f.scalar_part
    power = GrassmannElement.scalar(f.gens, 1.0)
    acc = power * deriv_at(0)
    kfact = 1.0
    for k in range(1, f.gens.count + 1):
        power = wedge(power, x)
        kfact *= k
        acc = acc + power * (deriv_at(k) / kfact)
    return acc


def desk_instance():
    """The psi4 desk instance at the CLI defaults (4 sites, 8 generators)."""
    params = Psi4Params(dimension=4, mass=1.0, lambda0=2.0, box=4.0,
                        cutoff_factor=7.0)
    return build_desk_instance(params, 0.002, n_sites=4, t_max=2.0)


def count_rate_norm_calls(monkeypatch) -> dict:
    """Count ``ScaleSchedule.adot_norm_at`` calls (``"rate"``, nested calls
    included) and the schedule module's ``matrix_norm_1inf`` calls
    (``"norm"``) from now on."""
    calls = {"rate": 0, "norm": 0}
    rate = ScaleSchedule.adot_norm_at

    def counting_rate(self, tau):
        calls["rate"] += 1
        return rate(self, tau)

    def counting_norm(a):
        calls["norm"] += 1
        return matrix_norm_1inf(a)

    monkeypatch.setattr(ScaleSchedule, "adot_norm_at", counting_rate)
    monkeypatch.setattr(schedule_module, "matrix_norm_1inf", counting_norm)
    return calls
