import numpy as np
import pytest

from ferroflow.instances import (  # noqa: F401  (test modules import them from here)
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
    synthetic_schedule,
)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240817))


def popcounts(dim, n_gen):
    idx = np.arange(dim)
    pop = np.zeros(dim, dtype=int)
    for b in range(n_gen):
        pop += (idx >> b) & 1
    return pop
