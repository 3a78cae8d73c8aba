"""Randomized instances for the invariant checks of ``verify`` and the tests.

Every generator draws from the ``numpy.random.Generator`` it is given, in a
fixed order, so one seed reproduces the same instances everywhere.
"""

from __future__ import annotations

import numpy as np

from .algebra import GeneratorSet, GrassmannElement, _parity_index
from .schedule import ScaleSchedule, _CumulativeTable


def rand_antisymmetric(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) * scale
    return m - m.T


def rand_element(rng, gens: GeneratorSet, scale: float = 1.0,
                 complex_coeffs: bool = True) -> GrassmannElement:
    c = rng.normal(size=gens.dim) * scale
    if complex_coeffs:
        c = c + 1j * rng.normal(size=gens.dim) * scale
    return GrassmannElement(gens, c)


def rand_even_normalized(rng, gens: GeneratorSet, scale: float,
                         complex_coeffs: bool = False) -> GrassmannElement:
    """Random even element with zero scalar part (real by default: the RG
    map logs the convolved scalar)."""
    c = rand_element(rng, gens, scale, complex_coeffs).coeffs.copy()
    c[_parity_index(gens.count, 1)] = 0.0
    c[0] = 0.0
    return GrassmannElement(gens, c)


def synthetic_schedule(rng, pairs: int, T: float = 1.0,
                       scale: float = 0.15) -> ScaleSchedule:
    """Smooth random schedule with the positive-semidefinite derivative
    kernel ``G(tau) G(tau)^T``, ``G = g0 + sin(tau) g1``, at one scale or
    stacked over an array of scales, with its slice integrals in closed
    form and ``sigma^2`` read from a cumulative table of the Gram rate
    ``4 max_i`` of its diagonal."""
    g0 = rng.normal(size=(pairs, pairs)) * scale
    g1 = rng.normal(size=(pairs, pairs)) * (0.3 * scale)
    # diag of G G^T is quadratic in sin(tau)
    d_a = np.sum(g0 * g0, axis=1)
    d_b = np.sum(g0 * g1, axis=1)
    d_c = np.sum(g1 * g1, axis=1)

    def cdot(tau) -> np.ndarray:
        g = g0 + np.sin(np.asarray(tau, dtype=float))[..., None, None] * g1
        return g @ g.swapaxes(-1, -2)

    def gram_rate(tau):
        s = np.sin(np.asarray(tau, dtype=float))[..., None]
        return 4.0 * np.max(d_a + 2.0 * s * d_b + s * s * d_c, axis=-1)

    # G G^T = k0 + sin(tau) k1 + sin(tau)^2 k2, integrated over [s, t]
    k0, k1, k2 = g0 @ g0.T, g0 @ g1.T + g1 @ g0.T, g1 @ g1.T

    def c_between(s: float, t: float) -> np.ndarray:
        return (k0 * (t - s) + k1 * (np.cos(s) - np.cos(t))
                + k2 * ((t - s) / 2.0 - (np.sin(2.0 * t) - np.sin(2.0 * s)) / 4.0))

    return ScaleSchedule(
        cdot, T=T, pairs=pairs, c_between=c_between,
        sigma_between=_CumulativeTable(gram_rate, float(T), "gram_rate").between)
