"""Norms for covariances and algebra elements, and Gram-type moment bounds.

The matrix norm is the maximum absolute row sum.  The algebra seminorm of an
even element collects, degree by degree, the largest per-generator sum of
absolute coefficients: ``F_m = sup_i (1/2m) sum_{J ni i, |J|=2m} |zeta_J|``,
and stands for the even power series ``sum_m F_m z^(2m)`` in the norm
parameter ``z``.  ``gram_bound_check`` takes its subsets as a 1-D integer
array of bitmasks, as ``gaussian_moment`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    GrassmannElement,
    _index_set,
    _popcount_table,
    _rank,
    _require_even,
)
from .gaussian import AntisymmetricCovariance, _subset_bits, gaussian_moment


@dataclass(frozen=True)
class NormSeries:
    """Nonnegative coefficients of an even power series in the norm parameter.

    ``coefficients[m - 1]`` is the coefficient of ``z**(2m)``.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if np.any(c < 0):
            raise ValueError("norm coefficients must be nonnegative")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return len(self.coefficients)

    def coeff(self, m: int) -> float:
        """Coefficient of ``z**(2m)`` (zero beyond the stored range)."""
        if m < 1:
            raise IndexError("degree index m starts at 1")
        return float(self.coefficients[m - 1]) if m <= len(self) else 0.0

    def __eq__(self, other):
        if not isinstance(other, NormSeries):
            return NotImplemented
        return len(self) == len(other) and bool(
            np.all(self.coefficients == other.coefficients))


class GramBoundReport(NamedTuple):
    """The Gram bound of each subset of an array of bitmasks, as arrays of
    its length."""

    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray


def matrix_norm_1inf(a) -> float:
    """Maximum absolute row sum of a matrix (or covariance wrapper)."""
    m = a.matrix if isinstance(a, AntisymmetricCovariance) else np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


@cache
def _norm_table(n_gen: int, even: bool = False,
                neutral: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """For each generator ``i`` in turn, the even subsets of
    ``_index_set(n_gen, even, neutral)`` containing it (in increasing
    order), as their ranks in it, and their bins ``i * (n_gen + 1) + |J|``,
    concatenated: one ``bincount`` then sums every per-generator even degree
    in subset order.  Odd subsets would fill only the bins that
    ``norm_coefficients`` drops.  A carrier leaves out subsets whose
    coefficients are exactly zero on it, whose ``+0.0`` terms change no sum,
    so a row read off a carrier vector is bitwise the row of its full
    vector."""
    idx = _index_set(n_gen, True, neutral)
    rank = _rank(n_gen, even, neutral)
    pop = _popcount_table(n_gen).astype(np.intp)
    sel = [idx[(idx >> i) & 1 == 1] for i in range(n_gen)]
    return (np.concatenate([rank[s] for s in sel]),
            np.concatenate([i * (n_gen + 1) + pop[s] for i, s in enumerate(sel)]))


def norm_coefficients(f: GrassmannElement) -> NormSeries:
    """Degree-resolved seminorm coefficients of an even element.

    The constant part is ignored.  Odd content that ``_require_even``
    refuses raises ``ParityError``.
    """
    _require_even(f, "norm_coefficients")
    return NormSeries(_norm_row(f.coeffs, f.gens.count))


def _norm_row(coeffs: np.ndarray, n_gen: int, even: bool = False,
              neutral: bool = False) -> np.ndarray:
    """The seminorm coefficients ``F_1 .. F_n`` of a coefficient vector of
    ``n_gen`` generators over ``_index_set(n_gen, even, neutral)`` as a
    float64 row, from one ``np.abs`` pass; odd coefficients are not
    read."""
    n = n_gen // 2
    subsets, bins = _norm_table(n_gen, even, neutral)
    sums = np.bincount(bins, weights=np.abs(coeffs)[subsets],
                       minlength=n_gen * (n_gen + 1)).reshape(n_gen, n_gen + 1)
    per_m = sums[:, 2: 2 * n + 1: 2] / (2.0 * np.arange(1, n + 1))
    return np.max(per_m, axis=0, initial=0.0)


def convergence_radius(series0: NormSeries) -> float:
    """Radius ``R`` with ``R**-2 = sup_m (2m F_m)**(1/m)``.

    The all-zero series has an empty supremum, taken as zero, so ``R`` is
    infinite (the majorant of the zero action is zero).
    """
    c = series0.coefficients
    sup = 0.0
    for m in range(1, len(c) + 1):
        fm = c[m - 1]
        if fm > 0:
            sup = max(sup, (2.0 * m * fm) ** (1.0 / m))
    if sup == 0.0:
        return float("inf")
    return sup ** -0.5


def gram_bound_check(cov: AntisymmetricCovariance,
                     masks: np.ndarray) -> GramBoundReport:
    """Check the Gram moment bound for each subset of generators of
    ``masks``, a 1-D integer array of bitmasks, one report entry per mask.

    ``lhs`` is the absolute Gaussian moment, ``rhs`` is
    ``(4 max C^{+-}_{ii})**(|J|/2)`` with the max over both split parts and
    the generator pairs touched by the subset.  ``masks`` is parsed, and
    refused, as ``gaussian_moment`` parses it, and its moments come from one
    stacked Pfaffian per even size.
    """
    c_plus, c_minus = cov.require_split()
    n = cov.pairs
    bits = _subset_bits(masks, cov.dim)
    # an untouched pair, and so the empty subset, reads 0, and 0**0 == 1
    touched = bits[:, :n] | bits[:, n:]
    diag_max = np.max(touched * np.maximum(np.diag(c_plus), np.diag(c_minus)),
                      axis=1, initial=0.0)
    # libm's pow per subset: numpy's vectorized power may round otherwise
    rhs = np.array([(4.0 * d) ** (size / 2.0) for d, size
                    in zip(diag_max.tolist(), bits.sum(axis=1).tolist())])
    lhs = np.abs(gaussian_moment(cov.matrix, masks))
    return GramBoundReport(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))
