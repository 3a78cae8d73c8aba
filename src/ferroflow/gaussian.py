"""Fermionic Gaussian calculus: Pfaffians, moments, and heat-kernel convolution.

A Gaussian state is defined by an antisymmetric covariance matrix ``A``; its
moments are Pfaffians of submatrices.  The Pfaffian is normalized so that
``pfaffian([[0, a], [-a, 0]]) == a`` and ``pfaffian(A)**2 == det(A)``, which
makes the two-point moment of generators ``i < j`` equal to ``A[i, j]``.

``pfaffian`` takes one matrix or a stack of shape ``(..., n, n)`` and
reduces the whole stack at once.  ``gaussian_moment`` takes its subsets as
a 1-D integer array of bitmasks (bit ``k`` set means generator ``k``); it
stacks the submatrices of the masks by size, one ``pfaffian`` call per even
size.

The weighted Laplacian here carries a global sign chosen so that the
heat-kernel convolution ``exp(Delta_A / 2) f`` evaluated at zero fields
reproduces the Gaussian expectation of ``f``.  That consistency (not any
particular textbook ordering of left derivatives) is the convention anchor,
and it is pinned by the moment-consistency tests.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .algebra import (
    GrassmannElement,
    _index_set,
    _is_exactly_even,
    _parity_index,
    _popcount_table,
    _rank,
)
from .errors import DimensionMismatchError, GramSplitError

# Global Laplacian sign relative to sum_{ij} A_ij d_i d_j with left
# derivatives; pinned by the heat-kernel/moment consistency test.
_LAPLACIAN_SIGN = -1.0


@functools.cache
def _laplacian_table(n_gen: int, even: bool, neutral: bool = False):
    """Gather table of ``d_i d_j`` over the generator pairs ``i < j`` that
    keep the index set ``_index_set(n_gen, even, neutral)``, in its ranks.

    Returns ``(rows, cols, src, pair, targets, starts)``.  Pair ``p`` is
    ``(rows[p], cols[p])``.  Entry ``e`` maps the coefficient of the source
    of rank ``src[e]`` to the target ``source & ~(bit_i | bit_j)``, where
    ``d_i d_j`` keeps the sign of the monomial if ``pair[e]`` is ``p`` and
    flips it if ``pair[e]`` is ``p + len(rows)``.  Entries are sorted by
    target, and the target of rank ``targets[t]`` owns the entries from
    ``starts[t]`` on; targets of degree above ``n_gen - 2`` own none.

    On the neutral masks the pairs are the ``n**2`` psi-psibar pairs ``(i,
    n + j)``, ``n = n_gen / 2``: the ones that keep the charge, and the only
    ones a block embedding weighs.  The entries are those of the even table
    with such a pair and a neutral source, in the same order.
    """
    rows, cols = np.triu_indices(n_gen, 1)
    if neutral:
        cross = (rows < n_gen // 2) & (cols >= n_gen // 2)
        rows, cols = rows[cross], cols[cross]
    index = _index_set(n_gen, even, neutral)
    pop = _popcount_table(n_gen)
    dst_parts, src_parts, pair_parts = [], [], []
    for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        both = (1 << i) | (1 << j)
        dst = index[(index & both) == 0]
        src = dst | both
        # d_j first, then d_i (i < j): each removes its generator with
        # the parity of the source bits below it
        odd = (pop[src & ((1 << j) - 1)] + pop[src & ((1 << i) - 1)]) & 1
        dst_parts.append(dst)
        src_parts.append(src)
        pair_parts.append(p + rows.size * odd.astype(np.intp))
    dst = np.concatenate(dst_parts)
    order = np.argsort(dst, kind="stable")
    dst = dst[order]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    rank = _rank(n_gen, even, neutral)
    return (rows, cols, rank[np.concatenate(src_parts)[order]],
            np.concatenate(pair_parts)[order], rank[dst[starts]], starts)


def _laplacian_weights(a, n_gen: int, even: bool,
                       neutral: bool = False) -> np.ndarray:
    """Weight of every entry of ``_laplacian_table(n_gen, even, neutral)``
    for covariance ``a``: ``_LAPLACIAN_SIGN * (m - m.T)[i, j]`` for the
    entry's pair, negated where ``d_i d_j`` flips the sign.  With
    ``neutral``, ``a`` is the real kernel ``C`` of a block embedding
    ``[[0, C], [-C, 0]]``, whose cross pair ``(i, n + j)`` weighs
    ``_LAPLACIAN_SIGN * (C + C.T)[i, j]``, bitwise the weight of the
    embedding.  A matrix gives one row of weights, and a stack of shape
    ``(..., dim, dim)`` (an array, not an ``AntisymmetricCovariance``) one
    row per matrix, each bitwise the row of that matrix alone.  A caller
    that applies one covariance many times computes them once."""
    rows, cols, _, pair, _, _ = _laplacian_table(n_gen, even, neutral)
    if neutral:
        c = np.asarray(a, dtype=float)
        weight = _LAPLACIAN_SIGN * (c + c.swapaxes(-1, -2))[
            ..., rows, cols - n_gen // 2]
    else:
        # sum_ij m_ij d_i d_j keeps only the antisymmetric part of m
        m = _as_matrix(a)
        weight = _LAPLACIAN_SIGN * (m - m.swapaxes(-1, -2))[..., rows, cols]
    # take, not [..., pair]: a stack's rows come out contiguous
    return np.concatenate((weight, -weight), axis=-1).take(pair, axis=-1)


def _laplacian_coeffs(weights: np.ndarray, y: np.ndarray, n_gen: int,
                      even: bool, neutral: bool = False) -> np.ndarray:
    """``laplacian`` on coefficients ``y`` over ``_index_set(n_gen, even,
    neutral)``, with ``weights = _laplacian_weights(a, n_gen, even,
    neutral)``, as such a vector, real where both are."""
    _, _, src, _, targets, starts = _laplacian_table(n_gen, even, neutral)
    sums = np.add.reduceat(weights * y.take(src), starts)
    out = np.zeros(y.size, dtype=sums.dtype)
    out[targets] = sums
    return out


class AntisymmetricCovariance:
    """A 2n x 2n antisymmetric covariance, optionally with a symmetric source.

    When built from a split ``C = C+ - C-`` of two positive-definite
    matrices the covariance has the block form
    ``[[0, C], [-C, 0]]`` and the split is retained for Gram-type bounds.
    """

    __slots__ = ("matrix", "c_plus", "c_minus")

    def __init__(self, matrix: np.ndarray, c_plus: np.ndarray | None = None,
                 c_minus: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"covariance must be square, got {matrix.shape}")
        if matrix.shape[0] % 2 != 0:
            raise DimensionMismatchError("covariance dimension must be even")
        scale = max(1.0, float(np.max(np.abs(matrix))) if matrix.size else 1.0)
        if float(np.max(np.abs(matrix + matrix.T), initial=0.0)) > 1e-12 * scale:
            raise ValueError("matrix is not antisymmetric within 1e-12")
        m = 0.5 * (matrix - matrix.T)  # enforce A.T == -A exactly
        m.setflags(write=False)
        self.matrix = m
        self.c_plus = None if c_plus is None else np.asarray(c_plus, dtype=float)
        self.c_minus = None if c_minus is None else np.asarray(c_minus, dtype=float)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def pairs(self) -> int:
        return self.dim // 2

    @staticmethod
    def _block(c: np.ndarray) -> np.ndarray:
        """The block embedding ``[[0, C], [-C, 0]]`` of a kernel ``C``, or
        of each kernel of a stack of shape ``(..., n, n)``, in
        complex128."""
        n = c.shape[-1]
        a = np.zeros(c.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
        a[..., :n, n:] = c
        a[..., n:, :n] = -c
        return a

    @classmethod
    def from_split(cls, c_plus: np.ndarray, c_minus: np.ndarray
                   ) -> "AntisymmetricCovariance":
        """Block covariance for ``C = C+ - C-`` with positive-definite parts."""
        c_plus = np.asarray(c_plus, dtype=float)
        c_minus = np.asarray(c_minus, dtype=float)
        for name, m in (("C+", c_plus), ("C-", c_minus)):
            if m.shape != c_plus.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise DimensionMismatchError(f"{name} must be square")
            if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(m))):
                raise ValueError(f"{name} must be symmetric")
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"{name} is not positive-definite") from exc
        return cls(cls._block(c_plus - c_minus), c_plus=c_plus, c_minus=c_minus)

    def require_split(self) -> tuple[np.ndarray, np.ndarray]:
        """The parts ``(C+, C-)``; ``GramSplitError`` if there are none."""
        if self.c_plus is None or self.c_minus is None:
            raise GramSplitError("covariance carries no C+/C- split")
        return self.c_plus, self.c_minus


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, AntisymmetricCovariance):
        return a.matrix
    return np.asarray(a, dtype=np.complex128)


def pfaffian(a) -> complex | np.ndarray:
    """Pfaffian of an even-dimensional antisymmetric matrix, or of each
    matrix of a stack of shape ``(..., n, n)``.

    Skew-symmetric tridiagonalization with partial pivoting (Parlett-Reid),
    run on the whole stack at once; O(n^3) per matrix and stable.
    ``pfaffian(A)**2 == det(A)`` and ``pfaffian([[0,a],[-a,0]]) == a``.  A
    2-D input returns a ``complex``, a stack an array of its batch shape.  A
    member whose pivot column vanishes is exactly 0 and leaves the others
    unchanged: each member's value is the one it has alone.
    """
    m = _as_matrix(a)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("pfaffian needs a square matrix")
    n = m.shape[-1]
    if n % 2 != 0:
        raise ValueError("singular: odd dimension")
    batch = m.shape[:-2]
    count = math.prod(batch)
    m = m.reshape(count, n, n).copy()
    every = np.arange(count)
    value = np.ones(count, dtype=np.complex128)
    for k in range(0, n - 1, 2):
        pivot = k + 1 + np.argmax(np.abs(m[:, k + 1:, k]), axis=1)
        m[every, k + 1], m[every, pivot] = m[every, pivot], m[every, k + 1]
        m[every, :, k + 1], m[every, :, pivot] = m[every, :, pivot], m[every, :, k + 1]
        flip = pivot != k + 1
        value[flip] = -value[flip]
        # a zero pivot column: the Pfaffian is 0, and the zeroed member
        # stays 0 through the remaining steps
        dead = m[:, k + 1, k] == 0
        m[dead] = 0
        value[dead] = 0
        head = m[:, k, k + 1]
        # value * head by the scalar formula: numpy's vectorized complex
        # product can differ from it in the last bit, and this keeps each
        # member bitwise the value of the one-matrix reduction
        prod = np.empty_like(value)
        prod.real = value.real * head.real - value.imag * head.imag
        prod.imag = value.real * head.imag + value.imag * head.real
        value = prod
        if k + 2 < n:
            tau = m[:, k, k + 2:] / np.where(dead, 1, head)[:, None]
            col = m[:, k + 2:, k + 1]
            m[:, k + 2:, k + 2:] += (tau[:, :, None] * col[:, None, :]
                                     - col[:, :, None] * tau[:, None, :])
    return complex(value[0]) if not batch else value.reshape(batch)


def _subset_bits(masks, dim: int) -> np.ndarray:
    """Membership table of shape ``(len(masks), dim)`` of a 1-D integer
    array of bitmasks, one row per mask.  Anything else, a list included,
    and a negative mask raise ``ValueError``; a mask naming a generator
    outside ``0..dim-1`` raises ``IndexError``."""
    if (not isinstance(masks, np.ndarray) or masks.ndim != 1
            or masks.dtype.kind not in "iu"):
        raise ValueError("subset bitmasks must be a 1-D integer array")
    masks = masks.astype(np.int64)
    if masks.size and masks.min() < 0:
        raise ValueError("a subset bitmask must be nonnegative")
    if masks.size and int(masks.max()) >> dim:
        raise IndexError(f"subset index out of range 0..{dim - 1}")
    return (masks[:, None] >> np.arange(dim)) & 1 == 1


def gaussian_moment(a, masks: np.ndarray) -> np.ndarray:
    """Gaussian moments of the basis monomials (ascending order) of the
    subsets ``masks``, a 1-D integer array of bitmasks, as an array of its
    length.

    Zero for odd cardinality, one for the empty set, otherwise the Pfaffian
    of the corresponding submatrix of the covariance, from one stacked
    ``pfaffian`` call per even subset size.  Any other form of ``masks``, a
    list included, and a negative mask raise ``ValueError``; a mask naming a
    generator outside the covariance raises ``IndexError``.
    """
    m = _as_matrix(a)
    bits = _subset_bits(masks, m.shape[0])
    sizes = bits.sum(axis=1)
    out = (sizes == 0).astype(np.complex128)
    for size in range(2, m.shape[0] + 1, 2):
        rows = np.flatnonzero(sizes == size)
        if rows.size:
            idx = np.nonzero(bits[rows])[1].reshape(rows.size, size)
            out[rows] = pfaffian(m[idx[:, :, None], idx[:, None, :]])
    return out


def _check_dimension(m: np.ndarray, f: GrassmannElement) -> None:
    if m.shape[0] != f.gens.count:
        raise DimensionMismatchError("covariance dimension != generator count")


def gaussian_expectation(a, f: GrassmannElement) -> complex:
    """Gaussian expectation of ``f``: the moment sum over its coefficients,
    with one stacked Pfaffian per even degree."""
    m = _as_matrix(a)
    _check_dimension(m, f)
    even = _parity_index(f.gens.count, 0)
    masks = even[np.flatnonzero(f.coeffs.take(even))]
    moments = gaussian_moment(m, masks)
    total = 0.0 + 0.0j
    # scalar products summed in ascending mask order
    for c, moment in zip(f.coeffs.take(masks).tolist(), moments.tolist()):
        total += c * moment
    return total


def laplacian(a, f: GrassmannElement) -> GrassmannElement:
    """Weighted second-derivative operator for covariance ``a``.

    Each output monomial drops in degree by exactly two; the global sign is
    the one that makes the heat-kernel convolution consistent with Gaussian
    moments.  An ``f`` whose odd coefficients are all exactly zero is
    gathered and transformed on its even coefficients only.
    """
    m = _as_matrix(a)
    _check_dimension(m, f)
    n_gen = f.gens.count
    even = _is_exactly_even(f.coeffs)
    index = _index_set(n_gen, even)
    out = np.zeros(f.gens.dim, dtype=np.complex128)
    out[index] = _laplacian_coeffs(_laplacian_weights(m, n_gen, even),
                                   f.coeffs.take(index), n_gen, even)
    return GrassmannElement._adopt(f.gens, out)


def heat_kernel_convolve(a, f: GrassmannElement) -> GrassmannElement:
    """Gaussian convolution of ``f``, as the terminating series
    ``sum_k (Delta_A/2)^k f / k!``.

    Its scalar part equals ``gaussian_expectation(a, f)``.  The Laplacian
    weights of ``a`` are computed once for the whole series, and the series
    runs on the even coefficients only when every odd one of ``f`` is
    exactly zero (the Laplacian keeps parity).
    """
    m = _as_matrix(a)
    _check_dimension(m, f)
    n_gen = f.gens.count
    even = _is_exactly_even(f.coeffs)
    index = _index_set(n_gen, even)
    weights = _laplacian_weights(m, n_gen, even)
    term = f.coeffs.take(index)
    acc = term.copy()
    for k in range(1, n_gen // 2 + 2):
        term = _laplacian_coeffs(weights, term, n_gen, even)
        if not term.any():
            break
        term *= 0.5 / k
        acc += term
    out = np.zeros(f.gens.dim, dtype=np.complex128)
    out[index] = acc
    return GrassmannElement._adopt(f.gens, out)


def covariance_split_check(a, b, f: GrassmannElement) -> float:
    """Residual of the covariance-splitting identity on ``f``.

    Maximum coefficient deviation between convolving by ``a + b`` at once and
    convolving by ``a`` then ``b``.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError("covariances must share dimensions")
    joint = heat_kernel_convolve(ma + mb, f)
    staged = heat_kernel_convolve(mb, heat_kernel_convolve(ma, f))
    return float(np.max(np.abs(joint.coeffs - staged.coeffs)))
