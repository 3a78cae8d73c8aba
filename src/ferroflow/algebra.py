"""Exact arithmetic in a finite-dimensional Grassmann (exterior) algebra.

An algebra over ``n_gen`` anticommuting generators ``psi_0, ..., psi_{n_gen-1}``
is represented densely: an element is a complex coefficient for every subset
``J`` of generators, the subset encoded as a bitmask (bit ``k`` set means
``psi_k`` is a factor).  The basis monomial for ``J = {i_1 < ... < i_p}`` is
``psi_{i_1} ^ ... ^ psi_{i_p}`` with indices ascending; every stored
coefficient refers to this order, and is read as ``f.coeffs[mask]``.
Generator indices are 0-based.  The product is ``wedge(f, g)``, spelled
``f * g``; ``^`` below is notation, not an operator of the elements.

Sign conventions
----------------
* Products of basis monomials pick up the parity of the number of
  transpositions needed to merge the two ascending index lists.
* ``gradient`` takes *left* derivatives: on an ascending monomial
  containing ``psi_k`` at (1-based) position ``r`` the derivative by
  ``psi_k`` removes it and multiplies by ``(-1)**(r-1)``.

Parity blocks
-------------
The masks of one degree parity, in ascending order, are
``_parity_index(n_gen, p)``; of ``2r`` and ``2r + 1`` exactly one has each
parity, so a mask's rank among them is ``mask >> 1``, and the kernel tables
are written in these ranks.  The disjoint pairs ``(J, K)`` of a product fall
into four parity blocks by ``(|J| mod 2, |K| mod 2)``, each with its own
cached table of ranks, cut into chunks of whole unions ``J | K``.  A product
gathers each operand's nonzero parity parts once and reads only their
blocks, so even x even (the effective action, and its flow on the even
masks) reads a quarter of the pairs.  Which parts are nonzero is found
from exact zeros only: an operand whose odd-degree coefficients are all
exactly zero is even, and any other counts as having both parts.  A
tolerance would silently drop small odd terms.

The flow carries the smaller of two nested index sets (``_index_set``)
that holds its state exactly: the neutral masks in float64, or the even
masks in complex128; the first is a subset of the second.  With the
generators ``0..n-1`` unbarred and ``n..2n-1`` barred, a neutral mask holds
as many of each; every index set's ranks are read from one map,
``_rank``.  A product of two neutral masks is neutral, so the neutral x
neutral pairs are one more table of ``_pair_table``, built from the
disjoint pairs as the parity blocks are, with real signs and unions that
are the neutral masks in rank order: 639 of the even x even block's 1,641
pairs at 8 generators, 35,169 of 132,861 at 12.  The neutral flow reads
that table's chunks as they are, its union sums concatenated being the
product over the neutral masks; the flow on the even masks multiplies
through ``_wedge_blocks`` on full vectors, as ``wedge`` does.

``exp_of`` and ``log_of`` read one more table, the even x even pairs with
``|J|, |K| >= 2`` in degree-major order (``_degree_table``): sorted by
``(|J | K|, J | K)``, so each degree of their recursions is one run of
chunks.  The whole series reads each of its pairs once, 128,766 at 12
generators, where the Taylor powers read the 132,861 pairs of the even
block once per power, up to five times.  An odd part, and above
``_WEDGE_LEAF`` the top generator, enter through one even x odd product
each, so no table above the leaf is built for them.

Elements are immutable after construction; all operations are pure functions
and safe for concurrent use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Number
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, DimensionMismatchError, LogDomainError, ParityError

MAX_GENERATORS = 16

# Largest generator count that ``wedge`` multiplies through the disjoint-pair
# tables; larger products split off their top generator until they reach it.
# A parity block holds about 3**n_gen / 4 pairs at 32 bytes of indices and
# complex signs each: 4.3 MB at 12 generators, 38 MB at 14.  Its sort key, the
# union J | K, fits the uint16 radix sort up to 16 generators; the key
# (|J | K| << n_gen) | (J | K) of the degree-major table fits it up to 12.
_WEDGE_LEAF = 12

# Largest number of pairs in one chunk of a parity block, unless one union
# has more; a product multiplies one chunk per pass.  Its temporaries (256 KB
# each) stay in cache and in reused heap pages; arrays the size of a
# 12-generator block (2.1 MB) cost as much in fresh pages as in arithmetic.
_WEDGE_CHUNK = 16384

# Odd content, relative to the even content (at least 1), that the callers
# needing an even element tolerate.
_PARITY_ATOL = 1e-12

# Parity parts an operand may hold, as the degree parities (0 even, 1 odd)
# whose coefficients are not all exactly zero.
_EVEN = (0,)
_BOTH = (0, 1)


# ---------------------------------------------------------------------------
# cached index tables, keyed by generator count
# ---------------------------------------------------------------------------


@functools.cache
def _popcount_table(n_gen: int) -> np.ndarray:
    idx = np.arange(1 << n_gen, dtype=np.uint32)
    tab = np.zeros(1 << n_gen, dtype=np.uint8)
    for b in range(n_gen):
        tab += ((idx >> b) & 1).astype(np.uint8)
    return tab


def _merge_sign_array(j: np.ndarray, k: np.ndarray, n_gen: int) -> np.ndarray:
    """Signs (-1)**inv(J,K) for disjoint mask arrays, inv = #{(a,b): a>b}."""
    pop = _popcount_table(n_gen)
    par = np.zeros(j.shape, dtype=np.uint8)
    for b in range(n_gen):
        par ^= ((k >> b) & 1).astype(np.uint8) & (pop[j >> (b + 1)] & 1)
    return 1.0 - 2.0 * par


def merge_sign(j: int, k: int) -> int:
    """Sign of ``Psi_J ^ Psi_K -> Psi_{J|K}`` for disjoint bitmasks."""
    inv = 0
    b = 0
    kk = k
    while kk:
        if kk & 1:
            inv += (j >> (b + 1)).bit_count()
        kk >>= 1
        b += 1
    return -1 if inv & 1 else 1


@functools.cache
def _parity_index(n_gen: int, parity: int) -> np.ndarray:
    """The masks of degree parity ``parity``, ascending (rank ``mask >> 1``)."""
    return np.flatnonzero((_popcount_table(n_gen) & 1) == parity)


@functools.cache
def _index_set(n_gen: int, even: bool, neutral: bool = False) -> np.ndarray:
    """The index set of a kernel table, ascending: the neutral masks with
    ``neutral``, else the even masks with ``even``, otherwise all; each
    mask's rank in it is ``_rank(n_gen, even, neutral)[mask]``.  The
    generators ``0..n-1`` of ``n = n_gen / 2`` pairs are unbarred and
    ``n..2n-1`` barred, as in ``AntisymmetricCovariance._block``; a mask is
    neutral when it holds as many of each (charge ``#unbarred - #barred``
    zero), so every neutral mask is even.  The tables of the neutral set
    are built on it, not filtered from those of the even set."""
    if neutral:
        low = (1 << n_gen // 2) - 1
        pop = _popcount_table(n_gen)
        masks = np.arange(1 << n_gen)
        return np.flatnonzero(pop[masks & low] == pop[masks >> n_gen // 2])
    return _parity_index(n_gen, 0) if even else np.arange(1 << n_gen)


@functools.cache
def _rank(n_gen: int, even: bool, neutral: bool = False) -> np.ndarray:
    """The rank of every mask in ``_index_set(n_gen, even, neutral)``, -1
    for a mask outside it: ``mask >> 1`` on the even masks, the mask itself
    on all."""
    index = _index_set(n_gen, even, neutral)
    rank = np.full(1 << n_gen, -1)
    rank[index] = np.arange(index.size)
    return rank


def _is_exactly_even(coeffs: np.ndarray) -> bool:
    """Whether every odd-degree coefficient of a raw array is exactly zero."""
    return not coeffs.take(_parity_index(coeffs.size.bit_length() - 1, 1)).any()


def _is_exactly_neutral_real(coeffs: np.ndarray) -> bool:
    """Whether every charged coefficient and every imaginary part of a raw
    array is exactly zero."""
    rank = _rank(coeffs.size.bit_length() - 1, True, True)
    return not (np.imag(coeffs).any() or coeffs[rank < 0].any())


def _disjoint_pairs(n_gen: int) -> tuple[np.ndarray, np.ndarray]:
    """All 3**n_gen disjoint pairs (J, K) as uint16 mask arrays, in an order
    that a stable sort by any key of the union ``J | K`` leaves with J
    descending within every union."""
    # each generator, lowest first, goes into J, into K or into neither;
    # its J branch comes first
    j = np.zeros(1, dtype=np.uint16)
    k = np.zeros(1, dtype=np.uint16)
    for b in range(n_gen):
        bit = 1 << b
        j = np.concatenate((j | bit, j, j))
        k = np.concatenate((k, k | bit, k))
    return j, k


@functools.cache
def _pair_table(n_gen: int, block: int,
                neutral: bool = False) -> tuple[tuple[np.ndarray, ...], ...]:
    """The disjoint pairs (J, K) of one parity block, with their merge
    signs, as chunks ``(j, k, sgn, unions, seg)``; with ``neutral``, those
    of block 0 with ``J`` and ``K`` both neutral.

    Block ``2 * (|J| mod 2) + (|K| mod 2)`` is 0 for even x even, 1 for
    even x odd, 2 for odd x even and 3 for odd x odd; the four blocks
    together hold all 3**n_gen disjoint pairs.  The pairs come in ascending
    order of the union ``U = J | K``, descending ``J`` within one union.  A
    chunk holds whole unions, at most ``_WEDGE_CHUNK`` pairs unless one
    union has more: the ranks ``j`` and ``k`` of ``J`` and ``K`` within
    their parities, or among the neutral masks, the merge signs ``sgn``
    (complex, which multiply complex operands faster; real on the neutral
    masks), the unions as masks, ascending, and the start ``seg`` of each
    union's pairs, so ``np.add.reduceat(..., seg)`` sums a product per
    union.  Charges add, so the neutral unions are the neutral masks, each
    once and in rank order (``(U, {})`` is one of the pairs of every
    ``U``).  ``_wedge_blocks`` reads the parity blocks, adding each union
    sum to its mask; the neutral flow and its dense operators read the
    neutral table, whose union sums are the product over the neutral
    masks in rank order.  Readers pass ``neutral`` only when it is true, so
    each table has one cache entry.
    """
    j, k = _disjoint_pairs(n_gen)
    if neutral:
        rank = _rank(n_gen, True, True)
        keep = np.flatnonzero((rank[j] >= 0) & (rank[k] >= 0))
    else:
        pop = _popcount_table(n_gen)
        keep = np.flatnonzero(2 * (pop[j] & 1) + (pop[k] & 1) == block)
    union = j[keep] | k[keep]
    order = np.argsort(union, kind="stable")  # a radix sort on uint16
    union = union[order].astype(np.intp)
    j = j[keep[order]].astype(np.intp)
    k = k[keep[order]].astype(np.intp)
    sgn = _merge_sign_array(j, k, n_gen)
    if neutral:
        return _union_chunks(rank[j], rank[k], sgn, union)
    return _union_chunks(j >> 1, k >> 1, sgn.astype(np.complex128), union)


def _union_chunks(j: np.ndarray, k: np.ndarray, sgn: np.ndarray,
                  union: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """Pairs sorted by ``union``, cut into chunks ``(j, k, sgn, unions,
    seg)`` of whole unions: at most ``_WEDGE_CHUNK`` pairs unless one union
    has more, the pair arrays as views."""
    starts = np.flatnonzero(np.diff(union, prepend=-1))
    ends = np.append(starts[1:], len(j))
    chunks = []
    s0 = 0
    while s0 < len(starts):
        # the unions that end within _WEDGE_CHUNK pairs of the chunk's
        # start, at least one
        s1 = max(s0 + 1, int(np.searchsorted(
            ends, starts[s0] + _WEDGE_CHUNK, side="right")))
        p0, p1 = starts[s0], ends[s1 - 1]
        chunks.append((j[p0:p1], k[p0:p1], sgn[p0:p1], union[starts[s0:s1]],
                       starts[s0:s1] - p0))
        s0 = s1
    return tuple(chunks)


@functools.cache
def _degree_table(n_gen: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The even x even disjoint pairs (J, K) with ``|J|, |K| >= 2`` in
    degree-major order, as chunks ``(j, k, w, unions, seg)``, up to
    ``_WEDGE_LEAF`` generators.

    The pairs come in ascending order of ``(|U|, U)`` for ``U = J | K``,
    descending ``J`` within one union, so the union degrees ``p = 4, 6,
    ..., n_gen`` come one after another, each cut into chunks as in
    ``_pair_table``: the ranks ``j`` and ``k`` of ``J`` and ``K`` among the
    even masks, the weights ``w = sgn |J| / |U|`` (complex), the unions as
    even ranks, ascending, and the start ``seg`` of each union's pairs.
    The chunks in order take the degrees of the recursions in
    ``_exp_log_even`` one after another.
    """
    j, k = _disjoint_pairs(n_gen)
    pop = _popcount_table(n_gen)
    pj, pk = pop[j], pop[k]
    keep = np.flatnonzero((pj >= 2) & (pk >= 2) & ((pj | pk) & 1 == 0))
    del pj, pk  # 1 MB off the build's peak at 12 generators
    union = j[keep] | k[keep]
    # (|U| << n_gen) | U fits uint16 up to the leaf, so the sort stays radix
    order = np.argsort((pop[union].astype(np.uint16) << n_gen) | union,
                       kind="stable")
    union = union[order].astype(np.intp)
    j = j[keep[order]].astype(np.intp)
    k = k[keep[order]].astype(np.intp)
    degree = pop[union]
    w = (_merge_sign_array(j, k, n_gen) * pop[j] / degree).astype(np.complex128)
    j >>= 1
    k >>= 1
    union >>= 1
    cuts = np.searchsorted(degree, np.arange(4, n_gen + 3, 2))
    return tuple(chunk for p0, p1 in zip(cuts[:-1], cuts[1:])
                 for chunk in _union_chunks(j[p0:p1], k[p0:p1], w[p0:p1],
                                            union[p0:p1]))


@functools.cache
def _deriv_table(n_gen: int, k: int):
    """(source, target, sign) arrays for the left derivative by psi_k."""
    idx = np.arange(1 << n_gen, dtype=np.uint32)
    src = idx[(idx >> k) & 1 == 1]
    dst = src ^ (1 << k)
    pop = _popcount_table(n_gen)
    sgn = 1.0 - 2.0 * (pop[src & ((1 << k) - 1)] & 1)
    return src, dst, sgn


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSet:
    """A fixed even number of Grassmann generators.

    ``count`` is the total number of generators (2n), at most
    ``MAX_GENERATORS``.  Dense elements take 16 * 2**count bytes.  A product
    sums over the 3**count disjoint pairs, a quarter of them when both
    operands are even, so each generator above the 12 of the pair tables
    triples its cost: a dense complex product of even elements took about
    0.001 s at 12, 0.01 s at 14 and 0.1 s at 16 generators, and one of
    elements with both parities 0.004, 0.04 and 0.4 s, on a loaded 2-CPU
    x86_64 machine.
    """

    count: int

    def __post_init__(self):
        if self.count % 2 != 0:
            raise ValueError(f"generator count must be even, got {self.count}")
        if not 2 <= self.count <= MAX_GENERATORS:
            raise CapacityError(
                f"generator count {self.count} outside [2, {MAX_GENERATORS}]"
            )

    @property
    def pairs(self) -> int:
        """Number of generator pairs n (count = 2n)."""
        return self.count // 2

    @property
    def dim(self) -> int:
        """Dimension of the algebra, 2**count."""
        return 1 << self.count


class GrassmannElement:
    """An element of the algebra: one complex coefficient per generator subset.

    ``coeffs[mask]`` is the coefficient of the ascending basis monomial for
    the subset encoded by ``mask``; ``coeffs[0]`` is the scalar part.
    Instances are immutable.
    """

    __slots__ = ("gens", "coeffs")

    def __init__(self, gens: GeneratorSet, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (gens.dim,):
            raise DimensionMismatchError(
                f"expected {gens.dim} coefficients, got {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _adopt(cls, gens: GeneratorSet, coeffs: np.ndarray) -> "GrassmannElement":
        """Freeze and wrap, without a copy, a fresh complex128 array of
        ``gens.dim`` coefficients that no other code holds."""
        coeffs.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, gens: GeneratorSet) -> "GrassmannElement":
        return cls(gens, np.zeros(gens.dim, dtype=np.complex128))

    @classmethod
    def scalar(cls, gens: GeneratorSet, value: complex) -> "GrassmannElement":
        c = np.zeros(gens.dim, dtype=np.complex128)
        c[0] = value
        return cls(gens, c)

    @classmethod
    def monomial(cls, gens: GeneratorSet, indices: Sequence[int], coeff: complex = 1.0
                 ) -> "GrassmannElement":
        """``coeff * psi_{i_1} ^ ... ^ psi_{i_p}`` for indices in any order.

        A repeated index yields the zero element; an out-of-order list
        contributes the sorting permutation's sign.
        """
        c = np.zeros(gens.dim, dtype=np.complex128)
        idx = list(indices)
        if len(set(idx)) != len(idx):
            return cls(gens, c)
        sign = 1
        mask = 0
        for i in idx:
            if not 0 <= i < gens.count:
                raise IndexError(f"generator index {i} out of range")
            sign *= merge_sign(mask, 1 << i)
            mask |= 1 << i
        c[mask] = sign * coeff
        return cls(gens, c)

    # -- basic structure ----------------------------------------------------

    @property
    def scalar_part(self) -> complex:
        return complex(self.coeffs[0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    # -- operators ----------------------------------------------------------

    def _check_same(self, other: "GrassmannElement") -> None:
        if self.gens.count != other.gens.count:
            raise DimensionMismatchError(
                f"mismatched generator sets: {self.gens.count} vs {other.gens.count}"
            )

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            self._check_same(other)
            return GrassmannElement(self.gens, self.coeffs + other.coeffs)
        if isinstance(other, Number):
            c = self.coeffs.copy()
            c[0] += other
            return GrassmannElement(self.gens, c)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.gens, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return wedge(self, other)
        if isinstance(other, Number):
            return GrassmannElement(self.gens, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return GrassmannElement(self.gens, self.coeffs * other)
        return NotImplemented

    def __repr__(self):
        return (f"GrassmannElement(n_gen={self.gens.count}, "
                f"nonzero={np.count_nonzero(self.coeffs)}, "
                f"scalar={self.coeffs[0]:.6g})")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def wedge(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Bilinear antisymmetric product ``f ^ g``.

    Basis monomials multiply to zero when their subsets intersect, otherwise
    to the merged subset times the merge sign.  Up to ``_WEDGE_LEAF``
    generators the product sums over the parity blocks of disjoint pairs
    that the operands' nonzero parts select: an operand whose odd
    coefficients are all exactly zero takes part through its even block
    only.  Above the leaf, the top generator is split off recursively.
    """
    f._check_same(g)
    f_parts, g_parts = (_EVEN if _is_exactly_even(c) else _BOTH
                        for c in (f.coeffs, g.coeffs))
    return GrassmannElement._adopt(f.gens, _wedge_blocks(
        f.coeffs, g.coeffs, f.gens.count, f_parts, g_parts))


def _wedge_blocks(f: np.ndarray, g: np.ndarray, n_gen: int,
                  f_parts: tuple[int, ...], g_parts: tuple[int, ...]) -> np.ndarray:
    """Coefficients of ``f ^ g`` for raw coefficient arrays; every degree
    parity outside ``f_parts`` (``g_parts``) must be exactly zero in ``f``
    (``g``)."""
    if n_gen <= _WEDGE_LEAF:
        out = np.zeros(1 << n_gen, dtype=np.complex128)
        g_of = {pk: g.take(_parity_index(n_gen, pk)) for pk in g_parts}
        for pj in f_parts:
            fp = f.take(_parity_index(n_gen, pj))
            for pk in g_parts:
                for j, k, sgn, unions, seg in _pair_table(n_gen, 2 * pj + pk):
                    terms = fp.take(j)
                    terms *= g_of[pk].take(k)
                    terms *= sgn
                    # a union owns one chunk segment per block, added in
                    # ascending block order
                    np.add.at(out, unions, np.add.reduceat(terms, seg))
        return out
    # f = a + b ^ psi_top and g = c + d ^ psi_top give
    # f ^ g = a ^ c + (a ^ d + b ^ c_hat) ^ psi_top, where c_hat carries the
    # sign (-1)**|K| of moving psi_top to the right of psi_K; b and d have
    # the opposite parities of f and g, and c_hat those of g
    low = n_gen - 1
    half = 1 << low
    a, b = f[:half], f[half:]
    c, d = g[:half], g[half:]
    b_parts = tuple(1 - p for p in reversed(f_parts))
    d_parts = tuple(1 - p for p in reversed(g_parts))
    c_hat = np.where(_popcount_table(low) & 1, -c, c)
    return np.concatenate((
        _wedge_blocks(a, c, low, f_parts, g_parts),
        _wedge_blocks(a, d, low, f_parts, d_parts)
        + _wedge_blocks(b, c_hat, low, b_parts, g_parts)))


def gradient(f: GrassmannElement) -> np.ndarray:
    """All left derivatives, stacked into an (n_gen, dim) coefficient array."""
    n_gen = f.gens.count
    out = np.zeros((n_gen, f.gens.dim), dtype=np.complex128)
    for k in range(n_gen):
        src, dst, sgn = _deriv_table(n_gen, k)
        out[k, dst] = sgn * f.coeffs[src]
    return out


def analytic_apply(deriv_at: Callable[[int], complex],
                   f: GrassmannElement) -> GrassmannElement:
    """Apply a scalar analytic function to ``f`` through its Taylor jet.

    ``deriv_at(k)`` is the derivative ``F^(k)(f_0)`` at the scalar part.
    The series terminates because the nilpotent part ``f - f_0`` has
    vanishing powers beyond the generator count, and beyond half of it when
    the part is even.  The parity of the nilpotent part is inspected once
    per series.
    """
    n_gen = f.gens.count
    nilpotent = f.coeffs.copy()
    nilpotent[0] = 0.0
    even = _is_exactly_even(nilpotent)
    parts = _EVEN if even else _BOTH
    # an even nilpotent part has degree >= 2, so its powers above
    # n_gen // 2 vanish
    top = n_gen // 2 if even else n_gen
    acc = np.zeros(f.gens.dim, dtype=np.complex128)
    acc[0] = deriv_at(0)
    power = nilpotent
    kfact = 1.0
    for k in range(1, top + 1):
        if k > 1:
            power = _wedge_blocks(power, nilpotent, n_gen, parts, parts)
        kfact *= k
        if not power.any():
            break
        acc += (deriv_at(k) / kfact) * power
    return GrassmannElement._adopt(f.gens, acc)


def _exp_log_even(x: np.ndarray, n_gen: int, log: bool) -> np.ndarray:
    """``log(x)`` with ``log``, otherwise ``exp(x)``, for a raw coefficient
    array whose odd-degree coefficients are exactly zero; for the logarithm
    the scalar part's real part ``s`` must be positive, and its imaginary
    part is ignored.

    Up to ``_WEDGE_LEAF`` generators the series follow from the degree
    derivation ``D``, which multiplies a degree-``p`` part by ``p``.  For
    ``N = x - x_0``, ``D e^N = DN ^ e^N`` gives ``E_p = N_p + sum_q (q/p)
    N_q ^ E_{p-q}``, and for ``x = s (1 + u)``, ``Du = (1 + u) ^ DL`` gives
    ``L_p = u_p - sum_q (q/p) L_q ^ u_{p-q}`` (``2 <= q <= p - 2``), one
    run of ``_degree_table``'s chunks per degree.  Above the leaf, ``x = a + b ^
    psi_top`` with ``X = b ^ psi_top`` even and ``X ^ X = 0``, so ``F(x) =
    F(a) + F'(a) ^ X`` (``_first_order``)."""
    if n_gen > _WEDGE_LEAF:
        half = 1 << (n_gen - 1)
        fa = _exp_log_even(x[:half], n_gen - 1, log)
        return np.concatenate((fa, _first_order(fa, x[half:], n_gen - 1, log)))
    index = _parity_index(n_gen, 0)
    nil = x.take(index)
    if log:
        scale = nil[0].real
        nil /= scale
    else:
        scale = np.exp(nil[0])
    nil[0] = 0.0
    series = nil.copy()
    # E_p = N_p + sum w N_J E_K, and L_p = u_p + sum w L_J (-u_K)
    left, right = (series, -nil) if log else (nil, series)
    for j, k, w, unions, seg in _degree_table(n_gen):
        terms = left.take(j)
        terms *= w
        terms *= right.take(k)
        series[unions] += np.add.reduceat(terms, seg)
    if log:
        series[0] = math.log(scale)
    else:
        series[0] = 1.0
        series *= scale
    out = np.zeros(1 << n_gen, dtype=np.complex128)
    out[index] = series
    return out


def _first_order(fa: np.ndarray, x: np.ndarray, n_gen: int, log: bool) -> np.ndarray:
    """``F'(A) ^ X`` from ``fa = F(A)``, for an even ``A`` and an ``x`` whose
    even-degree coefficients are exactly zero: ``e^A ^ X`` for the
    exponential and ``e^(-log A) ^ X`` for the logarithm.  For any ``X``
    with ``X ^ X = 0`` that commutes with ``A``, ``F(A + X) = F(A) +
    F'(A) ^ X``: an odd part, and ``b ^ psi_top`` with ``b`` odd."""
    deriv = _exp_log_even(-fa, n_gen, False) if log else fa
    return _wedge_blocks(deriv, x, n_gen, _EVEN, (1,))


def _exp_log(f: GrassmannElement, log: bool) -> GrassmannElement:
    """``log(f)`` with ``log``, otherwise ``exp(f)``: the even part through
    ``_exp_log_even``, an odd part ``B`` added as ``F'(A) ^ B``."""
    n_gen = f.gens.count
    if _is_exactly_even(f.coeffs):
        return GrassmannElement._adopt(f.gens, _exp_log_even(f.coeffs, n_gen, log))
    even = f.coeffs.copy()
    even[_parity_index(n_gen, 1)] = 0.0
    out = _exp_log_even(even, n_gen, log)
    out += _first_order(out, f.coeffs - even, n_gen, log)
    return GrassmannElement._adopt(f.gens, out)


def exp_of(f: GrassmannElement) -> GrassmannElement:
    """Exponential of an algebra element by the degree recursion
    ``p E_p = sum_q q N_q ^ E_{p-q}`` of ``E = exp(N)`` for its nilpotent
    part ``N`` (``_exp_log_even``).  An element whose odd coefficients are
    all exactly zero gives exactly zero odd coefficients."""
    return _exp_log(f, log=False)


def log_of(f: GrassmannElement) -> GrassmannElement:
    """Logarithm of an element ``s + M`` whose scalar part ``s`` is real
    positive, by the degree recursion ``s p L_p = p M_p - sum_q q L_q ^
    M_{p-q}`` (``2 <= q < p``, ``_exp_log_even``).  An element whose odd
    coefficients are all exactly zero gives exactly zero odd coefficients.

    The scalar part must satisfy ``Re f0 > 0`` and ``|Im f0| <= 1e-12 |f0|``.
    """
    f0 = f.scalar_part
    if not (f0.real > 0.0 and abs(f0.imag) <= 1e-12 * abs(f0)):
        raise LogDomainError(
            f"log requires a positive real scalar part, got {f0}", scalar_part=f0
        )
    return _exp_log(f, log=True)


def parity_magnitudes(f: GrassmannElement) -> tuple[float, float]:
    """Largest absolute coefficient of even degree and of odd degree."""
    absv = np.abs(f.coeffs)
    return tuple(float(absv.take(_parity_index(f.gens.count, p)).max(initial=0.0))
                 for p in (0, 1))


def _require_even(f: GrassmannElement, who: str) -> None:
    """Refuse ``f`` with ``ParityError`` when its largest odd coefficient
    exceeds ``_PARITY_ATOL * max(1, largest even coefficient)``."""
    even, odd = parity_magnitudes(f)
    if odd > _PARITY_ATOL * max(1.0, even):
        raise ParityError(f"{who} requires an even element (odd content {odd:.3e})")
