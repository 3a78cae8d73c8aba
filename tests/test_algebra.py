import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferroflow import algebra
from ferroflow.algebra import (
    GeneratorSet,
    GrassmannElement,
    analytic_apply,
    exp_of,
    log_of,
    merge_sign,
    parity_magnitudes,
    wedge,
    _pair_table,
)
from ferroflow.errors import CapacityError, DimensionMismatchError, LogDomainError

from conftest import popcounts, rand_element, rand_even_normalized, taylor_by_wedge
from oracles import berezin_integrate, derivative, translate_double


def psi(gens, k):
    return GrassmannElement.monomial(gens, [k])


def even_part(f):
    """``f`` with its odd-degree coefficients set to zero."""
    odd = popcounts(f.gens.dim, f.gens.count) % 2 == 1
    return GrassmannElement(f.gens, np.where(odd, 0.0, f.coeffs))


class TestGeneratorSet:
    def test_count_must_be_even(self):
        with pytest.raises(ValueError):
            GeneratorSet(5)

    def test_cap_enforced(self):
        with pytest.raises(CapacityError):
            GeneratorSet(18)
        GeneratorSet(16)  # at the cap


class TestWedge:
    def test_basis_product_and_antisymmetry(self):
        g = GeneratorSet(4)
        p0, p1 = psi(g, 0), psi(g, 1)
        assert wedge(p0, p1).coeffs[0b11] == 1.0
        assert wedge(p1, p0).coeffs[0b11] == -1.0

    def test_nilpotency(self):
        g = GeneratorSet(4)
        p0 = psi(g, 0)
        assert np.all(wedge(p0, p0).coeffs == 0.0)

    def test_distributivity_example(self):
        g = GeneratorSet(4)
        e = wedge(1 + psi(g, 0), 1 + psi(g, 1))
        assert e.coeffs[0b00] == 1.0
        assert e.coeffs[0b01] == 1.0
        assert e.coeffs[0b10] == 1.0
        assert e.coeffs[0b11] == 1.0

    def test_mismatched_generators_rejected(self):
        with pytest.raises(DimensionMismatchError):
            wedge(psi(GeneratorSet(4), 0), psi(GeneratorSet(6), 0))

    def test_associativity_random(self, rng):
        g = GeneratorSet(6)
        a, b, c = (rand_element(rng, g) for _ in range(3))
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12 * a.max_abs() \
            * b.max_abs() * c.max_abs() * 100

    def test_sparse_path_matches_table_path(self, rng):
        # 14 generators exceed the table leaf; operands padded from 10
        # generators leave the upper halves of the split zero
        small = GeneratorSet(10)
        a = rand_element(rng, small, 0.7)
        b = rand_element(rng, small, 0.7)
        big = GeneratorSet(14)
        pad_a = np.zeros(big.dim, dtype=complex)
        pad_b = np.zeros(big.dim, dtype=complex)
        pad_a[: small.dim] = a.coeffs
        pad_b[: small.dim] = b.coeffs
        want = wedge(a, b).coeffs
        got = wedge(GrassmannElement(big, pad_a), GrassmannElement(big, pad_b))
        assert np.allclose(got.coeffs[: small.dim], want, atol=1e-13)
        assert np.all(got.coeffs[small.dim:] == 0.0)

    def test_top_generators_match_merge_sign_double_loop(self, rng):
        # monomials with psi_12 and psi_13 make both upper halves of the
        # split nonzero, so the sign of c_hat enters the product
        g = GeneratorSet(14)
        a, b = (top_generator_operand(rng, g) for _ in range(2))
        want = np.zeros(g.dim, dtype=complex)
        for j in np.flatnonzero(a.coeffs):
            for k in np.flatnonzero(b.coeffs):
                if not j & k:
                    want[j | k] += merge_sign(int(j), int(k)) * a.coeffs[j] * b.coeffs[k]
        assert np.count_nonzero(want[1 << 13:]) > 100
        got = wedge(a, b).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_associativity_with_top_generators(self, rng):
        g = GeneratorSet(14)
        a, b, c = (rand_element(rng, g, 0.1) for _ in range(3))
        lhs = wedge(wedge(a, b), c).coeffs
        rhs = wedge(a, wedge(b, c)).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("n_gen", [2, 4, 6])
    def test_matches_merge_sign_double_loop(self, rng, n_gen):
        g = GeneratorSet(n_gen)
        a, b = rand_element(rng, g), rand_element(rng, g)
        want = np.zeros(g.dim, dtype=complex)
        for j in range(g.dim):
            for k in range(g.dim):
                if not j & k:
                    want[j | k] += merge_sign(j, k) * a.coeffs[j] * b.coeffs[k]
        got = wedge(a, b).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def top_generator_operand(rng, gens, terms=80):
    """Random complex coefficients on sparse monomials (each generator with
    probability 1/4), a third of them forced to hold the top generator and
    another third the one below it."""
    masks = rng.integers(0, gens.dim, terms) & rng.integers(0, gens.dim, terms)
    masks[0::3] |= 1 << (gens.count - 1)
    masks[1::3] |= 1 << (gens.count - 2)
    c = np.zeros(gens.dim, dtype=complex)
    c[masks] = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    return GrassmannElement(gens, c)


def _pair_table_by_enumeration(n_gen, pj, pk):
    """Pairs (J, K) with |J| = pj and |K| = pk (mod 2), listed union by
    union, J running over the subsets of the union in descending order, with
    the unions that own pairs and their start offsets."""
    js, ks, unions, starts = [], [], [], []
    for u in range(1 << n_gen):
        sub = u
        while True:
            if bin(sub).count("1") % 2 == pj and bin(u ^ sub).count("1") % 2 == pk:
                if not unions or unions[-1] != u:
                    unions.append(u)
                    starts.append(len(js))
                js.append(sub)
                ks.append(u ^ sub)
            if sub == 0:
                break
            sub = (sub - 1) & u
    sgn = [float(merge_sign(j, k)) for j, k in zip(js, ks)]
    return js, ks, sgn, unions, starts


@pytest.fixture
def fresh_pair_tables():
    """Empty the pair-table cache before and after the test: a table cut at
    another chunk size must not outlive it."""
    _pair_table.cache_clear()
    yield
    _pair_table.cache_clear()


@pytest.mark.parametrize("n_gen", [2, 4, 6, 8])
def test_pair_table_matches_enumeration(n_gen, monkeypatch, fresh_pair_tables):
    # at the default chunk size, and at one that cuts the larger blocks
    total = 0
    for chunk_size in (algebra._WEDGE_CHUNK, 64):
        monkeypatch.setattr(algebra, "_WEDGE_CHUNK", chunk_size)
        _pair_table.cache_clear()
        for b in range(4):
            chunks = _pair_table(n_gen, b)
            j, k, sgn, unions = (np.concatenate([c[i] for c in chunks])
                                 for i in range(4))
            sizes = [len(c[0]) for c in chunks]
            starts = np.concatenate([c[4] + p0 for c, p0 in zip(
                chunks, np.cumsum([0] + sizes[:-1]))])
            js, ks, *want = _pair_table_by_enumeration(n_gen, b // 2, b % 2)
            # J and K as ranks within their parities
            want = [np.asarray(js) >> 1, np.asarray(ks) >> 1, *want]
            for got, ref in zip((j, k, sgn, unions, starts), want):
                assert np.array_equal(got, np.asarray(ref))
            # chunks: whole unions, within the size unless one union
            for c, size in zip(chunks, sizes):
                assert c[4][0] == 0 and len(c[3]) == len(c[4])
                assert size <= chunk_size or len(c[3]) == 1
            total += len(j)
    assert total == 2 * 3 ** n_gen


def parity_operand(rng, gens, parity, terms=60):
    """Random complex coefficients on sparse monomials of the given degree
    parity ("even", "odd" or "mixed"); above the pair-table leaf a third of
    them hold the top generator and another third the one below it."""
    masks = rng.integers(0, gens.dim, terms) & rng.integers(0, gens.dim, terms)
    if gens.count > 12:
        masks[0::3] |= 1 << (gens.count - 1)
        masks[1::3] |= 1 << (gens.count - 2)
    odd = np.array([bin(int(m)).count("1") % 2 for m in masks])
    if parity != "mixed":
        # toggling psi_0 flips a monomial's parity and keeps its top bits
        masks[odd != (parity == "odd")] ^= 1
    c = np.zeros(gens.dim, dtype=complex)
    c[masks] = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    return GrassmannElement(gens, c)


@pytest.mark.parametrize("parities", [("even", "even"), ("even", "odd"),
                                      ("odd", "even"), ("odd", "odd"),
                                      ("mixed", "mixed"), ("mixed", "even")])
def test_chunked_product_matches_one_pass(rng, parities, monkeypatch,
                                          fresh_pair_tables):
    # chunks of at most 64 pairs sum every union exactly as one pass over
    # each block does
    g = GeneratorSet(8)
    a, b = (parity_operand(rng, g, p) for p in parities)
    results = []
    for chunk_size in (3 ** 8, 64):
        monkeypatch.setattr(algebra, "_WEDGE_CHUNK", chunk_size)
        _pair_table.cache_clear()
        results.append(wedge(a, b).coeffs)
    assert np.array_equal(results[0], results[1])
    assert np.any(results[0] != 0.0)


def test_odd_product_builds_only_its_block(rng, fresh_pair_tables):
    # a product of two odd parts (as the split above the leaf makes them)
    # reads block 3 alone, and no other block's table is built for it
    g = GeneratorSet(6)
    a, b = (parity_operand(rng, g, "odd") for _ in range(2))
    got = algebra._wedge_blocks(a.coeffs, b.coeffs, 6, (1,), (1,))
    info = _pair_table.cache_info()
    assert info.currsize == 1
    _pair_table(6, 3)
    assert _pair_table.cache_info().misses == info.misses
    # the blocks that wedge adds for both parts hold only zeros here
    assert np.array_equal(got, wedge(a, b).coeffs)
    assert np.any(got != 0.0)


@pytest.mark.parametrize("n_gen", [4, 8, 12, 14])
@pytest.mark.parametrize("parities", [("even", "even"), ("even", "odd"),
                                      ("odd", "even"), ("odd", "odd"),
                                      ("mixed", "mixed")])
def test_parity_blocks_match_merge_sign_double_loop(rng, n_gen, parities):
    g = GeneratorSet(n_gen)
    a, b = (parity_operand(rng, g, p) for p in parities)
    want = np.zeros(g.dim, dtype=complex)
    for j in np.flatnonzero(a.coeffs):
        for k in np.flatnonzero(b.coeffs):
            if not j & k:
                want[j | k] += merge_sign(int(j), int(k)) * a.coeffs[j] * b.coeffs[k]
    assert np.count_nonzero(want) > 4
    got = wedge(a, b).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@given(i=st.integers(0, 5), j=st.integers(0, 5))
@settings(deadline=None, max_examples=40)
def test_generators_anticommute(i, j):
    g = GeneratorSet(6)
    lhs = wedge(psi(g, i), psi(g, j))
    rhs = wedge(psi(g, j), psi(g, i))
    assert np.all(lhs.coeffs == -rhs.coeffs)


@given(mask_f=st.integers(0, 63), mask_g=st.integers(0, 63), k=st.integers(0, 5))
@settings(deadline=None, max_examples=60)
def test_graded_leibniz_on_monomials(mask_f, mask_g, k):
    g = GeneratorSet(6)
    f = GrassmannElement(g, np.eye(g.dim)[mask_f])
    h = GrassmannElement(g, np.eye(g.dim)[mask_g])
    deg_f = bin(mask_f).count("1")
    lhs = derivative(wedge(f, h), k)
    rhs = wedge(derivative(f, k), h) + (-1.0) ** deg_f * wedge(f, derivative(h, k))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) == 0.0


class TestDerivative:
    def test_left_derivative_signs(self):
        g = GeneratorSet(4)
        m01 = GrassmannElement.monomial(g, [0, 1])
        assert derivative(m01, 0).coeffs[0b10] == 1.0
        assert derivative(m01, 1).coeffs[0b01] == -1.0

    def test_scalar_derivative_vanishes(self):
        g = GeneratorSet(4)
        assert np.all(derivative(GrassmannElement.scalar(g, 3.0), 0).coeffs == 0.0)

    def test_second_derivative_vanishes(self, rng):
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        assert np.all(derivative(derivative(f, 2), 2).coeffs == 0.0)

    def test_out_of_range(self):
        g = GeneratorSet(4)
        with pytest.raises(IndexError):
            derivative(GrassmannElement.scalar(g, 1.0), 4)


class TestCoefficient:
    def test_lookup(self):
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1], 3.0)
        assert f.coeffs[0b11] == 3.0
        assert f.coeffs[0] == 0.0

    def test_scalar_part(self):
        g = GeneratorSet(4)
        f = GrassmannElement.scalar(g, 2.5)
        assert f.coeffs[0] == 2.5

    def test_matches_iterated_derivative(self, rng):
        # the coefficient is the iterated derivative at zero fields, the
        # lowest index applied first (each removal then acts on position 1)
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        for mask in rng.integers(0, g.dim, size=12):
            idx = [b for b in range(6) if (int(mask) >> b) & 1]
            out = f
            for k in idx:
                out = derivative(out, k)
            assert abs(f.coeffs[mask] - out.scalar_part) < 1e-12


class TestBerezin:
    def test_single_field_delta(self):
        g = GeneratorSet(4)
        assert berezin_integrate(psi(g, 1), [1]).scalar_part == 1.0
        assert berezin_integrate(psi(g, 1), [0]).scalar_part == 0.0

    def test_scalar_integrates_to_zero(self):
        g = GeneratorSet(4)
        out = berezin_integrate(GrassmannElement.scalar(g, 7.0), [0])
        assert np.all(out.coeffs == 0.0)

    def test_full_integral_extracts_top(self, rng):
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        out = berezin_integrate(f, list(range(6)))
        assert out.scalar_part == pytest.approx(complex(f.coeffs[-1]))

    def test_repeated_index_rejected(self):
        g = GeneratorSet(4)
        with pytest.raises(ValueError):
            berezin_integrate(GrassmannElement.scalar(g, 1.0), [0, 0])


class TestTranslateDouble:
    def test_linear_case(self):
        g = GeneratorSet(4)
        out = translate_double(psi(g, 0))
        nz = {int(m): out.coeffs[m] for m in np.flatnonzero(out.coeffs)}
        assert nz == {0b1: 1.0, 0b1 << 4: 1.0}

    def test_quadratic_expansion(self):
        g = GeneratorSet(4)
        out = translate_double(GrassmannElement.monomial(g, [0, 1]))
        doubled = out.gens
        # (psi0+th0)^(psi1+th1) = Psi01 + psi0 th1 - psi1 th0 + Th01
        expect = wedge(psi(doubled, 0) + psi(doubled, 4),
                       psi(doubled, 1) + psi(doubled, 5))
        assert np.max(np.abs(out.coeffs - expect.coeffs)) == 0.0

    def test_theta_zero_restriction(self, rng):
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        out = translate_double(f)
        assert np.all(out.coeffs[: g.dim] == f.coeffs)

    def test_capacity(self):
        g = GeneratorSet(10)
        with pytest.raises(CapacityError):
            translate_double(GrassmannElement.scalar(g, 1.0))


def log_jet(s):
    """Derivatives ``log^(k)(s)`` of the logarithm at a positive ``s``."""
    return lambda k: (math.log(s) if k == 0
                      else (-1.0) ** (k - 1) * math.factorial(k - 1) / s ** k)


class TestAnalytic:
    def test_exp_of_zero(self):
        g = GeneratorSet(4)
        out = exp_of(GrassmannElement.zero(g))
        assert out.scalar_part == 1.0
        assert np.all(out.coeffs[1:] == 0.0)

    def test_exp_truncates_by_nilpotency(self):
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1], 0.7)
        out = exp_of(f)
        assert out.scalar_part == 1.0
        assert out.coeffs[0b11] == pytest.approx(0.7)
        assert np.count_nonzero(out.coeffs) == 2

    def test_log_exp_round_trip(self, rng):
        g = GeneratorSet(6)
        f = rand_even_normalized(rng, g, 0.3, complex_coeffs=True)
        f = f + 0.2  # positive real scalar part
        back = log_of(exp_of(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10

    def test_log_domain_error(self):
        g = GeneratorSet(4)
        with pytest.raises(LogDomainError):
            log_of(GrassmannElement.scalar(g, -1.0))
        with pytest.raises(LogDomainError):
            log_of(GrassmannElement.scalar(g, 1.0 + 0.5j))

    @pytest.mark.parametrize("parity", ["even", "mixed"])
    def test_matches_wedge_series(self, rng, parity):
        g = GeneratorSet(8)
        f = rand_element(rng, g, 0.3)
        if parity == "even":
            f = even_part(f)
        e0 = np.exp(f.scalar_part)
        want = taylor_by_wedge(lambda k: e0, f).coeffs
        got = exp_of(f).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_gen", [2, 4, 6, 8, 10, 12, 14])
    @pytest.mark.parametrize("parity", ["even", "mixed"])
    def test_exp_log_match_wedge_series(self, rng, n_gen, parity):
        # 14 generators reach the split of the top generator above the leaf
        g = GeneratorSet(n_gen)
        f = rand_element(rng, g, 0.3)
        if parity == "even":
            f = even_part(f)
        e0 = np.exp(f.scalar_part)
        s = f - f.scalar_part + 1.3
        for got, jet, x in ((exp_of(f), lambda k: e0, f),
                            (log_of(s), log_jet(1.3), s)):
            want = taylor_by_wedge(jet, x).coeffs
            assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))
            if parity == "even":
                # exact zeros, which rg_map's parity check reads
                assert not got.coeffs[popcounts(g.dim, n_gen) % 2 == 1].any()

    @pytest.mark.parametrize("n_gen", [12, 14])
    @pytest.mark.parametrize("parity", ["even", "mixed"])
    def test_log_exp_round_trip_wide(self, rng, n_gen, parity):
        g = GeneratorSet(n_gen)
        f = rand_element(rng, g, 0.4 / n_gen)
        if parity == "even":
            f = even_part(f)
        f = f - 1j * f.scalar_part.imag  # a real scalar part keeps exp in log's domain
        back = log_of(exp_of(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-13 * np.max(np.abs(f.coeffs))

    def test_no_table_above_the_leaf(self, rng, monkeypatch):
        # 14-generator exp and log, with odd content, ask for no table
        # above _WEDGE_LEAF generators
        asked = []
        for name in ("_degree_table", "_pair_table"):
            table = getattr(algebra, name)
            monkeypatch.setattr(algebra, name, lambda n_gen, *block, table=table: (
                asked.append(n_gen), table(n_gen, *block))[1])
        f = rand_element(rng, GeneratorSet(14), 0.02)
        f = f - f.scalar_part
        log_of(exp_of(f))
        log_of(exp_of(even_part(f)))
        assert asked and max(asked) == algebra._WEDGE_LEAF

    def test_jet_sequence_form(self):
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1], 0.5) + 2.0
        # square via the jet 4, 4, 2, 0, ... of x -> x**2 around f0 = 2
        out = analytic_apply(lambda k: (4.0, 4.0, 2.0)[k] if k < 3 else 0.0, f)
        direct = wedge(f, f)
        assert np.max(np.abs(out.coeffs - direct.coeffs)) < 1e-14


class TestParityAndProjection:
    def test_is_even_exact(self, rng):
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        even = even_part(f)
        odd = f - even
        assert parity_magnitudes(even)[1] == 0.0
        assert parity_magnitudes(even + odd)[1] > 0.0

    def test_parity_magnitudes(self):
        g = GeneratorSet(4)
        f = 0.5 - 2.0 * psi(g, 0) + 3j * GrassmannElement.monomial(g, [1, 2])
        assert parity_magnitudes(f) == (3.0, 2.0)
        assert parity_magnitudes(GrassmannElement.zero(g)) == (0.0, 0.0)


class TestElementBasics:
    def test_immutable(self):
        g = GeneratorSet(4)
        f = GrassmannElement.scalar(g, 1.0)
        with pytest.raises(AttributeError):
            f.coeffs = np.zeros(16)
        with pytest.raises(ValueError):
            f.coeffs[0] = 2.0

    def test_monomial_ordering_sign(self):
        g = GeneratorSet(4)
        assert GrassmannElement.monomial(g, [1, 0]).coeffs[0b11] == -1.0
        assert np.all(GrassmannElement.monomial(g, [1, 1]).coeffs == 0.0)

    def test_degrees_match_popcount(self):
        g = GeneratorSet(6)
        assert np.all(algebra._popcount_table(g.count) == popcounts(g.dim, g.count))
