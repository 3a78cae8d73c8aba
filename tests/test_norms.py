import numpy as np
import pytest

from ferroflow.algebra import GeneratorSet, GrassmannElement, _index_set
from ferroflow.errors import ParityError
from ferroflow.gaussian import AntisymmetricCovariance, gaussian_moment
from ferroflow.norms import (
    NormSeries,
    _norm_row,
    convergence_radius,
    gram_bound_check,
    matrix_norm_1inf,
    norm_coefficients,
)

from conftest import (gram_rate_of, popcounts, rand_even_normalized,
                      synthetic_schedule)


def norm_coefficients_by_generators(f):
    """Seminorm coefficients with one ``bincount`` per generator."""
    n_gen, n = f.gens.count, f.gens.pairs
    pop = popcounts(f.gens.dim, n_gen)
    absv = np.abs(f.coeffs)
    idx = np.arange(f.gens.dim)
    best = np.zeros(n)
    for i in range(n_gen):
        sel = idx[(idx >> i) & 1 == 1]
        sums = np.bincount(pop[sel], weights=absv[sel], minlength=n_gen + 1)
        best = np.maximum(best, sums[2: 2 * n + 1: 2] / (2.0 * np.arange(1, n + 1)))
    return best


class TestMatrixNorm:
    def test_single_entry(self):
        assert matrix_norm_1inf(np.array([[0.0, 2.0], [-2.0, 0.0]])) == 2.0

    def test_zero(self):
        assert matrix_norm_1inf(np.zeros((4, 4))) == 0.0

    def test_row_sums(self):
        m = np.array([[1.0, -2.0], [0.5, 0.25]])
        assert matrix_norm_1inf(m) == 3.0

    def test_entry_bounded_by_norm(self, rng):
        # two-point correlation bound: |moment({i,j})| = |A_ij| <= ||A||
        from conftest import rand_antisymmetric

        a = rand_antisymmetric(rng, 8)
        norm = matrix_norm_1inf(a)
        for i in range(8):
            for j in range(i + 1, 8):
                moment = gaussian_moment(a, np.array([(1 << i) | (1 << j)]))[0]
                assert abs(moment) <= norm


class TestNormSeries:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NormSeries([-0.1])

    def test_coeff_indexing(self):
        s = NormSeries([1.0, 2.0])
        assert s.coeff(1) == 1.0
        assert s.coeff(2) == 2.0
        assert s.coeff(7) == 0.0
        with pytest.raises(IndexError):
            s.coeff(0)


class TestNormCoefficients:
    def test_single_pair_monomial(self):
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1], 3.0)
        s = norm_coefficients(f)
        assert s.coeff(1) == pytest.approx(1.5)  # 3 / (2m) at m=1
        assert s.coeff(2) == 0.0

    def test_quartic_monomial(self):
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1, 2, 3], 0.8)
        s = norm_coefficients(f)
        assert s.coeff(2) == pytest.approx(0.2)  # alpha / 4
        assert s.coeff(1) == 0.0

    def test_constant_ignored(self):
        g = GeneratorSet(4)
        s = norm_coefficients(GrassmannElement.scalar(g, 5.0))
        assert np.all(s.coefficients == 0.0)

    def test_parity_error(self):
        g = GeneratorSet(4)
        with pytest.raises(ParityError):
            norm_coefficients(GrassmannElement.monomial(g, [0]))

    def test_sup_over_generators(self):
        # generator 0 appears in two pair monomials, generator 3 in one
        g = GeneratorSet(4)
        f = GrassmannElement.monomial(g, [0, 1], 1.0) \
            + GrassmannElement.monomial(g, [0, 2], 1.0) \
            + GrassmannElement.monomial(g, [2, 3], 0.5)
        assert norm_coefficients(f).coeff(1) == pytest.approx(1.0)

    def test_seminorm_properties(self, rng):
        g = GeneratorSet(6)
        f = rand_even_normalized(rng, g, 1.0, complex_coeffs=True)
        h = rand_even_normalized(rng, g, 1.0, complex_coeffs=True)
        sf = norm_coefficients(f).coefficients
        sh = norm_coefficients(h).coefficients
        ssum = norm_coefficients(f + h).coefficients
        assert np.all(ssum <= sf + sh + 1e-12)
        scaled = norm_coefficients(f * (-2.5 + 0j)).coefficients
        assert np.allclose(scaled, 2.5 * sf)


    @pytest.mark.parametrize("n_gen", [2, 4, 8, 12])
    def test_matches_per_generator_loop(self, rng, n_gen):
        gens = GeneratorSet(n_gen)
        f = rand_even_normalized(rng, gens, 1.0, complex_coeffs=True)
        # the same element plus odd content that the parity check tolerates
        # (0.5e-12 relative), which the oracle sums into its odd degrees
        odd = rng.normal(size=gens.dim) * (popcounts(gens.dim, n_gen) % 2)
        odd *= 0.5e-12 * max(1.0, f.max_abs()) / np.max(np.abs(odd))
        for element in (f, f + GrassmannElement(gens, odd)):
            got = norm_coefficients(element).coefficients
            assert np.array_equal(got, norm_coefficients_by_generators(element))

    @pytest.mark.parametrize("n_gen", [4, 8, 10])
    @pytest.mark.parametrize("neutral", [True, False], ids=["neutral", "even"])
    @pytest.mark.parametrize("rows", [1, 5, 8])
    def test_block_rows_are_the_rows_one_by_one(self, rng, n_gen, neutral,
                                                rows):
        # the flow reads a block of carrier vectors in one call: each of its
        # rows is bitwise the row of its vector alone
        size = _index_set(n_gen, True, neutral).size
        block = rng.normal(size=(rows, size))
        if not neutral:
            block = block + 1j * rng.normal(size=(rows, size))
        block[:, rng.random(size) < 0.3] = 0.0  # exact zeros in every row
        block[-1, 0] = 0.0
        block[0] *= 1e-300
        got = _norm_row(block, n_gen, True, neutral)
        want = np.array([_norm_row(row, n_gen, True, neutral) for row in block])
        assert got.shape == (rows, n_gen // 2)
        assert got.tobytes() == want.tobytes()
        one = _norm_row(block[0], n_gen, True, neutral)
        assert one.shape == (n_gen // 2,)
        assert one.tobytes() == got[0].tobytes()


class TestConvergenceRadius:
    def test_single_quartic_term(self):
        alpha = 0.3
        s = NormSeries([0.0, alpha])
        assert convergence_radius(s) == pytest.approx((4.0 * alpha) ** -0.25)

    def test_definition_fixed_point(self):
        r0 = 1.7
        coeffs = [r0 ** (-2.0 * m) / (2.0 * m) for m in range(1, 6)]
        assert convergence_radius(NormSeries(coeffs)) == pytest.approx(r0)

    def test_zero_series_infinite(self):
        assert convergence_radius(NormSeries([0.0, 0.0])) == float("inf")


class TestSigmaSquared:
    def test_coincident_scales(self, rng):
        sched = synthetic_schedule(rng, 3)
        assert sched.sigma_squared(0.4, 0.4) == 0.0

    def test_reversed_rejected(self, rng):
        sched = synthetic_schedule(rng, 3)
        with pytest.raises(ValueError):
            sched.sigma_squared(0.5, 0.1)

    def test_additivity(self, rng):
        sched = synthetic_schedule(rng, 3)
        total = sched.sigma_squared(0.0, 1.0)
        split = sched.sigma_squared(0.0, 0.37) + sched.sigma_squared(0.37, 1.0)
        assert abs(total - split) < 1e-9

    def test_monotone_in_both_ends(self, rng):
        sched = synthetic_schedule(rng, 3)
        assert sched.sigma_squared(0.0, 0.8) <= sched.sigma_squared(0.0, 1.0)
        assert sched.sigma_squared(0.3, 1.0) <= sched.sigma_squared(0.1, 1.0)

    def test_homogeneity(self, rng):
        # scaling the Gram integrand scales sigma^2 exactly (linearity of
        # the quadrature)
        from ferroflow.schedule import ScaleSchedule

        cdot = synthetic_schedule(rng, 3)._cdot
        rate = gram_rate_of(cdot)
        base = ScaleSchedule.from_cdot(cdot, T=1.0, pairs=3, gram_rate=rate)
        scaled = ScaleSchedule.from_cdot(
            cdot, T=1.0, pairs=3, gram_rate=lambda tau: 3.0 * rate(tau))
        assert scaled.sigma_squared(0.1, 0.9) == pytest.approx(
            3.0 * base.sigma_squared(0.1, 0.9), rel=1e-12)


class TestGramBound:
    def test_empty_subset(self, rng):
        cov = AntisymmetricCovariance.from_split(np.eye(3), 0.5 * np.eye(3))
        rep = gram_bound_check(cov, np.array([0]))
        assert [field[0] for field in rep] == [1.0, 1.0, True]

    def test_requires_split(self):
        cov = AntisymmetricCovariance(np.zeros((6, 6)))
        from ferroflow.errors import GramSplitError

        with pytest.raises(GramSplitError):
            gram_bound_check(cov, np.array([0b11]))

    def test_pair_subset(self, rng):
        g1 = rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4))
        cov = AntisymmetricCovariance.from_split(
            g1 @ g1.T + 0.1 * np.eye(4), g2 @ g2.T + 0.1 * np.eye(4))
        rep = gram_bound_check(cov, np.array([0b10001]))
        assert rep.holds[0]
        assert rep.lhs[0] == pytest.approx(abs(cov.matrix[0, 4]))

    def test_repeated_index_rejected(self, rng):
        # psi_0 psi_2 psi_2 is zero; the Gram bound refuses it as
        # gaussian_moment does, where it used to report the moment of psi_0
        # psi_2: an index list is no subset form of either
        g1 = rng.normal(size=(2, 2))
        cov = AntisymmetricCovariance.from_split(
            g1 @ g1.T + 0.1 * np.eye(2), 0.1 * np.eye(2))
        for subset in ([0, 2, 2], (1, 1)):
            with pytest.raises(ValueError):
                gaussian_moment(cov.matrix, subset)
            with pytest.raises(ValueError):
                gram_bound_check(cov, subset)

    @pytest.mark.parametrize("masks, error", [
        (5, ValueError),
        (np.array([3, -1]), ValueError),
        (np.array([3, 16]), IndexError),
    ], ids=["int", "negative", "past-dimension"])
    def test_bad_masks_refused(self, masks, error):
        cov = AntisymmetricCovariance.from_split(2.0 * np.eye(2), np.eye(2))
        with pytest.raises(error):
            gram_bound_check(cov, masks)

    def test_mask_array_is_each_mask_bitwise(self, rng):
        g1 = rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4))
        cov = AntisymmetricCovariance.from_split(
            g1 @ g1.T + 0.05 * np.eye(4), g2 @ g2.T + 0.05 * np.eye(4))
        masks = np.arange(256)
        rep = gram_bound_check(cov, masks)
        expect = [gram_bound_check(cov, np.array([mask])) for mask in masks]
        assert np.array_equal(rep.lhs, [e.lhs[0] for e in expect])
        assert np.array_equal(rep.rhs, [e.rhs[0] for e in expect])
        assert np.array_equal(rep.holds, [e.holds[0] for e in expect])
        assert [field[0] for field in expect[0]] == [1.0, 1.0, True]

    def test_exhaustive_all_subsets(self, rng):
        for _ in range(20):
            g1 = rng.normal(size=(4, 4))
            g2 = rng.normal(size=(4, 4))
            cov = AntisymmetricCovariance.from_split(
                g1 @ g1.T + 0.05 * np.eye(4), g2 @ g2.T + 0.05 * np.eye(4))
            assert gram_bound_check(cov, np.arange(1, 256)).holds.all()
