import numpy as np
import pytest

from ferroflow.algebra import GeneratorSet, GrassmannElement, exp_of, wedge
from ferroflow.errors import GramSplitError
from ferroflow.gaussian import (
    AntisymmetricCovariance,
    covariance_split_check,
    gaussian_expectation,
    gaussian_moment,
    heat_kernel_convolve,
    laplacian,
    pfaffian,
    _LAPLACIAN_SIGN,
    _heat_series,
    _laplacian_coeffs,
    _laplacian_weights,
)

from conftest import (
    desk_instance,
    popcounts,
    rand_antisymmetric,
    rand_element,
    rand_even_normalized,
)
from oracles import berezin_integrate, derivative, pfaffian_by_loop, translate_double


def pfaffian_matching_sum(a):
    """Independent oracle: the signed perfect-matching expansion."""
    a = np.asarray(a)
    m = a.shape[0]
    if m == 0:
        return 1.0
    if m % 2:
        return 0.0
    total = 0.0
    rest = list(range(1, m))
    for pos, k in enumerate(rest):
        sub = [i for i in rest if i != k]
        minor = a[np.ix_(sub, sub)]
        total += (-1.0) ** pos * a[0, k] * pfaffian_matching_sum(minor)
    return total


def bits(z):
    """Bit patterns of complex values: equal bits are equal values, signed
    zeros included."""
    return np.array(z, dtype=np.complex128, ndmin=1).view(np.uint64)


def expectation_density_oracle(a, f):
    """Independent oracle: Pf(A) times the top coefficient of f against the
    explicit Gaussian density (needs invertible A)."""
    gens = f.gens
    ainv = np.linalg.inv(a)
    quad = GrassmannElement.zero(gens)
    for i in range(gens.count):
        for j in range(gens.count):
            quad = quad + GrassmannElement.monomial(gens, [i, j], ainv[i, j])
    dens = exp_of(quad * (-0.5))
    return pfaffian(a) * wedge(f, dens).coeffs[-1]


class TestCovarianceType:
    def test_antisymmetry_enforced(self):
        a = np.array([[0.0, 1.0], [-1.0, 1e-15]])
        cov = AntisymmetricCovariance(a)
        assert np.all(cov.matrix == -cov.matrix.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            AntisymmetricCovariance(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_block_form(self):
        c = np.array([[2.0, 0.5], [0.5, 1.0]])
        cov = AntisymmetricCovariance.from_split(c + np.eye(2), np.eye(2))
        assert np.all(cov.matrix[:2, 2:] == c)
        assert np.all(cov.matrix[2:, :2] == -c)
        assert np.all(cov.matrix[:2, :2] == 0.0)

    def test_block_of_a_stack_is_each_block(self, rng):
        c = rng.normal(size=(2, 3, 3, 3))
        stacked = AntisymmetricCovariance._block(c)
        assert stacked.shape == (2, 3, 6, 6)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(stacked[i, j],
                                      AntisymmetricCovariance._block(c[i, j]))

    def test_split_requires_positive_definite(self):
        good = np.eye(2)
        bad = -np.eye(2)
        with pytest.raises(ValueError):
            AntisymmetricCovariance.from_split(good, bad)
        cov = AntisymmetricCovariance.from_split(2 * good, good)
        c_plus, c_minus = cov.require_split()
        assert np.all(c_plus - c_minus == good)

    def test_require_split(self):
        cov = AntisymmetricCovariance(np.zeros((4, 4)))
        with pytest.raises(GramSplitError):
            cov.require_split()


class TestPfaffian:
    def test_two_by_two_normalization(self):
        assert pfaffian(np.array([[0.0, 2.0], [-2.0, 0.0]])) == 2.0

    def test_four_by_four_formula(self, rng):
        a = rand_antisymmetric(rng, 4)
        expect = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert pfaffian(a) == pytest.approx(expect, rel=1e-12)

    def test_matching_sum_oracle_small_dims(self, rng):
        for dim in (2, 4, 6):
            for _ in range(5):
                a = rand_antisymmetric(rng, dim)
                assert pfaffian(a) == pytest.approx(
                    pfaffian_matching_sum(a), rel=1e-11)

    def test_squares_to_determinant(self, rng):
        for dim in (2, 4, 6, 8, 10, 12):
            a = rand_antisymmetric(rng, dim)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf * pf - det) <= 1e-9 * abs(det)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            pfaffian(np.zeros((3, 3)))

    def test_complex_entries(self, rng):
        a = rand_antisymmetric(rng, 6) + 1j * rand_antisymmetric(rng, 6)
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) <= 1e-9 * abs(det)

    def test_singular(self):
        assert pfaffian(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("a", [np.float64(3.0), np.zeros(4), np.zeros((3, 2, 4))],
                             ids=["0-d", "1-d", "non-square"])
    def test_non_square_refused(self, a):
        # a 0-d input used to fail with IndexError on its shape
        with pytest.raises(ValueError, match="square matrix"):
            pfaffian(a)

    @pytest.mark.parametrize("dim", range(2, 13, 2))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stack_is_the_loop_bitwise(self, rng, dim, kind):
        stack = np.stack([rand_antisymmetric(rng, dim) for _ in range(24)])
        if kind == "complex":
            stack = stack + 1j * np.stack([rand_antisymmetric(rng, dim) for _ in range(24)])
        expect = np.array([pfaffian_by_loop(a) for a in stack])
        assert np.array_equal(bits(pfaffian(stack)), bits(expect))
        assert all(np.array_equal(bits(pfaffian(a)), bits(e)) for a, e in zip(stack, expect))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stack_matches_matching_sum(self, rng, kind):
        for dim in (2, 4, 6, 8):
            stack = np.stack([rand_antisymmetric(rng, dim) for _ in range(6)])
            if kind == "complex":
                stack = stack + 1j * np.stack([rand_antisymmetric(rng, dim) for _ in range(6)])
            for pf, a in zip(pfaffian(stack), stack):
                assert pf == pytest.approx(pfaffian_matching_sum(a), rel=1e-11)

    def test_singular_members_leave_the_others_alone(self, rng):
        # generator 2 pairs with nothing: column 2 is still zero at the
        # second step, after the first step has pivoted and updated
        stack = np.stack([rand_antisymmetric(rng, 8) for _ in range(7)]).astype(complex)
        singular = [1, 4, 5]
        stack[singular, 2, :] = 0.0
        stack[singular, :, 2] = 0.0
        regular = [0, 2, 3, 6]
        with np.errstate(all="raise"):
            mixed = pfaffian(stack)
            alone = pfaffian(stack[regular])
        assert np.array_equal(bits(mixed[singular]), bits(np.zeros(3)))
        assert np.array_equal(bits(mixed[regular]), bits(alone))
        expect = np.array([pfaffian_by_loop(a) for a in stack])
        assert np.array_equal(bits(mixed), bits(expect))

    def test_batch_shape_and_empty_matrices(self, rng):
        stack = np.stack([rand_antisymmetric(rng, 6) for _ in range(6)])
        pf = pfaffian(stack.reshape(2, 3, 6, 6))
        assert pf.shape == (2, 3)
        assert np.array_equal(pf.ravel(), pfaffian(stack))
        assert np.array_equal(pfaffian(np.zeros((2, 3, 0, 0))), np.ones((2, 3)))
        assert pfaffian(np.zeros((0, 0))) == 1.0


class TestMoments:
    def test_pair_moment_is_entry(self, rng):
        a = rand_antisymmetric(rng, 8)
        pair01, pair25 = gaussian_moment(a, np.array([0b11, 0b100100]))
        assert pair01 == pytest.approx(a[0, 1])
        assert pair25 == pytest.approx(a[2, 5])

    def test_odd_vanishes_empty_is_one(self, rng):
        a = rand_antisymmetric(rng, 8)
        odd, empty = gaussian_moment(a, np.array([0b111, 0]))
        assert odd == 0.0
        assert empty == 1.0

    def test_four_point(self, rng):
        a = rand_antisymmetric(rng, 8)
        expect = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert gaussian_moment(a, np.array([0b1111]))[0] == pytest.approx(expect)

    def test_mask_array_is_each_mask_bitwise(self, rng):
        a = rand_antisymmetric(rng, 8) + 1j * rand_antisymmetric(rng, 8)
        masks = rng.permutation(256)
        moments = gaussian_moment(a, masks)
        expect = np.array([gaussian_moment(a, np.array([mask]))[0]
                           for mask in masks])
        assert np.array_equal(bits(moments), bits(expect))
        assert gaussian_moment(a, np.arange(0)).shape == (0,)

    @pytest.mark.parametrize("masks, error", [
        (np.array([3, -1]), ValueError),
        (np.array([3, 16]), IndexError),
        (np.array([[3]]), ValueError),
        (np.array([3.0]), ValueError),
        # an index list read as bitmasks would silently name other subsets
        ([0, 1], ValueError),
        ((0, 1), ValueError),
        (3, ValueError),
    ], ids=["negative", "past-dimension", "2-d", "float", "list", "tuple",
            "int"])
    def test_bad_mask_array_refused(self, masks, error):
        with pytest.raises(error):
            gaussian_moment(np.zeros((4, 4)), masks)

    def test_expectation_of_one(self, rng):
        a = rand_antisymmetric(rng, 6)
        gens = GeneratorSet(6)
        assert gaussian_expectation(a, GrassmannElement.scalar(gens, 1.0)) == 1.0

    def test_expectation_density_oracle_all_subsets(self, rng):
        a = rand_antisymmetric(rng, 6)
        gens = GeneratorSet(6)
        for mask in range(64):
            mono = GrassmannElement(gens, np.eye(gens.dim)[mask])
            direct = gaussian_expectation(a, mono)
            oracle = expectation_density_oracle(a, mono)
            assert abs(direct - oracle) < 1e-10

    def test_expectation_random_element(self, rng):
        a = rand_antisymmetric(rng, 6)
        f = rand_element(rng, GeneratorSet(6))
        assert abs(gaussian_expectation(a, f)
                   - expectation_density_oracle(a, f)) < 1e-10


class TestLaplacianAndHeatKernel:
    @pytest.mark.parametrize("n_gen", [2, 4, 8, 10])
    @pytest.mark.parametrize("general", [False, True])
    def test_matches_second_derivative_sum(self, rng, n_gen, general):
        g = GeneratorSet(n_gen)
        f = rand_element(rng, g)
        if general:  # neither antisymmetric nor real
            m = rng.normal(size=(n_gen, n_gen)) + 1j * rng.normal(size=(n_gen, n_gen))
        else:
            m = rand_antisymmetric(rng, n_gen)
        want = np.zeros(g.dim, dtype=complex)
        for i in range(n_gen):
            for j in range(n_gen):
                want += m[i, j] * derivative(derivative(f, j), i).coeffs
        want *= _LAPLACIAN_SIGN
        got = laplacian(m, f).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_gen", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("carrier", ["neutral", "even", "even-general"])
    def test_stacked_weights_are_each_kernels_bitwise(self, rng, n_gen,
                                                      carrier):
        # the flow gathers the weights of a block of rates in one call; each
        # row must be the bits of that rate's own weights, and contiguous:
        # a row strided across the stack read 16 times the cache lines
        pairs = n_gen // 2
        kernels = rng.normal(size=(5, pairs, pairs))
        kernels[1] = 0.0  # signed zeros of a vanishing rate keep their bits
        if carrier == "neutral":
            rates = kernels
        elif carrier == "even":
            rates = AntisymmetricCovariance._block(kernels)
        else:  # neither antisymmetric nor real
            rates = (rng.normal(size=(5, n_gen, n_gen))
                     + 1j * rng.normal(size=(5, n_gen, n_gen)))
        neutral = carrier == "neutral"
        stacked = _laplacian_weights(rates, n_gen, True, neutral)
        assert stacked.shape[0] == 5 and stacked.flags.c_contiguous
        for rate, row in zip(rates, stacked):
            assert bits(row).tobytes() == bits(
                _laplacian_weights(rate, n_gen, True, neutral)).tobytes()

    def test_scalar_annihilated(self, rng):
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        out = laplacian(a, GrassmannElement.scalar(g, 5.0))
        assert np.all(out.coeffs == 0.0)

    def test_pair_monomial_sign_anchor(self, rng):
        # the convention anchor: Delta_A Psi_{01} = +2 A_{01}, so the heat
        # kernel's scalar part reproduces the two-point moment
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        out = laplacian(a, GrassmannElement.monomial(g, [0, 1]))
        assert out.scalar_part == pytest.approx(2.0 * a[0, 1])

    def test_degree_drop(self, rng):
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        out = laplacian(a, GrassmannElement.monomial(g, [0, 1, 2, 3]))
        assert np.all(out.coeffs[popcounts(g.dim, g.count) != 2] == 0.0)

    def test_moment_consistency(self, rng):
        a = rand_antisymmetric(rng, 8, 0.4)
        f = rand_element(rng, GeneratorSet(8), 0.5)
        conv = heat_kernel_convolve(a, f)
        assert abs(conv.scalar_part - gaussian_expectation(a, f)) < 1e-12

    def test_translation_oracle(self, rng):
        # (mu_A * f)(Psi) = integral of f(Psi + Theta) over Theta: partial
        # expectation in the doubled algebra, independent of the Laplacian
        g = GeneratorSet(6)
        a = rand_antisymmetric(rng, 6, 0.5)
        f = rand_element(rng, g, 0.7)
        doubled = translate_double(f)
        moments = gaussian_moment(a, np.arange(g.dim))
        out = np.zeros(g.dim, dtype=complex)
        for mask in np.flatnonzero(doubled.coeffs):
            mask = int(mask)
            psi_part = mask & (g.dim - 1)
            theta_part = mask >> g.count
            out[psi_part] += doubled.coeffs[mask] * moments[theta_part]
        conv = heat_kernel_convolve(a, f)
        assert np.max(np.abs(conv.coeffs - out)) < 1e-12

    def test_scalar_passthrough(self, rng):
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        out = heat_kernel_convolve(a, GrassmannElement.scalar(g, 2.0))
        assert out.scalar_part == 2.0
        assert np.count_nonzero(out.coeffs) == 1

    def test_pair_monomial_convolution(self, rng):
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        out = heat_kernel_convolve(a, GrassmannElement.monomial(g, [0, 1]))
        assert out.scalar_part == pytest.approx(a[0, 1])
        assert out.coeffs[0b11] == 1.0

    def test_zero_covariance_identity(self, rng):
        g = GeneratorSet(6)
        f = rand_element(rng, g)
        out = heat_kernel_convolve(np.zeros((6, 6)), f)
        assert np.all(out.coeffs == f.coeffs)

    def test_series_terminates(self, rng):
        a = rand_antisymmetric(rng, 6)
        g = GeneratorSet(6)
        term = rand_element(rng, g)
        for _ in range(g.pairs + 1):
            term = laplacian(a, term)
        assert np.all(term.coeffs == 0.0)


def real_heat_operands(rng, n_gen, kind):
    """An exactly real covariance matrix and even element, both complex128,
    at ``n_gen`` generators: the ``exp(-f)`` that ``rg_map`` convolves, for
    a random real even ``f`` under a real antisymmetric covariance, or for
    the desk's bare action on ``n_gen / 2`` sites under its block-embedded
    slice covariance."""
    if kind == "random":
        a = AntisymmetricCovariance(rand_antisymmetric(rng, n_gen, 1.6 / n_gen))
        f = rand_even_normalized(rng, GeneratorSet(n_gen), 0.4 / n_gen)
    else:
        inst = desk_instance(n_gen // 2)
        a = inst.schedule.covariance(0.0, 1.0)
        f = inst.bare_action
    return a.matrix, exp_of(-f)


class TestRealCarrier:
    @pytest.mark.parametrize("n_gen", [4, 8, 12])
    @pytest.mark.parametrize("kind", ["random", "desk"])
    def test_real_and_complex_series_agree(self, rng, n_gen, kind):
        # the float64 series differs from the complex128 one only in the
        # order of its sums, and heat_kernel_convolve takes it on real data
        m, f = real_heat_operands(rng, n_gen, kind)
        assert m.dtype == f.coeffs.dtype == np.complex128
        assert not (m.imag.any() or f.coeffs.imag.any())
        index = popcounts(f.gens.dim, n_gen) % 2 == 0
        y = f.coeffs[index]
        real = _heat_series(m.real, y.real, n_gen, True)
        cplx = _heat_series(m, y, n_gen, True)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.max(np.abs(real - cplx)) <= 1e-14 * np.max(np.abs(cplx))
        out = heat_kernel_convolve(m, f).coeffs
        assert out[index].tobytes() == real.astype(np.complex128).tobytes()
        assert not out[~index].any()

    @pytest.mark.parametrize("n_gen", [4, 8, 12])
    @pytest.mark.parametrize("parity", ["even", "mixed"])
    def test_real_input_gives_real_output(self, rng, n_gen, parity):
        g = GeneratorSet(n_gen)
        a = rand_antisymmetric(rng, n_gen, 1.6 / n_gen)
        f = rand_element(rng, g, 0.4 / n_gen, complex_coeffs=False)
        odd = popcounts(g.dim, n_gen) % 2 == 1
        if parity == "even":
            f = GrassmannElement(g, np.where(odd, 0.0, f.coeffs))
        out = heat_kernel_convolve(a, f).coeffs
        assert not out.imag.any()
        if parity == "even":
            assert not out[odd].any()

    @pytest.mark.parametrize("n_gen", [4, 8])
    @pytest.mark.parametrize("even", [True, False])
    def test_real_weights_are_the_complex_ones_bitwise(self, rng, n_gen, even):
        # a float64 matrix gives the real parts of its complex weights.  A
        # real weight w times complex coefficients gives the bits of w + 0j,
        # signed zeros included, and the values of the complex weights,
        # some of whose imaginary parts are -0
        m = rand_antisymmetric(rng, n_gen)
        m[0, 1] = m[1, 0] = 0.0
        real = _laplacian_weights(m, n_gen, even)
        cplx = _laplacian_weights(m.astype(np.complex128), n_gen, even)
        assert real.dtype == np.float64
        assert bits(real).tobytes() == bits(cplx.real).tobytes()
        size = 1 << (n_gen - 1) if even else 1 << n_gen
        y = rng.normal(size=size) + 1j * rng.normal(size=size)
        y.real[::5], y.imag[1::5], y.real[2::5] = 0.0, -0.0, -0.0
        got = _laplacian_coeffs(real, y, n_gen, even)
        assert bits(got).tobytes() == bits(_laplacian_coeffs(
            real.astype(np.complex128), y, n_gen, even)).tobytes()
        assert np.array_equal(got, _laplacian_coeffs(cplx, y, n_gen, even))


class TestCovarianceSplitting:
    def test_zero_second_covariance(self, rng):
        a = rand_antisymmetric(rng, 8, 0.4)
        f = rand_element(rng, GeneratorSet(8))
        assert covariance_split_check(a, np.zeros((8, 8)), f) == 0.0

    def test_random_triples(self, rng):
        for _ in range(10):
            a = rand_antisymmetric(rng, 8, 0.4)
            b = rand_antisymmetric(rng, 8, 0.4)
            f = rand_element(rng, GeneratorSet(8))
            assert covariance_split_check(a, b, f) <= 1e-10

    def test_scalar_input(self, rng):
        a = rand_antisymmetric(rng, 6)
        b = rand_antisymmetric(rng, 6)
        f = GrassmannElement.scalar(GeneratorSet(6), 3.0)
        assert covariance_split_check(a, b, f) == 0.0


class TestExponentialPairing:
    def test_pairing_identity(self, rng):
        # E over psi of exp(<Psi, Theta>) equals exp(-<Theta, A Theta>/2),
        # coefficientwise in the theta block
        n_gen = 6
        g = GeneratorSet(n_gen)
        doubled = GeneratorSet(2 * n_gen)
        a = rand_antisymmetric(rng, n_gen, 0.6)
        pairing = GrassmannElement.zero(doubled)
        for i in range(n_gen):
            pairing = pairing + GrassmannElement.monomial(
                doubled, [i, i + n_gen], 1.0)
        lhs_full = exp_of(pairing)
        moments = gaussian_moment(a, np.arange(1 << n_gen))
        lhs = np.zeros(1 << n_gen, dtype=complex)
        for mask in np.flatnonzero(lhs_full.coeffs):
            mask = int(mask)
            psi_part = mask & ((1 << n_gen) - 1)
            theta_part = mask >> n_gen
            lhs[theta_part] += lhs_full.coeffs[mask] * moments[psi_part]
        quad = GrassmannElement.zero(g)
        for i in range(n_gen):
            for j in range(n_gen):
                quad = quad + GrassmannElement.monomial(g, [i, j], a[i, j])
        rhs = exp_of(quad * (-0.5))
        assert np.max(np.abs(lhs - rhs.coeffs)) < 1e-12


class TestDetCorrelation:
    def test_minor_determinant_and_pfaffian_route(self, rng):
        c = rng.normal(size=(3, 3))
        c = c + c.T
        block_cov = np.block([[np.zeros((3, 3)), c], [-c, np.zeros((3, 3))]])
        for (jj, kk) in [([0, 1], [0, 1]), ([0, 1], [0, 2]), ([0, 2], [1, 2])]:
            minor = c[np.ix_(jj, kk)]
            expect = minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0]
            val = np.linalg.det(c[np.ix_(jj, kk)])
            assert val == pytest.approx(expect)
            # block-Pfaffian route carries the interleaving parity (-1)^(p(p-1)/2)
            mask = sum(1 << i for i in jj + [k + 3 for k in kk])
            block = gaussian_moment(block_cov, np.array([mask]))[0]
            assert block == pytest.approx(-expect)

    def test_density_oracle_interleaved(self, rng):
        # against the explicit barred/unbarred Gaussian density: the moment
        # of psi_j1 psibar_k1 psi_j2 psibar_k2 ... equals det C_{JxK}
        n = 3
        c = rng.normal(size=(n, n))
        c = c + c.T + 4.0 * np.eye(n)
        gens = GeneratorSet(2 * n)
        cinv = np.linalg.inv(c)
        quad = GrassmannElement.zero(gens)
        for i in range(n):
            for j in range(n):
                quad = quad + GrassmannElement.monomial(gens, [i + n, j], cinv[i, j])
        dens = exp_of(quad * (-1.0))
        measure = list(range(n, 2 * n)) + list(range(n))

        def mu_c(f):
            out = berezin_integrate(wedge(f, dens), measure)
            return np.linalg.det(c) * out.scalar_part

        assert mu_c(GrassmannElement.scalar(gens, 1.0)) == pytest.approx(1.0)
        for (jj, kk) in [([0], [0]), ([0, 1], [0, 1]), ([0, 1, 2], [0, 1, 2]),
                         ([0, 2], [1, 2])]:
            inter = GrassmannElement.monomial(
                gens, [x for pair in zip(jj, kk) for x in (pair[0], pair[1] + n)])
            assert mu_c(inter) == pytest.approx(np.linalg.det(c[np.ix_(jj, kk)]))
