"""Core primitives: series arithmetic, inner product, kernel, quadrature."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from berglab import (
    DomainError,
    PowerSeries,
    QuadratureSpec,
    bergman_inner_product,
    disc_quadrature,
    kernel_eval,
    normalized_kernel_coeffs,
)
from berglab.disc import _radial_rule
from berglab.symbols import PolynomialSymbol, RationalSymbol
from berglab.toeplitz import toeplitz_analytic

EXACT = 1e-14
QUAD_TOL = 1e-10

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=8)


class TestPowerSeries:
    def test_eval_horner(self):
        p = PowerSeries([2.0, 1.0, 0.5])
        assert p(0.5) == pytest.approx(2.0 + 0.5 + 0.125)
        z = np.array([0.1, 0.2 + 0.3j])
        np.testing.assert_allclose(p(z), 2.0 + z + 0.5 * z**2)

    def test_declared_degree_keeps_trailing_zeros(self):
        p = PowerSeries([1.0, 0.0, 0.0])
        assert p.degree == 2

    def test_product_requires_explicit_degree(self):
        p = PowerSeries([1.0, 1.0])
        with pytest.raises(TypeError):
            p * p

    def test_mul_exact_for_polynomials(self):
        p = PowerSeries([2.0, 1.0])
        q = PowerSeries([1.0, 0.5])
        np.testing.assert_allclose(p.mul(q, 2).coeffs, [2.0, 2.0, 0.5])

    def test_mul_truncates_not_grows(self):
        p = PowerSeries([1.0, 1.0, 1.0])
        assert p.mul(p, 2).degree == 2

    @seed(1)
    @settings(max_examples=60)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_associates_at_fixed_degree(self, a, b, c):
        p, q, r = PowerSeries(a), PowerSeries(b), PowerSeries(c)
        deg = 6
        left = p.mul(q, deg).mul(r, deg)
        right = p.mul(q.mul(r, deg), deg)
        scale = max(1.0, *(np.abs(x.coeffs).max() for x in (p, q, r))) ** 3
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-9 * scale)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerSeries([])


@pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]]], ids=["empty", "2-d"])
@pytest.mark.parametrize(
    "take",
    [
        lambda c: bergman_inner_product(c, c),
        lambda c: bergman_inner_product([1.0], c),
        lambda c: toeplitz_analytic(c, 3),
        PolynomialSymbol,
        lambda c: RationalSymbol([1.0], c),
    ],
    ids=["inner-product", "inner-product-g", "toeplitz_analytic", "polynomial", "rational"],
)
def test_every_coefficient_input_is_checked_as_power_series(take, coeffs):
    with pytest.raises(ValueError, match="nonempty 1-d vector"):
        take(coeffs)


class TestInnerProduct:
    def test_constant(self):
        assert bergman_inner_product([1.0], [1.0]) == pytest.approx(1.0)

    def test_monomial_norms(self):
        # <z^n, z^n> = 1/(n+1)
        assert bergman_inner_product([0, 0, 1], [0, 0, 1]) == pytest.approx(1 / 3)
        for n in range(12):
            e = np.zeros(n + 1)
            e[n] = 1.0
            assert bergman_inner_product(e, e) == pytest.approx(1.0 / (n + 1))

    def test_orthogonality(self):
        assert bergman_inner_product([0, 1], [0, 0, 0, 1]) == 0.0

    def test_orthonormal_basis_vectors(self):
        for n in range(40):
            e = np.zeros(n + 1, dtype=complex)
            e[n] = np.sqrt(n + 1.0)
            assert abs(bergman_inner_product(e, e) - 1.0) < EXACT

    def test_linear_in_first_argument(self):
        f, g, h = [1.0, 2.0], [0.5, 1j], [1j, 0.25]
        lhs = bergman_inner_product(np.add(f, g), h)
        rhs = bergman_inner_product(f, h) + bergman_inner_product(g, h)
        assert lhs == pytest.approx(rhs)

    @seed(1)
    @given(coeff_lists, coeff_lists)
    def test_conjugate_symmetry(self, a, b):
        lhs = bergman_inner_product(a, b)
        rhs = np.conj(bergman_inner_product(b, a))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestKernel:
    def test_center_value(self):
        assert kernel_eval(0.0, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_half_point(self):
        assert kernel_eval(0.5, 0.5) == pytest.approx(16.0 / 9.0)

    def test_matches_series_expansion(self):
        z, w = 0.4 + 0.3j, -0.2 + 0.6j
        n = np.arange(200)
        series = np.sum((n + 1) * (np.conj(z) * w) ** n)
        assert kernel_eval(z, w) == pytest.approx(series, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kernel_eval(1.0, 0.5)
        with pytest.raises(DomainError):
            kernel_eval(0.5, np.array([0.1, 1.2j]))

    @pytest.mark.parametrize("z, w", [(np.nan, 0.5), (0.5, complex(0.1, np.nan)),
                                      (0.5, np.array([0.1, np.nan]))])
    def test_nan_is_outside_the_disc(self, z, w):
        with pytest.raises(DomainError):
            kernel_eval(z, w)

    def test_empty_argument_gives_empty_values(self):
        assert kernel_eval([], 0.5).shape == (0,)

    def test_norm_squared_three_ways(self):
        # closed form vs coefficient series vs quadrature, |z| <= 0.7
        for z in (0.0, 0.35 - 0.2j, 0.7):
            closed = 1.0 / (1.0 - abs(z) ** 2) ** 2
            n = np.arange(600)
            series = np.sum((n + 1.0) * abs(z) ** (2 * n))
            quad = disc_quadrature(lambda w: np.abs(kernel_eval(z, w)) ** 2)
            assert closed == pytest.approx(series, rel=1e-12)
            assert closed == pytest.approx(quad.real, abs=1e-6)
            assert abs(quad.imag) < 1e-9


class TestNormalizedKernelCoeffs:
    def test_center_is_first_basis_vector(self):
        np.testing.assert_allclose(normalized_kernel_coeffs(0.0, 4), [1, 0, 0, 0])

    def test_half_point_values(self):
        c = normalized_kernel_coeffs(0.5, 2)
        np.testing.assert_allclose(c, [0.75, 0.75 * np.sqrt(2.0) * 0.5], atol=EXACT)

    def test_norm_tends_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            c = normalized_kernel_coeffs(z, 400)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    def test_reproducing_property_sampled(self):
        # <f, k_z> = (1 - |z|^2) f(z) for polynomials, N = 128
        rng = np.random.default_rng(11)
        for _ in range(50):
            deg = int(rng.integers(0, 21))
            taylor = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            basis_coeffs = np.zeros(128, dtype=complex)
            basis_coeffs[: deg + 1] = taylor / np.sqrt(np.arange(deg + 1) + 1.0)
            c = normalized_kernel_coeffs(z, 128)
            pairing = np.sum(basis_coeffs * np.conj(c))
            expected = (1.0 - abs(z) ** 2) * PowerSeries(taylor)(z)
            assert abs(pairing - expected) < 1e-8

    @pytest.mark.parametrize(
        "n", [4.5, 4.0, np.float64(4.0)], ids=["4.5", "float 4.0", "numpy 4.0"]
    )
    def test_size_must_be_an_integer(self, n):
        # np.arange(4.5) would give 5 coefficients
        with pytest.raises(TypeError):
            normalized_kernel_coeffs(0.3, n)
        assert len(normalized_kernel_coeffs(0.3, np.int64(4))) == 4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            normalized_kernel_coeffs(1.0 + 0j, 4)
        with pytest.raises(DomainError):
            normalized_kernel_coeffs(complex(np.nan, 0.0), 4)


class TestQuadrature:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(radial_nodes=1)
        with pytest.raises(ValueError):
            QuadratureSpec(angular_nodes=3)
        # sizes are integers: numpy ones pass as ints, anything else is refused
        spec = QuadratureSpec(np.int64(8), np.int32(16))
        assert spec == QuadratureSpec(8, 16) and type(spec.angular_nodes) is int
        for sizes in [(8, 4.5), (2.5, 8), (8.0, 16), (8, "16")]:
            with pytest.raises(TypeError):
                QuadratureSpec(*sizes)

    def test_weights_sum_to_one(self):
        _, w = QuadratureSpec().points()
        assert w.sum() == pytest.approx(1.0, abs=EXACT)

    def test_total_mass(self):
        assert disc_quadrature(lambda w: np.ones_like(w)) == pytest.approx(
            1.0, abs=EXACT
        )

    def test_radial_moment(self):
        val = disc_quadrature(lambda w: np.abs(w) ** 2, QuadratureSpec(32, 64))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_rotating_integrand_vanishes(self):
        assert abs(disc_quadrature(lambda w: w)) < EXACT

    def test_monomial_inner_products_match_closed_form(self):
        # quadrature of w^a conj(w)^b vs delta_ab/(a+1), degrees <= 16
        spec = QuadratureSpec(64, 128)
        z, wt = spec.points()
        for a in range(17):
            for b in range(17):
                val = np.sum(wt * z**a * np.conj(z) ** b)
                expected = 1.0 / (a + 1.0) if a == b else 0.0
                assert abs(val - expected) < QUAD_TOL

    def test_builtin_abs_evaluator_on_the_node_array(self):
        val = disc_quadrature(lambda w: abs(w) ** 2, QuadratureSpec(16, 32))
        assert val == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "f", [lambda w: 2.0, lambda w: w[:-1], lambda w: w.reshape(-1, 2)],
        ids=["scalar", "short", "reshaped"],
    )
    def test_one_value_per_node_or_refused(self, f):
        with pytest.raises(TypeError, match=r"returned shape .* for nodes of shape \(512,\)"):
            disc_quadrature(f, QuadratureSpec(16, 32))

    def test_deterministic(self):
        f = lambda w: np.exp(w) / (1.3 - w)
        assert disc_quadrature(f) == disc_quadrature(f)


#: end nodes and their masses of the [0, 1] rule, from 40-digit mpmath (Newton on
#: P_m, w = 2 / ((1 - x^2) P_m'(x)^2)), as (index, r, mass)
MPMATH_ENDS = {
    96: [(0, 1.552480583846165861549471e-4, 1.237004211132180717900977e-7),
         (95, 0.9998447519416153834138451, 7.966683651308992113663534e-4)],
    192: [(0, 3.901567040257783870537726e-5, 7.812927589155650675799843e-9),
          (191, 0.9999609843295974221612946, 2.002432018195375747205554e-4)],
}


class TestRadialRule:
    """numpy's ``leggauss`` against SciPy's ``roots_legendre``, the rule it replaced."""

    @pytest.mark.parametrize("m", [2, 3, 8, 64, 96, 128, 192, 256, 512, 1024])
    def test_matches_scipy_and_integrates_monomials(self, m):
        from scipy.special import roots_legendre

        r, mass = _radial_rule(m)
        x, w = roots_legendre(m)
        np.testing.assert_allclose(r, 0.5 * (x + 1.0), rtol=0, atol=4e-16)
        np.testing.assert_allclose(mass, 0.5 * w * (x + 1.0), rtol=5e-9, atol=0)
        # Gauss exactness: int_D |w|^k dA = sum mass r^k = 2 / (k + 2), k <= 2m - 2
        k = np.arange(2 * m - 1)
        moments = np.power.outer(r, k).T @ mass
        np.testing.assert_allclose(moments, 2.0 / (k + 2.0), rtol=1e-11, atol=0)
        assert not r.flags.writeable and not mass.flags.writeable

    @pytest.mark.parametrize("m", sorted(MPMATH_ENDS))
    def test_end_nodes_match_mpmath(self, m):
        r, mass = _radial_rule(m)
        for i, node, weight in MPMATH_ENDS[m]:
            assert abs(r[i] - node) <= 2.5e-16
            assert abs(mass[i] - weight) <= 1e-10 * weight
