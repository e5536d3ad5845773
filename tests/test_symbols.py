"""Symbol families, exact Taylor series, grid minimization."""

import numpy as np
import pytest

from berglab import DomainError
from berglab.disc import PowerSeries
from berglab.symbols import (
    DiscGrid,
    HarmonicSymbol,
    _binomial_power_coeffs,
    default_modulus_grid,
    inf_modulus,
    polynomial_symbol,
    power_symbol,
    principal_power_symbol,
    rational_symbol,
)

MACHINE = 1e-13


class TestAnalyticFamilies:
    def test_polynomial_eval_and_series(self):
        g = polynomial_symbol([2.0, 1.0])
        assert g(0.5 + 0.5j) == pytest.approx(2.5 + 0.5j)
        np.testing.assert_allclose(g.series(3).coeffs, [2, 1, 0, 0])

    def test_rational_geometric_series(self):
        g = rational_symbol([1.0], [1.0, -0.5])
        np.testing.assert_allclose(g.series(3).coeffs, [1.0, 0.5, 0.25, 0.125])
        assert g(0.5) == pytest.approx(4.0 / 3.0)

    @pytest.mark.parametrize(
        "den", [[1.0, -2.0], [1.0, -1.0], [1.0, 0.0, 4.0], [2.0, 0.0, -2.0]]
    )
    def test_rational_rejects_pole_in_closed_disc(self, den):
        # poles at 0.5, 1, +-0.5i and +-1
        with pytest.raises(DomainError, match="closed unit disc"):
            rational_symbol([1.0], den)

    def test_rational_rejects_vanishing_origin(self):
        with pytest.raises(ValueError):
            rational_symbol([1.0], [0.0, 1.0])

    def test_principal_power_binomial_coeffs(self):
        g = principal_power_symbol(1.0, 0.0)  # (1+z)^i
        np.testing.assert_allclose(
            g.series(2).coeffs, [1.0, 1j, (-1.0 - 1j) / 2.0], atol=MACHINE
        )

    def test_principal_power_eval_matches_log_form(self):
        g = principal_power_symbol(0.7, -0.3)
        z = np.array([0.2 + 0.4j, -0.5, 0.1j])
        expected = np.exp(1j * (0.7 * np.log(1 + z) - 0.3 * np.log(1 - z)))
        np.testing.assert_allclose(g(z), expected, atol=MACHINE)

    def test_power_symbol_low_order_coeffs(self):
        # ((1+z)/(1-z))^{it} = exp(it(2z + 2z^3/3 + ...)) = 1 + 2it z + ...
        t = 0.8
        s = power_symbol(t).series(1).coeffs
        np.testing.assert_allclose(s, [1.0, 2j * t], atol=MACHINE)

    @pytest.mark.parametrize(
        "g",
        [
            polynomial_symbol([2.0, 1.0 - 0.5j, 0.3j]),
            # complex denominator with its pole at 2 + 2i
            rational_symbol([1.0, 0.5j], [2.0, -0.5 + 0.5j]),
            power_symbol(1.0),
        ],
        ids=["polynomial", "rational", "principal_power"],
    )
    def test_power_symbol_series_matches_eval(self, g):
        # independent check of each family's exact series against g(z)
        ser = g.series(60)
        for z in (0.3, -0.2 + 0.1j, 0.45j):
            assert ser(z) == pytest.approx(g(z), abs=1e-10)

    def test_power_symbol_at_origin(self):
        assert power_symbol(2.3)(0.0) == pytest.approx(1.0)
        assert power_symbol(0.0)(0.4 + 0.2j) == pytest.approx(1.0)


def minus_i_powers(n):
    """(-i)^k for k < n, exact: numpy's complex power is not."""
    return np.array([1, -1j, -1, 1j])[np.arange(n) % 4]


def product_route(a, b, degree):
    """The complex Cauchy product of the binomial series of (1+z)^{ia} and (1-z)^{ib}."""
    plus = _binomial_power_coeffs(a, degree, sign=+1)
    minus = _binomial_power_coeffs(b, degree, sign=-1)
    return PowerSeries(plus).mul(PowerSeries(minus), degree).coeffs


class TestPowerSymbolSeries:
    """((1+z)/(1-z))^{it} has coefficients i^k r_k with r_k real, built exactly so."""

    @pytest.mark.parametrize("t", [1.0, -0.5, 3.0, 0.0])
    def test_rotated_coefficients_are_exactly_real(self, t):
        coeffs = power_symbol(t).series(1023).coeffs
        assert not (coeffs * minus_i_powers(1024)).imag.any()

    @pytest.mark.parametrize("t", [1.0, -0.5])
    def test_matches_complex_product_route(self, t):
        coeffs = power_symbol(t).series(1023).coeffs
        assert np.max(np.abs(coeffs - product_route(t, -t, 1023))) <= 1e-15

    def test_other_exponent_pairs_keep_the_product(self):
        coeffs = principal_power_symbol(0.7, -0.3).series(255).coeffs
        assert (coeffs * minus_i_powers(256)).imag.any()
        np.testing.assert_array_equal(coeffs, product_route(0.7, -0.3, 255))


class TestHarmonicSymbol:
    def test_eval(self):
        phi = HarmonicSymbol(1.0, 1.0, polynomial_symbol([2.0, 1.0]))
        assert phi(-0.9) == pytest.approx(2.2)
        assert phi(0.3j) == pytest.approx(4.0)  # 4 + 2 Re z on the imaginary axis

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
            g = polynomial_symbol(rng.normal(size=4) + 1j * rng.normal(size=4))
            z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            lhs = HarmonicSymbol(c, d, g)(z)
            rhs = np.conj(HarmonicSymbol(np.conj(d), np.conj(c), g)(z))
            assert abs(lhs - rhs) < MACHINE * max(1.0, abs(lhs))

    def test_case_tags(self):
        g = polynomial_symbol([2.0, 1.0])
        assert HarmonicSymbol(1.0, 0.0, g).case_tag == "analytic"
        assert HarmonicSymbol(0.0, 1.0, g).case_tag == "coanalytic"
        assert HarmonicSymbol(1.0, 1j, g).case_tag == "normal_s_unimodular"
        assert HarmonicSymbol(1.0, 0.5, g).case_tag == "general_s"

    def test_coanalytic_ratio(self):
        g = polynomial_symbol([0.0, 1.0])
        assert HarmonicSymbol(1.0, 0.5, g).coanalytic_ratio == pytest.approx(2.0)
        assert HarmonicSymbol(1.0, 0.0, g).coanalytic_ratio is None

    def test_overflowing_ratio(self):
        # phi is finite, c/d is not: no ratio, and the tag compares |c| with |d| undivided
        phi = HarmonicSymbol(1e300, 1e-10, polynomial_symbol([2.0, 1.0]))
        assert phi.coanalytic_ratio is None
        assert phi.case_tag == "general_s"
        assert HarmonicSymbol(1e300, 1e300j, phi.g).case_tag == "normal_s_unimodular"


class TestDiscGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscGrid((0.5, 0.25), 16)
        with pytest.raises(ValueError):
            DiscGrid((0.0, 1.0), 16)
        with pytest.raises(ValueError):
            DiscGrid((0.0, 0.5), 2)

    @pytest.mark.parametrize(
        "radii", [(0.0, np.nan), (np.nan,), (0.0, np.nan, 0.5)], ids=["last", "only", "middle"]
    )
    def test_nan_radius_refused(self, radii):
        # a NaN passes checks written as `b <= a`, and inf_modulus would report nan
        with pytest.raises(ValueError, match="radii"):
            DiscGrid(radii, 8)

    @pytest.mark.parametrize(
        "angles", [8.5, 8.0, np.float64(8.0)], ids=["8.5", "float 8.0", "numpy 8.0"]
    )
    def test_angle_count_must_be_an_integer(self, angles):
        # 8.5 would give 9 angles that are not equispaced
        with pytest.raises(TypeError):
            DiscGrid((0.5,), angles)
        assert type(DiscGrid((0.5,), np.int64(8)).angles_per_radius) is int

    def test_default_grid_radii(self):
        grid = default_modulus_grid()
        assert grid.radii[0] == 0.0
        assert grid.radii[-1] == pytest.approx(1.0 - 2.0**-10)
        assert len(grid.radii) == 11


class TestInfModulus:
    def test_shifted_constant(self):
        scan = inf_modulus(polynomial_symbol([2.0, 1.0]))
        assert scan.minimum == pytest.approx(1.0, abs=2e-2)
        assert scan.argmin.real < -0.99  # minimum sits near z = -1

    def test_exact_at_interior_zero(self):
        phi = HarmonicSymbol(1.0, 2.0, polynomial_symbol([0.0, 1.0]))
        scan = inf_modulus(phi)
        assert scan.minimum == pytest.approx(0.0, abs=1e-12)

    def test_real_harmonic_floor(self):
        phi = HarmonicSymbol(1.0, 1.0, polynomial_symbol([2.0, 1.0]))
        scan = inf_modulus(phi)
        assert scan.minimum == pytest.approx(2.0, abs=2e-2)
        assert scan.minimum >= 2.0  # grid minimum is an upper bound for inf = 2

    def test_refinement_never_raises_minimum(self):
        for sym in (
            polynomial_symbol([2.0, 1.0]),
            HarmonicSymbol(1.0, 0.5, polynomial_symbol([2.0, 1.0])),
            power_symbol(1.0),
        ):
            coarse = inf_modulus(sym, DiscGrid((0.0, 0.5, 0.75, 0.9), 32))
            fine = inf_modulus(sym, DiscGrid((0, 0.25, 0.5, 0.625, 0.75, 0.825, 0.9), 64))
            assert fine.minimum <= coarse.minimum + 1e-15

    def test_power_factor_lower_bounds(self):
        # |(1 +/- z)^{it}| >= e^{-|t| pi / 2} on the closed disc
        for t in (0.5, 1.0, 2.0):
            for sym in (
                principal_power_symbol(t, 0.0),
                principal_power_symbol(0.0, t),
            ):
                scan = inf_modulus(sym)
                assert scan.minimum >= np.exp(-abs(t) * np.pi / 2) - 1e-12

    def test_power_ratio_lower_bound(self):
        for t in (0.5, 1.0, 2.0):
            scan = inf_modulus(power_symbol(t))
            assert scan.minimum >= np.exp(-abs(t) * np.pi) - 1e-12

    def test_pointwise_factor_bound_sampled(self):
        rng = np.random.default_rng(17)
        z = 0.999 * np.sqrt(rng.uniform(size=10_000)) * np.exp(
            2j * np.pi * rng.uniform(size=10_000)
        )
        for t in (0.5, 1.0, 2.0):
            vals = np.abs(principal_power_symbol(t, 0.0)(z))
            assert vals.min() >= np.exp(-t * np.pi / 2) - 1e-12
