"""Symbol families, exact Taylor series, grid minimization."""

import tracemalloc

import numpy as np
import pytest

from berglab import DomainError
from berglab.disc import PowerSeries, QuadratureSpec
from berglab.symbols import (
    DiscGrid,
    HarmonicSymbol,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
    _binomial_power_coeffs,
    _quotient_series,
    default_modulus_grid,
    inf_modulus,
    power_symbol,
)

MACHINE = 1e-13
EPS = np.finfo(float).eps


class TestAnalyticFamilies:
    def test_polynomial_eval_and_series(self):
        g = PolynomialSymbol([2.0, 1.0])
        assert g(0.5 + 0.5j) == pytest.approx(2.5 + 0.5j)
        np.testing.assert_allclose(g.series(3).coeffs, [2, 1, 0, 0])

    def test_rational_geometric_series(self):
        g = RationalSymbol([1.0], [1.0, -0.5])
        np.testing.assert_allclose(g.series(3).coeffs, [1.0, 0.5, 0.25, 0.125])
        assert g(0.5) == pytest.approx(4.0 / 3.0)

    def test_quotient_series_divides_plain_arrays_of_any_length(self):
        p = np.array([1.0, 2.0, 0.5, 0.25, -1.0, 3.0])
        q = np.array([2.0, 0.5, 0.1, 0.0, 0.0, 0.01])  # |q| >= 1.39 on the closed disc
        full = _quotient_series(p, q, 8)
        assert np.array_equal(_quotient_series(p, q, 3), full[:4])
        assert np.array_equal(RationalSymbol(p, q).series(8).coeffs, full)
        np.testing.assert_allclose(np.convolve(full, q)[:9], np.r_[p, 0, 0, 0], atol=MACHINE)

    @pytest.mark.parametrize(
        "den", [[1.0, -2.0], [1.0, -1.0], [1.0, 0.0, 4.0], [2.0, 0.0, -2.0]]
    )
    def test_rational_rejects_pole_in_closed_disc(self, den):
        # poles at 0.5, 1, +-0.5i and +-1
        with pytest.raises(DomainError, match="closed unit disc"):
            RationalSymbol([1.0], den)

    def test_rational_rejects_vanishing_origin(self):
        with pytest.raises(ValueError):
            RationalSymbol([1.0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: HarmonicSymbol(np.nan, 0.5, PolynomialSymbol([2.0, 1.0])), "c"),
            (lambda: PolynomialSymbol([np.nan, 1.0]), "coeffs"),
            (lambda: PolynomialSymbol([np.inf, 1.0]), "coeffs"),
            (lambda: RationalSymbol([np.inf], [2.0, 1.0]), "num"),
            # before the pole search, whose np.roots would raise LinAlgError
            (lambda: RationalSymbol([1.0], [1.0, np.nan]), "den"),
            (lambda: PrincipalPowerSymbol(np.nan, 0.0), "plus_exponent"),
            (lambda: PrincipalPowerSymbol(np.inf, 0.0), "plus_exponent"),
        ],
        ids=["harmonic-c", "poly-nan", "poly-inf", "num-inf", "den-nan", "power-nan", "power-inf"],
    )
    def test_non_finite_data_refused_at_construction(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build()

    def test_principal_power_binomial_coeffs(self):
        g = PrincipalPowerSymbol(1.0, 0.0)  # (1+z)^i
        np.testing.assert_allclose(
            g.series(2).coeffs, [1.0, 1j, (-1.0 - 1j) / 2.0], atol=MACHINE
        )

    def test_principal_power_eval_matches_log_form(self):
        g = PrincipalPowerSymbol(0.7, -0.3)
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
            PolynomialSymbol([2.0, 1.0 - 0.5j, 0.3j]),
            # complex denominator with its pole at 2 + 2i
            RationalSymbol([1.0, 0.5j], [2.0, -0.5 + 0.5j]),
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


#: four nodes of QuadratureSpec(96, 384), four of default_modulus_grid's outer ring
#: (radius 1 - 2^-10) and four within 1e-12 of -1 or 1
POWER_POINTS = np.array([
    complex(0.9998447519416154, 0.0),
    complex(-0.9997109106330068, 0.016359191499420174),
    complex(-0.06539297552131788, 0.9977040075782289),
    complex(0.3766442887176634, 0.04332943667368736),
    complex(0.9990234375, 0.0),
    complex(-0.9990234375, 1.2234508550075609e-16),
    complex(-0.9987225503185713, 0.02451726247943292),
    complex(0.19489980412353441, -0.9798274822778367),
    complex(-0.999999999999, 0.0),
    complex(0.999999999999, 0.0),
    complex(-0.9999999999995, 5e-13),
    complex(0.9999999999995, -5e-13),
])
#: (1 + z)^{ia} (1 - z)^{ib} at POWER_POINTS by mpmath at 40 digits, rounded to doubles
POWER_MPMATH = {
    (1.0, -1.0): [
        complex(-0.9992482300378629, -0.03876821850689263),
        complex(0.01958435631000316, 0.20894571310272952),
        complex(0.20746613183221627, -0.013607795069114532),
        complex(0.6360775519531758, 0.6424366008680586),
        complex(0.22783249175477827, 0.9737003418407579),
        complex(0.2278324917547497, -0.9737003418406359),
        complex(-0.06656282684614784, 0.20582254638317746),
        complex(4.712149607900142, 0.9435464882594529),
        complex(-0.9987574203211738, 0.04983588419396391),
        complex(-0.9987574203211738, -0.04983588419396391),
        complex(-0.42060839542300194, 0.1760302095258529),
        complex(-2.023147313453402, -0.8467140679175152),
    ],
    (0.7, -0.3): [
        complex(-0.9996800210689646, 0.0252953647049115),
        complex(-0.33583323510177904, -0.018393591952693338),
        complex(0.44754622069993855, 0.04735651422525065),
        complex(0.8948890792704076, 0.3421303405603397),
        complex(-0.8379447400636956, 0.5457550848133123),
        complex(0.34049087456250204, 0.9402478207044603),
        complex(-0.3245360171371169, -0.11439959902137815),
        complex(2.050714990729461, 0.4874470781644164),
        complex(0.7647658426634886, -0.6443083158668715),
        complex(-0.7959252347830829, 0.6053949294762011),
        complex(0.33911685946003445, -0.46694637240104725),
        complex(-1.0814534256383401, 0.6575662832771741),
    ],
    (-0.2, 1.1): [
        complex(-0.9354130017708929, 0.35355694890352163),
        complex(-0.019416743599524798, 1.3764731399148695),
        complex(2.528579936116179, 0.9329155977555128),
        complex(0.9077540025136484, -0.5963932581428876),
        complex(0.0907060470393177, -0.9958777098773228),
        complex(-0.5458662975005139, 0.8378722965065325),
        complex(0.09269814978293174, 1.3702004680128634),
        complex(0.3250077980883663, 0.05722651066816022),
        complex(0.9999849561141969, 0.005485211508011426),
        complex(0.634720516608478, 0.7727417846837757),
        complex(1.1668077619414585, 0.08742468588191495),
        complex(0.3695149645782065, 0.20282365268172595),
    ],
    (20.0, -20.0): [
        complex(0.7140299722080546, 0.700115132523619),
        complex(-8.070365260846862e-15, -2.624437678895176e-14),
        complex(5.8757726194825955e-15, -2.201103019680701e-14),
        complex(-0.1323628172963667, -0.013210365726065305),
        complex(-0.11511226392326285, 0.9933524886436139),
        complex(-0.11511226392297429, -0.9933524886411237),
        complex(5.031455734401068e-14, -1.3850100003961999e-15),
        complex(-29733395069125.54, -31288383133011.582),
        complex(0.5427144919022497, -0.8399172460899246),
        complex(0.5427144919022497, 0.8399172460899246),
        complex(-1.1044775750798993e-08, -1.5043084183372657e-07),
        complex(-485454.2355604298, 6611930.470550367),
    ],
    (0.0, 0.0): [
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
        complex(1.0, 0.0),
    ],
}


def complex_route(a, b, z):
    """The complex-log evaluation that ``PrincipalPowerSymbol.__call__`` replaced."""
    z = np.asarray(z, dtype=np.complex128)
    return np.exp(1j * (a * np.log(1.0 + z) + b * np.log(1.0 - z)))


def power_condition(a, b, z):
    """1 + |a| (1 + |log|1+z|| + |arg(1+z)|) + |b| (1 + |log|1-z|| + |arg(1-z)|).

    The phase and the modulus of the power are these logarithms and arguments times the
    exponents, and 1 +- x rounds before the logarithm, so each logarithm carries an
    absolute error of about eps even where it is small.
    """
    lp, lm = np.log(1.0 + z), np.log(1.0 - z)
    return (1 + abs(a) * (1 + np.abs(lp.real) + np.abs(lp.imag))
            + abs(b) * (1 + np.abs(lm.real) + np.abs(lm.imag)))


EXPONENT_PAIRS = list(POWER_MPMATH)


class TestPrincipalPowerEval:
    """The real-arithmetic power against its two oracles."""

    @pytest.mark.parametrize("a, b", EXPONENT_PAIRS)
    def test_matches_mpmath(self, a, b):
        got = PrincipalPowerSymbol(a, b)(POWER_POINTS)
        exact = np.array(POWER_MPMATH[a, b])
        rel = np.abs(got - exact) / np.abs(exact)
        assert np.all(rel <= 4 * EPS * power_condition(a, b, POWER_POINTS))

    @pytest.mark.parametrize("a, b", EXPONENT_PAIRS)
    def test_matches_complex_route(self, a, b):
        z = np.concatenate([
            QuadratureSpec(96, 384).points()[0],
            default_modulus_grid().nodes().ravel(),
            POWER_POINTS,
        ])
        got = PrincipalPowerSymbol(a, b)(z)
        old = complex_route(a, b, z)
        rel = np.abs(got - old) / np.abs(old)
        assert np.all(rel <= 8 * EPS * power_condition(a, b, z))

    def test_zero_exponents_give_one(self):
        assert np.all(PrincipalPowerSymbol(0.0, 0.0)(POWER_POINTS) == 1.0)

    @pytest.mark.parametrize("a, b", EXPONENT_PAIRS)
    def test_shapes(self, a, b):
        g = PrincipalPowerSymbol(a, b)
        flat = g(POWER_POINTS)
        scalar = g(complex(POWER_POINTS[3]))
        zero_d = g(np.asarray(POWER_POINTS[3]))
        # a 0-d result is a numpy scalar, as the complex route returned
        for value in (scalar, zero_d):
            assert type(value) is type(complex_route(a, b, POWER_POINTS[3])) is np.complex128
            assert value == flat[3]
        grid = g(POWER_POINTS.reshape(3, 4))
        assert grid.shape == (3, 4)
        np.testing.assert_array_equal(grid.ravel(), flat)
        np.testing.assert_array_equal(g(POWER_POINTS.reshape(4, 3).T).T.ravel(), flat)


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
        coeffs = PrincipalPowerSymbol(0.7, -0.3).series(255).coeffs
        assert (coeffs * minus_i_powers(256)).imag.any()
        np.testing.assert_array_equal(coeffs, product_route(0.7, -0.3, 255))


#: one symbol of each family, and power_symbol at exponents whose short convolutions
#: round their full-overlap term apart (t = 3 at degree 9, t = -0.5 at degree 7)
PREFIX_SYMBOLS = {
    "polynomial": PolynomialSymbol([2.0, 1.0, 0.3j, -0.5]),
    "rational": RationalSymbol([1.0, 0.5j], [2.0, -0.5, 0.25j]),
    "principal power": PrincipalPowerSymbol(1.0, 0.3),
    "power t=1": power_symbol(1.0),
    "power t=3": power_symbol(3.0),
    "power t=-0.5": power_symbol(-0.5),
}


@pytest.mark.parametrize("name", sorted(PREFIX_SYMBOLS))
def test_series_begins_with_every_lower_degree_series(name):
    # the trend and the power study expand g once per schedule and read each size's
    # prefix, so series(k) must be the first k + 1 coefficients of series(n) bit for bit
    g = PREFIX_SYMBOLS[name]
    top = g.series(1023).coeffs
    for k in range(1023):
        assert g.series(k).coeffs.tobytes() == top[: k + 1].tobytes(), k


class TestHarmonicSymbol:
    def test_eval(self):
        phi = HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))
        assert phi(-0.9) == pytest.approx(2.2)
        assert phi(0.3j) == pytest.approx(4.0)  # 4 + 2 Re z on the imaginary axis

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
            g = PolynomialSymbol(rng.normal(size=4) + 1j * rng.normal(size=4))
            z = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            lhs = HarmonicSymbol(c, d, g)(z)
            rhs = np.conj(HarmonicSymbol(np.conj(d), np.conj(c), g)(z))
            assert abs(lhs - rhs) < MACHINE * max(1.0, abs(lhs))

    def test_case_tags(self):
        g = PolynomialSymbol([2.0, 1.0])
        assert HarmonicSymbol(1.0, 0.0, g).case_tag == "analytic"
        assert HarmonicSymbol(0.0, 1.0, g).case_tag == "coanalytic"
        assert HarmonicSymbol(1.0, 1j, g).case_tag == "normal_s_unimodular"
        assert HarmonicSymbol(1.0, 0.5, g).case_tag == "general_s"

    def test_coanalytic_ratio(self):
        g = PolynomialSymbol([0.0, 1.0])
        assert HarmonicSymbol(1.0, 0.5, g).coanalytic_ratio == pytest.approx(2.0)
        assert HarmonicSymbol(1.0, 0.0, g).coanalytic_ratio is None

    def test_overflowing_ratio(self):
        # phi is finite, c/d is not: no ratio, and the tag compares |c| with |d| undivided
        phi = HarmonicSymbol(1e300, 1e-10, PolynomialSymbol([2.0, 1.0]))
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
        with pytest.raises(ValueError, match="at least one radius"):
            DiscGrid((), 8)

    def test_node_rounding_onto_the_circle_refused(self):
        # 1 - 2^-53 < 1, yet (1 - 2^-53) e^{i pi / 4} rounds to modulus 1
        with pytest.raises(DomainError, match="grid node"):
            DiscGrid((0.5, 1 - 2**-53), 8)

    @pytest.mark.parametrize("steps_below", [0, 1, 2**20])
    def test_rings_up_to_the_bound_lie_inside(self, steps_below):
        # the grid builds no nodes up to radius 1 - 2^-46, trusting that rounding moves
        # |r e^{it}| by a few ulps at most: far inside the 2^-46 margin at any angle count
        r = 1.0 - 2.0**-46 - steps_below * 2.0**-53
        for angles in [*range(4, 1024), 2**16, 3 * 2**14 + 1, 10**5 + 3]:
            moduli = np.abs(DiscGrid((0.5, r), angles).nodes()[1])
            assert moduli.max() <= r + 8 * 2.0**-53, angles

    def test_grid_inside_the_bound_allocates_no_nodes(self):
        # 2^40 nodes would be 16 TiB: validate builds the grid and used to allocate them
        DiscGrid((0.5,), 8)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            grid = DiscGrid((0.0, 0.5, 1.0 - 2.0**-46), 2**40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.angles_per_radius == 2**40
        assert peak < 4096

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
        scan = inf_modulus(PolynomialSymbol([2.0, 1.0]))
        assert scan.minimum == pytest.approx(1.0, abs=2e-2)
        assert scan.argmin.real < -0.99  # minimum sits near z = -1

    def test_exact_at_interior_zero(self):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))
        scan = inf_modulus(phi)
        assert scan.minimum == pytest.approx(0.0, abs=1e-12)

    def test_real_harmonic_floor(self):
        phi = HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))
        scan = inf_modulus(phi)
        assert scan.minimum == pytest.approx(2.0, abs=2e-2)
        assert scan.minimum >= 2.0  # grid minimum is an upper bound for inf = 2

    def test_refinement_never_raises_minimum(self):
        for sym in (
            PolynomialSymbol([2.0, 1.0]),
            HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0])),
            power_symbol(1.0),
        ):
            coarse = inf_modulus(sym, DiscGrid((0.0, 0.5, 0.75, 0.9), 32))
            fine = inf_modulus(sym, DiscGrid((0, 0.25, 0.5, 0.625, 0.75, 0.825, 0.9), 64))
            assert fine.minimum <= coarse.minimum + 1e-15

    def test_power_factor_lower_bounds(self):
        # |(1 +/- z)^{it}| >= e^{-|t| pi / 2} on the closed disc
        for t in (0.5, 1.0, 2.0):
            for sym in (
                PrincipalPowerSymbol(t, 0.0),
                PrincipalPowerSymbol(0.0, t),
            ):
                scan = inf_modulus(sym)
                assert scan.minimum >= np.exp(-abs(t) * np.pi / 2) - 1e-12

    @pytest.mark.parametrize(
        "a, b", [(0.7, -0.3), (0.7, 0.3), (-0.2, 1.1), (1, 0), (0.5, 0.5), (1, -1), (3, -3)]
    )
    def test_principal_power_sharp_infimum(self, a, b):
        # (arg(1+z), arg(1-z)) fills |alpha| + |beta| < pi/2, so inf |g| = e^{-max(|a|,|b|) pi/2};
        # the grid reaches to radius 1 - 2^-14 and approaches it from above
        grid = DiscGrid(tuple(1.0 - 2.0 ** -np.linspace(0.0, 14.0, 64)), 4096)
        sharp = np.exp(-max(abs(a), abs(b)) * np.pi / 2)
        minimum = inf_modulus(PrincipalPowerSymbol(a, b), grid).minimum
        assert sharp * (1 - 1e-12) <= minimum <= 1.02 * sharp

    def test_refinement_stays_in_the_open_disc(self):
        # every node of this grid is inside, yet (1 - 2^-53) e^{i w} rounds onto or past
        # the circle for some w of the refinement window around the argmin, z = -(1 - 2^-53)
        grid = DiscGrid((0.0, 1 - 2**-53), 4)
        window = np.pi + np.linspace(-np.pi / 2, np.pi / 2, 65)
        assert np.any(np.abs(grid.radii[-1] * np.exp(1j * window)) >= 1.0)
        called = []

        def f(z):
            called.append(z)
            return 2.0 + z

        scan = inf_modulus(f, grid)
        assert len(called) == 2
        assert all(np.all(np.abs(z) < 1.0) for z in called)
        assert scan.minimum <= 1.0 + 2**-53

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
            vals = np.abs(PrincipalPowerSymbol(t, 0.0)(z))
            assert vals.min() >= np.exp(-t * np.pi / 2) - 1e-12
