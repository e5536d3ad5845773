"""Berezin transform routes, their agreement, and grid exports."""

import cmath
import inspect
import io
import json

import numpy as np
import pytest

from berglab import DomainError, NumericalError, QuadratureSpec, berezin
from berglab.berezin import (
    BerezinSample,
    berezin_grid,
    berezin_harmonic,
    berezin_integral,
    berezin_matrix,
    write_grid,
)
from berglab.disc import disc_quadrature, normalized_kernel_coeffs
from berglab.symbols import (
    AnalyticSymbol,
    DiscGrid,
    HarmonicSymbol,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
    inf_modulus,
)
from berglab.toeplitz import (
    TruncatedOperator,
    toeplitz_analytic,
    toeplitz_harmonic,
    toeplitz_quadrature,
)

BOOSTED = QuadratureSpec(96, 384)  # boundary-capable integral spec
SMALL = QuadratureSpec(8, 16)


def random_point(rng, rmax):
    return rmax * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


class TestIntegralRoute:
    def test_constant_symbol(self):
        for z in (0.0, 0.3, 0.5 + 0.2j, 0.7):
            s = berezin_integral(lambda w: np.ones_like(w), z)
            assert abs(s.value - 1.0) < 1e-10
            assert s.route == "integral"

    def test_constant_symbol_near_boundary_needs_boost(self):
        s = berezin_integral(lambda w: np.ones_like(w), 0.9, BOOSTED)
        assert abs(s.value - 1.0) < 1e-10

    def test_harmonic_fixed_point(self):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))
        z = 0.3 + 0.4j
        s = berezin_integral(phi, z)
        assert abs(s.value - (0.9 - 0.4j)) < 1e-8

    def test_radial_symbol_at_center(self):
        s = berezin_integral(lambda w: np.abs(w) ** 2, 0.0)
        assert abs(s.value - 0.5) < 1e-10

    def test_error_estimate_tracks_true_error(self):
        # at |z| = 0.9 the default spec is honestly bad and says so
        s = berezin_integral(lambda w: np.ones_like(w), 0.9)
        true_err = abs(s.value - 1.0)
        assert true_err > 1e-8
        assert s.error_estimate > 0.1 * true_err

    def test_domain_error(self):
        with pytest.raises(DomainError):
            berezin_integral(lambda w: w, 1.0)
        with pytest.raises(DomainError):
            berezin_integral(lambda w: w, complex(np.nan, 0.0))

    def test_nan_error_estimate_is_refused(self):
        # an overflowed value gives a NaN estimate: a numerical refusal, not a bad input
        with pytest.raises(NumericalError, match="error_estimate"):
            BerezinSample(z=0j, value=1 + 0j, route="integral", error_estimate=np.nan)

    @pytest.mark.parametrize(
        "z, value, estimate, match",
        [
            (0.5j, complex(1.0, np.inf), 0.0, r"non-finite \|value\| inf at z = 0\.5j"),
            (0.5j, complex(np.nan, 1.0), 0.0, r"non-finite \|value\| nan at z = 0\.5j"),
            # each part is finite, but abs() of the value raises OverflowError
            (0j, complex(1.4e308, 1.4e308), 0.0, r"non-finite \|value\| inf at z = 0j"),
            (0.5, 1.0 + 0j, np.inf, r"non-finite error_estimate inf at z = 0\.5"),
            (complex(np.nan, 0.0), 1.0 + 0j, 0.0, r"non-finite \|z\| nan at z = \(nan\+0j\)"),
        ],
        ids=["infinite-value", "nan-value", "overflowing-modulus", "infinite-estimate", "nan-z"],
    )
    def test_non_finite_sample_refused(self, z, value, estimate, match):
        with pytest.raises(NumericalError, match=match):
            BerezinSample(z, value, "integral", estimate)

    def test_value_and_estimate_are_tested_apart(self):
        # |value| + error_estimate overflows, but each is finite
        s = BerezinSample(0j, complex(1.7e308, 0.0), "integral", 1.7e308)
        assert s.value == 1.7e308 and s.error_estimate == 1.7e308

    @pytest.mark.parametrize(
        "route, estimate, match",
        [("integral", -1e-3, "error_estimate must be nonnegative"),
         ("fourier", 0.0, "unknown route 'fourier'")],
        ids=["negative-estimate", "unknown-route"],
    )
    def test_bad_sample_refused(self, route, estimate, match):
        with pytest.raises(ValueError, match=match):
            BerezinSample(z=0j, value=1 + 0j, route=route, error_estimate=estimate)


class TestMatrixRoute:
    def test_identity_at_center(self):
        op = toeplitz_analytic([1.0], 256)
        s = berezin_matrix(op, 0.0)
        assert s.value == 1.0 + 0j

    def test_analytic_symbol_reproduces(self):
        op = toeplitz_analytic([0.0, 1.0], 128)
        s = berezin_matrix(op, 0.5)
        assert abs(s.value - 0.5) < 1e-9

    def test_harmonic_symbol_reproduces(self):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))
        op = toeplitz_harmonic(phi, 128)
        s = berezin_matrix(op, 0.3 + 0.4j)
        assert abs(s.value - (0.9 - 0.4j)) < 1e-8

    def test_tail_refusal_near_boundary(self):
        op = toeplitz_analytic([1.0], 256)
        with pytest.raises(NumericalError, match="tail"):
            berezin_matrix(op, 0.98)

    def test_passes_just_inside_refusal_radius(self):
        op = toeplitz_analytic([1.0], 256)
        s = berezin_matrix(op, 0.96)
        assert s.error_estimate < 1e-6
        assert abs(s.value - 1.0) < 1e-5

    def test_domain_error(self):
        with pytest.raises(DomainError):
            berezin_matrix(toeplitz_analytic([1.0], 8), 1.2)


def per_node_matrix(op, nodes, tail_tol=1e-6):
    """The per-node loop the block route replaced: one matrix-vector product per node."""
    n, m = op.n, op.matrix
    proxy = float(np.sqrt(np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf)))
    out = []
    for z in nodes:
        z = complex(z)
        x = abs(z) ** 2
        tail = x**n * ((n + 1) * (1.0 - x) + x)
        estimate = proxy * tail
        if not estimate <= tail_tol:
            raise NumericalError(
                f"kernel tail estimate {estimate:.3e} exceeds {tail_tol:.1e} "
                f"at |z| = {abs(z):.4f} with N = {n}; use the integral route"
            )
        kappa = normalized_kernel_coeffs(z, n)
        value = complex(np.vdot(kappa, op.matrix @ kappa))
        out.append(BerezinSample(z=z, value=value, route="matrix", error_estimate=estimate))
    return out


class CountingMatrix(np.ndarray):
    """An operator matrix that counts its ``@`` products."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other


def counting_section(phi, n):
    """``toeplitz_harmonic(phi, n)`` whose matrix counts its products."""
    op = toeplitz_harmonic(phi, n)
    return TruncatedOperator(op.matrix.view(CountingMatrix), op.symbol_tag, op.builder, True)


@pytest.fixture
def counted_products(monkeypatch):
    """Zeroes the product count of :func:`counting_section`'s operators; yields the class."""
    monkeypatch.setattr(CountingMatrix, "products", 0)
    return CountingMatrix


CRITERION_3_GRID = DiscGrid((0.0, 0.3, 0.6, 0.8, 0.9), 32)
WORKLOAD_PHI = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0]))


class TestMatrixSweep:
    """The block route of ``berezin_matrix`` on a grid's nodes against the per-node loop."""

    @pytest.mark.parametrize(
        "phi, grid, n",
        [
            (WORKLOAD_PHI, CRITERION_3_GRID, 256),
            (HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0, 0.3])), CRITERION_3_GRID, 128),
            # complex rational g; 100 angles make blocks that straddle rings
            (HarmonicSymbol(1 - 0.5j, 0.3j, RationalSymbol([1.0, 0.5j], [2.0, -0.5 + 0.5j])),
             DiscGrid((0.0, 0.45, 0.7), 100), 256),
        ],
        ids=["workload", "criterion-3", "rational"],
    )
    def test_matches_per_node_loop(self, phi, grid, n, counted_products):
        sweep = berezin_matrix(counting_section(phi, n), grid.nodes())
        op = toeplitz_harmonic(phi, n)
        oracle = per_node_matrix(op, grid.nodes().ravel())
        scale = np.linalg.norm(op.matrix, 2)
        assert len(sweep) == len(oracle)
        for a, b in zip(sweep, oracle):
            assert (a.z, a.route, a.error_estimate) == (b.z, b.route, b.error_estimate)
            assert abs(a.value - b.value) <= 1e-13 * scale
        # one product per block of at most 64 kernel vectors
        assert counted_products.products == -(-len(sweep) // 64)

    def test_point_api_is_the_one_node_case(self):
        op = toeplitz_harmonic(WORKLOAD_PHI, 256)
        nodes = [0.0, 0.3 + 0.4j, -0.85j, 0.96]
        got = [berezin_matrix(op, z) for z in nodes]
        for a, b in zip(got, per_node_matrix(op, nodes)):
            assert (a.z, a.route, a.error_estimate) == (b.z, b.route, b.error_estimate)
            assert abs(a.value - b.value) <= 1e-13 * np.linalg.norm(op.matrix, 2)

    def test_node_array_is_the_point_calls_in_ravelled_order(self):
        op = toeplitz_harmonic(WORKLOAD_PHI, 256)
        rng = np.random.default_rng(5)
        nodes = np.array([random_point(rng, 0.9) for _ in range(12)])
        flat = berezin_matrix(op, nodes)
        # the same blocks, so the same bits; a one-column product may round differently
        assert berezin_matrix(op, nodes.reshape(3, 4)) == flat
        for a, b in zip(flat, [berezin_matrix(op, z) for z in nodes], strict=True):
            assert (a.z, a.route, a.error_estimate) == (b.z, b.route, b.error_estimate)
            assert abs(a.value - b.value) <= 1e-13 * np.linalg.norm(op.matrix, 2)

    def test_scalar_gives_a_sample_and_empty_array_none(self):
        op = toeplitz_harmonic(WORKLOAD_PHI, 16)
        assert isinstance(berezin_matrix(op, 0.5j), BerezinSample)
        assert berezin_matrix(op, np.array([], dtype=complex)) == []

    @pytest.mark.parametrize("tail_tol", [0.0, -1.0, np.nan])
    def test_non_positive_tail_tol_refused_before_any_product(self, tail_tol, counted_products):
        # a negative budget used to surface as the numerical refusal "estimate 0.000e+00
        # exceeds -1.0e+00"; it is a bad argument
        op = counting_section(WORKLOAD_PHI, 16)
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            berezin_matrix(op, 0.0, tail_tol)
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            berezin_matrix(op, CRITERION_3_GRID.nodes(), tail_tol)
        assert counted_products.products == 0

    def test_refusal_text_and_no_product(self, counted_products):
        # the matrix_refusal workload scenario: the first node of radius 0.95 refuses
        grid = DiscGrid((0.0, 0.5, 0.95), 8)
        with pytest.raises(NumericalError) as expected:
            per_node_matrix(toeplitz_harmonic(WORKLOAD_PHI, 64), grid.nodes().ravel())
        with pytest.raises(NumericalError) as got:
            berezin_matrix(counting_section(WORKLOAD_PHI, 64), grid.nodes())
        assert str(got.value) == str(expected.value)
        assert counted_products.products == 0


class TestHarmonicRoute:
    def test_constant(self):
        phi = HarmonicSymbol(2.5 - 1j, 0.0, PolynomialSymbol([1.0]))
        s = berezin_harmonic(phi, 0.4j)
        assert s.value == pytest.approx(2.5 - 1j)
        assert s.error_estimate == 0.0

    def test_analytic_square(self):
        phi = HarmonicSymbol(1.0, 0.0, PolynomialSymbol([0.0, 0.0, 1.0]))
        assert berezin_harmonic(phi, 0.5).value == pytest.approx(0.25)

    def test_real_harmonic(self):
        phi = HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))
        assert berezin_harmonic(phi, -0.9).value == pytest.approx(2.2)


class NodeArrayG(AnalyticSymbol):
    """g(z) = z^2 on the node-array contract alone: it reads ``z.ndim``."""

    def __call__(self, z):
        if z.ndim != 1:
            raise TypeError("expected a 1-d node array")
        return z * z


class TestClosedFormEvaluation:
    GRID = DiscGrid((0.3, 0.6, 0.9), 32)

    def test_node_array_symbol(self):
        phi = HarmonicSymbol(1.0, 0.5, NodeArrayG())
        z = 0.3 + 0.4j
        assert berezin_harmonic(phi, z).value == pytest.approx(z * z + 0.5 * np.conj(z * z))
        g = self.GRID.nodes().ravel() ** 2
        sweep = berezin_harmonic(phi, self.GRID.nodes())
        assert [s.value for s in sweep] == pytest.approx((g + 0.5 * np.conj(g)).tolist())

    @pytest.mark.parametrize(
        "g", [NodeArrayG(), PolynomialSymbol([2.0, 1.0, 0.3]), PrincipalPowerSymbol(1.0, -1.0)],
        ids=["node-array", "polynomial", "power"],
    )
    def test_sweep_equals_the_pointwise_transform_bit_for_bit(self, g):
        phi = HarmonicSymbol(1.0, 0.5, g)
        sweep = berezin_harmonic(phi, self.GRID.nodes())
        pointwise = [berezin_harmonic(phi, z) for z in self.GRID.nodes().ravel()]
        assert sweep == pointwise

    @pytest.mark.parametrize("shape", [(96,), (3, 32)], ids=["1-d", "2-d"])
    def test_node_array_equals_the_point_calls_bit_for_bit(self, shape):
        phi = HarmonicSymbol(1.0, 0.5, NodeArrayG())
        nodes = self.GRID.nodes().reshape(shape)
        assert berezin_harmonic(phi, nodes) == [berezin_harmonic(phi, z) for z in nodes.ravel()]

    def test_scalar_gives_a_sample_and_empty_array_none(self):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0]))
        assert isinstance(berezin_harmonic(phi, 0.5j), BerezinSample)
        assert berezin_harmonic(phi, np.array([], dtype=complex)) == []
        with pytest.raises(DomainError):
            berezin_harmonic(phi, np.array([0.5, 1.0]))


class TestRouteAgreement:
    def test_three_routes_sampled(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            deg = int(rng.integers(0, 7))
            g = PolynomialSymbol(
                rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            )
            c, d = rng.normal(size=2) + 1j * rng.normal(size=2)
            phi = HarmonicSymbol(c, d, g)
            op = toeplitz_harmonic(phi, 256)
            for _ in range(10):
                z = random_point(rng, 0.9)
                vi = berezin_integral(phi, z, BOOSTED).value
                vm = berezin_matrix(op, z).value
                vh = berezin_harmonic(phi, z).value
                assert abs(vi - vh) < 1e-6
                assert abs(vm - vh) < 1e-6
                assert abs(vi - vm) < 1e-6

    def test_grid_route_crosscheck(self):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))
        grid = DiscGrid(tuple(np.linspace(0.0, 0.8, 8)), 16)
        si = berezin_grid(phi, grid)
        sh = berezin_harmonic(phi, grid.nodes())
        gap = max(abs(a.value - b.value) for a, b in zip(si, sh))
        assert gap < 1e-7

    def test_grid_min_matches_symbol_min(self):
        phi = HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))
        grid = DiscGrid((0.0, 0.3, 0.6, 0.9), 64)
        samples = berezin_matrix(toeplitz_harmonic(phi, 256), grid.nodes())
        tmin = min(abs(s.value) for s in samples)
        smin = np.min(np.abs(phi(grid.nodes())))
        assert tmin == pytest.approx(smin, abs=1e-8)


def per_node(phi, grid, spec):
    return [berezin_integral(phi, z, spec) for z in grid.nodes().ravel()]


def assert_matches_per_node(phi, grid, spec, tol=1e-13):
    """The ring/FFT sweep against the per-node oracle it replaces."""
    ring = berezin_grid(phi, grid, spec)
    oracle = per_node(phi, grid, spec)
    assert len(ring) == len(oracle)
    for a, b in zip(ring, oracle):
        assert a.z == b.z
        assert a.route == "integral"
        assert abs(a.value - b.value) < tol
        assert abs(a.error_estimate - b.error_estimate) < tol
    return ring


class TestRingRoute:
    def test_criterion_3_grid_polynomial(self):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0, 0.3]))
        grid = DiscGrid((0.0, 0.3, 0.6, 0.8, 0.9), 32)
        assert_matches_per_node(phi, grid, QuadratureSpec(48, 192))

    def test_principal_power(self):
        phi = HarmonicSymbol(1.0, 0.25, PrincipalPowerSymbol(1.0, -1.0))
        assert_matches_per_node(phi, DiscGrid((0.0, 0.5, 0.8), 16), QuadratureSpec(32, 128))

    @pytest.mark.parametrize(
        "run",
        [
            lambda phi: berezin_grid(phi, DiscGrid((0.2, 0.6), 8), SMALL),
            # 12 angles do not divide the rule's 16: the per-node route
            lambda phi: berezin_grid(phi, DiscGrid((0.2, 0.6), 12), SMALL),
            lambda phi: inf_modulus(phi, DiscGrid((0.2, 0.6), 8)),
            lambda phi: toeplitz_quadrature(phi, 4, SMALL),
            lambda phi: disc_quadrature(phi, SMALL),
        ],
        ids=["ring", "per_node", "inf_modulus", "toeplitz_quadrature", "disc_quadrature"],
    )
    def test_scalar_only_callable_raises_its_own_error_after_one_call(self, run):
        calls = []

        def phi(w):
            calls.append(1)
            return cmath.exp(0.5 * complex(w).conjugate())  # arrays raise TypeError

        with pytest.raises(TypeError) as exc:
            run(phi)
        assert exc.traceback[-1].name == "phi"  # the evaluator's own error, not a refusal
        assert len(calls) == 1  # the node array, and no per-point retry

    def test_ring_at_origin(self):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.5, 1.0, -0.25]))
        grid = DiscGrid((0.0, 0.5), 8)
        samples = assert_matches_per_node(phi, grid, QuadratureSpec())
        origin = samples[: grid.angles_per_radius]
        assert all(s.z == 0 for s in origin)
        # every node of the ring is z = 0, where phi~(0) = phi(0) = 1.5
        assert all(abs(s.value - 1.5) < 1e-12 for s in origin)
        assert max(abs(s.value - origin[0].value) for s in origin) < 1e-15

    @pytest.mark.parametrize("k", [1014, 1016])
    def test_near_the_float_range(self, k):
        # each ring's weighted sum stays near max|phi| until the inverse FFT; where it reached
        # M max|phi| first, these symbols overflowed on the ring route alone
        phi = HarmonicSymbol(2.0**k, 2.0 ** (k - 1), PolynomialSymbol([2.0, 1.0]))
        grid, spec = DiscGrid((0.0, 0.4, 0.7), 8), QuadratureSpec()
        ring, oracle = berezin_grid(phi, grid, spec), per_node(phi, grid, spec)
        assert [a.z for a in ring] == [b.z for b in oracle]
        for a, b in zip(ring, oracle):
            assert abs(a.value - b.value) <= 1e-13 * abs(b.value)
            assert abs(a.error_estimate - b.error_estimate) <= 1e-13 * abs(b.value)

    def test_sweeps_the_integral_route_only(self):
        # the matrix and closed-form routes take ``grid.nodes()`` directly
        assert list(inspect.signature(berezin_grid).parameters) == ["phi", "grid", "spec"]
        assert not hasattr(berezin, "DEFAULT_MATRIX_SIZE")
        assert not hasattr(berezin, "toeplitz_harmonic")

    def test_non_dividing_grid_falls_back_exactly(self):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0]))
        grid = DiscGrid((0.0, 0.4, 0.7), 12)  # 12 does not divide 128
        spec = QuadratureSpec()
        assert spec.angular_nodes % grid.angles_per_radius
        assert berezin_grid(phi, grid, spec) == per_node(phi, grid, spec)


class TestPositivity:
    def test_nonnegative_symbol_stays_nonnegative(self):
        phi = HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0]))  # 4 + 2 Re
        rng = np.random.default_rng(29)
        for _ in range(25):
            z = random_point(rng, 0.85)
            s = berezin_integral(phi, z)
            assert s.value.real >= -1e-10
            assert abs(s.value.imag) < 1e-10


class TestGridSweepAndExport:
    def test_constant_grid(self):
        phi = HarmonicSymbol(1.0, 0.0, PolynomialSymbol([1.0]))
        grid = DiscGrid((0.0, 0.5), 4)
        samples = berezin_harmonic(phi, grid.nodes())
        assert len(samples) == 8
        assert all(abs(s.value - 1.0) < 1e-14 for s in samples)

    def test_row_major_node_order(self):
        phi = HarmonicSymbol(1.0, 0.0, PolynomialSymbol([0.0, 1.0]))
        grid = DiscGrid((0.0, 0.5), 4)
        samples = berezin_harmonic(phi, grid.nodes())
        expected = grid.nodes().ravel()
        np.testing.assert_allclose([s.z for s in samples], expected)

    def test_csv_header_and_shape(self, tmp_path):
        phi = HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0]))
        grid = DiscGrid((0.0, 0.25, 0.5), 8)
        samples = berezin_harmonic(phi, grid.nodes())
        path = tmp_path / "grid.csv"
        write_grid(samples, path, tmp_path / "grid.json")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re_z,im_z,re_val,im_val,route,err"
        assert len(lines) == 1 + 24
        cells = lines[1].split(",")
        assert cells[4] == "harmonic_closed_form"

    def test_json_rows(self, tmp_path):
        phi = HarmonicSymbol(1.0, 0.0, PolynomialSymbol([2.0, 1.0]))
        samples = berezin_harmonic(phi, DiscGrid((0.0, 0.5), 4).nodes())
        path = tmp_path / "grid.json"
        write_grid(samples, tmp_path / "grid.csv", path)
        rows = json.loads(path.read_text())
        assert len(rows) == 8
        assert set(rows[0]) == {"re_z", "im_z", "re_val", "im_val", "route", "err"}
        assert rows[0]["re_val"] == pytest.approx(2.0)


def json_dump_oracle(samples) -> str:
    """The ``json.dump(rows, fh, indent=1)`` writer that the row template replaced."""
    rows = [
        {
            "re_z": s.z.real,
            "im_z": s.z.imag,
            "re_val": s.value.real,
            "im_val": s.value.imag,
            "route": s.route,
            "err": s.error_estimate,
        }
        for s in samples
    ]
    fh = io.StringIO()
    json.dump(rows, fh, indent=1)
    fh.write("\n")
    return fh.getvalue()


def csv_loop_oracle(samples) -> str:
    """The per-sample CSV loop that the one-pass writer replaced."""
    lines = ["re_z,im_z,re_val,im_val,route,err\n"]
    for s in samples:
        lines.append(
            f"{s.z.real!r},{s.z.imag!r},{s.value.real!r},"
            f"{s.value.imag!r},{s.route},{s.error_estimate!r}\n"
        )
    return "".join(lines)


class TestGridJsonBytes:
    EDGE_SAMPLES = [
        BerezinSample(complex(-0.0, 5e-324), complex(1e300, -0.0), "integral", 5e-324),
        BerezinSample(complex(0.1, -0.0), complex(1e16, 0.1), "matrix", 1e16),
        BerezinSample(0j, complex(-1e-300, 2.5), "harmonic_closed_form", 0.0),
        BerezinSample(complex(0.3, 0.4), complex(1 / 3, -2 / 3), "integral", 1e300),
    ]

    @pytest.mark.parametrize(
        "samples",
        [EDGE_SAMPLES, EDGE_SAMPLES[1:2], []],
        ids=["edge-values", "one-row", "empty"],
    )
    def test_equals_json_dump(self, tmp_path, samples):
        path = tmp_path / "grid.json"
        write_grid(samples, tmp_path / "grid.csv", path)
        assert path.read_text() == json_dump_oracle(samples)

    @pytest.mark.parametrize(
        "samples",
        [EDGE_SAMPLES, EDGE_SAMPLES[1:2], []],
        ids=["edge-values", "one-row", "empty"],
    )
    def test_one_call_writes_both_files_as_their_oracles(self, tmp_path, samples):
        write_grid(samples, tmp_path / "grid.csv", tmp_path / "grid.json")
        assert (tmp_path / "grid.csv").read_text() == csv_loop_oracle(samples)
        assert (tmp_path / "grid.json").read_text() == json_dump_oracle(samples)

    @pytest.mark.parametrize("route", ["integral", "matrix", "harmonic_closed_form"])
    def test_sweeps_equal_json_dump(self, tmp_path, route):
        phi = HarmonicSymbol(1.0, 0.5, PrincipalPowerSymbol(1.0, -1.0))
        grid = DiscGrid((0.0, 0.5), 4)
        samples = {
            "integral": lambda: berezin_grid(phi, grid, SMALL),
            "matrix": lambda: berezin_matrix(toeplitz_harmonic(phi, 64), grid.nodes()),
            "harmonic_closed_form": lambda: berezin_harmonic(phi, grid.nodes()),
        }[route]()
        path = tmp_path / "grid.json"
        write_grid(samples, tmp_path / "grid.csv", path)
        assert path.read_text() == json_dump_oracle(samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_before_the_file_is_opened(self, tmp_path, bad):
        # the sample is refused where it is built, so no writer ever meets one
        path = tmp_path / "missing-dir" / "grid.json"  # opening it would raise FileNotFoundError
        with pytest.raises(NumericalError, match=r"non-finite \|value\| \S+ at z = 0\.5j"):
            write_grid(
                [self.EDGE_SAMPLES[0], BerezinSample(0.5j, complex(1.0, bad), "integral", 0.0)],
                path.with_suffix(".csv"),
                path,
            )
        assert not path.parent.exists()
