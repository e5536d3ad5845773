"""Truncated Toeplitz matrices: builders, identities, exports."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from berglab import PowerSeries, QuadratureSpec
from berglab.errors import NumericalError
from berglab.symbols import (
    HarmonicSymbol,
    polynomial_symbol,
    power_symbol,
    rational_symbol,
)
from berglab.lapack import _gram_band
from berglab.toeplitz import (
    TruncatedOperator,
    check_size,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    toeplitz_analytic,
    toeplitz_harmonic,
    toeplitz_quadrature,
)
from berglab.toeplitz import _analytic_matrix

QUAD_TOL = 1e-10
MACHINE = 1e-12

HALF = np.sqrt(0.5)


class TestAnalyticBuilder:
    def test_constant_is_identity(self):
        np.testing.assert_array_equal(toeplitz_analytic([1.0], 4).matrix, np.eye(4))

    def test_shift_entries(self):
        m = toeplitz_analytic([0.0, 1.0], 3).matrix
        expected = np.array(
            [[0, 0, 0], [np.sqrt(1 / 2), 0, 0], [0, np.sqrt(2 / 3), 0]]
        )
        np.testing.assert_allclose(m, expected, atol=MACHINE)

    def test_square_shift_entries(self):
        m = toeplitz_analytic([0.0, 0.0, 1.0], 4).matrix
        nz = {(2, 0): np.sqrt(1 / 3), (3, 1): np.sqrt(2 / 4)}
        for i in range(4):
            for j in range(4):
                assert m[i, j] == pytest.approx(nz.get((i, j), 0.0), abs=MACHINE)

    def test_matches_quadrature_oracle(self):
        a = toeplitz_analytic([0.0, 1.0], 5)
        q = toeplitz_quadrature(lambda w: w, 5)
        assert np.max(np.abs(a.matrix - q.matrix)) < QUAD_TOL

    def test_nesting_exact(self):
        g = PowerSeries([1.0, -0.5, 0.25j])
        small = toeplitz_analytic(g, 6).matrix
        large = toeplitz_analytic(g, 10).matrix
        np.testing.assert_array_equal(small, large[:6, :6])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            toeplitz_analytic([1.0], 0)

    @pytest.mark.parametrize("n", [1, 2, 8, 257])
    @pytest.mark.parametrize("kind", ["real", "complex", "signed zeros"])
    @pytest.mark.parametrize("length", ["short", "n", "long"])
    def test_vectorized_fill_matches_diagonal_loop(self, n, kind, length):
        rng = np.random.default_rng(n)
        k = {"short": max(1, n // 3), "n": n, "long": n + 5}[length]
        coeffs = rng.normal(size=k).astype(complex)
        if kind == "complex":
            coeffs += 1j * rng.normal(size=k)
        if kind == "signed zeros":
            zeros = [-0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
            coeffs[::2] = [zeros[i % 3] for i in range(len(coeffs[::2]))]
        expected = _diagonal_loop(coeffs, n)
        assert np.array_equal(_analytic_matrix(coeffs, n).view(float), expected.view(float))
        for c, d in [(1.0, 0.5), (-0.0, 0.0), (1.0 + 0.5j, 0.25 - 0.75j)]:
            got = _analytic_matrix(coeffs, n, (c, d))
            assert np.array_equal(got.view(float), (c * expected + d * expected.conj().T).view(float))

    @pytest.mark.parametrize(
        "n", [4.5, 4.0, np.float64(4.0)], ids=["4.5", "float 4.0", "numpy 4.0"]
    )
    def test_size_must_be_an_integer(self, n):
        # refused before numpy sees it, as QuadratureSpec refuses its node counts
        with pytest.raises(TypeError):
            check_size(n)
        assert check_size(np.int64(4)) == 4

    @pytest.mark.parametrize(
        "g", [polynomial_symbol([2.0, 1.0]), rational_symbol([1.0, 0.5], [2.0, -0.5])],
        ids=["polynomial", "rational"],
    )
    def test_huge_size_refused_before_the_series(self, g):
        # the output is allocated first: no 10^7-term series, padded or looped
        n = 10**7
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(MemoryError):
                toeplitz_harmonic(HarmonicSymbol(1.0, 0.5, g), n)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy reports even the refused request to tracemalloc
        refused = 16 * n * n
        assert elapsed < 1.0
        assert (peak - refused if peak >= refused else peak) < 2**20


class TestHarmonicBuilder:
    def test_small_mixed_example(self):
        phi = HarmonicSymbol(1.0, 2.0, polynomial_symbol([0.0, 1.0]))
        m = toeplitz_harmonic(phi, 2).matrix
        np.testing.assert_allclose(m, [[0, 2 * HALF], [HALF, 0]], atol=MACHINE)

    def test_real_symbol_is_hermitian(self):
        phi = HarmonicSymbol(1.0, 1.0, polynomial_symbol([2.0, 1.0, 0.5]))
        m = toeplitz_harmonic(phi, 8).matrix
        np.testing.assert_allclose(m, m.conj().T, atol=MACHINE)

    def test_pure_coanalytic_is_adjoint(self):
        a = toeplitz_analytic([0.0, 1.0], 5).matrix
        phi = HarmonicSymbol(0.0, 1.0, polynomial_symbol([0.0, 1.0]))
        np.testing.assert_allclose(
            toeplitz_harmonic(phi, 5).matrix, a.conj().T, atol=MACHINE
        )

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(23)
        g = polynomial_symbol([0.3, 1.0, -0.2j])
        for _ in range(10):
            c1, d1, c2, d2 = rng.normal(size=4) + 1j * rng.normal(size=4)
            lhs = toeplitz_harmonic(HarmonicSymbol(c1 + c2, d1 + d2, g), 7).matrix
            rhs = (
                toeplitz_harmonic(HarmonicSymbol(c1, d1, g), 7).matrix
                + toeplitz_harmonic(HarmonicSymbol(c2, d2, g), 7).matrix
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_quadrature_oracle(self):
        phi = HarmonicSymbol(1.0 + 0.5j, 0.75, polynomial_symbol([0.5, 1.0, 0.25]))
        closed = toeplitz_harmonic(phi, 6)
        quad = toeplitz_quadrature(phi, 6, tag="oracle")
        assert np.max(np.abs(closed.matrix - quad.matrix)) < QUAD_TOL

    def test_power_symbol_series_route(self):
        # boundary oscillation makes the quadrature converge only
        # algebraically; check it converges to the closed form
        phi = HarmonicSymbol(1.0, 0.0, power_symbol(1.0))
        closed = toeplitz_harmonic(phi, 6).matrix
        errs = [
            np.max(np.abs(closed - toeplitz_quadrature(phi, 6, spec).matrix))
            for spec in (QuadratureSpec(96, 192), QuadratureSpec(512, 1024))
        ]
        assert errs[1] < errs[0] / 4
        assert errs[1] < 1e-4

    @pytest.mark.parametrize(
        "c, d",
        [(1.0, 0.5), (-2.0, 0.0), (1.0 + 0.5j, 0.25 - 0.75j), (0.0, 1j / 3)],
    )
    def test_in_place_build_is_bit_identical(self, c, d):
        for g in (
            polynomial_symbol([2.0, 1.0, 0.3]),
            rational_symbol([1.0, 0.5j], [2.0, -0.5]),
        ):
            phi = HarmonicSymbol(c, d, g)
            a = toeplitz_analytic(g.series(47), 48).matrix
            expected = phi.c * a + phi.d * a.conj().T
            got = toeplitz_harmonic(phi, 48).matrix
            assert np.array_equal(got.view(float), expected.view(float))


class TestGramBand:
    """The closed-form Gram diagonals against the dense product L_a^* L_b."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize(
        "a, b",
        [
            ([1.0], [2.0, 1.0, 0.3]),
            ([2.0, -0.5], [1.0, 0.5]),
            ([1.0, 0.3 - 0.4j, 0.2j], [1.0, 0.5j]),
            (np.arange(1.0, 10.0), [0.5, -1.0]),  # deg a >= N for the small sizes
        ],
        ids=["polynomial", "workload", "complex", "long"],
    )
    def test_matches_dense_product(self, a, b, n):
        a, b = np.asarray(a, complex)[:n], np.asarray(b, complex)[:n]
        w = max(len(a), len(b)) - 1
        dense = _analytic_matrix(a, n).conj().T @ _analytic_matrix(b, n)
        band = _gram_band(a, b, n, w)
        for s in range(-w, w + 1):
            diag = np.diagonal(dense, s) if abs(s) < n else np.zeros(0)
            got = band[w + s, max(0, -s) : max(0, -s) + len(diag)]
            np.testing.assert_allclose(got, diag, rtol=0, atol=1e-14)
            # the rest of the row lies outside G and stays zero
            assert np.count_nonzero(band[w + s]) <= len(diag)


def _diagonal_loop(coeffs, n):
    """The per-diagonal fancy-index fill the vectorized builder replaced."""
    out = np.zeros((n, n), dtype=np.complex128)
    for k in range(min(len(coeffs), n)):
        idx = np.arange(n - k)
        out[idx + k, idx] = coeffs[k] * np.sqrt((idx + 1.0) / (idx + k + 1.0))
    return out


class TestQuadratureBuilder:
    def test_constant_identity(self):
        q = toeplitz_quadrature(lambda w: np.ones_like(w), 4)
        assert np.max(np.abs(q.matrix - np.eye(4))) < 1e-12

    def test_radial_symbol_diagonal(self):
        q = toeplitz_quadrature(lambda w: np.abs(w) ** 2, 3)
        np.testing.assert_allclose(
            np.diag(q.matrix).real, [1 / 2, 2 / 3, 3 / 4], atol=1e-12
        )
        off = q.matrix - np.diag(np.diag(q.matrix))
        assert np.max(np.abs(off)) < 1e-12

    def test_adjoint_compatibility_random_polys(self):
        # conj-transpose of the analytic truncation equals the
        # quadrature build of the conjugated symbol
        rng = np.random.default_rng(31)
        for _ in range(10):
            deg = int(rng.integers(0, 5))
            coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            p = PowerSeries(coeffs)
            a = toeplitz_analytic(p, 6)
            q = toeplitz_quadrature(lambda w: np.conj(p(w)), 6)
            assert np.max(np.abs(a.matrix.conj().T - q.matrix)) < 1e-9

    @pytest.mark.parametrize("n", [8, 32])
    def test_gemm_matches_einsum_expression(self, n):
        # the scaled GEMM against the three-operand einsum it replaced
        phi = HarmonicSymbol(1.0, 0.5, polynomial_symbol([2.0, 1.0, 0.3]))
        spec = QuadratureSpec(32, 64)
        z, w = spec.points()
        powers = z[None, :] ** np.arange(n)[:, None]
        basis = np.sqrt(np.arange(1.0, n + 1.0))[:, None] * powers
        expected = np.einsum("mp,p,np->mn", basis.conj(), w * phi(z), basis)
        got = toeplitz_quadrature(phi, n, spec).matrix
        assert np.max(np.abs(got - expected)) < 1e-13


class TestHyponormalityWindow:
    @pytest.mark.parametrize(
        "coeffs", [[0.0, 1.0], [2.0, 1.0], [0.0, 0.5, 1.0]], ids=["z", "2+z", "z2+z/2"]
    )
    def test_window_inequality(self, coeffs):
        n = 16
        d = len(coeffs) - 1
        a = toeplitz_analytic(coeffs, n).matrix
        rng = np.random.default_rng(41)
        for _ in range(500):
            f = np.zeros(n, dtype=complex)
            f[: n - d] = rng.normal(size=n - d) + 1j * rng.normal(size=n - d)
            lhs = np.linalg.norm(a @ f)
            rhs = np.linalg.norm(a.conj().T @ f)
            assert lhs >= rhs - 1e-12 * np.linalg.norm(f)


class TestTruncatedOperator:
    def test_immutable_matrix(self):
        op = toeplitz_analytic([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            TruncatedOperator(np.zeros((2, 3)), "x", "closed_form")

    def test_rejects_unknown_builder(self):
        with pytest.raises(ValueError, match="builder"):
            TruncatedOperator(np.eye(2), "x", "magic")

    def test_caller_array_is_copied_and_frozen(self):
        m = np.eye(3, dtype=np.complex128)
        op = TruncatedOperator(m, "x", "closed_form")
        m[0, 0] = 5.0
        assert op.matrix[0, 0] == 1.0
        assert m.flags.writeable and not op.matrix.flags.writeable

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: toeplitz_analytic(PowerSeries([2.0, 1.0, 0.3]), n),
            lambda n: toeplitz_harmonic(
                HarmonicSymbol(1.0, 0.25, rational_symbol([1.0, 0.5j], [2.0, -0.5])), n
            ),
            lambda n: toeplitz_quadrature(
                HarmonicSymbol(1.0, 0.5, polynomial_symbol([2.0, 1.0])), n, QuadratureSpec(4, 8)
            ),
        ],
        ids=["analytic", "harmonic", "quadrature"],
    )
    def test_builders_peak_near_their_result(self, build):
        # the builders hand their fresh array over; a copy would double the peak
        build(16)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            op = build(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * op.matrix.nbytes

    def test_norm_proxy_computed_once(self):
        op = toeplitz_harmonic(HarmonicSymbol(1.0, 0.5, polynomial_symbol([2.0, 1.0])), 16)
        m = op.matrix
        assert op.norm_proxy == float(
            np.sqrt(np.linalg.norm(m, 1) * np.linalg.norm(m, np.inf))
        )
        assert "norm_proxy" in vars(op)  # cached on the instance


def _json_oracle(op, path):
    """The element-wise encoder the streaming writer replaced."""
    payload = {
        "N": op.n,
        "symbol_tag": op.symbol_tag,
        "builder": op.builder,
        "data": [[[float(v.real), float(v.imag)] for v in row] for row in op.matrix],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _csv_oracle(op, path):
    with open(path, "w") as fh:
        for row in op.matrix:
            cells = []
            for v in row:
                cells.append(repr(float(v.real)))
                cells.append(repr(float(v.imag)))
            fh.write(",".join(cells) + "\n")


EXPORT_TAG = 'quote " and \u00e9t\u00e9'
REAL_SPECIALS = [-0.0, 5e-324, 1e300, 1e16, 0.1]
COMPLEX_SPECIALS = [complex(-0.0, 5e-324), 0.1 - 1e16j, complex(1e300, -0.0)] + REAL_SPECIALS


def _export_cases():
    rng = np.random.default_rng(5)
    for n in (1, 2, 8):
        real = rng.normal(size=(n, n)).astype(np.complex128)
        cplx = real + 1j * rng.normal(size=(n, n))
        cases = (("real", real, REAL_SPECIALS), ("complex", cplx, COMPLEX_SPECIALS))
        for kind, m, specials in cases:
            k = min(len(specials), n * n)
            m.flat[:k] = specials[:k]
            yield pytest.param(m, id=f"n{n}-{kind}")
    # zero-rich inputs of the writers' fast path for +0.0, whose bit pattern is all zeros
    for c, kind in ((1.0, "real"), (1.0 - 0.5j, "complex")):
        band = toeplitz_harmonic(HarmonicSymbol(c, 0.5, polynomial_symbol([2.0, 1.0, 0.3])), 12)
        yield pytest.param(band.matrix, id=f"banded-{kind}")
    sparse = np.zeros((6, 6), dtype=np.complex128)
    sparse[1] = rng.normal(size=6) + 1j * rng.normal(size=6)  # a row with no zero
    sparse[2, 1:4] = [-0.0, 5e-324, complex(0.0, -0.0)]  # row 0 stays all zero
    sparse[3, 0] = sparse[3, 5] = complex(5e-324, -5e-324)
    sparse[4, 2] = complex(-0.0, 1e300)
    yield pytest.param(sparse, id="zero-rich")
    for z, kind in ((0.0, "zero"), (complex(-0.0, 0.0), "negzero"), (5e-324j, "subnormal")):
        yield pytest.param(np.full((1, 1), z), id=f"n1-{kind}")


class TestExports:
    def test_json_roundtrip_bit_exact(self, tmp_path):
        phi = HarmonicSymbol(1.0 + 1j / 3, 0.5j, power_symbol(1.0))
        op = toeplitz_harmonic(phi, 8)
        path = tmp_path / "m.json"
        matrix_to_json(op, path)
        back = matrix_from_json(path)
        np.testing.assert_array_equal(back.matrix, op.matrix)
        assert back.symbol_tag == op.symbol_tag
        assert back.builder == op.builder

    def test_csv_shape_and_values(self, tmp_path):
        op = toeplitz_analytic([1.0, 0.5], 3)
        path = tmp_path / "m.csv"
        matrix_to_csv(op, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 3
        first = [float(x) for x in rows[1].split(",")]
        assert len(first) == 6
        assert first[0] == 0.5 * np.sqrt(1 / 2)  # re of entry (1,0)
        assert first[1] == 0.0

    # the row-streaming writers against the element-wise encoders, byte for byte
    @pytest.mark.parametrize("matrix", _export_cases())
    @pytest.mark.parametrize(
        "writer, oracle", [(matrix_to_json, _json_oracle), (matrix_to_csv, _csv_oracle)]
    )
    def test_bytes_match_oracle(self, tmp_path, matrix, writer, oracle):
        for builder in ("closed_form", "quadrature"):
            op = TruncatedOperator(matrix, EXPORT_TAG, builder)
            writer(op, tmp_path / "new")
            oracle(op, tmp_path / "old")
            assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("matrix", _export_cases())
    def test_json_roundtrip_special_entries(self, tmp_path, matrix):
        op = TruncatedOperator(matrix, EXPORT_TAG, "closed_form")
        matrix_to_json(op, tmp_path / "m.json")
        back = matrix_from_json(tmp_path / "m.json")
        assert np.array_equal(back.matrix.view(float), op.matrix.view(float))
        assert back.symbol_tag == EXPORT_TAG

    @pytest.mark.parametrize(
        "data",
        [
            [[[1.0, 0.0]], [[2.0, 0.0]]],  # too short: loaded with uninitialized padding
            [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 2 + [[[1.0, 0.0]]],  # ragged
            [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]] * 3,  # rows too long: IndexError
            [[[1.0, 0.0, 0.0]] * 3] * 3,  # a triple where a pair belongs
        ],
        ids=["short", "ragged", "long", "triples"],
    )
    def test_json_wrong_data_shape_refused(self, tmp_path, data):
        path = tmp_path / "m.json"
        payload = {"N": 3, "symbol_tag": "x", "builder": "closed_form", "data": data}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            matrix_from_json(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("writer", [matrix_to_json, matrix_to_csv])
    def test_non_finite_refused_without_a_file(self, tmp_path, bad, writer):
        m = np.eye(3, dtype=np.complex128)
        m[2, 1] = bad
        path = tmp_path / "m.out"
        with pytest.raises(NumericalError, match="non-finite"):
            writer(TruncatedOperator(m, "x", "closed_form"), path)
        assert not path.exists()
