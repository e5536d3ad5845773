import ctypes
import functools
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from berglab import analysis, lapack
from berglab.analysis import (
    DRIFT_THRESHOLD,
    InvertibilityReport,
    adjoint_mix,
    bounded_below_trend,
    check_schedule,
    check_shift_window,
    invertibility_verdict,
    mix_bound_check,
    mix_sandwich_check,
    mix_transfer_check,
    normality_defect,
    power_symbol_study,
    random_normal_matrix,
    shift_window_demo,
    smallest_singular_value,
)
from berglab.errors import NumericalError
from berglab.symbols import (
    _MINUS_I_POWERS,
    HarmonicSymbol,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
    power_symbol,
)
from berglab.toeplitz import (
    _analytic_matrix,
    toeplitz_analytic,
    toeplitz_harmonic,
)
from test_gallery import GALLERY

EXACT = 1e-14

SHIFT = HarmonicSymbol(1.0, 0.0, PolynomialSymbol([0.0, 1.0]))
TWO_PLUS_Z = PolynomialSymbol([2.0, 1.0])


class TestSmallestSingularValue:
    def test_identity(self):
        assert smallest_singular_value(np.eye(5, dtype=complex)) == 1.0

    def test_diagonal(self):
        assert smallest_singular_value(np.diag([1.0, 2.0, 0.25]).astype(complex)) == pytest.approx(0.25, abs=EXACT)

    def test_shift_truncation_is_singular(self):
        # first row of the truncated shift vanishes, so rank is n - 1
        op = toeplitz_analytic([0.0, 1.0], 12)
        assert smallest_singular_value(op) <= EXACT
        svals = np.linalg.svd(op.matrix, compute_uv=False)
        assert np.sum(svals > 1e-12) == 11

    def test_accepts_operator_and_matrix(self):
        op = toeplitz_analytic([1.0, 0.5], 6)
        assert smallest_singular_value(op) == smallest_singular_value(op.matrix)

    def test_adjoint_has_same_sigma_min(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            a = smallest_singular_value(m)
            b = smallest_singular_value(m.conj().T)
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((3, 4)))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_refuses_non_finite(self, bad, dtype):
        # an inf entry gives sigma_min = nan; a NaN entry stops the real SVD from
        # converging and gives nan from the complex one
        with pytest.raises(NumericalError, match="non-finite"), np.errstate(invalid="ignore"):
            smallest_singular_value(np.diag([bad, 1.0]).astype(dtype))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_tall_windows_match_the_svd(self, dtype):
        # a window of a section's columns: sigma_min is inf ||M x|| / ||x|| over it
        rng = np.random.default_rng(5)
        m = rng.normal(size=(9, 9)).astype(dtype)
        if dtype is complex:
            m += 1j * rng.normal(size=(9, 9))
        for k in (1, 5, 8, 9):
            window = m[:, :k]
            assert smallest_singular_value(window) == np.linalg.svd(window, compute_uv=False)[-1]

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_tall_window_refuses_non_finite(self, bad, dtype):
        window = np.eye(3, 2, dtype=dtype)
        window[2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"), np.errstate(invalid="ignore"):
            smallest_singular_value(window)

    def test_rejects_an_empty_window(self):
        with pytest.raises(ValueError):
            smallest_singular_value(np.zeros((3, 0)))


class TestNormalityDefect:
    @pytest.mark.parametrize("shape", [(3, 2), (3, 1)])
    @pytest.mark.parametrize("run", [normality_defect, lambda t: adjoint_mix(t, 2.0)],
                             ids=["normality_defect", "adjoint_mix"])
    def test_rejects_tall_matrices(self, run, shape):
        # smallest_singular_value takes windows; these need T square, and a (3, 1)
        # column would broadcast against its (1, 3) adjoint
        with pytest.raises(ValueError, match="square"):
            run(np.ones(shape))

    def test_hermitian_is_normal(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        h = z + z.conj().T
        assert normality_defect(h) <= 1e-12

    def test_shift_truncation_defect_matches_diagonal_oracle(self):
        # the commutator of the truncated Bergman shift is diagonal:
        # entries 1/((n+1)(n+2)) for n < N - 1 and -(N-1)/N at the corner
        n = 8
        op = toeplitz_analytic([0.0, 1.0], n)
        diag = [1.0 / ((k + 1) * (k + 2)) for k in range(n - 1)] + [-(n - 1) / n]
        expected = float(np.linalg.norm(diag))
        assert normality_defect(op) == pytest.approx(expected, abs=EXACT)
        assert expected == pytest.approx(1.0270560375697082, abs=EXACT)

    def test_unimodular_mix_of_anything_is_normal(self):
        # s A + A^* has commutator (|s|^2 - 1)(A^*A - AA^*): zero on the circle
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            scale = float(np.linalg.norm(a)) ** 2
            for _ in range(20):
                s = np.exp(2j * np.pi * rng.uniform())
                assert normality_defect(adjoint_mix(a, s)) <= 1e-12 * scale

    def test_mix_commutator_identity(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        for s in (0.5, 2.0, 1.5j, 0.3 - 0.4j):
            m = adjoint_mix(a, s)
            lhs = m.conj().T @ m - m @ m.conj().T
            rhs = (abs(s) ** 2 - 1.0) * (a.conj().T @ a - a @ a.conj().T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.linalg.norm(a) ** 2


def complex_svd(m):
    """Singular values by the complex LAPACK route, whatever the entries."""
    return np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)


#: real truncations: c, d and the Taylor coefficients of g real
REAL_SYMBOLS = {
    "rational": HarmonicSymbol(1.0, 0.25, RationalSymbol([1.0, 0.5], [2.0, -0.5])),
    "polynomial": HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0, 0.3])),
    "wide band": HarmonicSymbol(
        1.0, 0.5, PolynomialSymbol(np.random.default_rng(41).normal(size=41))
    ),
}


class TestRealRoute:
    """Real matrices go through real LAPACK, checked against the complex route."""

    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("case", sorted(REAL_SYMBOLS))
    def test_matches_complex_route(self, case, n):
        m = toeplitz_harmonic(REAL_SYMBOLS[case], n).matrix
        assert not m.imag.any()
        svals = complex_svd(m)
        assert abs(smallest_singular_value(m) - svals[-1]) <= 1e-15 * svals[0]
        commutator = m.conj().T @ m - m @ m.conj().T
        assert abs(normality_defect(m) - np.linalg.norm(commutator)) <= 1e-14 * svals[0] ** 2
        # a float64 array is taken as it is, and gives its complex128 copy's bits
        real = np.ascontiguousarray(m.real)
        assert np.shares_memory(analysis._as_matrix(real), real)
        assert smallest_singular_value(real) == smallest_singular_value(m)
        assert normality_defect(real) == normality_defect(m)

    def test_wide_band_trend_matches_complex_route(self):
        phi = REAL_SYMBOLS["wide band"]
        sizes = (8, 64, 512)  # too wide for the banded route at every size
        for n, s in zip(sizes, bounded_below_trend(phi, sizes).sigma_min):
            svals = complex_svd(toeplitz_harmonic(phi, n).matrix)
            assert abs(s - svals[-1]) <= 1e-15 * svals[0]

    def test_shift_window_matches_complex_route(self):
        n, s = 64, 2.0
        demo = shift_window_demo(n, s)
        a = toeplitz_analytic([0.0, 1.0], n).matrix
        windows = (a.conj().T[:, : n - 1], (s * a + a.conj().T)[:, : n - 1])
        for got, window in zip((demo.window_ratio_adjoint, demo.window_ratio_mix), windows):
            svals = complex_svd(window)
            assert abs(got - svals[-1]) <= 1e-15 * svals[0]

    def test_route_follows_the_imaginary_part(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def recorded(m, **kwargs):
            seen.append(m.dtype)
            return svd(m, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        m = toeplitz_harmonic(REAL_SYMBOLS["rational"], 8).matrix.copy()
        smallest_singular_value(m)
        m[3, 1] += 1e-300j
        smallest_singular_value(m)
        assert seen == [np.float64, np.complex128]


class TestRotatedRoute:
    """Power symbols' truncations D^* T D, D = diag(i^m), are real; the trend's SVD
    of them is checked against the complex SVD of T itself."""

    @pytest.mark.parametrize("cd", [(1.0, 0.0), (1.0, 0.4)])
    @pytest.mark.parametrize("t", [1.0, -0.5, 3.0])
    def test_matches_complex_svd(self, t, cd):
        phi = HarmonicSymbol(*cd, power_symbol(t))
        sizes = (8, 64, 512)
        for n, s in zip(sizes, bounded_below_trend(phi, sizes).sigma_min):
            svals = complex_svd(toeplitz_harmonic(phi, n).matrix)
            assert abs(s - svals[-1]) <= 1e-15 * svals[0]

    @staticmethod
    def _svd_inputs(monkeypatch, phi, sizes):
        """The matrices the trend hands to the dense SVD, copied before the band route
        could reduce them in place."""
        seen = []
        dense = analysis._sigma_min

        def recorded(m, owned):
            seen.append(m.copy())
            return dense(m, owned)

        monkeypatch.setattr(analysis, "_sigma_min", recorded)
        bounded_below_trend(phi, sizes)
        return seen

    @pytest.mark.parametrize("cd", [(1.0, 0.0), (1.0, 0.4), (-2.0, 0.5)])
    def test_power_symbol_takes_the_real_svd(self, monkeypatch, cd):
        # numpy's (-1j) ** k first misses the exact phase at k = 100
        sizes = (8, 64, 256)
        seen = self._svd_inputs(monkeypatch, HarmonicSymbol(*cd, power_symbol(1.0)), sizes)
        assert [m.shape[0] for m in seen] == list(sizes)
        assert not any(m.imag.any() for m in seen)

    @pytest.mark.parametrize(
        "phi",
        [
            HarmonicSymbol(1.0 + 0.5j, 0.4, power_symbol(1.0)),
            HarmonicSymbol(1.0, 0.0, PrincipalPowerSymbol(0.7, -0.3)),
            # real Taylor coefficients: real already, and not rotated
            HarmonicSymbol(1.0, 0.25, RationalSymbol([1.0, 0.5], [2.0, -0.5])),
        ],
        ids=["complex c", "other exponents", "real rational"],
    )
    def test_other_symbols_keep_their_matrix(self, monkeypatch, phi):
        sizes = (8, 16, 32)
        seen = self._svd_inputs(monkeypatch, phi, sizes)
        assert len(seen) == len(sizes)
        monkeypatch.undo()
        for n, m in zip(sizes, seen):
            # T itself up to the exact power of two of the trend's scaling, which
            # leaves the SVD's bits unchanged
            t = toeplitz_harmonic(phi, n).matrix
            scale = t[0, 0].real / m[0, 0].real
            assert scale == 2.0 ** round(np.log2(scale))
            np.testing.assert_array_equal(m * scale, t)
            assert analysis._trend_sigma_min(phi, n) == smallest_singular_value(t)


class TestBoundedBelowTrend:
    def test_constant_symbol_is_flat(self):
        phi = HarmonicSymbol(3.0, 0.0, PolynomialSymbol([1.0]))
        trend = bounded_below_trend(phi, (4, 8, 16))
        assert trend.sigma_min == (3.0, 3.0, 3.0)
        assert trend.stabilized
        assert trend.drift == 0.0

    def test_nonvanishing_analytic_stabilizes_above_inf(self):
        phi = HarmonicSymbol(1.0, 0.0, TWO_PLUS_Z)
        trend = bounded_below_trend(phi)
        assert trend.stabilized
        assert trend.drift < DRIFT_THRESHOLD
        # floor approaches inf|2 + z| = 1 from above
        assert 1.0 < trend.sigma_min[-1] < 1.01
        assert all(b < a for a, b in zip(trend.sigma_min, trend.sigma_min[1:]))

    def test_vanishing_symbol_collapses(self):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([0.0, 1.0]))
        trend = bounded_below_trend(phi)
        assert not trend.stabilized
        assert trend.sigma_min[-1] <= 1e-12
        # geometric collapse is monotone until it hits the fp floor
        above = [s for s in trend.sigma_min if s > 1e-12]
        assert all(b < a for a, b in zip(above, above[1:]))

    def test_schedule_validation(self):
        phi = HarmonicSymbol(1.0, 0.0, TWO_PLUS_Z)
        with pytest.raises(ValueError):
            bounded_below_trend(phi, (16, 32))
        with pytest.raises(ValueError):
            bounded_below_trend(phi, (16, 16, 32))
        with pytest.raises(ValueError):
            bounded_below_trend(phi, (32, 16, 64))
        with pytest.raises(ValueError, match="at least 1"):
            bounded_below_trend(phi, (0, 16, 32))

    @pytest.mark.parametrize(
        "sizes",
        [(16.7, 32.2, 64.9), (16.0, 32.0, 64.0), (np.float64(16.0), 32, 64)],
        ids=["fractions", "floats", "numpy float"],
    )
    def test_schedule_refuses_non_integers(self, sizes):
        # int() would floor 16.7 to 16
        with pytest.raises(TypeError):
            check_schedule(sizes)
        assert check_schedule(np.array([16, 32, 64])) == (16, 32, 64)

    def test_report_dict_keys(self):
        phi = HarmonicSymbol(1.0, 0.0, TWO_PLUS_Z)
        d = asdict(bounded_below_trend(phi, (8, 16, 32)))
        assert set(d) == {
            "sizes",
            "sigma_min",
            "stabilized",
            "drift",
            "drift_threshold",
            "stabilization_rule",
        }


class TestMixBoundCheck:
    def test_diagonal_example(self):
        check = mix_bound_check(np.diag([1.0, 2.0]).astype(complex), 0.5)
        assert check.sigma_t == pytest.approx(1.0, abs=EXACT)
        assert check.sigma_mix == pytest.approx(1.5, abs=EXACT)
        assert check.lower_bound == pytest.approx(0.5, abs=EXACT)
        assert check.equivalence_holds
        assert check.bound_holds
        assert check.passed
        assert check.margin == pytest.approx(1.0, abs=EXACT)

    def test_singular_diagonal(self):
        check = mix_bound_check(np.diag([1.0, 0.0]).astype(complex), 0.5)
        assert check.sigma_t == 0.0
        assert check.sigma_mix <= 1e-12
        assert check.equivalence_holds
        assert check.bound_holds is None
        assert check.passed  # the floor applies only when T is invertible

    def test_rejects_s_on_or_outside_circle(self):
        m = np.eye(3, dtype=complex)
        for s in (1.0, -1.0, 1j, 2.0):
            with pytest.raises(ValueError, match=r"\|s\| < 1"):
                mix_bound_check(m, s)

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError, match="not normal"):
            mix_bound_check(toeplitz_analytic([0.0, 1.0], 8).matrix, 0.5)

    def test_random_normal_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(4, 16))
            t = random_normal_matrix(rng, n)
            s = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            check = mix_bound_check(t, s)
            assert check.equivalence_holds
            assert check.bound_holds


class TestMixSandwichCheck:
    def test_diagonal_example_hits_lower_bound(self):
        # for T = diag(1, 2i) and s = 2 the second basis vector is extremal:
        # (2T + T^*) e_1 = (4i - 2i) e_1, ratio exactly |s| - 1 = 1
        t = np.diag([1.0, 2.0j])
        mix = adjoint_mix(t, 2.0)
        e1 = np.array([0.0, 1.0])
        ratio = np.linalg.norm(mix @ e1) / np.linalg.norm(t @ e1)
        assert ratio == 1.0
        check = mix_sandwich_check(t, 2.0, trials=500, rng=7)
        assert check.within_bounds
        assert check.equivalence_holds
        assert check.lower == 1.0
        assert check.upper == 3.0
        assert 1.0 <= check.ratio_min <= check.ratio_max <= 3.0
        assert check.passed
        assert check.margin == min(check.ratio_min - 1.0, 3.0 - check.ratio_max)

    def test_identity_ratio_is_constant(self):
        check = mix_sandwich_check(np.eye(4, dtype=complex), 3.0, trials=50, rng=1)
        assert check.ratio_min == pytest.approx(4.0, abs=1e-12)
        assert check.ratio_max == pytest.approx(4.0, abs=1e-12)

    def test_rejects_s_on_or_inside_circle(self):
        m = np.eye(3, dtype=complex)
        for s in (0.5, 1.0, -1j):
            with pytest.raises(ValueError, match=r"\|s\| > 1"):
                mix_sandwich_check(m, s)

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError, match="not normal"):
            mix_sandwich_check(toeplitz_analytic([0.0, 1.0], 8).matrix, 2.0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_at_least_one(self, trials):
        # else numpy fails on them with reduction and shape errors that name no argument
        with pytest.raises(ValueError, match="trials must be at least 1"):
            mix_sandwich_check(np.eye(3), 2.0, trials=trials, rng=0)
        with pytest.raises(TypeError):
            mix_sandwich_check(np.eye(3), 2.0, trials=2.0, rng=0)
        assert mix_sandwich_check(np.eye(3), 2.0, trials=np.int64(1), rng=0).trials == 1

    def test_sample_inside_the_kernel_is_refused(self):
        # T = 0 is normal, and every sampled h lies in its kernel: no ratio exists
        with pytest.raises(ValueError, match="annihilates all 20 sampled vectors"):
            mix_sandwich_check(np.zeros((3, 3)), 2.0, trials=20, rng=0)

    def test_random_normal_sweep(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            t = random_normal_matrix(rng, n)
            check = mix_sandwich_check(t, 1.5, trials=200, rng=rng)
            assert check.within_bounds
            assert check.equivalence_holds


class TestMixTransferCheck:
    def test_invertible_diagonal(self):
        check = mix_transfer_check(np.diag([1.0, -1.0]).astype(complex), 2.0)
        assert check.t_invertible and check.mix_invertible and check.transfer_holds
        assert check.sigma_mix == pytest.approx(3.0, abs=EXACT)
        assert check.passed
        assert check.margin == pytest.approx(1.0, abs=EXACT)

    def test_singular_diagonal(self):
        check = mix_transfer_check(np.diag([1.0, 0.0]).astype(complex), 2.0)
        assert not check.t_invertible and not check.mix_invertible
        assert check.transfer_holds

    def test_unitary_diagonal_floor(self):
        # |s lambda + conj(lambda)| >= |s| - 1 on unimodular eigenvalues
        rng = np.random.default_rng(41)
        lam = np.exp(2j * np.pi * rng.uniform(size=8))
        check = mix_transfer_check(np.diag(lam), 2.0)
        assert check.sigma_mix >= 1.0 - 1e-12
        assert check.transfer_holds

    def test_rejects_unimodular_s(self):
        m = np.eye(3, dtype=complex)
        for s in (1.0, -1.0, np.exp(0.3j)):
            with pytest.raises(ValueError, match="unit circle"):
                mix_transfer_check(m, s)

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError, match="not normal"):
            mix_transfer_check(toeplitz_analytic([0.0, 1.0], 8).matrix, 2.0)

    def test_random_normal_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(4, 16))
            t = random_normal_matrix(rng, n)
            for s in (0.5, 2.0, 3.0j):
                assert mix_transfer_check(t, s).transfer_holds


MIX_CHECKS = {
    "3.1": (mix_bound_check, 0.5),
    "3.2": (mix_sandwich_check, 2.0),
    "3.3": (mix_transfer_check, 2.0),
}


class TestMixCore:
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("check", MIX_CHECKS)
    def test_refuses_non_finite(self, check, bad):
        # the commutator defect of either is NaN, which a `defect > tol` test lets
        # through; an inf entry would then pass 3.3 with sigma_t = sigma_mix = nan
        run, s = MIX_CHECKS[check]
        with pytest.raises(ValueError, match="not normal"), np.errstate(invalid="ignore"):
            run(np.diag([bad, 1.0]), s)

    @pytest.mark.parametrize("shape", [(3, 2), (3, 1)])
    @pytest.mark.parametrize("check", MIX_CHECKS)
    def test_refuses_tall_matrices(self, check, shape):
        run, s = MIX_CHECKS[check]
        with pytest.raises(ValueError, match="square"):
            run(np.ones(shape), s)

    @pytest.mark.parametrize("check", MIX_CHECKS)
    def test_passed_and_margin_are_not_fields(self, check):
        run, s = MIX_CHECKS[check]
        record = run(np.diag([1.0, 2.0j]), s)
        assert record.passed is True
        assert isinstance(record.margin, float)
        assert not {"passed", "margin"} & set(asdict(record))


class TestShiftWindowDemo:
    def test_witness_values(self):
        demo = shift_window_demo(8, 2.0)
        # A^* annihilates e_0 exactly; the mix sends it to s sqrt(1/2) e_1
        assert demo.witness_adjoint_norm == 0.0
        assert demo.witness_mix_norm == pytest.approx(np.sqrt(2.0), abs=EXACT)

    def test_window_ratios(self):
        demo = shift_window_demo(16, 2.0)
        assert demo.window_ratio_adjoint <= EXACT
        # sandwich floor: windowed mix ratio >= (|s| - 1) min ||A f|| / ||f||,
        # and the shift is bounded below by sqrt(1/2) on the window
        a = toeplitz_analytic([0.0, 1.0], 16).matrix
        shift_floor = np.linalg.svd(a[:, :15], compute_uv=False)[-1]
        assert shift_floor >= np.sqrt(0.5) - 1e-12
        assert demo.window_ratio_mix >= shift_floor - 1e-12

    @pytest.mark.parametrize("n, s", [(16, 2.0), (512, 2.0), (64, 1.5 - 2j)])
    def test_windows_take_the_band_route(self, monkeypatch, n, s):
        # both windows take the bidiagonal route on the band's first n - 1 columns, and
        # no SVD runs; the dense SVDs of the windows they replace are the oracle
        windows, svds = [], []
        band, svd = lapack.bidiagonal_sigma, np.linalg.svd
        monkeypatch.setattr(
            lapack, "bidiagonal_sigma",
            lambda *a, n, cols: windows.append((len(a[2]), n, cols)) or band(*a, n=n, cols=cols),
        )
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
        demo = shift_window_demo(n, s)
        assert windows == [(2, n, n - 1)] * 2 and svds == []
        monkeypatch.undo()
        a = toeplitz_analytic([0.0, 1.0], n).matrix
        mix = adjoint_mix(a, s)
        # the zero column e_0 of A^* gives exactly 0, as the dense SVD does
        assert demo.window_ratio_adjoint == smallest_singular_value(a.conj().T[:, : n - 1]) == 0.0
        assert_matches_svd(demo.window_ratio_mix, mix[:, : n - 1])
        assert demo.witness_adjoint_norm == np.linalg.norm(a[0]) == 0.0
        assert demo.witness_mix_norm == np.linalg.norm(mix[:, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            shift_window_demo(4, 2.0)
        with pytest.raises(ValueError):
            shift_window_demo(8, 0.5)
        # else a float size reaches toeplitz_analytic and fails there with a bare TypeError
        for n in (8.0, np.float64(8.0), 8.5):
            with pytest.raises(TypeError):
                check_shift_window(n)
        assert type(check_shift_window(np.int64(8))) is int

    def test_dict_keys(self):
        d = asdict(shift_window_demo(8, 2.0))
        assert set(d) == {
            "n",
            "s",
            "witness_adjoint_norm",
            "witness_mix_norm",
            "window_ratio_adjoint",
            "window_ratio_mix",
        }


class TestRandomNormalMatrix:
    def test_normal_and_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_normal_matrix(rng, 12)
            assert normality_defect(m) <= 1e-12
            svals = np.linalg.svd(m, compute_uv=False)
            assert svals[-1] >= 0.5 - 1e-10
            assert svals[0] <= 2.0 + 1e-10

    def test_deterministic_by_seed(self):
        a = random_normal_matrix(9, 8)
        b = random_normal_matrix(9, 8)
        np.testing.assert_array_equal(a, b)
        c = random_normal_matrix(10, 8)
        assert np.max(np.abs(a - c)) > 1e-3


class TestSandwichInequalityPointwise:
    def test_ten_thousand_pairs(self):
        # ||s| - 1| |g| <= |s g + conj(g)| <= (|s| + 1) |g| pointwise
        rng = np.random.default_rng(47)
        n = 10**4
        s = rng.uniform(0.05, 3.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        combo = np.abs(s * g + np.conj(g))
        lo = np.abs(np.abs(s) - 1.0) * np.abs(g)
        hi = (np.abs(s) + 1.0) * np.abs(g)
        assert float((combo - lo).min()) >= -1e-12
        assert float((hi - combo).min()) >= -1e-12


class TestInvertibilityVerdict:
    def test_nonvanishing_analytic(self):
        report = invertibility_verdict(HarmonicSymbol(1.0, 0.0, TWO_PLUS_Z))
        assert report.verdict == "invertible_likely"
        assert report.case_tag == "analytic"
        assert report.sandwich is None

    def test_vanishing_symbol(self):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([0.0, 1.0]))
        report = invertibility_verdict(phi)
        assert report.verdict == "not_invertible_likely"
        assert report.inf_estimate <= 1e-12
        assert report.sandwich is not None and report.sandwich["holds"]

    def test_general_s_has_sandwich(self):
        phi = HarmonicSymbol(3.0, 1.0, TWO_PLUS_Z)
        report = invertibility_verdict(phi)
        assert report.verdict == "invertible_likely"
        assert report.case_tag == "general_s"
        sw = report.sandwich
        assert sw["holds"]
        assert sw["lower"] <= sw["inf_combo"] <= sw["upper"]
        # shared grid: inf_g for g = 2 + z is 1 up to radial grid resolution
        assert sw["inf_g"] == pytest.approx(1.0, abs=2e-3)

    def test_unimodular_s_skips_sandwich(self):
        report = invertibility_verdict(HarmonicSymbol(1.0, 1.0, TWO_PLUS_Z))
        assert report.case_tag == "normal_s_unimodular"
        assert report.sandwich is None
        assert report.verdict == "invertible_likely"

    def test_inconclusive_when_drift_gate_is_strict(self):
        phi = HarmonicSymbol(1.0, 0.0, TWO_PLUS_Z)
        report = invertibility_verdict(phi, (16, 32, 64), drift=1e-6)
        assert report.verdict == "inconclusive"

    def test_rational_symbol(self):
        phi = HarmonicSymbol(1.0, 0.25, RationalSymbol([1.0], [1.0, -0.5]))
        report = invertibility_verdict(phi)
        assert report.verdict == "invertible_likely"

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("key", ["inf_positive", "sigma_positive", "drift"])
    def test_non_positive_threshold_refused(self, key, value):
        phi = HarmonicSymbol(1.0, 0.5, PolynomialSymbol([0.0, 1.0]))
        with pytest.raises(ValueError, match=f"{key} must be positive"):
            invertibility_verdict(phi, (16, 32, 64), **{key: value})

    def test_report_json_keys(self):
        report = invertibility_verdict(HarmonicSymbol(3.0, 1.0, TWO_PLUS_Z))
        d = asdict(report)
        for key in (
            "verdict",
            "inf_estimate",
            "argmin",
            "sizes",
            "sigma_min",
            "drift",
            "stabilized",
            "case_tag",
            "seed",
            "symbol_tag",
            "s",
            "sandwich",
            "thresholds",
            "notes",
        ):
            assert key in d
        assert len(d["notes"]) == 2
        assert d["seed"] == 0
        assert isinstance(report, InvertibilityReport)


class TestPowerSymbolStudy:
    def test_bounds_and_exact_factorization(self):
        study = power_symbol_study(1.0, sizes=(16, 32, 64))
        assert study.bounds_hold
        assert study.grid_min >= study.modulus_bound
        assert study.grid_min_plus >= study.factor_bound - 1e-12
        assert study.grid_min_minus >= study.factor_bound - 1e-12
        # truncations of analytic symbols multiply exactly, so the
        # factorization defect is floating-point noise at every size
        assert max(study.residuals) <= 1e-12
        assert study.trend.stabilized
        assert study.trend.sigma_min[-1] > study.modulus_bound

    @staticmethod
    def _assert_residuals_match_gemm(t, sizes):
        # the residual is read off the Taylor coefficients; the oracle is the full zgemm
        # product of the sections, which rounds in a BLAS-dependent order, so the two agree
        # to the rounding bound 4 N u (|M| |A|) and not bit for bit
        study = power_symbol_study(t, sizes=sizes)
        for n, residual in zip(sizes, study.residuals):
            m, a, p = (
                _analytic_matrix(g, n)
                for g in (PrincipalPowerSymbol(0.0, t), power_symbol(t), PrincipalPowerSymbol(t, 0.0))
            )
            expected = np.max(np.abs(m @ a - p))
            bound = 4 * n * np.finfo(float).eps / 2 * np.max(np.abs(m) @ np.abs(a))
            assert abs(residual - expected) <= bound

    @pytest.mark.parametrize("t", [1.0, -0.5, 3.0])
    def test_triangular_product_matches_gemm(self, t):
        self._assert_residuals_match_gemm(t, (8, 64, 256))

    @pytest.mark.parametrize("t", [1.0, 3.0])
    def test_row_block_residual_matches_gemm(self, t):
        self._assert_residuals_match_gemm(t, (1, 127, 128, 129, 300, 1024))

    @pytest.mark.parametrize("n", [1, 3, 17, 64])
    def test_residual_of_a_wrong_factorization_matches_sections(self, n):
        # integer polynomials whose product is not ``plus``: the defect is of order one on
        # every subdiagonal, so a wrong weight on r_l shows far above rounding
        rng = np.random.default_rng(n)
        minus, ratio, plus = (
            PolynomialSymbol(rng.integers(-3, 4, size=5) + 1j * rng.integers(-3, 4, size=5))
            for _ in range(3)
        )
        (residual,) = analysis._factor_residuals(minus, ratio, plus, (n,))
        m, a, p = (_analytic_matrix(g, n) for g in (minus, ratio, plus))
        expected = np.max(np.abs(m @ a - p))
        assert expected > 0.5
        assert residual == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
    def test_one_expansion_per_schedule_keeps_each_sizes_bits(self, t):
        # the study reads every residual off one top-degree product and the trend every
        # section off one top-degree series: each size's prefix, so each value is the one
        # its own size's expansion gives
        sizes = (32, 64, 128, 256)
        study = power_symbol_study(t, sizes)
        factors = PrincipalPowerSymbol(0.0, t), power_symbol(t), PrincipalPowerSymbol(t, 0.0)
        assert study.residuals == tuple(factor_residual(*factors, n) for n in sizes)
        phi = HarmonicSymbol(1.0, 0.0, power_symbol(t))
        per_size = tuple(analysis._trend_sigma_min(phi, n) for n in sizes)  # g.series(n - 1)
        assert study.trend.sigma_min == per_size
        assert study.trend.drift == abs(per_size[3] - per_size[2]) / per_size[2]

    def test_one_expansion_per_schedule(self, monkeypatch):
        # each factor is expanded once, to the largest size's degree: the trend's g and
        # the residual's three factors
        degrees = []
        series = PrincipalPowerSymbol.series
        monkeypatch.setattr(
            PrincipalPowerSymbol, "series", lambda g, k: degrees.append(k) or series(g, k)
        )
        power_symbol_study(1.0, (16, 32, 64))
        assert degrees == [63] * 4

    def test_study_peak_memory_stays_below_one_complex_section(self):
        # the residual reads three length-N coefficient series and builds no section
        power_symbol_study(1.0, sizes=(8, 16, 32))  # lazy imports and caches
        tracemalloc.start()
        try:
            power_symbol_study(1.0, sizes=(64, 128, 256, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 16  # 4 MiB

    def test_grid_min_tracks_half_exponent_bound(self):
        # the quotient maps the disc into moduli [e^{-|t| pi / 2}, e^{|t| pi / 2}],
        # so the grid minimum sits just above the per-factor bound
        study = power_symbol_study(0.5, sizes=(8, 16, 32))
        assert study.grid_min == pytest.approx(np.exp(-np.pi / 4), rel=2e-3)

    def test_refuses_large_t(self):
        with pytest.raises(NumericalError, match="refused"):
            power_symbol_study(25.0)

    def test_refuses_nan_t(self):
        # refused before any grid is scanned
        with pytest.raises(NumericalError, match="refused"):
            power_symbol_study(float("nan"))

    def test_report_dict(self):
        d = asdict(power_symbol_study(0.5, sizes=(8, 16, 32)))
        assert set(d) == {
            "t",
            "modulus_bound",
            "factor_bound",
            "grid_min",
            "grid_min_plus",
            "grid_min_minus",
            "bounds_hold",
            "sizes",
            "residuals",
            "trend",
        }


def factor_residual(minus, ratio, plus, n):
    """The study's residual at one size from that size's own length-N product: the
    computation that one product per schedule replaced, kept as its oracle."""
    r = minus.series(n - 1).mul(ratio.series(n - 1), n - 1).coeffs - plus.series(n - 1).coeffs
    return float(np.max(np.sqrt(np.arange(n, 0.0, -1.0) / n) * np.abs(r)))


#: unit roundoff of float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def subprocess_env():
    """The environment with this checkout's ``src`` on PYTHONPATH: pytest's pythonpath
    setting does not reach a subprocess."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def pencil_sigma_min(c, d, p, q, n):
    """The pencil route on the coefficients as given, untrimmed, at any size."""
    p, q = np.asarray(p, complex), np.asarray(q, complex)
    return analysis._scaled_sigma_min(lapack.pencil_sigma, c, d, p, q, n=n)


def bidiagonal_sigma_min(c, d, p, n):
    """The bidiagonal route on the first N coefficients, as the trend passes them."""
    return analysis._scaled_sigma_min(lapack.bidiagonal_sigma, c, d, np.asarray(p)[:n], n=n)


def pencil_symbol(c, d, p, q):
    return HarmonicSymbol(c, d, PolynomialSymbol(p) if q == [1.0] else RationalSymbol(p, q))


def dense_svals(phi, n):
    return np.linalg.svd(toeplitz_harmonic(phi, n).matrix, compute_uv=False)


_RNG = np.random.default_rng(404)
#: (c, d, coefficients of g)
BAND_CASES = {
    "real": (1.0, 0.5, [2.0, 1.0, 0.3]),
    "complex": (1 + 0.5j, 0.3 - 0.2j, [1.0, 0.5j, 0.2, 0.1 - 0.1j]),
    "c=0": (0.0, 1.0, [2.0, 1.0]),
    "d=0": (1.0, 0.0, [0.5, 1.0, 0.3j]),
    "degree 0": (3.0, 0.5j, [1.0 - 1j]),
    "degree 8 real": (1.0, -0.7, _RNG.normal(size=9)),
    "degree 8 complex": (
        0.4 - 1j, 0.9j, _RNG.normal(size=9) + 1j * _RNG.normal(size=9)
    ),
    "trailing zeros": (1.0, 0.5, [2.0, 1.0, 0.0, 0.0]),
}
WORKLOAD_P, WORKLOAD_Q = [1.0, 0.5], [2.0, -0.5]
WORKLOAD_RATIONAL = HarmonicSymbol(1.0, 0.25, RationalSymbol(WORKLOAD_P, WORKLOAD_Q))
#: (c, d, p, q): polynomials are q = [1]
PENCIL_CASES = {
    **{case: (c, d, coeffs, [1.0]) for case, (c, d, coeffs) in BAND_CASES.items()},
    "workload": (1.0, 0.25, WORKLOAD_P, WORKLOAD_Q),
    "workload d=0": (1.0, 0.0, WORKLOAD_P, WORKLOAD_Q),
    "workload c=0": (0.0, 0.25, WORKLOAD_P, WORKLOAD_Q),
    "complex p, q": (1 + 0.5j, 0.3 - 0.2j, [1.0, 0.5j, 0.2], [1.0, 0.3 - 0.4j]),
    "deg p > deg q": (1.0, 0.5, [1.0, 0.2, 0.1, 0.3, 0.5], [1.0, 0.5]),
    "deg p < deg q": (1.0, 0.5, [1.0, 0.2], [1.0, 0.5, 0.1, 0.05, 0.02]),
    # q = 1 + z^70 / 2 has its zeros at |z| = 2^(1/70) = 1.0099
    "deg >= N": (
        1.0, 0.5, 0.95 ** np.arange(71) * _RNG.normal(size=71), [1.0] + [0.0] * 69 + [0.5]
    ),
    "Blaschke": (1.0, 0.5, [-0.7, 1.0], [1.0, -0.7]),
    "pole at 1 + 1e-8": (1.0, 0.5, [1.0], [1.0, -1.0 / (1.0 + 1e-8)]),
}
COMPLEX_CASES = {"complex", "d=0", "degree 0", "degree 8 complex", "complex p, q"}
#: error allowed against the dense SVD, in units of u ||T||_2: Crawford's reduction
#: (LAPACK dsbgst) reaches 16.2 for this degree-4 q at N = 512 (DECISIONS.md entry 5)
ALLOWANCE = {"deg p < deg q": 24}


def assert_matches_dense(sigma, phi, n, allowance=16):
    svals = dense_svals(phi, n)
    err = abs(sigma - svals[-1])
    assert err <= 1e-12 and err <= allowance * UNIT_ROUNDOFF * svals[0], (sigma, svals[-1])


def lapack_calls(monkeypatch):
    """The names of the LAPACK routines called from now on, in call order."""
    routines = []
    load = lapack._lapack_routine
    monkeypatch.setattr(lapack, "_lapack_routine", lambda name: routines.append(name) or load(name))
    return routines


class TestBandedSigmaMin:
    """The banded pencil route against the dense SVD it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256, 512])
    @pytest.mark.parametrize("case", sorted(PENCIL_CASES))
    def test_matches_dense_svd(self, monkeypatch, case, n):
        routines = lapack_calls(monkeypatch)
        sigma = pencil_sigma_min(*PENCIL_CASES[case], n)
        # real pencils reach LAPACK dsbgvx, complex ones zhbgvx
        assert routines == ["zhbgvx" if case in COMPLEX_CASES else "dsbgvx"]
        assert_matches_dense(sigma, pencil_symbol(*PENCIL_CASES[case]), n, ALLOWANCE.get(case, 16))

    def test_collapsing_symbol_is_nonnegative_noise(self):
        assert 0.0 <= pencil_sigma_min(1.0, 0.5, [0.0, 1.0], [1.0], 512) <= 1e-12

    def test_real_coefficients_keep_a_complex_mix(self, monkeypatch):
        # float64 p and q with complex c: the bands are complex, not cast to float64
        c, d, p, q = 1 + 0.5j, 0.3, np.array(WORKLOAD_P), np.array(WORKLOAD_Q)
        routines = lapack_calls(monkeypatch)
        sigma = analysis._scaled_sigma_min(lapack.pencil_sigma, c, d, p, q, n=64)
        assert routines == ["zhbgvx"]
        assert_matches_dense(sigma, pencil_symbol(c, d, WORKLOAD_P, WORKLOAD_Q), 64)

    @pytest.mark.parametrize("d", [0.0, 0.5])
    def test_blaschke_factor_is_nonnegative_noise(self, d):
        # (z - 0.7) / (1 - 0.7 z) vanishes at 0.7: inf |phi| = 0
        assert 0.0 <= pencil_sigma_min(1.0, d, [-0.7, 1.0], [1.0, -0.7], 512) <= 1e-12

    @staticmethod
    def _dense_calls(monkeypatch, phi, sizes):
        calls = []
        dense = analysis._sigma_min

        def counted(m, owned):
            calls.append(len(m))
            return dense(m, owned)

        monkeypatch.setattr(analysis, "_sigma_min", counted)
        return bounded_below_trend(phi, sizes), calls

    def test_narrow_bands_skip_the_dense_svd(self, monkeypatch):
        sizes = (128, 256, 512)
        for phi in (
            pencil_symbol(*PENCIL_CASES["real"]),
            # trailing zeros are trimmed: degree 1, not 31
            HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0] + [0.0] * 30)),
        ):
            trend, calls = self._dense_calls(monkeypatch, phi, sizes)
            assert calls == []
            for n, s in zip(sizes, trend.sigma_min):
                assert abs(s - smallest_singular_value(toeplitz_harmonic(phi, n))) <= 1e-12

    def test_wide_bands_take_the_dense_route(self, monkeypatch):
        coeffs = np.random.default_rng(41).normal(size=41)
        wide = HarmonicSymbol(1.0, 0.5, PolynomialSymbol(coeffs))
        _, calls = self._dense_calls(monkeypatch, wide, (64, 128, 256))
        assert calls == [64, 128, 256]
        # a complex band of degree 3 pays from N = 7 * 16 on, as a real one does
        complex_band = pencil_symbol(*PENCIL_CASES["complex"])
        _, calls = self._dense_calls(monkeypatch, complex_band, (64, 256, 448))
        assert calls == [64]

    def test_rational_symbols_skip_the_dense_svd(self, monkeypatch):
        # m = 1: the pencil pays from N = 3 * 16 on
        sizes = (32, 48, 128, 256, 512)
        phi = pencil_symbol(*PENCIL_CASES["workload"])
        trend, calls = self._dense_calls(monkeypatch, phi, sizes)
        assert calls == [32]
        for n, s in zip(sizes, trend.sigma_min):
            assert_matches_dense(s, phi, n)

    @staticmethod
    def _pencil_calls(monkeypatch):
        calls, pencil = [], lapack.pencil_sigma
        monkeypatch.setattr(lapack, "pencil_sigma", lambda *a, n: calls.append(n) or pencil(*a, n=n))
        return calls

    def test_indefinite_pencil_takes_the_dense_route(self, monkeypatch):
        # q = (1 - z/2)^19 vanishes only at |z| = 2, yet at N = 640 dsbgvx cannot split
        # B = diag(Q^*Q) by Cholesky: INFO 2516 > 2N
        p, q = [1.0, 0.5], list(np.polynomial.polynomial.polypow([1.0, -0.5], 19))
        with pytest.raises(lapack.IndefinitePencil, match="dsbgvx returned info 2516"):
            pencil_sigma_min(1.0, 0.25, p, q, 640)
        phi, sizes = pencil_symbol(1.0, 0.25, p, q), (128, 256, 640)
        pencils = self._pencil_calls(monkeypatch)
        trend, calls = self._dense_calls(monkeypatch, phi, sizes)
        assert pencils == [640] and calls == [128, 256, 640]
        assert trend.sigma_min[-1] == pytest.approx(1.9551e-4, rel=1e-4)
        # bit for bit the trend that takes the dense route at every size
        monkeypatch.setattr(analysis, "_BAND_RATIO_REAL", 10**6)
        assert trend.sigma_min == bounded_below_trend(phi, sizes).sigma_min

    def test_workload_rational_keeps_the_pencil(self, monkeypatch):
        pencils = self._pencil_calls(monkeypatch)
        _, calls = self._dense_calls(monkeypatch, WORKLOAD_RATIONAL, (32, 48, 640))
        assert pencils == [48, 640] and calls == [32]

    def test_constant_symbol_uses_the_closed_form(self, monkeypatch):
        phi = HarmonicSymbol(1.0 + 2j, 0.5, PolynomialSymbol([2.0, 0.0, 0.0]))
        trend, calls = self._dense_calls(monkeypatch, phi, (1, 2, 700))
        assert calls == []
        assert trend.sigma_min == (abs((1.0 + 2j) * 2.0 + 0.5 * 2.0),) * 3
        # a rational g = p/q of degree 0, and any g at N = 1: a_0 = p_0 / q_0
        phi = HarmonicSymbol(1.0 + 2j, 0.5, RationalSymbol([3.0, 0.0], [0.7]))
        trend, calls = self._dense_calls(monkeypatch, phi, (1, 2, 700))
        a0 = 3.0 / 0.7
        assert calls == [] and trend.sigma_min == (abs((1.0 + 2j) * a0 + 0.5 * a0),) * 3
        workload = pencil_symbol(*PENCIL_CASES["workload"])
        trend, calls = self._dense_calls(monkeypatch, workload, (1, 2, 4))
        assert calls == [2, 4] and trend.sigma_min[0] == 1.0 * 0.5 + 0.25 * 0.5

    def test_constant_symbol_overflow_is_refused(self):
        # sigma_min overflows on either route: the closed form of degree 0 is scaled and
        # refused like the dense route of degree 1, not reported as inf with a NaN drift
        for coeffs in ([1e10], [1e10, 1.0]):
            phi = HarmonicSymbol(1e300, 1e300, PolynomialSymbol(coeffs))
            with pytest.raises(NumericalError, match="sigma_min inf at N = 4; refusing"):
                bounded_below_trend(phi, (4, 8, 16))


class TestBidiagonalSigmaMin:
    """The Golub-Kahan route of polynomial bands against the dense SVD."""

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256, 512])
    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_matches_dense_svd(self, monkeypatch, case, n):
        c, d, coeffs = BAND_CASES[case]
        routines = lapack_calls(monkeypatch)
        sigma = bidiagonal_sigma_min(c, d, np.asarray(coeffs, complex), n)
        # real bands reach LAPACK dgbbrd, complex ones zgbbrd, then the bisection; T reads
        # a_0 .. a_{N-1} alone
        real = not (np.imag([c, d]).any() or np.imag(coeffs[:n]).any())
        assert routines == ["dgbbrd" if real else "zgbbrd", "dstebz"]
        assert_matches_dense(sigma, HarmonicSymbol(c, d, PolynomialSymbol(coeffs)), n)

    @pytest.mark.parametrize("n", [512, 1024])
    def test_collapsing_symbol_is_nonnegative_noise(self, n):
        # dstebz splits the tridiagonal at an off-diagonal below sqrt(safe minimum)
        assert 0.0 <= bidiagonal_sigma_min(1.0, 0.5, [0.0, 1.0], n) <= 1e-12

    @pytest.mark.parametrize("coeffs", [[np.inf, 1.0], [1.0, np.nan]], ids=["inf", "nan"])
    def test_non_finite_band_is_refused(self, coeffs):
        with pytest.raises(NumericalError, match="LAPACK dstebz returned info"):
            bidiagonal_sigma_min(1.0, 0.5, coeffs, 128)

    def test_band_holds_the_section(self):
        c, d, coeffs = BAND_CASES["degree 8 complex"]
        n, m = 12, len(coeffs) - 1
        ab = lapack._harmonic_band(c, d, np.asarray(coeffs), n)
        t = toeplitz_harmonic(HarmonicSymbol(c, d, PolynomialSymbol(coeffs)), n).matrix
        assert ab.shape == (2 * m + 1, n) and ab.flags.f_contiguous
        for i in range(n):
            for j in range(n):
                if abs(i - j) <= m:
                    assert abs(ab[m + i - j, j] - t[i, j]) <= 2 * UNIT_ROUNDOFF * abs(t[i, j])
                else:
                    assert t[i, j] == 0

    @pytest.mark.parametrize(
        "phi, route",
        [
            (pencil_symbol(*PENCIL_CASES["real"]), "bidiagonal_sigma"),
            (pencil_symbol(*PENCIL_CASES["complex"]), "bidiagonal_sigma"),
            (WORKLOAD_RATIONAL, "pencil_sigma"),
            (pencil_symbol(*PENCIL_CASES["complex p, q"]), "pencil_sigma"),
        ],
        ids=["real polynomial", "complex polynomial", "real rational", "complex rational"],
    )
    def test_polynomials_leave_the_pencil(self, monkeypatch, phi, route):
        sizes = (448, 512, 1024)  # above the crossover of every band here
        calls = {name: [] for name in ("bidiagonal_sigma", "pencil_sigma")}
        for name, sizes_seen in calls.items():
            original = getattr(lapack, name)
            monkeypatch.setattr(
                lapack, name, lambda *a, n, f=original, s=sizes_seen: s.append(n) or f(*a, n=n)
            )
        bounded_below_trend(phi, sizes)
        assert calls == {name: list(sizes) if name == route else [] for name in calls}

    def test_pinned_prototypes_are_the_routines_the_routes_call(self, monkeypatch):
        routines = lapack_calls(monkeypatch)
        for case in ("real", "complex", "workload", "complex p, q"):
            bounded_below_trend(pencil_symbol(*PENCIL_CASES[case]), (448, 512, 1024))
        # the power symbol's rotated real section reaches the band reduction
        bounded_below_trend(HarmonicSymbol(1.0, 0.0, power_symbol(1.0)), (128, 256, CUT))
        assert set(routines) == set(lapack._LAPACK_PROTOTYPES)


#: window widths: all but the last column, all but the last m, and the first column
WINDOWS = {"N - 1": lambda n, m: n - 1, "N - m": lambda n, m: n - m, "1": lambda n, m: 1}


def band_window_sigma(c, d, p, n, cols):
    """The bidiagonal route on the window of T's first ``cols`` columns, scaled as the
    trend and the shift demo scale it."""
    window = functools.partial(lapack.bidiagonal_sigma, cols=cols)
    return analysis._scaled_sigma_min(window, c, d, np.asarray(p), n=n)


class TestBandWindows:
    """Windows of a polynomial band's first columns against the dense SVD they replace."""

    @pytest.mark.parametrize("width", sorted(WINDOWS))
    @pytest.mark.parametrize("n", [9, 64, 256])
    @pytest.mark.parametrize("case", sorted(set(BAND_CASES) - {"degree 0"}))
    def test_matches_dense_svd(self, monkeypatch, case, n, width):
        c, d, coeffs = BAND_CASES[case]
        m = len(coeffs) - 1
        cols = WINDOWS[width](n, m)
        routines = lapack_calls(monkeypatch)
        sigma = band_window_sigma(c, d, coeffs, n, cols)
        real = not (np.imag([c, d]).any() or np.imag(coeffs).any())
        assert routines == ["dgbbrd" if real else "zgbbrd", "dstebz"]
        t = toeplitz_harmonic(HarmonicSymbol(c, d, PolynomialSymbol(coeffs)), n).matrix
        assert_matches_svd(sigma, t[:, :cols])

    @pytest.mark.parametrize("width", sorted(WINDOWS))
    @pytest.mark.parametrize("case", ["real", "degree 8 complex"])
    def test_matches_dense_svd_at_1024(self, case, width):
        c, d, coeffs = BAND_CASES[case]
        n = 1024
        cols = WINDOWS[width](n, len(coeffs) - 1)
        t = toeplitz_harmonic(HarmonicSymbol(c, d, PolynomialSymbol(coeffs)), n).matrix
        sigma = band_window_sigma(c, d, coeffs, n, cols)
        assert_matches_svd(sigma, t[:, :cols])

    @pytest.mark.parametrize("d", [1.0, 0.5j, -2.0 + 1j])
    @pytest.mark.parametrize("n", [8, 63, 64, 512])
    def test_zero_column_window_is_exactly_zero(self, n, d):
        # the adjoint c = 0 of g = z and its scalar multiples annihilate e_0, and the
        # window keeps that zero column; the M x (M - 1) windows also size the work
        # arrays, which must hold max(M, N) entries
        coeffs = [0.0, 1.0]
        t = toeplitz_harmonic(HarmonicSymbol(0.0, d, PolynomialSymbol(coeffs)), n).matrix
        assert not t[:, 0].any()
        assert band_window_sigma(0.0, d, coeffs, n, n - 1) == 0.0
        assert smallest_singular_value(t[:, : n - 1]) == 0.0

    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_first_column_norm_is_the_sections(self, case):
        # the shift demo's witness ||T e_0||, read off the band of the (m + 1)-section,
        # is that of every larger section, and of its band bit for bit
        c, d, coeffs = BAND_CASES[case]
        p = np.asarray(coeffs)
        norm = lapack.first_column_norm(c, d, p)
        for n in (len(p), len(p) + 1, 64):
            assert norm == np.linalg.norm(lapack._harmonic_band(c, d, p, n)[:, 0])
            t = toeplitz_harmonic(HarmonicSymbol(c, d, PolynomialSymbol(coeffs)), n).matrix
            assert norm == pytest.approx(np.linalg.norm(t[:, 0]), rel=1e-14)


CUT = analysis._BAND_REDUCTION_CUT
#: sizes the band reduction takes: the cut, 768 (the cut until DECISIONS.md entry 24), 1024
ROUTED = [CUT, 768, 1024]
#: the band reduction route's panel width
B = lapack._DENSE_BAND


def band_reduction_calls(n):
    """The LAPACK calls of the band reduction route on N columns, in order: per panel of
    b columns, a QR of the panel and of its rows' transpose, each applied as one compact-WY
    block; a QR of the last panel; then the band's steps."""
    panels = -(-n // B)
    return ["dgeqrf", "dlarft", "dlarfb"] * 2 * (panels - 1) + ["dgeqrf", "dgbbrd", "dstebz"]


def rotated_section(t, c, d, n):
    """D^* T D = c R + d R^T, D = diag(i^m), for T the section of c g + d conj(g),
    g = power_symbol(t): the real matrix the trend hands to the dense route."""
    r = power_symbol(t).series(n - 1).coeffs * _MINUS_I_POWERS[np.arange(n) % 4]
    assert not r.imag.any()
    return _analytic_matrix(r.real, n, (c, d))


def gaussian(n):
    return np.random.default_rng(n).normal(size=(n, n))


def with_zero_column(n):
    m = gaussian(n)
    m[:, n // 3] = 0.0
    return m


#: name -> the real matrix at size N (N columns)
DENSE_CASES = {
    "power t=1 d=0": lambda n: rotated_section(1.0, 1.0, 0.0, n),
    "power t=1 d=0.4": lambda n: rotated_section(1.0, 1.0, 0.4, n),
    "power t=3 d=0": lambda n: rotated_section(3.0, 1.0, 0.0, n),
    "gaussian": gaussian,
    "degree 40 real": lambda n: _analytic_matrix(
        np.random.default_rng(40).normal(size=41), n, (1.0, 0.5)
    ),
    "zero column": with_zero_column,
    # the first N columns of a larger rotated section
    "tall window": lambda n: rotated_section(1.0, 1.0, 0.4, n + 96)[:, :n],
}


def assert_matches_svd(sigma, m, allowance=16):
    svals = np.linalg.svd(m, compute_uv=False)
    err = abs(sigma - svals[-1])
    assert err <= 1e-12 and err <= allowance * UNIT_ROUNDOFF * svals[0], (sigma, svals[-1])


class TestDenseBandSigma:
    """The band reduction route of large real matrices against the dense SVD."""

    @pytest.mark.parametrize("n", ROUTED)
    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_matches_dense_svd(self, monkeypatch, case, n):
        m = DENSE_CASES[case](n)
        assert m.dtype == np.float64 and m.shape[1] == n
        routines = lapack_calls(monkeypatch)
        sigma = smallest_singular_value(m)
        assert routines == band_reduction_calls(n)
        assert_matches_svd(sigma, m)

    @pytest.mark.parametrize("extra_rows", [0, 1, 96])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B - 1, 3 * B + 1])
    def test_ragged_panels_match_dense_svd(self, monkeypatch, n, extra_rows):
        # the last panel narrower than b, and a row panel with fewer columns to its right
        # than rows (N = 3b - 1: b - 1 of them; 3b + 1 and b + 1: one), whose transpose is
        # factored over all of the panel's rows
        m = np.random.default_rng(n + extra_rows).normal(size=(n + extra_rows, n))
        routines = lapack_calls(monkeypatch)
        sigma = lapack.dense_band_sigma(np.asfortranarray(m))
        assert routines == band_reduction_calls(n)
        assert_matches_svd(sigma, m)

    def test_power_symbol_keeps_the_theorem_bound(self, monkeypatch):
        # d = 0: sigma_min(A_N) never increases with N and never falls below
        # inf |g| = e^(-pi/2) for g = ((1 + z) / (1 - z))^i; N = 512 = CUT and 1024 take
        # the band reduction
        routines = lapack_calls(monkeypatch)
        _, s512, s1024 = bounded_below_trend(
            HarmonicSymbol(1.0, 0.0, power_symbol(1.0)), (256, CUT, 1024)
        ).sigma_min
        assert routines == band_reduction_calls(CUT) + band_reduction_calls(1024)
        assert np.exp(-np.pi / 2) * (1 - 1e-12) <= s1024 <= s512 * (1 + 1e-12)

    @pytest.mark.parametrize(
        "scale", [2.0**900, 2.0**-900, 1e300], ids=["2^900", "2^-900", "1e300"]
    )
    def test_scaled_matrix_matches_the_scaled_svd(self, scale):
        # unscaled, dstebz refuses the Gaussian matrix times 1e300 (info 4)
        m = gaussian(CUT)
        svals = np.linalg.svd(m, compute_uv=False)
        sigma = smallest_singular_value(scale * m)
        assert abs(sigma - scale * svals[-1]) <= 16 * UNIT_ROUNDOFF * scale * svals[0]

    @staticmethod
    def _sylvester_hadamard(n):
        h = np.ones((1, 1))
        while len(h) < n:
            h = np.block([[h, h], [h, -h]])
        return h

    @pytest.mark.parametrize("bad", ["nan", "inf", "overflow"])
    def test_refusals_match_the_dense_svd(self, monkeypatch, bad):
        if bad == "overflow":
            # every singular value of 1e308 H, H a Hadamard matrix, is 1e308 sqrt(N)
            m = 1e308 * self._sylvester_hadamard(1024)
        else:
            m = gaussian(CUT)
            m[3, 5] = float(bad)
        with pytest.raises(NumericalError) as band:
            smallest_singular_value(m)
        monkeypatch.setattr(analysis, "_BAND_REDUCTION_CUT", m.shape[1] + 1)
        with pytest.raises(NumericalError) as dense, np.errstate(invalid="ignore"):
            smallest_singular_value(m)
        assert str(band.value) == str(dense.value)
        assert "refusing a non-finite or failed result" in str(band.value)

    @pytest.mark.parametrize(
        "shape, dtype, routed",
        [
            ((CUT - 1, CUT - 1), float, False),
            ((CUT, CUT), float, True),
            ((CUT + 64, CUT - 1), float, False),
            ((CUT + 64, CUT), float, True),
            ((CUT, CUT), complex, False),
            ((CUT - 1, CUT - 1), complex, False),
        ],
        ids=["real below", "real at", "window below", "window at", "complex at",
             "complex below"],
    )
    def test_route_follows_the_columns_and_the_dtype(self, monkeypatch, shape, dtype, routed):
        m = np.random.default_rng(9).normal(size=shape).astype(dtype)
        if dtype is complex:
            m += 1j * np.eye(*shape)
        svd_shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, **kw: svd_shapes.append(a.shape) or svd(a, **kw)
        )
        routines = lapack_calls(monkeypatch)
        smallest_singular_value(m)
        expected = (band_reduction_calls(shape[1]), []) if routed else ([], [shape])
        assert (routines, svd_shapes) == expected

    def test_exactly_real_complex_matrix_is_routed(self, monkeypatch):
        m = gaussian(CUT).astype(complex)
        routines = lapack_calls(monkeypatch)
        sigma = smallest_singular_value(m)
        assert routines == band_reduction_calls(CUT)
        assert sigma == lapack.dense_band_sigma(m.real.copy())

    @pytest.mark.parametrize("n", ROUTED)
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_callers_matrix_is_left_as_it_was(self, monkeypatch, n, dtype):
        # the route reduces the array it is handed in place: a caller's writeable
        # Fortran-ordered matrix, real or exactly real, is copied for it first
        m = np.asfortranarray(gaussian(n).astype(dtype))
        kept = m.copy()
        routines = lapack_calls(monkeypatch)
        smallest_singular_value(m)
        assert routines == band_reduction_calls(n)
        assert m.flags.f_contiguous and m.flags.writeable
        assert m.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("n", ROUTED)
    @pytest.mark.parametrize(
        "case, cd",
        [("power t=1 d=0", (1.0, 0.0)), ("power t=1 d=0.4", (1.0, 0.4)),
         ("degree 40 real", (1.0, 0.5))],
    )
    def test_trend_section_handed_over_keeps_the_bits(self, case, cd, n):
        # the trend builds R^T by the swapped mix and reduces its transpose, R in
        # Fortran order, in place: the bits of the separately built section's route
        if case.startswith("power"):
            coeffs = power_symbol(1.0).series(n - 1).coeffs
        else:
            coeffs = np.random.default_rng(40).normal(size=41)
        sigma = analysis._dense_sigma_min(*cd, coeffs, n=n)
        assert sigma == smallest_singular_value(DENSE_CASES[case](n))

    def test_trend_holds_one_copy_of_its_section(self):
        # the N = 1024 section of example_3_5's symbol, 8 N^2 bytes as float64, is built
        # in the order the band route reduces in place; a second copy would double it
        phi = HarmonicSymbol(1.0, 0.0, power_symbol(1.0))
        analysis._trend_sigma_min(phi, CUT)  # first-call allocations out of the count
        tracemalloc.start()
        try:
            analysis._trend_sigma_min(phi, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * 1024**2

    def test_blocks_outside_the_matrix_are_refused(self):
        flat = np.zeros(4 * 5)  # a 4 x 5 matrix
        assert lapack._block(flat, 4, 1, 2, 3, 3).size == flat.size - (1 + 2 * 4)
        for i, j, rows, cols in [(2, 0, 3, 1), (0, 3, 1, 3), (-1, 0, 1, 1), (0, -1, 1, 1)]:
            with pytest.raises(ValueError, match="outside a matrix of 4 x 5"):
                lapack._block(flat, 4, i, j, rows, cols)


#: machine epsilon of float64, 2 u
EPS = np.finfo(float).eps


def bisections(monkeypatch, run):
    """(new, old, top) for each bisection that ``run()`` reaches, whose tolerance must be
    max(2 tiny, eps^2 top): the value :func:`lapack._band_sigma` took from ``dstebz``, the
    value ``dstebz`` gives on the same tridiagonal at LAPACK's tightest tolerance 2 tiny,
    and the tridiagonal's largest modulus top = max|B|, B the bidiagonal."""
    seen = []
    call = lapack._call_lapack

    def spy(name, *args):
        call(name, *args)
        if name == "dstebz":
            two_n, abstol, off, found, w = args[2], args[7], args[9], args[10], args[12]
            old, old_found = np.zeros(two_n), np.zeros((), np.int64)
            call(name, *args[:7], lapack._ABSTOL, *args[8:10], old_found, args[11], old,
                 *args[13:])
            top = np.abs(off).max()
            assert found == old_found == 1 and abstol == max(lapack._ABSTOL, EPS**2 * top)
            seen.append((w[0], old[0], top))

    monkeypatch.setattr(lapack, "_call_lapack", spy)
    run()
    return seen


def assert_floor_keeps_the_bits(seen):
    """Each sigma of at least eps max|B| at the tightest tolerance keeps its bits; each
    smaller one, old and new, is rounding of at most 4 eps max|B|.  Returns how many
    values fell below."""
    assert seen
    below = 0
    for new, old, top in seen:
        if abs(old) >= EPS * top:
            assert new.tobytes() == old.tobytes(), (new, old, top)
        else:
            below += 1
            assert max(abs(new), abs(old)) <= 4 * EPS * top, (new, old, top)
    return below


class TestBisectionFloor:
    """The bisection stops at eps^2 max|B| (DECISIONS.md entry 24) against the one that
    ran to 2 tiny on the same tridiagonal."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_gallery_polynomials(self, monkeypatch, n):
        entries = [e for e in GALLERY if isinstance(e.g, PolynomialSymbol)]
        seen = bisections(monkeypatch, lambda: [
            # each gallery polynomial has degree at most 2
            bidiagonal_sigma_min(e.c, e.d, np.trim_zeros(e.g.series(8).coeffs, "b"), n)
            for e in entries
        ])
        assert len(seen) == len(entries)
        # the zeros inside the disc leave sigma at rounding level from N = 256 on
        assert assert_floor_keeps_the_bits(seen) >= (3 if n >= 256 else 0)

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_shift_windows(self, monkeypatch, n):
        seen = bisections(monkeypatch, lambda: shift_window_demo(n, 2.0))
        assert len(seen) == 2
        assert assert_floor_keeps_the_bits(seen) == 1  # the adjoint's zero column

    @pytest.mark.parametrize("n", [CUT, 1024])
    @pytest.mark.parametrize("case", sorted(DENSE_CASES))
    def test_dense_cases(self, monkeypatch, case, n):
        m = np.asfortranarray(DENSE_CASES[case](n))
        seen = bisections(monkeypatch, lambda: lapack.dense_band_sigma(m))
        assert len(seen) == 1
        assert_floor_keeps_the_bits(seen)


#: the refusals of the binding, each set up in a fresh interpreter before berglab is
#: imported: numpy's LAPACK reported without 64-bit integers, its library file missing,
#: one routine missing from it
BIND_FAILURES = {
    "no USE64BITINT": (
        "config = numpy.show_config(mode='dicts')\n"
        "lapack_info = config['Build Dependencies']['lapack']\n"
        "lapack_info['openblas configuration'] = "
        "lapack_info['openblas configuration'].replace('USE64BITINT', '')\n"
        "numpy.show_config = lambda mode: config\n",
        "not scipy-openblas with USE64BITINT",
    ),
    "no library": (
        "numpy.__file__ = {missing!r}\n",
        "holds 0 libscipy_openblas64_*.so, not 1",
    ),
    "missing symbol": (
        "def get(library, name, get=ctypes.CDLL.__getitem__):\n"
        "    if 'dstebz' in name:\n"
        "        raise AttributeError(name)  # as dlsym finds no such symbol\n"
        "    return get(library, name)\n"
        "ctypes.CDLL.__getitem__ = get\n",
        "exports no scipy_dstebz_64_",
    ),
}


def refused_run_values(outdir):
    """The sigma_min of every caller of a banded route: the trend of a narrow polynomial
    band (bidiagonal route) and of a narrow rational g (pencil), the shift demo's
    windows, a real matrix of 768 columns (band reduction) and a closed-form build (the
    trend's route table).  Self-contained, so that a fresh interpreter runs its source."""
    import json

    import numpy as np

    from berglab import analysis, cli
    from berglab.symbols import HarmonicSymbol, PolynomialSymbol, RationalSymbol

    trends = [
        analysis.bounded_below_trend(HarmonicSymbol(1.0, 0.5, g), (128, 256, 512)).sigma_min
        for g in (PolynomialSymbol([2.0, 1.0, 0.3]), RationalSymbol([1.0, 0.5], [2.0, -0.5]))
    ]
    demo = analysis.shift_window_demo(64, 2.0)
    wide = np.random.default_rng(768).normal(size=(768, 768))
    symbol = {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}}
    build = {"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 128,
             "symbol": symbol}
    cli.run_scenario(build, str(outdir))
    with open(outdir / "report.json") as fh:
        built = json.load(fh)["sigma_min"]
    return [*map(list, trends), demo.window_ratio_adjoint, demo.window_ratio_mix,
            analysis.smallest_singular_value(wide), built]


class TestNumpyOpenblas:
    """The banded routes call LAPACK through ctypes only from numpy's own 64-bit
    OpenBLAS, bound when ``berglab.lapack`` is imported (DECISIONS.md entry 19)."""

    def test_numpy_reports_the_pinned_library(self):
        reported = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert reported["name"] == "scipy-openblas"
        assert "USE64BITINT" in reported["openblas configuration"].split()
        assert isinstance(lapack._ROUTINES, dict)
        assert set(lapack._ROUTINES) == set(lapack._LAPACK_PROTOTYPES)
        assert lapack._POINTER_DTYPES["int *"] is np.int64

    @pytest.mark.parametrize("name", sorted(lapack._LAPACK_PROTOTYPES))
    def test_numpy_exports_the_pinned_routine(self, name):
        routine = lapack._lapack_routine(name)
        assert routine.__name__ == f"scipy_{name}_64_" and routine.restype is None
        params = lapack._LAPACK_PROTOTYPES[name][len("void (") : -1].split(", ")
        assert len(routine.argtypes) == len(params)
        for param, argtype in zip(params, routine.argtypes):
            if param == "char *":
                assert argtype is ctypes.c_char_p
            else:  # ndpointer makes one class per dtype and flags
                assert argtype is np.ctypeslib.ndpointer(
                    lapack._POINTER_DTYPES[param], flags=("F_CONTIGUOUS", "WRITEABLE")
                )

    @pytest.mark.parametrize("failure", sorted(BIND_FAILURES))
    def test_refusal_at_the_first_banded_call(self, tmp_path, monkeypatch, failure):
        setup, reason = BIND_FAILURES[failure]
        missing = str(tmp_path / "site-packages" / "numpy" / "__init__.py")
        code = (
            "import ctypes, json, pathlib, numpy\n"
            + setup.format(missing=missing)
            + "from berglab import lapack\n"
            "print(lapack.available())\n"
            "try:\n"
            "    lapack.bidiagonal_sigma(1.0, 0.5, numpy.array([2.0, 1.0, 0.3]), 64)\n"
            "except Exception as exc:\n"
            "    print(exc)\n"
            + inspect.getsource(refused_run_values)
            + f"print(json.dumps(refused_run_values(pathlib.Path({str(tmp_path / 'b')!r}))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=subprocess_env(),
        )
        available, refusal, values = proc.stdout.splitlines()
        # import berglab succeeds, and a banded call is refused with what numpy reports
        assert available == "False"
        assert refusal.startswith(
            f"banded LAPACK unavailable: numpy {np.__version__} reports LAPACK 'scipy-openblas'"
        )
        assert reason in refusal
        # every caller took the dense SVD instead, bit for bit as in this process with the
        # binding refused; with it bound, each of them takes a LAPACK route
        monkeypatch.setattr(lapack, "_ROUTINES", "refused")
        assert json.loads(values) == refused_run_values(tmp_path)

    def test_wrong_arguments_are_refused_before_the_call(self):
        # the prototype's int * M gets a double: ctypes refuses it before LAPACK runs
        with pytest.raises(ctypes.ArgumentError, match="int64"):
            lapack._call_lapack("dgbbrd", b"N", np.array(4.0), *[0] * 15)
        # and a 32-bit integer, which this OpenBLAS would read as half of one
        with pytest.raises(ctypes.ArgumentError, match="int64"):
            lapack._call_lapack("dgbbrd", b"N", np.array(4, np.int32), *[0] * 15)
        # and so a C-ordered band, and a read-only one
        band = np.zeros((3, 4))
        read_only = np.zeros(4)
        read_only.flags.writeable = False
        for ab in (band, read_only):
            with pytest.raises(ctypes.ArgumentError, match="F_CONTIGUOUS|WRITEABLE"):
                lapack._call_lapack("dgbbrd", b"N", 4, 4, 0, 1, 1, ab, *[0] * 10)

    @pytest.mark.parametrize("name", sorted(lapack._LAPACK_PROTOTYPES))
    def test_wrong_argument_count_is_refused_before_the_call(self, monkeypatch, name):
        # one argument short or one too many is refused before ctypes sees any; the INFO
        # that _call_lapack appends counts against the prototype, and dlarft and dlarfb
        # have none, so their callers pass every argument themselves
        params = lapack._LAPACK_PROTOTYPES[name][len("void (") : -1].split(", ")
        given = len(params) - (params[-1] == "info *")
        assert (name in ("dlarfb", "dlarft")) == (given == len(params))

        class Unreached:
            argtypes = lapack._lapack_routine(name).argtypes

            def __call__(self, *args):
                raise AssertionError(f"{name} called with {len(args)} arguments")

        monkeypatch.setattr(lapack, "_lapack_routine", lambda _: Unreached())
        for count in (given - 1, given + 1):
            with pytest.raises(ValueError, match="zip"):
                lapack._call_lapack(name, *[0] * count)

    def test_nonzero_info_is_refused(self, monkeypatch):
        class Routine:
            argtypes = ctypes.c_char_p, np.ctypeslib.ndpointer(np.int64, flags=("F", "W"))

            def __call__(self, job, info):
                info[...] = 3

        monkeypatch.setattr(lapack, "_lapack_routine", lambda name: Routine())
        with pytest.raises(NumericalError, match="LAPACK dgbbrd returned info 3"):
            lapack._call_lapack("dgbbrd", b"N")

    @pytest.mark.parametrize("name", ["dsbgvx", "zhbgvx"])
    def test_only_a_failed_split_of_b_is_an_indefinite_pencil(self, monkeypatch, name):
        # INFO = N + i: B's split Cholesky failed at i; INFO <= N is refused as before
        argtypes = lapack._lapack_routine(name).argtypes
        for info, error in ((4, NumericalError), (5, lapack.IndefinitePencil)):

            class Routine:
                def __call__(self, *args, info=info):
                    args[-1][...] = info

            Routine.argtypes = argtypes
            monkeypatch.setattr(lapack, "_lapack_routine", lambda _: Routine())
            with pytest.raises(NumericalError, match=f"{name} returned info {info}") as exc:
                lapack._call_lapack(name, b"N", b"I", b"U", 4, *[0] * (len(argtypes) - 5))
            assert type(exc.value) is error


class TestDenseFallback:
    """Where numpy's OpenBLAS is not bound, every caller of a banded route takes the dense
    SVD that the route replaces, and none asks for a LAPACK routine."""

    @pytest.fixture(autouse=True)
    def refused(self, monkeypatch):
        monkeypatch.setattr(lapack, "_ROUTINES", "refused")
        self.routines = lapack_calls(monkeypatch)
        yield
        assert self.routines == []

    def test_wide_real_matrix_takes_the_svd(self):
        m = gaussian(CUT)
        assert smallest_singular_value(m) == np.linalg.svd(m, compute_uv=False)[-1]

    @pytest.mark.parametrize(
        "phi", [pencil_symbol(*PENCIL_CASES["real"]), WORKLOAD_RATIONAL], ids=["poly", "rational"]
    )
    def test_narrow_bands_take_the_dense_svd(self, monkeypatch, phi):
        sizes = (128, 256, 512)
        trend, calls = TestBandedSigmaMin._dense_calls(monkeypatch, phi, sizes)
        assert calls == list(sizes)
        for n, s in zip(sizes, trend.sigma_min):
            assert_matches_dense(s, phi, n)

    @pytest.mark.parametrize("n, s", [(16, 2.0), (64, 1.5 - 2j)])
    def test_shift_demo_takes_the_dense_windows(self, n, s):
        demo = shift_window_demo(n, s)
        a = toeplitz_analytic([0.0, 1.0], n).matrix
        mix = adjoint_mix(a, s)
        assert demo.window_ratio_adjoint == 0.0
        assert_matches_svd(demo.window_ratio_mix, mix[:, : n - 1])
        assert demo.witness_adjoint_norm == 0.0
        assert demo.witness_mix_norm == np.linalg.norm(mix[:, 0])


#: (c, d, g, N): rational g whose diagonals past a narrow band weigh below u ||T||
CUT_CASES = {
    "real": (1.0, 0.5, RationalSymbol([1.0, 0.5], [1.0, -0.05]), 512),
    "real d=0": (2.0, 0.0, RationalSymbol([1.0, 0.5], [1.0, -0.05]), 512),
    "real c=0": (0.0, 1.5, RationalSymbol([1.0, 0.5], [1.0, -0.05]), 512),
    "complex": (1.0 - 0.5j, 0.3j, RationalSymbol([1.0, 0.5j], [1.0, -1e-6j]), 512),
}


class TestTailCut:
    """Symbols the coefficient-tail cut of earlier versions narrowed to a band, or had
    to guard, on the pencil route that replaced it: the pencil reads p and q whole."""

    @pytest.mark.parametrize("case", sorted(CUT_CASES))
    def test_cut_band_matches_dense_svd(self, monkeypatch, case):
        c, d, g, n = CUT_CASES[case]
        phi = HarmonicSymbol(c, d, g)
        sizes = (n // 4, n // 2, n)
        trend, calls = TestBandedSigmaMin._dense_calls(monkeypatch, phi, sizes)
        # a complex pencil of bandwidth 3 pays from N = 3 * 64 on
        assert calls == ([n // 4] if case == "complex" else [])
        monkeypatch.undo()
        # LAPACK's banded Hermitian reduction loses 83 u ||T|| at N = 512 on this pencil,
        # whose outer diagonals are tiny; the zhbevx route it replaces lost 79 there
        allowance = 128 if case == "complex" else 16
        for m, s in zip(sizes, trend.sigma_min):
            assert_matches_dense(s, phi, m, allowance)

    def test_workload_rational_goes_banded_at_1024(self, monkeypatch):
        sizes = (256, 512, 1024)
        trend, calls = TestBandedSigmaMin._dense_calls(monkeypatch, WORKLOAD_RATIONAL, sizes)
        assert calls == []
        monkeypatch.undo()
        assert_matches_dense(trend.sigma_min[-1], WORKLOAD_RATIONAL, 1024)

    def test_pole_near_the_circle_goes_banded(self, monkeypatch):
        # a_k = 0.99^k: no coefficient tail is negligible within N = 256
        phi = HarmonicSymbol(1.0, 0.5, RationalSymbol([1.0], [1.0, -0.99]))
        sizes = (64, 128, 256)
        trend, calls = TestBandedSigmaMin._dense_calls(monkeypatch, phi, sizes)
        assert calls == []
        monkeypatch.undo()
        for n, s in zip(sizes, trend.sigma_min):
            assert_matches_dense(s, phi, n)

    @pytest.mark.parametrize(
        "scaled, unit",
        [
            # |a_k|^2 overflows: the pencil scales p, q, c and d by powers of two first
            (
                HarmonicSymbol(1.0, 0.25, RationalSymbol([1e200, 5e199], [2.0, -0.5])),
                WORKLOAD_RATIONAL,
            ),
            (
                HarmonicSymbol(1.0, 0.5, PolynomialSymbol([1e200, 1e200])),
                HarmonicSymbol(1.0, 0.5, PolynomialSymbol([1.0, 1.0])),
            ),
            # huge c and d: sigma_min is homogeneous in (c, d)
            (
                HarmonicSymbol(1e200, 0.5e200, CUT_CASES["real"][2]),
                HarmonicSymbol(1.0, 0.5, CUT_CASES["real"][2]),
            ),
        ],
        ids=["rational coefficients", "polynomial coefficients", "c and d"],
    )
    def test_huge_scales_keep_the_scaled_trend(self, scaled, unit):
        sizes = (64, 128, 512)
        got = bounded_below_trend(scaled, sizes).sigma_min
        expected = 1e200 * np.asarray(bounded_below_trend(unit, sizes).sigma_min)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_non_finite_coefficients_are_never_cut(self):
        # the long division of these p and q overflows to inf - inf from a_1 on; the dense
        # route below the pencil's crossover divides the scaled p and q instead, and
        # answers as the pencil does above it
        q = [1.0, -0.5, 0.3]
        phi = HarmonicSymbol(1.0, 0.0, RationalSymbol([1.7e308, 1.7e308], q))
        unit = HarmonicSymbol(1.0, 0.0, RationalSymbol([1.7e308 * 2.0**-1023] * 2, q))
        sizes = (4, 8, 16)
        got = bounded_below_trend(phi, sizes).sigma_min
        assert got == tuple(np.ldexp(bounded_below_trend(unit, sizes).sigma_min, 1023))

    def test_overflowing_series_has_a_finite_pencil_answer(self):
        # the same symbol from N = 5 * 16 on: the pencil reads p and q, not the series
        q = [1.0, -0.5, 0.3]
        phi = HarmonicSymbol(1.0, 0.0, RationalSymbol([1.7e308, 1.7e308], q))
        unit = HarmonicSymbol(1.0, 0.0, RationalSymbol([1.7e308 * 2.0**-1023] * 2, q))
        sizes = (80, 128, 512)
        got = bounded_below_trend(phi, sizes).sigma_min
        expected = bounded_below_trend(unit, sizes).sigma_min
        # powers of two scale exactly: the same pencil, bit for bit
        assert got == tuple(np.ldexp(expected, 1023))
        assert 1e305 < got[-1] < got[0] < 1e308
        for n, s in zip(sizes, expected):
            assert_matches_dense(s, unit, n)

    def test_overflowing_sigma_is_refused(self):
        # sigma_min near 1e308 * 1e308 * 0.6: beyond the float range on every route
        phi = HarmonicSymbol(1e308, 0.0, RationalSymbol([1e308, 1e308], [1.0, -0.5]))
        with pytest.raises(NumericalError, match="non-finite"):
            bounded_below_trend(phi, (64, 128, 256))
