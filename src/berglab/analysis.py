"""Spectral diagnostics: bounded-below trends, mix checks, verdicts.

Invertibility of an operator on an infinite-dimensional space cannot be
read off one finite truncation, so everything here reports trends over
a schedule of sizes and keeps verdicts three-valued.  The smallest
singular value is the finite proxy for "bounded below": in finite
dimension sigma_min(T) = sigma_min(T^*), so a single number serves both
the operator and its adjoint.

The abstract results exercised here concern combinations s T + T^* for
hyponormal T.  A finite hyponormal matrix is already normal (the
commutator T^*T - TT^* has nonnegative diagonal trace zero), so random
normal matrices are the exact finite model of the hypothesis, and the
genuinely non-normal content survives in windowed experiments on the
Bergman shift compression, where the truncation acts exactly on padded
coefficient windows.

Key facts the checks lean on, all verified rather than assumed:

* |s| < 1: bounded-below transfers between T^* and s T + T^*, with the
  quantitative floor sigma_min(s T + T^*) >= (1 - |s|) sigma_min(T);
* |s| > 1: the two-sided sandwich (|s|-1) ||Th|| <= ||(sT+T^*)h|| <=
  (|s|+1) ||Th||;
* |s| = 1: s A + A^* is normal for every A, by the identity
  N^*N - NN^* = (|s|^2 - 1)(A^*A - AA^*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .symbols import (
    DiscGrid,
    HarmonicSymbol,
    ModulusScan,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    default_modulus_grid,
    inf_modulus,
    power_symbol,
)
from .toeplitz import (
    TruncatedOperator,
    _analytic_matrix,
    _jordan_wielandt_band,
    toeplitz_analytic,
    toeplitz_harmonic,
)

__all__ = [
    "SIGMA_POSITIVE_TOL",
    "INF_POSITIVE_TOL",
    "DRIFT_THRESHOLD",
    "TrendReport",
    "InvertibilityReport",
    "VerdictConfig",
    "MixBoundCheck",
    "MixSandwichCheck",
    "MixTransferCheck",
    "ShiftWindowDemo",
    "PowerStudyReport",
    "smallest_singular_value",
    "check_schedule",
    "check_mix_s",
    "check_shift_window",
    "bounded_below_trend",
    "normality_defect",
    "adjoint_mix",
    "mix_bound_check",
    "mix_sandwich_check",
    "mix_transfer_check",
    "shift_window_demo",
    "random_normal_matrix",
    "invertibility_verdict",
    "power_symbol_study",
]

#: sigma_min above this counts as "bounded below" at desk scale
SIGMA_POSITIVE_TOL = 1e-6
#: grid minimum of |phi| above this counts as positive infimum
INF_POSITIVE_TOL = 1e-3
#: trend counts as stabilized when the last relative step is below this
DRIFT_THRESHOLD = 0.05
#: the trend takes the banded route while (2 deg + 1) * ratio <= N: band
#: tridiagonalization costs O(N^2 deg), and these ratios keep it below the
#: dense SVD (1 BLAS thread); complex bands go through LAPACK hbevx, about
#: 4x slower than sbevx on real ones
_BAND_RATIO_REAL = 16
_BAND_RATIO_COMPLEX = 64

_NOTES = (
    "grid minimum of |phi| is an upper bound for the true infimum",
    "sigma_min trend is a finite-section heuristic, not a certificate",
)


def _as_matrix(t) -> np.ndarray:
    if isinstance(t, TruncatedOperator):
        return t.matrix
    arr = np.asarray(t, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def smallest_singular_value(t) -> float:
    """sigma_min via full SVD; equals sigma_min of the adjoint exactly."""
    m = _as_matrix(t)
    try:
        return float(np.linalg.svd(m, compute_uv=False)[-1])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"SVD failed on {m.shape[0]} x {m.shape[1]} matrix") from exc


def _banded_sigma_min(ab: np.ndarray) -> float:
    """sigma_min of T from the upper band storage of [[0, T], [T^*, 0]].

    The 2N eigenvalues are +-sigma_i(T), so the one at ascending index N
    is +sigma_min; bisection on the band finds it at absolute accuracy
    eps ||T||, without squaring the condition number as T^*T would.
    """
    # scipy.linalg adds ~0.07 s and ~6 MB to a launch; only this route needs it
    from scipy.linalg import eigvals_banded

    n = ab.shape[1] // 2
    if not ab.imag.any():
        ab = ab.real  # sbevx, about 4x faster than hbevx
    # bisection can return a rounding-level value just below zero
    return float(abs(eigvals_banded(ab, select="i", select_range=(n, n))[0]))


def _trend_sigma_min(phi: HarmonicSymbol, n: int) -> float:
    """sigma_min of ``toeplitz_harmonic(phi, n)`` by the cheaper exact route.

    Polynomial g of degree 0 gives T = (c a_0 + d conj(a_0)) I; narrow
    polynomial bands take :func:`_banded_sigma_min`; everything else,
    and bands too wide to pay, the dense SVD.
    """
    if isinstance(phi.g, PolynomialSymbol):
        coeffs = np.trim_zeros(phi.g.series(n - 1).coeffs, "b")
        if len(coeffs) <= 1:
            a0 = coeffs[0] if len(coeffs) else 0.0
            return float(abs(phi.c * a0 + phi.d * np.conj(a0)))
        real = not (np.imag([phi.c, phi.d]).any() or coeffs.imag.any())
        ratio = _BAND_RATIO_REAL if real else _BAND_RATIO_COMPLEX
        if (2 * len(coeffs) - 1) * ratio <= n:
            return _banded_sigma_min(_jordan_wielandt_band(phi.c, phi.d, coeffs, n))
    return smallest_singular_value(toeplitz_harmonic(phi, n))


def normality_defect(t) -> float:
    """Frobenius norm of T^*T - TT^*; zero exactly for normal matrices."""
    m = _as_matrix(t)
    return float(np.linalg.norm(m.conj().T @ m - m @ m.conj().T))


def adjoint_mix(t, s: complex) -> np.ndarray:
    """The combination s T + T^*."""
    m = _as_matrix(t)
    return s * m + m.conj().T


def _require_normal(m: np.ndarray, tol: float) -> None:
    defect = normality_defect(m)
    if defect > tol:
        raise ValueError(
            f"matrix is not normal (commutator defect {defect:.3e} > {tol:.1e}); "
            "the transfer results assume a hyponormal operator, and the exact "
            "finite model of that hypothesis is a normal matrix"
        )


@dataclass(frozen=True)
class TrendReport:
    """sigma_min over a size schedule with a stabilization flag."""

    sizes: tuple[int, ...]
    sigma_min: tuple[float, ...]
    stabilized: bool
    relative_drift: float
    drift_threshold: float

    def to_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "sigma_min": list(self.sigma_min),
            "stabilized": self.stabilized,
            "drift": self.relative_drift,
            "drift_threshold": self.drift_threshold,
            "stabilization_rule": "last relative step below drift_threshold",
        }


def check_schedule(sizes) -> tuple[int, ...]:
    """The sizes as ints: at least three, each at least 1, strictly increasing.

    The verdict machinery reads the last relative step of a trend as
    its stabilization signal, which needs three sizes.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 3:
        raise ValueError("schedule needs at least 3 sizes")
    if min(sizes) < 1:
        raise ValueError("schedule sizes must be at least 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("schedule must be strictly increasing")
    return sizes


def check_mix_s(s, side: str) -> complex:
    """``s`` as a complex number with |s| on ``side`` of 1: "<", ">" or "!=".

    The operator-mix results hold only there: |s| < 1 for
    :func:`mix_bound_check`, |s| > 1 for :func:`mix_sandwich_check` and
    :func:`shift_window_demo`, |s| != 1 for :func:`mix_transfer_check`.
    """
    s = complex(s)
    r = abs(s)
    if side == "<" and r >= 1.0:
        raise ValueError(f"requires |s| < 1, got |s| = {r:.4f}")
    if side == ">" and r <= 1.0:
        raise ValueError(f"requires |s| > 1, got |s| = {r:.4f}")
    if side == "!=" and abs(r - 1.0) <= 1e-12:
        raise ValueError("requires |s| != 1; the equivalence fails on the unit circle")
    return s


def check_shift_window(n: int) -> int:
    """The shift truncation size of :func:`shift_window_demo`, at least 8."""
    if n < 8:
        raise ValueError("n must be at least 8")
    return n


def bounded_below_trend(
    phi: HarmonicSymbol,
    sizes=(16, 32, 64, 128, 256),
    drift_threshold: float = DRIFT_THRESHOLD,
) -> TrendReport:
    """sigma_min of the truncated operator at each size of the schedule.

    The schedule must pass :func:`check_schedule`.  Polynomial symbols
    with narrow bands never build the dense matrix (see
    :func:`_trend_sigma_min`).
    """
    sizes = check_schedule(sizes)
    sigmas = tuple(_trend_sigma_min(phi, n) for n in sizes)
    drift = abs(sigmas[-1] - sigmas[-2]) / max(sigmas[-2], 1e-300)
    return TrendReport(
        sizes=sizes,
        sigma_min=sigmas,
        stabilized=bool(drift < drift_threshold),
        relative_drift=float(drift),
        drift_threshold=float(drift_threshold),
    )


@dataclass(frozen=True)
class MixBoundCheck:
    """Transfer of bounded-below between T^* and s T + T^* for |s| < 1."""

    n: int
    s: complex
    sigma_t: float
    sigma_mix: float
    equivalence_holds: bool
    lower_bound: float
    bound_holds: bool | None


def mix_bound_check(
    t,
    s: complex,
    tol: float = SIGMA_POSITIVE_TOL,
    normal_tol: float = 1e-10,
) -> MixBoundCheck:
    """For normal T and |s| < 1: s T + T^* inherits bounded-below from T.

    Records sigma_min on both sides, the equivalence verdict (both
    positive or both vanishing relative to ``tol``), and the
    quantitative floor (1 - |s|) sigma_min(T) whenever T is invertible.
    """
    m = _as_matrix(t)
    s = check_mix_s(s, "<")
    _require_normal(m, normal_tol)
    sigma_t = smallest_singular_value(m)
    sigma_mix = smallest_singular_value(adjoint_mix(m, s))
    both_pos = sigma_t > tol and sigma_mix > tol
    both_zero = sigma_t <= tol and sigma_mix <= tol
    lower = (1.0 - abs(s)) * sigma_t
    return MixBoundCheck(
        n=m.shape[0],
        s=s,
        sigma_t=sigma_t,
        sigma_mix=sigma_mix,
        equivalence_holds=bool(both_pos or both_zero),
        lower_bound=lower,
        bound_holds=bool(sigma_mix >= lower - 1e-12) if sigma_t > tol else None,
    )


@dataclass(frozen=True)
class MixSandwichCheck:
    """Two-sided ratio bounds for s T + T^* against T when |s| > 1."""

    n: int
    s: complex
    trials: int
    ratio_min: float
    ratio_max: float
    lower: float
    upper: float
    within_bounds: bool
    sigma_t: float
    sigma_mix: float
    equivalence_holds: bool


def mix_sandwich_check(
    t,
    s: complex,
    trials: int = 1000,
    rng=None,
    tol: float = SIGMA_POSITIVE_TOL,
    normal_tol: float = 1e-10,
) -> MixSandwichCheck:
    """For normal T, |s| > 1: (|s|-1)||Th|| <= ||(sT+T^*)h|| <= (|s|+1)||Th||.

    Samples ``trials`` random complex vectors h and reports the observed
    ratio range; vectors annihilated by T are skipped (for normal T the
    kernel of T^* agrees, so the sandwich is trivially 0 <= 0 there).
    """
    m = _as_matrix(t)
    s = check_mix_s(s, ">")
    _require_normal(m, normal_tol)
    rng = np.random.default_rng(rng)
    n = m.shape[0]
    mix = adjoint_mix(m, s)
    h = rng.normal(size=(n, trials)) + 1j * rng.normal(size=(n, trials))
    th = np.linalg.norm(m @ h, axis=0)
    mh = np.linalg.norm(mix @ h, axis=0)
    mask = th > 1e-14 * np.linalg.norm(h, axis=0)
    ratios = mh[mask] / th[mask]
    sigma_t = smallest_singular_value(m)
    sigma_mix = smallest_singular_value(mix)
    both_pos = sigma_t > tol and sigma_mix > tol
    both_zero = sigma_t <= tol and sigma_mix <= tol
    lower, upper = abs(s) - 1.0, abs(s) + 1.0
    return MixSandwichCheck(
        n=n,
        s=s,
        trials=int(trials),
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
        lower=lower,
        upper=upper,
        within_bounds=bool(
            ratios.min() >= lower - 1e-10 and ratios.max() <= upper + 1e-10
        ),
        sigma_t=sigma_t,
        sigma_mix=sigma_mix,
        equivalence_holds=bool(both_pos or both_zero),
    )


@dataclass(frozen=True)
class MixTransferCheck:
    """Invertibility equivalence of T and s T + T^* for |s| != 1."""

    n: int
    s: complex
    sigma_t: float
    sigma_mix: float
    t_invertible: bool
    mix_invertible: bool
    transfer_holds: bool


def mix_transfer_check(
    t,
    s: complex,
    tol: float = SIGMA_POSITIVE_TOL,
    normal_tol: float = 1e-10,
) -> MixTransferCheck:
    """For normal T and |s| != 1: T invertible iff s T + T^* invertible.

    |s| = 1 is rejected: there the equivalence genuinely fails in
    infinite dimension (the shift furnishes a counterexample), so a
    silent answer would be misleading.
    """
    m = _as_matrix(t)
    s = check_mix_s(s, "!=")
    _require_normal(m, normal_tol)
    sigma_t = smallest_singular_value(m)
    sigma_mix = smallest_singular_value(adjoint_mix(m, s))
    t_inv = sigma_t > tol
    mix_inv = sigma_mix > tol
    return MixTransferCheck(
        n=m.shape[0],
        s=s,
        sigma_t=sigma_t,
        sigma_mix=sigma_mix,
        t_invertible=t_inv,
        mix_invertible=mix_inv,
        transfer_holds=bool(t_inv == mix_inv),
    )


@dataclass(frozen=True)
class ShiftWindowDemo:
    """The shift compression: adjoint loses bounded-below, the mix keeps it.

    ``window_ratio_*`` are minima of ||M f|| / ||f|| over coefficient
    vectors supported on degrees <= n - 2, where the truncation agrees
    with the infinite operator exactly.  The adjoint ratio is 0 (first
    basis vector is annihilated); the mix ratio stays away from 0.
    """

    n: int
    s: complex
    witness_adjoint_norm: float
    witness_mix_norm: float
    window_ratio_adjoint: float
    window_ratio_mix: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "s": [self.s.real, self.s.imag],
            "witness_adjoint_norm": self.witness_adjoint_norm,
            "witness_mix_norm": self.witness_mix_norm,
            "window_ratio_adjoint": self.window_ratio_adjoint,
            "window_ratio_mix": self.window_ratio_mix,
        }


def shift_window_demo(n: int, s: complex) -> ShiftWindowDemo:
    """Windowed bounded-below experiment on the Bergman shift truncation.

    Requires n >= 8 and |s| > 1.  The witness vector is e_0: the first
    row of the shift truncation vanishes, so the adjoint annihilates it
    while the mix maps it to a vector of norm |s| sqrt(1/2).
    """
    check_shift_window(n)
    s = check_mix_s(s, ">")
    a = toeplitz_analytic([0.0, 1.0], n).matrix
    mix = s * a + a.conj().T
    e0 = np.zeros(n)
    e0[0] = 1.0
    adjoint_witness = float(np.linalg.norm(a.conj().T @ e0))
    mix_witness = float(np.linalg.norm(mix @ e0))
    # windowed minima: restrict inputs to the first n-1 coordinates
    window_adjoint = float(
        np.linalg.svd(a.conj().T[:, : n - 1], compute_uv=False)[-1]
    )
    window_mix = float(np.linalg.svd(mix[:, : n - 1], compute_uv=False)[-1])
    return ShiftWindowDemo(
        n=n,
        s=s,
        witness_adjoint_norm=adjoint_witness,
        witness_mix_norm=mix_witness,
        window_ratio_adjoint=window_adjoint,
        window_ratio_mix=window_mix,
    )


def random_normal_matrix(rng, n: int, modulus_range=(0.5, 2.0)) -> np.ndarray:
    """U diag(lambda) U^* with U from QR of a complex Gaussian matrix.

    Eigenvalue moduli are uniform in ``modulus_range`` with uniform
    phases, which keeps sigma_min = min |lambda| under direct control.
    """
    rng = np.random.default_rng(rng)
    lo, hi = modulus_range
    lam = rng.uniform(lo, hi, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return q @ np.diag(lam) @ q.conj().T


@dataclass(frozen=True)
class VerdictConfig:
    """Inputs the verdict conjunction depends on, with the lab defaults."""

    sizes: tuple[int, ...] = (16, 32, 64, 128, 256)
    grid: DiscGrid | None = None
    inf_threshold: float = INF_POSITIVE_TOL
    sigma_threshold: float = SIGMA_POSITIVE_TOL
    drift_threshold: float = DRIFT_THRESHOLD
    seed: int = 0


@dataclass(frozen=True)
class InvertibilityReport:
    """Three-valued invertibility assessment for a harmonic symbol."""

    symbol_tag: str
    case_tag: str
    coanalytic_ratio: complex | None
    scan: ModulusScan
    trend: TrendReport
    sandwich: dict | None
    verdict: str
    config: VerdictConfig

    def to_dict(self) -> dict:
        s = self.coanalytic_ratio
        return {
            "verdict": self.verdict,
            "inf_estimate": self.scan.minimum,
            "argmin": [self.scan.argmin.real, self.scan.argmin.imag],
            "sizes": list(self.trend.sizes),
            "sigma_min": list(self.trend.sigma_min),
            "drift": self.trend.relative_drift,
            "stabilized": self.trend.stabilized,
            "case_tag": self.case_tag,
            "seed": self.config.seed,
            "symbol_tag": self.symbol_tag,
            "s": None if s is None else [s.real, s.imag],
            "sandwich": self.sandwich,
            "thresholds": {
                "inf_positive": self.config.inf_threshold,
                "sigma_positive": self.config.sigma_threshold,
                "drift": self.config.drift_threshold,
            },
            "notes": list(_NOTES),
        }


def _sandwich_on_grid(phi: HarmonicSymbol, grid: DiscGrid) -> dict | None:
    """Grid version of the two-sided reduction to the analytic part.

    For phi = d (s g + conj(g)) with |s| != 1,
    ||s| - 1| inf|g| <= inf|s g + conj(g)| <= (|s| + 1) inf|g| holds
    pointwise by the triangle inequality; evaluated on the shared grid.
    """
    s = phi.coanalytic_ratio
    if s is None or phi.c == 0 or abs(abs(s) - 1.0) <= 1e-12:
        return None
    nodes = phi.g(grid.nodes().ravel())
    gabs = np.abs(nodes)
    combo = np.abs(s * nodes + np.conj(nodes))
    inf_g = float(gabs.min())
    inf_combo = float(combo.min())
    lower = abs(abs(s) - 1.0) * inf_g
    upper = (abs(s) + 1.0) * inf_g
    return {
        "s_modulus": abs(s),
        "inf_g": inf_g,
        "inf_combo": inf_combo,
        "lower": lower,
        "upper": upper,
        "holds": bool(lower - 1e-12 <= inf_combo <= upper + 1e-12),
    }


def invertibility_verdict(
    phi: HarmonicSymbol, config: VerdictConfig = VerdictConfig()
) -> InvertibilityReport:
    """Conjunction verdict: positive infimum plus a stabilized sigma floor.

    ``invertible_likely`` needs both signals; ``not_invertible_likely``
    needs the infimum evidence to fail and the sigma floor to collapse;
    everything else stays ``inconclusive``.  The grid minimum only
    upper-bounds the infimum and finite sections only approximate the
    operator, so the verdict is evidence, not proof, and says so in its
    notes.
    """
    grid = config.grid or default_modulus_grid()
    scan = inf_modulus(phi, grid)
    trend = bounded_below_trend(phi, config.sizes, config.drift_threshold)
    sandwich = _sandwich_on_grid(phi, grid)
    inf_pos = scan.minimum > config.inf_threshold
    floor = trend.sigma_min[-1]
    sigma_pos = trend.stabilized and floor > config.sigma_threshold
    if inf_pos and sigma_pos:
        verdict = "invertible_likely"
    elif not inf_pos and floor <= config.sigma_threshold:
        verdict = "not_invertible_likely"
    else:
        verdict = "inconclusive"
    return InvertibilityReport(
        symbol_tag=phi.tag(),
        case_tag=phi.case_tag,
        coanalytic_ratio=phi.coanalytic_ratio,
        scan=scan,
        trend=trend,
        sandwich=sandwich,
        verdict=verdict,
        config=config,
    )


@dataclass(frozen=True)
class PowerStudyReport:
    """Desk-scale study of the oscillatory quotient symbol.

    The symbol ((1+z)/(1-z))^{i t} factors as (1+z)^{i t} times
    (1-z)^{-i t}; multiplying its truncation by the (1-z)^{i t}
    truncation must reproduce the (1+z)^{i t} truncation exactly,
    because truncations of analytic-symbol operators multiply exactly
    (lower triangular structure).  ``residuals`` records the max-abs
    defect of that factorization per size; machine-scale values are the
    expected outcome, and growth would flag a coefficient-route bug.
    """

    t: float
    modulus_bound: float
    factor_bound: float
    grid_min: float
    grid_min_plus: float
    grid_min_minus: float
    bounds_hold: bool
    sizes: tuple[int, ...]
    residuals: tuple[float, ...]
    trend: TrendReport

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "modulus_bound": self.modulus_bound,
            "factor_bound": self.factor_bound,
            "grid_min": self.grid_min,
            "grid_min_plus": self.grid_min_plus,
            "grid_min_minus": self.grid_min_minus,
            "bounds_hold": self.bounds_hold,
            "sizes": list(self.sizes),
            "residuals": list(self.residuals),
            "trend": self.trend.to_dict(),
        }


def power_symbol_study(
    t: float,
    sizes=(32, 64, 128, 256),
    grid: DiscGrid | None = None,
    drift_threshold: float = DRIFT_THRESHOLD,
) -> PowerStudyReport:
    """Bounds, factorization residuals, and sigma trend for the quotient symbol.

    Refuses |t| > 20: the coefficient recurrences stay stable but the
    modulus spread e^{|t| pi} makes every floor meaningless at double
    precision well before that.
    """
    t = float(t)
    if abs(t) > 20.0:
        raise NumericalError(
            f"|t| = {abs(t):g} refused: modulus spread e^(|t| pi) exceeds "
            "double-precision dynamic range for trustworthy floors"
        )
    sizes = check_schedule(sizes)
    grid = grid or default_modulus_grid()
    ratio = power_symbol(t)
    plus = PrincipalPowerSymbol(t, 0.0)
    minus = PrincipalPowerSymbol(0.0, t)

    bound = float(np.exp(-abs(t) * np.pi))
    factor_bound = float(np.exp(-abs(t) * np.pi / 2))
    grid_min = inf_modulus(ratio, grid).minimum
    grid_min_plus = inf_modulus(plus, grid).minimum
    grid_min_minus = inf_modulus(minus, grid).minimum
    bounds_hold = bool(
        grid_min >= bound - 1e-12
        and grid_min_plus >= factor_bound - 1e-12
        and grid_min_minus >= factor_bound - 1e-12
    )

    residuals = []
    for n in sizes:
        # bare matrices, one operand at a time: three N x N operators plus
        # their copies set the peak memory of the whole study otherwise
        defect = _analytic_matrix(minus.series(n - 1).coeffs, n)
        defect = defect @ _analytic_matrix(ratio.series(n - 1).coeffs, n)
        defect -= _analytic_matrix(plus.series(n - 1).coeffs, n)
        residuals.append(float(np.max(np.abs(defect))))
        del defect

    trend = bounded_below_trend(
        HarmonicSymbol(1.0, 0.0, ratio), sizes, drift_threshold
    )
    return PowerStudyReport(
        t=t,
        modulus_bound=bound,
        factor_bound=factor_bound,
        grid_min=grid_min,
        grid_min_plus=grid_min_plus,
        grid_min_minus=grid_min_minus,
        bounds_hold=bounds_hold,
        sizes=sizes,
        residuals=tuple(residuals),
        trend=trend,
    )
