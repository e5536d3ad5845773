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

A report dataclass's fields, in declaration order, are the layout of
the JSON report written from it (``dataclasses.asdict``); a field with
``init=False`` is a constant the report states.  A property, such as a
mix check's ``passed`` and ``margin``, is not a field and stays out of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .disc import _eval_on_nodes
from .errors import NumericalError, _at_least
from .symbols import (
    DiscGrid,
    HarmonicSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
    _MINUS_I_POWERS,
    _quotient_series,
    default_modulus_grid,
    inf_modulus,
    power_symbol,
)
from .toeplitz import TruncatedOperator, _analytic_matrix

__all__ = [
    "SIGMA_POSITIVE_TOL",
    "INF_POSITIVE_TOL",
    "DRIFT_THRESHOLD",
    "TrendReport",
    "InvertibilityReport",
    "MixBoundCheck",
    "MixSandwichCheck",
    "MixTransferCheck",
    "ShiftWindowDemo",
    "PowerStudyReport",
    "smallest_singular_value",
    "check_schedule",
    "check_threshold",
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
#: commutator defect above this refuses a matrix as not normal
_NORMAL_TOL = 1e-10
#: the trend takes a banded route while (2m + 1) * ratio <= N: both reductions cost
#: O(N^2 m).  The ratios keep the pencil (rational g) below the dense SVD (1 BLAS thread),
#: zhbgvx being slower than dsbgvx; polynomial bands, real or complex, take the real
#: ratio, their bidiagonal route breaking even with the dense SVD near N / (2m + 1) = 8
_BAND_RATIO_REAL = 16
_BAND_RATIO_COMPLEX = 64
#: a real matrix with at least this many columns takes :func:`lapack.dense_band_sigma`,
#: which breaks even with the dense SVD between N = 448 and 512 (1 BLAS thread;
#: DECISIONS.md entry 14)
_BAND_REDUCTION_CUT = 512
#: the denominator of a polynomial
_ONE = np.ones(1)
#: g = z, whose section is the Bergman shift's
_Z = np.array([0.0, 1.0])

_NOTES = (
    "grid minimum of |phi| is an upper bound for the true infimum",
    "sigma_min trend is a finite-section heuristic, not a certificate",
)


def _as_matrix(t) -> np.ndarray:
    """``t``'s matrix (float64 as it is, else complex128): a section or a window of its
    columns; a wider matrix is refused, as its sigma_min is not inf ||M x|| / ||x||."""
    if isinstance(t, TruncatedOperator):
        return t.matrix
    arr = np.asarray(t)
    arr = arr if arr.dtype == np.float64 else np.asarray(arr, dtype=np.complex128)
    if arr.ndim != 2 or not 0 < arr.shape[1] <= arr.shape[0]:
        raise ValueError("expected a nonempty matrix with no more columns than rows")
    return arr


def _as_square(t) -> np.ndarray:
    """``t``'s matrix by :func:`_as_matrix`, refused unless square."""
    m = _as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return m


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """``m`` as a contiguous real array, for real LAPACK at about half the cost,
    when its imaginary part is exactly zero; a strided ``.real`` would slow matmul."""
    return m if np.isrealobj(m) or m.imag.any() else np.ascontiguousarray(m.real)


def smallest_singular_value(t) -> float:
    """sigma_min of a dense matrix: inf ||M x|| / ||x|| over a section, equal to the
    adjoint's exactly, or over a window of its columns.  A real matrix of at least
    ``_BAND_REDUCTION_CUT`` columns takes :func:`lapack.dense_band_sigma` where
    :func:`lapack.available`, any other the package's only SVD.  A failed SVD or a
    non-finite sigma_min, which an infinite or NaN entry gives, is refused alike on both."""
    return _sigma_min(_as_matrix(t), owned=False)


def _sigma_min(m: np.ndarray, owned: bool) -> float:
    """:func:`smallest_singular_value` of ``m``, which the band route overwrites when
    ``owned`` and reduces in one private Fortran copy otherwise (``DECISIONS.md`` entry 20)."""
    real = np.isrealobj(m) or not m.imag.any()
    try:
        if real and m.shape[1] >= _BAND_REDUCTION_CUT and lapack.available():
            sigma = lapack.dense_band_sigma(m.real if owned else np.array(m.real, order="F"))
        else:
            sigma = float(np.linalg.svd(_real_if_exact(m), compute_uv=False)[-1])
    except np.linalg.LinAlgError:  # the real SVD reports a NaN entry as no convergence
        sigma = math.nan
    return _finite_sigma(sigma, f"of a {m.shape[0]} x {m.shape[1]} matrix")


def _finite_sigma(sigma: float, where: str) -> float:
    """``sigma``, refused unless finite: every route's sigma_min, computed ``where``."""
    if not math.isfinite(sigma):
        raise NumericalError(f"sigma_min {sigma} {where}; refusing a non-finite or failed result")
    return sigma


def _scaled_sigma_min(route, c, d, *polys, n: int) -> float:
    """``route(c, d, *polys, n=n)``: sigma_min of T = c A + d A^*, A the truncation of
    g = p (``polys = (p,)``) or g = p/q (``(p, q)``), run on (c, d), p and q each
    brought to a largest modulus in [1/2, 1) by an exact power of two, and as float64
    when all of them are real.

    LAPACK's banded routines do not scale their input, and the long division of p/q
    can overflow where T does not.  A power of two commutes with every float operation
    that neither overflows nor underflows, so sigma is scaled back exactly; a sigma that
    is NaN or beyond the float range is refused.
    """
    parts = [np.array([c, d], dtype=np.complex128), *polys]
    exps = [int(np.frexp(np.abs(x).max())[1]) for x in parts]
    # x * 2**-e on the float64 view: exact unless an entry underflows
    parts = [np.ldexp(x.view(np.float64), -e).view(x.dtype) for x, e in zip(parts, exps)]
    if not any(x.imag.any() for x in parts):
        parts = [x.real for x in parts]
    (c, d), *polys = parts
    sigma = lapack._scale_back(route(c, d, *polys, n=n), exps[0] + exps[1] - sum(exps[2:]))
    return _finite_sigma(sigma, f"at N = {n}")


def _dense_sigma_min(
    c, d, p: np.ndarray, q: np.ndarray | None = None, *, n: int, cols: int | None = None
):
    """sigma_min of the dense section T of g = p, or of g = p/q through its Taylor
    coefficients, or of the window of T's first ``cols`` columns, by
    :func:`smallest_singular_value`.  Real c, d with real coefficients, or coefficients
    exactly i^k r_k, r_k real (:func:`power_symbol`), give the real SVD of T or of
    D^* T D = R = c A + d A^T with D = diag(i^m), built as float64: the mix (d, c)
    builds R^T in C order, whose transpose is R, bit for bit, in the Fortran order the
    band route reduces in place (``DECISIONS.md`` entry 20)."""
    coeffs = np.asarray(p if q is None else _quotient_series(p, q, n - 1), np.complex128)
    real_cd = not np.imag([c, d]).any()
    rot = coeffs * _MINUS_I_POWERS[np.arange(len(coeffs)) % 4]
    real = [a.real for a in (coeffs, rot) if real_cd and not a.imag.any()]
    section = (_analytic_matrix(real[0], n, (d.real, c.real)).T if real
               else _analytic_matrix(coeffs, n, (c, d)))
    return _sigma_min(section[:, :cols], owned=True)


def _constant_sigma(c, d, p: np.ndarray, q: np.ndarray, *, n: int):
    """sigma_min of T = (c a_0 + d conj(a_0)) I, a_0 = p_0 / q_0: the section of a
    constant g at every N."""
    a0 = p[0] / q[0]
    return abs(c * a0 + d * np.conj(a0))


def _pencil_or_dense(c, d, p: np.ndarray, q: np.ndarray, *, n: int) -> float:
    """:func:`lapack.pencil_sigma`, or :func:`_dense_sigma_min` where LAPACK cannot
    factor the pencil's B = diag(Q^*Q) (:class:`lapack.IndefinitePencil`)."""
    try:
        return lapack.pencil_sigma(c, d, p, q, n=n)
    except lapack.IndefinitePencil:
        return _dense_sigma_min(c, d, p, q, n=n)


def _trend_sigma_min(phi: HarmonicSymbol, n: int, series: np.ndarray | None = None) -> float:
    """sigma_min of ``toeplitz_harmonic(phi, n)``.

    T is the section of g = p/q, where p and q are the numerator and
    denominator of a rational g, and for any other g the Taylor polynomial
    p of degree N - 1: T reads a_0 .. a_{N-1} alone, the first N entries of
    ``series`` (g's coefficients to degree N - 1 or beyond; ``g.series(n - 1)``
    if not given).  Exact trailing zeros are trimmed.  Degree 0 takes the closed
    form :func:`_constant_sigma`.  A band of
    half-bandwidth m = max(deg p, deg q) is narrow while (2m + 1) * ratio
    <= N: then a polynomial takes :func:`lapack.bidiagonal_sigma`, O(N^2 m)
    on T itself, and a rational g :func:`lapack.pencil_sigma`, its only
    banded route, unless LAPACK cannot factor the pencil (:func:`_pencil_or_dense`).
    Wider bands, and every band where LAPACK is not bound
    (:func:`lapack.available`), take the dense SVD (:func:`_dense_sigma_min`).
    Every route runs on the same power-of-two scaling, so one symbol is
    answered or refused alike on each.
    """
    c, d, g = phi.c, phi.d, phi.g
    rational = isinstance(g, RationalSymbol)
    if rational:
        num, den = g.p.coeffs[:n], g.q.coeffs[:n]
    else:
        num, den = (g.series(n - 1).coeffs if series is None else series)[:n], _ONE
    p, q = (x[: max(1, len(np.trim_zeros(x, "b")))] for x in (num, den))
    complex_pencil = rational and (np.imag([c, d]).any() or p.imag.any() or q.imag.any())
    ratio = _BAND_RATIO_COMPLEX if complex_pencil else _BAND_RATIO_REAL
    if len(p) == len(q) == 1:
        route, polys = _constant_sigma, (p, q)
    elif (2 * max(len(p), len(q)) - 1) * ratio > n or not lapack.available():
        route, polys = _dense_sigma_min, ((num, den) if rational else (num,))
    elif rational:
        route, polys = _pencil_or_dense, (p, q)
    else:
        route, polys = lapack.bidiagonal_sigma, (p,)
    return _scaled_sigma_min(route, c, d, *polys, n=n)


def normality_defect(t) -> float:
    """Frobenius norm of T^*T - TT^*; zero exactly for normal matrices."""
    m = _real_if_exact(_as_square(t))
    return float(np.linalg.norm(m.conj().T @ m - m @ m.conj().T))


def adjoint_mix(t, s: complex) -> np.ndarray:
    """The combination s T + T^*."""
    m = _as_square(t)
    return s * m + m.conj().T


def _mix_core(t, s, side: str):
    """The steps every s T + T^* check shares: ``s`` must pass :func:`check_mix_s` on
    ``side``, T must be normal, and sigma_min is taken of T and of the mix.  Returns T's
    matrix, the mix, the record fields n, s, sigma_t and sigma_mix, and whether T and
    the mix are invertible alike: both sigma_min above :data:`SIGMA_POSITIVE_TOL`, or
    neither."""
    m = _as_matrix(t)
    s = check_mix_s(s, side)
    defect = normality_defect(m)
    if not defect <= _NORMAL_TOL:  # a non-finite entry gives a NaN defect
        raise ValueError(
            f"matrix is not normal (commutator defect {defect:.3e}, not <= {_NORMAL_TOL:.1e}); "
            "the transfer results assume a hyponormal operator, and the exact "
            "finite model of that hypothesis is a normal matrix"
        )
    mix = adjoint_mix(m, s)
    sigma_t, sigma_mix = smallest_singular_value(m), smallest_singular_value(mix)
    shared = {"n": len(m), "s": s, "sigma_t": sigma_t, "sigma_mix": sigma_mix}
    return m, mix, shared, (sigma_t > SIGMA_POSITIVE_TOL) == (sigma_mix > SIGMA_POSITIVE_TOL)


@dataclass(frozen=True)
class TrendReport:
    """sigma_min over a size schedule with a stabilization flag."""

    sizes: tuple[int, ...]
    sigma_min: tuple[float, ...]
    stabilized: bool
    drift: float
    drift_threshold: float
    stabilization_rule: str = field(
        default="last relative step below drift_threshold", init=False
    )


def check_schedule(sizes) -> tuple[int, ...]:
    """The integer sizes as ints: at least three, each at least 1, strictly increasing.

    The verdict machinery reads the last relative step of a trend as
    its stabilization signal, which needs three sizes.
    """
    sizes = tuple(_at_least(n, 1, "schedule sizes") for n in sizes)
    if len(sizes) < 3:
        raise ValueError("schedule needs at least 3 sizes")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("schedule must be strictly increasing")
    return sizes


def check_threshold(x, name: str):
    """``x``, refused unless positive (a NaN too): the rule of each threshold of
    :func:`invertibility_verdict`, which ``name`` names."""
    if not x > 0:
        raise ValueError(f"{name} must be positive, got {x}")
    return x


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
    """The shift truncation size of :func:`shift_window_demo`, an integer at least 8."""
    return _at_least(n, 8, "n")


def bounded_below_trend(
    phi: HarmonicSymbol,
    sizes=(16, 32, 64, 128, 256),
    drift_threshold: float = DRIFT_THRESHOLD,
) -> TrendReport:
    """sigma_min of the truncated operator at each size of the schedule.

    The schedule must pass :func:`check_schedule`.  A polynomial g with
    a narrow band and a rational g with a narrow pencil never build the
    dense matrix (see :func:`_trend_sigma_min`).  Any g but a rational one is expanded
    once, to degree max(sizes) - 1, and each size reads its prefix: every family's
    ``series(n)`` begins with ``series(k)`` bit for bit.
    """
    sizes = check_schedule(sizes)
    g = phi.g
    series = None if isinstance(g, RationalSymbol) else g.series(sizes[-1] - 1).coeffs
    sigmas = tuple(_trend_sigma_min(phi, n, series) for n in sizes)
    drift = abs(sigmas[-1] - sigmas[-2]) / max(sigmas[-2], 1e-300)
    return TrendReport(
        sizes=sizes,
        sigma_min=sigmas,
        stabilized=bool(drift < drift_threshold),
        drift=float(drift),
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

    @property
    def passed(self) -> bool:
        # the floor applies only when T is invertible
        return self.equivalence_holds and self.bound_holds is not False

    @property
    def margin(self) -> float:
        return self.sigma_mix - self.lower_bound


def mix_bound_check(t, s: complex) -> MixBoundCheck:
    """For normal T and |s| < 1: s T + T^* inherits bounded-below from T.

    Records sigma_min on both sides, the equivalence verdict (both
    positive or both vanishing relative to :data:`SIGMA_POSITIVE_TOL`), and the
    quantitative floor (1 - |s|) sigma_min(T) whenever T is invertible.
    """
    _, _, shared, alike = _mix_core(t, s, "<")
    lower = (1.0 - abs(shared["s"])) * shared["sigma_t"]
    holds = bool(shared["sigma_mix"] >= lower - 1e-12)
    return MixBoundCheck(
        **shared,
        equivalence_holds=alike,
        lower_bound=lower,
        bound_holds=holds if shared["sigma_t"] > SIGMA_POSITIVE_TOL else None,
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

    @property
    def passed(self) -> bool:
        return self.within_bounds and self.equivalence_holds

    @property
    def margin(self) -> float:
        return min(self.ratio_min - self.lower, self.upper - self.ratio_max)


def mix_sandwich_check(t, s: complex, trials: int = 1000, rng=None) -> MixSandwichCheck:
    """For normal T, |s| > 1: (|s|-1)||Th|| <= ||(sT+T^*)h|| <= (|s|+1)||Th||.

    Samples ``trials`` (at least 1) random complex vectors h and reports
    the observed ratio range; vectors annihilated by T are skipped (for
    normal T the kernel of T^* agrees, so the sandwich is trivially
    0 <= 0 there), and a sample with no other vector is refused.
    """
    trials = _at_least(trials, 1, "trials")
    m, mix, shared, alike = _mix_core(t, s, ">")
    rng = np.random.default_rng(rng)
    h = rng.normal(size=(len(m), trials)) + 1j * rng.normal(size=(len(m), trials))
    th = np.linalg.norm(m @ h, axis=0)
    mh = np.linalg.norm(mix @ h, axis=0)
    mask = th > 1e-14 * np.linalg.norm(h, axis=0)
    if not mask.any():
        raise ValueError(f"T annihilates all {trials} sampled vectors; no ratio to bound")
    ratios = mh[mask] / th[mask]
    low, high = float(ratios.min()), float(ratios.max())
    lower, upper = abs(shared["s"]) - 1.0, abs(shared["s"]) + 1.0
    return MixSandwichCheck(
        **shared,
        trials=trials,
        ratio_min=low,
        ratio_max=high,
        lower=lower,
        upper=upper,
        within_bounds=low >= lower - 1e-10 and high <= upper + 1e-10,
        equivalence_holds=alike,
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

    @property
    def passed(self) -> bool:
        return self.transfer_holds

    @property
    def margin(self) -> float:
        return min(self.sigma_t, self.sigma_mix)


def mix_transfer_check(t, s: complex) -> MixTransferCheck:
    """For normal T and |s| != 1: T invertible iff s T + T^* invertible.

    |s| = 1 is rejected: there the equivalence genuinely fails in
    infinite dimension (the shift furnishes a counterexample), so a
    silent answer would be misleading.
    """
    _, _, shared, alike = _mix_core(t, s, "!=")
    return MixTransferCheck(
        **shared,
        t_invertible=shared["sigma_t"] > SIGMA_POSITIVE_TOL,
        mix_invertible=shared["sigma_mix"] > SIGMA_POSITIVE_TOL,
        transfer_holds=alike,
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


def shift_window_demo(n: int, s: complex) -> ShiftWindowDemo:
    """Windowed bounded-below experiment on the Bergman shift truncation.

    Requires n >= 8 and |s| > 1.  The witness vector is e_0: the first
    row of the shift truncation vanishes, so the adjoint annihilates it
    while the mix maps it to a vector of norm |s| sqrt(1/2).  Both windows take
    :func:`lapack.bidiagonal_sigma` under the trend's scaling
    (:func:`_scaled_sigma_min`), so no N x N array is built, or the dense SVD where
    LAPACK is not bound (:func:`lapack.available`).
    """
    n = check_shift_window(n)
    s = check_mix_s(s, ">")
    # the mix is the section of s z + conj(z) and the adjoint that of conj(z): each
    # window is the first n - 1 columns, and each witness the column e_0
    route = lapack.bidiagonal_sigma if lapack.available() else _dense_sigma_min
    window = functools.partial(route, cols=n - 1)
    mix, adjoint = (s, 1.0), (0.0, 1.0)
    return ShiftWindowDemo(
        n=n,
        s=s,
        witness_adjoint_norm=lapack.first_column_norm(*adjoint, _Z),
        witness_mix_norm=lapack.first_column_norm(*mix, _Z),
        window_ratio_adjoint=_scaled_sigma_min(window, *adjoint, _Z, n=n),
        window_ratio_mix=_scaled_sigma_min(window, *mix, _Z, n=n),
    )


def random_normal_matrix(rng, n: int) -> np.ndarray:
    """U diag(lambda) U^* with U from QR of a complex Gaussian matrix.

    Eigenvalue moduli are uniform in [0.5, 2) with uniform phases,
    which keeps sigma_min = min |lambda| under direct control.
    """
    rng = np.random.default_rng(rng)
    lam = rng.uniform(0.5, 2.0, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return (q * lam) @ q.conj().T  # q @ diag(lam), without the N^3 product


@dataclass(frozen=True)
class InvertibilityReport:
    """Three-valued invertibility assessment for a harmonic symbol.

    ``inf_estimate`` and ``argmin`` come from the grid scan of |phi|,
    ``sizes`` to ``stabilized`` from the sigma_min trend, and ``s`` is
    the coanalytic ratio c/d (None if d = 0 or if c/d is not finite, and
    ``sandwich`` with it, and also when one of its values overflows).
    """

    verdict: str
    inf_estimate: float
    argmin: complex
    sizes: tuple[int, ...]
    sigma_min: tuple[float, ...]
    drift: float
    stabilized: bool
    case_tag: str
    seed: int
    symbol_tag: str
    s: complex | None
    sandwich: dict | None
    thresholds: dict
    notes: tuple[str, ...] = field(default=_NOTES, init=False)


def _sandwich_on_grid(phi: HarmonicSymbol, grid: DiscGrid) -> dict | None:
    """Grid version of the two-sided reduction to the analytic part.

    For phi = d (s g + conj(g)) with |s| != 1,
    ||s| - 1| inf|g| <= inf|s g + conj(g)| <= (|s| + 1) inf|g| holds
    pointwise by the triangle inequality; evaluated on the shared grid.
    None unless the case is ``general_s`` and every value is finite.
    """
    s = phi.coanalytic_ratio
    if phi.case_tag != "general_s" or s is None:
        return None
    nodes = _eval_on_nodes(phi.g, grid.nodes().ravel())
    gabs = np.abs(nodes)
    combo = np.abs(s * nodes + np.conj(nodes))
    inf_g = float(gabs.min())
    inf_combo = float(combo.min())
    lower = abs(abs(s) - 1.0) * inf_g
    upper = (abs(s) + 1.0) * inf_g
    if not all(map(math.isfinite, (lower, upper, inf_combo))):
        return None
    return {
        "s_modulus": abs(s),
        "inf_g": inf_g,
        "inf_combo": inf_combo,
        "lower": lower,
        "upper": upper,
        "holds": bool(lower - 1e-12 <= inf_combo <= upper + 1e-12),
    }


def invertibility_verdict(
    phi: HarmonicSymbol,
    sizes: tuple[int, ...] = (16, 32, 64, 128, 256),
    grid: DiscGrid | None = None,
    *,
    inf_positive: float = INF_POSITIVE_TOL,
    sigma_positive: float = SIGMA_POSITIVE_TOL,
    drift: float = DRIFT_THRESHOLD,
    seed: int = 0,
) -> InvertibilityReport:
    """Conjunction verdict: positive infimum plus a stabilized sigma floor.

    ``invertible_likely`` needs both signals; ``not_invertible_likely``
    needs the infimum evidence to fail and the sigma floor to collapse;
    everything else stays ``inconclusive``.  The grid minimum only
    upper-bounds the infimum and finite sections only approximate the
    operator, so the verdict is evidence, not proof, and says so in its
    notes.  The keywords default to the lab values; the three thresholds,
    each refused by :func:`check_threshold` unless positive, are named as
    the keys of an ``invertibility`` scenario's ``thresholds``, which the
    report echoes.
    """
    thresholds = {"inf_positive": inf_positive, "sigma_positive": sigma_positive, "drift": drift}
    for name, x in thresholds.items():
        check_threshold(x, name)
    grid = grid or default_modulus_grid()
    scan = inf_modulus(phi, grid)
    trend = bounded_below_trend(phi, sizes, drift)
    sandwich = _sandwich_on_grid(phi, grid)
    inf_pos = scan.minimum > inf_positive
    floor = trend.sigma_min[-1]
    sigma_pos = trend.stabilized and floor > sigma_positive
    if inf_pos and sigma_pos:
        verdict = "invertible_likely"
    elif not inf_pos and floor <= sigma_positive:
        verdict = "not_invertible_likely"
    else:
        verdict = "inconclusive"
    return InvertibilityReport(
        verdict=verdict,
        inf_estimate=scan.minimum,
        argmin=scan.argmin,
        sizes=trend.sizes,
        sigma_min=trend.sigma_min,
        drift=trend.drift,
        stabilized=trend.stabilized,
        case_tag=phi.case_tag,
        seed=seed,
        symbol_tag=phi.tag(),
        s=phi.coanalytic_ratio,
        sandwich=sandwich,
        thresholds=thresholds,
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
    ``modulus_bound`` = e^{-|t| pi} is a valid lower bound for the quotient's
    modulus, not its infimum, which is e^{-|t| pi / 2}, the value of ``factor_bound``.
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


def _factor_residuals(minus, ratio, plus, sizes: tuple[int, ...]) -> tuple[float, ...]:
    """max |M A - P| over the N x N analytic truncations M, A, P of ``minus``, ``ratio``
    and ``plus``, for each N of the increasing ``sizes``, read off one Taylor product.

    Sections of analytic symbols multiply exactly, so (M A - P)[m, j] =
    sqrt((j+1)/(m+1)) r_{m-j} with r the first N coefficients of minus * ratio - plus;
    the l-th subdiagonal peaks at its last entry, sqrt((N-l)/N) |r_l|.  r is formed
    once, to degree max(sizes) - 1, and each N reads its prefix (``DECISIONS.md`` entry 9).
    """
    top = sizes[-1] - 1
    r = np.abs(minus.series(top).mul(ratio.series(top), top).coeffs - plus.series(top).coeffs)
    # NaN propagates through max
    return tuple(float(np.max(np.sqrt(np.arange(n, 0.0, -1.0) / n) * r[:n])) for n in sizes)


def power_symbol_study(t: float, sizes=(32, 64, 128, 256)) -> PowerStudyReport:
    """Bounds, factorization residuals, and sigma trend for the quotient symbol.

    The bounds are read on :func:`default_modulus_grid` and the trend
    against :data:`DRIFT_THRESHOLD`; the coefficients are exactly i^k r_k,
    so the trend takes real SVDs of the truncations rotated by diag(i^m).

    Refuses |t| > 20: the coefficient recurrences stay stable but the
    modulus spread e^{|t| pi} makes every floor meaningless at double
    precision well before that.
    """
    t = float(t)
    if not abs(t) <= 20.0:  # written so that a NaN t fails it
        raise NumericalError(
            f"|t| = {abs(t):g} refused: modulus spread e^(|t| pi) exceeds "
            "double-precision dynamic range for trustworthy floors"
        )
    sizes = check_schedule(sizes)
    grid = default_modulus_grid()
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

    residuals = _factor_residuals(minus, ratio, plus, sizes)
    trend = bounded_below_trend(HarmonicSymbol(1.0, 0.0, ratio), sizes)
    return PowerStudyReport(
        t=t,
        modulus_bound=bound,
        factor_bound=factor_bound,
        grid_min=grid_min,
        grid_min_plus=grid_min_plus,
        grid_min_minus=grid_min_minus,
        bounds_hold=bounds_hold,
        sizes=sizes,
        residuals=residuals,
        trend=trend,
    )
