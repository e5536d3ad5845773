"""Symbols on the unit disc: analytic building blocks and harmonic sums.

A harmonic symbol here is phi = c g + d conj(g) with g a bounded
analytic function on the disc and c, d complex constants.  Three
families of analytic g cover everything the laboratory needs:
polynomials, rational functions with pole-free closed disc, and
principal-branch powers (1 + z)^{i a} (1 - z)^{i b} with real a, b.
The powers are bounded but oscillate wildly near the boundary; they are
the interesting stress case, since |(1 + z)^{i a}| = e^{-a arg(1 + z)}
stays within [e^{-|a| pi / 2}, e^{|a| pi / 2}] on the disc.

Each family supplies its Taylor coefficients exactly (the coefficients
themselves, a long division, a binomial recurrence), and the module
also owns grid minimization of |f| over the disc.  Grid minima are
upper bounds for the true infimum, never certificates; every report
downstream says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .disc import PowerSeries, _eval_on_nodes
from .errors import DomainError, _at_least

#: (-i)^k at index k % 4, exact; numpy's ``(-1j) ** k`` is off by up to 1.7e-13 at k < 1024
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])

__all__ = [
    "AnalyticSymbol",
    "PolynomialSymbol",
    "RationalSymbol",
    "PrincipalPowerSymbol",
    "HarmonicSymbol",
    "DiscGrid",
    "ModulusScan",
    "polynomial_symbol",
    "rational_symbol",
    "principal_power_symbol",
    "power_symbol",
    "inf_modulus",
    "default_modulus_grid",
]


class AnalyticSymbol:
    """Bounded analytic function on the open unit disc.

    Subclasses supply vectorized evaluation, an exact truncated Taylor
    series and a tag.
    """

    def __call__(self, z):
        raise NotImplementedError

    def series(self, degree: int) -> PowerSeries:
        """Taylor coefficients a_0 .. a_degree, exact for this family."""
        raise NotImplementedError

    def tag(self) -> str:
        raise NotImplementedError


class PolynomialSymbol(AnalyticSymbol):
    def __init__(self, coeffs):
        self._series = coeffs if isinstance(coeffs, PowerSeries) else PowerSeries(coeffs)

    def __call__(self, z):
        return self._series(z)

    def series(self, degree: int) -> PowerSeries:
        return self._series.truncated(degree)

    def tag(self) -> str:
        return f"polynomial(deg={self._series.degree})"


class RationalSymbol(AnalyticSymbol):
    """Quotient p/q of polynomials with q zero-free on the closed disc.

    Construction refuses, with :class:`DomainError`, a q with a zero of
    modulus at most 1.
    """

    def __init__(self, p, q):
        self.p = p if isinstance(p, PowerSeries) else PowerSeries(p)
        self.q = q if isinstance(q, PowerSeries) else PowerSeries(q)
        if self.q.coeffs[0] == 0:
            raise ValueError("denominator must not vanish at the origin")
        nearest = self._nearest_pole()
        if nearest <= 1.0:
            raise DomainError(
                f"denominator vanishes at |z| = {nearest:.6g}, inside the closed unit disc"
            )

    def _nearest_pole(self) -> float:
        """Smallest modulus of a zero of q; infinite for constant q."""
        c = np.trim_zeros(self.q.coeffs, "b")
        if len(c) <= 1:
            return np.inf
        roots = np.roots(c[::-1])  # np.roots wants highest degree first
        return float(np.min(np.abs(roots)))

    def __call__(self, z):
        return self.p(z) / self.q(z)

    def series(self, degree: int) -> PowerSeries:
        return _quotient_series(self.p, self.q, degree)

    def tag(self) -> str:
        return f"rational(deg_p={self.p.degree},deg_q={self.q.degree})"


def _quotient_series(p: PowerSeries, q: PowerSeries, degree: int) -> PowerSeries:
    """Taylor coefficients c_0 .. c_degree of p/q by long division:
    c_k = (p_k - sum_{j>=1} q_j c_{k-j}) / q_0."""
    pc = p.padded(degree + 1).coeffs
    qc = q.padded(degree + 1).coeffs
    out = np.zeros(degree + 1, dtype=np.complex128)
    for k in range(degree + 1):
        acc = pc[k]
        jmax = min(k, q.degree)
        if jmax >= 1:
            acc = acc - np.dot(qc[1 : jmax + 1], out[k - 1 :: -1][:jmax])
        out[k] = acc / qc[0]
    return PowerSeries(out)


class PrincipalPowerSymbol(AnalyticSymbol):
    """(1 + z)^{i a} (1 - z)^{i b} with real exponents, principal branch.

    Both 1 + z and 1 - z map the disc into the right half plane, so the
    principal logarithm is analytic and the symbol is zero-free with
    modulus between e^{-(|a|+|b|) pi / 2} and e^{(|a|+|b|) pi / 2}.
    """

    def __init__(self, plus_exponent: float, minus_exponent: float):
        self.plus_exponent = float(plus_exponent)
        self.minus_exponent = float(minus_exponent)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        a, b = self.plus_exponent, self.minus_exponent
        return np.exp(1j * (a * np.log(1.0 + z) + b * np.log(1.0 - z)))

    def series(self, degree: int) -> PowerSeries:
        u = _binomial_power_coeffs(self.plus_exponent, degree, sign=+1)
        if self.plus_exponent == -self.minus_exponent:
            # ((1+z)/(1-z))^{it}: a_k = i^k r_k, r = p * conj(p) real for p_k = (-i)^k binom(it, k)
            rot = _MINUS_I_POWERS[np.arange(degree + 1) % 4]
            p = u * rot
            r = np.convolve(p.real, p.real) + np.convolve(p.imag, p.imag)
            return PowerSeries(r[: degree + 1] * rot.conj())
        v = _binomial_power_coeffs(self.minus_exponent, degree, sign=-1)
        return PowerSeries(u).mul(PowerSeries(v), degree)

    def tag(self) -> str:
        return f"principal_power(a={self.plus_exponent:g},b={self.minus_exponent:g})"


def _binomial_power_coeffs(exponent: float, degree: int, sign: int) -> np.ndarray:
    """Coefficients of (1 + sign z)^{i t} by the stable binomial recurrence."""
    out = np.zeros(degree + 1, dtype=np.complex128)
    out[0] = 1.0
    it = 1j * exponent
    for k in range(degree):
        out[k + 1] = out[k] * (it - k) / (k + 1) * sign
    return out


def polynomial_symbol(coeffs) -> PolynomialSymbol:
    return PolynomialSymbol(coeffs)


def rational_symbol(p, q) -> RationalSymbol:
    return RationalSymbol(p, q)


def principal_power_symbol(plus_exponent: float, minus_exponent: float) -> PrincipalPowerSymbol:
    return PrincipalPowerSymbol(plus_exponent, minus_exponent)


def power_symbol(t: float) -> PrincipalPowerSymbol:
    """The symbol ((1 + z) / (1 - z))^{i t}, principal branch.

    Zero-free on the disc with infimum of the modulus at least
    e^{-|t| pi}, yet its boundary values oscillate through every phase;
    the classic stress test for invertibility diagnostics.
    """
    return PrincipalPowerSymbol(t, -t)


@dataclass(frozen=True)
class HarmonicSymbol:
    """phi = c g + d conj(g) with analytic g; harmonic, generally not analytic."""

    c: complex
    d: complex
    g: AnalyticSymbol

    def __call__(self, z):
        gz = self.g(z)
        return self.c * gz + self.d * np.conj(gz)

    @property
    def coanalytic_ratio(self) -> complex | None:
        """The ratio s = c/d steering phi = d (s g + conj(g)); None if d = 0 or c/d overflows."""
        if self.d == 0:
            return None
        s = complex(self.c / self.d)
        return s if np.isfinite(s) else None

    @property
    def case_tag(self) -> str:
        if self.d == 0:
            return "analytic"
        if self.c == 0:
            return "coanalytic"
        # |s| = 1 up to 1e-12, without the division that can overflow
        if abs(abs(self.c) - abs(self.d)) <= 1e-12 * abs(self.d):
            return "normal_s_unimodular"
        return "general_s"

    def tag(self) -> str:
        return f"harmonic(c={self.c:g}, d={self.d:g}, g={self.g.tag()})"


@dataclass(frozen=True)
class DiscGrid:
    """Polar sampling grid: per-radius rings of equally spaced angles.

    Radii must be ascending and stay strictly inside the disc.  Node
    order is row major, radius first then angle, and is part of the
    contract (exports and argmin reporting rely on it).
    """

    radii: tuple[float, ...]
    angles_per_radius: int

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if not r:
            raise ValueError("grid needs at least one radius")
        # both checks are written so that a NaN radius fails them
        if not all(a < b for a, b in zip(r, r[1:])):
            raise ValueError("radii must be strictly ascending")
        if not (0.0 <= r[0] and r[-1] < 1.0):
            raise ValueError("radii must lie in [0, 1)")
        object.__setattr__(
            self, "angles_per_radius", _at_least(self.angles_per_radius, 4, "angles_per_radius")
        )
        object.__setattr__(self, "radii", r)

    def nodes(self) -> np.ndarray:
        """Complex nodes, shape (len(radii), angles_per_radius)."""
        theta = 2.0 * np.pi * np.arange(self.angles_per_radius) / self.angles_per_radius
        return np.asarray(self.radii)[:, None] * np.exp(1j * theta)[None, :]


def default_modulus_grid() -> DiscGrid:
    """Dyadic radii 1 - 2^-j for j = 0..10 (so 0 up to about 0.9990), 256 angles."""
    radii = tuple(1.0 - 2.0 ** (-j) for j in range(11))
    return DiscGrid(radii, 256)


@dataclass(frozen=True)
class ModulusScan:
    """Grid minimum of |f|; an upper bound for the true infimum.

    The scan can only overestimate inf |f| (it samples), so treat
    ``minimum`` as evidence, not a certificate.
    """

    minimum: float
    argmin: complex


def inf_modulus(f: Callable, grid: DiscGrid | None = None) -> ModulusScan:
    """Minimize |f| over a polar grid with one local angular refinement.

    After the coarse pass the angular neighborhood of the argmin (one
    grid spacing to each side, 64 subsamples) is rescanned on the same
    radius.  Refinement can only lower the reported minimum.
    """
    grid = grid or default_modulus_grid()
    nodes = grid.nodes()
    vals = np.abs(_eval_on_nodes(f, nodes.ravel())).reshape(nodes.shape)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    best = float(vals[i, j])
    argmin = complex(nodes[i, j])
    r = grid.radii[i]
    theta = 2.0 * np.pi * j / grid.angles_per_radius
    spread = 2.0 * np.pi / grid.angles_per_radius
    window = theta + np.linspace(-spread, spread, 65)
    cand = r * np.exp(1j * window)
    cvals = np.abs(_eval_on_nodes(f, cand))
    k = int(np.argmin(cvals))
    if cvals[k] < best:
        best = float(cvals[k])
        argmin = complex(cand[k])
    return ModulusScan(minimum=best, argmin=argmin)
