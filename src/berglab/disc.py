"""Power series and quadrature primitives on the unit disc.

Analytic functions on the open unit disc are represented throughout the
package by truncated Taylor coefficient vectors.  The ambient Hilbert
space is the space of analytic functions that are square integrable
against normalized area measure on the disc.  Monomials are orthogonal
there with

    <z^m, z^n> = delta_mn / (n + 1),

so e_n(z) = sqrt(n + 1) z^n is an orthonormal basis and the reproducing
kernel at z is K_z(w) = 1 / (1 - conj(z) w)^2.  Everything downstream
(operator truncations, kernel transforms) reduces to coefficient
arithmetic in this basis, which is why the primitives here stay small:
coefficient vectors, the coefficient-space inner product, kernel
evaluation, and a polar product quadrature rule for cross-checking
closed forms against honest integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, _at_least

__all__ = [
    "PowerSeries",
    "QuadratureSpec",
    "bergman_inner_product",
    "kernel_eval",
    "normalized_kernel_coeffs",
    "disc_quadrature",
]


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor series sum_k c_k z^k with a declared degree.

    ``coeffs``, a nonempty 1-d vector or a :class:`PowerSeries`, is checked here alone.
    The declared degree is ``len(coeffs) - 1``.  Trailing zeros are
    meaningful: they declare how far the truncation is trusted.
    The one product is :meth:`mul`, which takes an explicit target
    degree, so the degree never grows silently.

    Examples
    --------
    >>> p = PowerSeries([2.0, 1.0])
    >>> complex(p(0.5))
    (2.5+0j)
    >>> p.degree
    1
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs.coeffs if isinstance(self.coeffs, PowerSeries) else self.coeffs
        arr = np.atleast_1d(np.asarray(c, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d vector")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        # imported where used, as below: numpy.polynomial's import loads all six polynomial
        # families, about 0.7 MB resident, which runs that evaluate no series never need
        from numpy.polynomial.polynomial import polyval

        return polyval(z, self.coeffs)

    def mul(self, other: "PowerSeries", degree: int) -> "PowerSeries":
        """Cauchy product truncated to the declared ``degree``.

        Coefficients up to ``degree`` are exact whenever both factors
        are trusted that far, since c_k of the product only involves
        factor coefficients of index <= k.
        """
        return PowerSeries(np.convolve(self.coeffs, other.coeffs)).truncated(degree)

    def truncated(self, degree: int) -> "PowerSeries":
        """Coefficients 0 .. ``degree``, an integer at least 0: cut, or padded with zeros."""
        degree = _at_least(degree, 0, "degree")
        return PowerSeries(np.pad(self.coeffs[: degree + 1], (0, max(degree - self.degree, 0))))


def bergman_inner_product(f, g) -> complex:
    """Inner product of two coefficient vectors, linear in ``f``.

    For f = sum f_k z^k and g = sum g_k z^k this is the finite sum
    sum_k f_k conj(g_k) / (k + 1); monomial orthogonality makes it exact
    for polynomials, no quadrature involved.

    Parameters
    ----------
    f, g : PowerSeries or array_like
        Taylor coefficient vectors, each refused as :class:`PowerSeries`
        refuses it; lengths may differ (the shorter one is zero-extended).
    """
    fc, gc = PowerSeries(f).coeffs, PowerSeries(g).coeffs
    n = min(len(fc), len(gc))
    weights = 1.0 / (np.arange(n) + 1.0)
    return complex(np.sum(fc[:n] * np.conj(gc[:n]) * weights))


def _inside_disc(x, name: str) -> None:
    if not np.all(np.abs(x) < 1.0):
        raise DomainError(f"{name} must lie in the open unit disc")


def kernel_eval(z, w):
    """Reproducing kernel K_z(w) = 1 / (1 - conj(z) w)^2.

    Both arguments must lie strictly inside the unit disc; arrays
    broadcast.  Raises :class:`DomainError` on |z| >= 1 or |w| >= 1.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    _inside_disc(z, "z")
    _inside_disc(w, "w")
    return 1.0 / (1.0 - np.conj(z) * w) ** 2


def normalized_kernel_coeffs(z: complex, n: int) -> np.ndarray:
    """First ``n`` orthonormal-basis coefficients of the normalized kernel.

    The normalized kernel k_z = K_z / ||K_z|| expands as
    sum_m c_m e_m with c_m = (1 - |z|^2) sqrt(m + 1) conj(z)^m, and
    ||k_z|| = 1.  The truncated vector has norm strictly below 1; the
    deficit is the tail mass that callers can bound explicitly.
    """
    n = _at_least(n, 1, "n")
    z = complex(z)
    _inside_disc(z, "z")
    m = np.arange(n)
    return (1.0 - abs(z) ** 2) * np.sqrt(m + 1.0) * np.conj(z) ** m


@dataclass(frozen=True)
class QuadratureSpec:
    """Polar product rule on the disc for normalized area measure.

    Radially: Gauss-Legendre on [0, 1] with the polar Jacobian 2r folded
    into the weights.  Angularly: uniform trapezoid, which is spectrally
    accurate for the periodic direction.  The weights sum to 1, the
    measure of the whole disc.
    """

    radial_nodes: int = 64
    angular_nodes: int = 128

    def __post_init__(self):
        for name, least in (("radial_nodes", 2), ("angular_nodes", 4)):
            object.__setattr__(self, name, _at_least(getattr(self, name), least, name))

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(2 * self.radial_nodes, 2 * self.angular_nodes)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights as flat arrays, weights summing to 1."""
        r, mass = _radial_rule(self.radial_nodes)
        theta = 2.0 * np.pi * np.arange(self.angular_nodes) / self.angular_nodes
        z = r[:, None] * np.exp(1j * theta)[None, :]
        return z.ravel(), np.repeat(mass / self.angular_nodes, self.angular_nodes)


@lru_cache(maxsize=32)
def _radial_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    # int_D f dA = int_0^1 (avg over angle) f(r e^it) 2r dr for the
    # normalized measure; map Gauss-Legendre from [-1, 1] to [0, 1].
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(m)
    r = 0.5 * (x + 1.0)
    mass = w * r  # (w/2) * 2r
    r.flags.writeable = False
    mass.flags.writeable = False
    return r, mass


def disc_quadrature(integrand, spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Integrate a callable over the disc against normalized area measure.

    ``integrand`` is called once with a complex ndarray of nodes and
    must return one value per node.  Node and summation order are fixed
    by the spec, so results are deterministic.

    Examples
    --------
    >>> round(abs(disc_quadrature(lambda w: np.abs(w) ** 2) - 0.5), 12)
    0.0
    """
    z, w = spec.points()
    vals = _eval_on_nodes(integrand, z)
    return complex(np.sum(w * vals))


def _ring_spectra(f, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's radii r_i, ring weights w_i and ring spectra F, f called once on the
    nodes: F[i, q] = 2^-e sum_k f(r_i e^{2 pi i k / M}) e^{-2 pi i q k / M}, one FFT per
    ring, and w_i = 2^e mass_i / M, so that w_i F[i, q] is the rule's sum on ring i of f
    times a Fourier mode.  2^e >= M keeps every ring sum finite where f is; a power of
    two scales exactly above the subnormals, so each product w_i F[i, q] has the bits of
    the unscaled one."""
    m = spec.angular_nodes
    e = (m - 1).bit_length()
    r, mass = _radial_rule(spec.radial_nodes)
    vals = np.ascontiguousarray(_eval_on_nodes(f, spec.points()[0]))
    vals = np.ldexp(vals.view(np.float64), -e)
    return r, np.ldexp(mass / m, e), np.fft.fft(vals.view(np.complex128).reshape(-1, m), axis=1)


def _eval_on_nodes(f, z: np.ndarray) -> np.ndarray:
    """``f`` called once on the node array; anything but one value per node is refused."""
    vals = np.asarray(f(z), dtype=np.complex128)
    if vals.shape != z.shape:
        raise TypeError(f"evaluator returned shape {vals.shape} for nodes of shape {z.shape}")
    return vals
