"""Berezin transform of a symbol by three independent routes.

The transform of a bounded symbol phi at z in the disc is

    phi~(z) = int_D phi(w) (1 - |z|^2)^2 / |1 - conj(z) w|^4 dA(w),

equivalently <T_phi k_z, k_z> with k_z the normalized reproducing
kernel.  Three routes compute it here:

* ``integral``: honest quadrature of the display above;
* ``matrix``: <T kappa, kappa> through a truncated operator and the
  truncated kernel coefficient vector;
* ``harmonic_closed_form``: for phi = c g + d conj(g) the transform
  collapses to phi(z) itself, because <g K_z, K_z> = g(z) ||K_z||^2 by
  the reproducing property and conjugate linearity handles the
  conj(g) part.

A grid sweep by the integral route evaluates phi once per rule rather
than once per node.  The rule's angles and the grid's are both
equispaced, so on each grid ring the kernel-weighted angular sum is a
circular convolution of the real, even kernel
(1 - rho^2)^2 / (1 - 2 rho r cos t + rho^2 r^2)^2 with the weighted
symbol values, and one FFT per ring gives every node of the ring at
once: the same rule and the same sum, reordered, so equal up to
rounding.  This needs every grid angle on the rule's angle lattice,
i.e. ``angles_per_radius`` dividing ``angular_nodes``; other grids
fall back to the per-node :func:`berezin_integral`, which also stays
the per-point API and the oracle for the ring route.

Route disagreement is signal, not noise; every sample therefore records
its route and an error estimate, and grid sweeps preserve node order so
tables from different routes compare line by line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .disc import (
    QuadratureSpec,
    _eval_on_nodes,
    _inside_disc,
    kernel_eval,
    normalized_kernel_coeffs,
)
from .errors import NumericalError
from .symbols import DiscGrid, HarmonicSymbol
from .toeplitz import TruncatedOperator, _check_finite, toeplitz_harmonic

__all__ = [
    "BerezinSample",
    "berezin_integral",
    "berezin_matrix",
    "berezin_harmonic",
    "berezin_grid",
    "grid_to_csv",
    "grid_to_json",
]

ROUTES = ("integral", "matrix", "harmonic_closed_form")

#: matrix-route refusal threshold for the kernel-tail estimate
DEFAULT_TAIL_TOL = 1e-6

#: default truncation size when a grid sweep builds the operator itself
DEFAULT_MATRIX_SIZE = 256


@dataclass(frozen=True)
class BerezinSample:
    """One transform value with its provenance and error estimate."""

    z: complex
    value: complex
    route: str
    error_estimate: float

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def berezin_integral(
    phi, z: complex, spec: QuadratureSpec = QuadratureSpec()
) -> BerezinSample:
    """Transform by quadrature of the kernel-weighted area integral.

    The error estimate is the difference against a doubled-resolution
    rule, the usual practical surrogate for the true error.  Accuracy
    degrades geometrically as |z| approaches the boundary: the angular
    error scales like (|z| r)^{angular_nodes}, so boundary studies need
    to raise the spec accordingly.
    """
    z = complex(z)
    _inside_disc(z, "z")
    v1 = _kernel_weighted_integral(phi, z, spec)
    v2 = _kernel_weighted_integral(phi, z, spec.doubled())
    return BerezinSample(
        z=z, value=v1, route="integral", error_estimate=abs(v1 - v2)
    )


def _kernel_weighted_integral(phi, z: complex, spec: QuadratureSpec) -> complex:
    nodes, weights = spec.points()
    pref = (1.0 - abs(z) ** 2) ** 2
    kern = pref * np.abs(kernel_eval(z, nodes)) ** 2
    vals = _eval_on_nodes(phi, nodes)
    return complex(np.sum(weights * kern * vals))


def berezin_matrix(
    op: TruncatedOperator, z: complex, tail_tol: float = DEFAULT_TAIL_TOL
) -> BerezinSample:
    """Transform of a truncated operator: <T kappa, kappa>.

    The truncated kernel vector misses geometric tail mass
    (1 - |z|^2)^2 sum_{n >= N} (n+1) |z|^{2n}; the error estimate is
    that tail times a cheap operator-norm proxy sqrt(||T||_1 ||T||_inf).
    When the estimate exceeds ``tail_tol`` the call refuses (raises
    :class:`NumericalError`) rather than returning a value it cannot
    trust; the integral route covers that regime.
    """
    z = complex(z)
    _inside_disc(z, "z")
    n = op.n
    x = abs(z) ** 2
    tail = x**n * ((n + 1) * (1.0 - x) + x)
    estimate = op.norm_proxy * tail
    if estimate > tail_tol:
        raise NumericalError(
            f"kernel tail estimate {estimate:.3e} exceeds {tail_tol:.1e} "
            f"at |z| = {abs(z):.4f} with N = {n}; use the integral route"
        )
    kappa = normalized_kernel_coeffs(z, n)
    value = complex(np.vdot(kappa, op.matrix @ kappa))
    return BerezinSample(z=z, value=value, route="matrix", error_estimate=estimate)


def berezin_harmonic(phi: HarmonicSymbol, z: complex) -> BerezinSample:
    """Exact transform for harmonic symbols: the transform fixes them.

    For analytic g the reproducing property gives <g K_z, K_z> =
    g(z) ||K_z||^2, so g~ = g; conjugating shows the same for conj(g),
    and linearity extends it to phi = c g + d conj(g).  The error is
    exactly zero, the one legitimate zero estimate in the module.
    """
    z = complex(z)
    _inside_disc(z, "z")
    return BerezinSample(
        z=z, value=complex(phi(z)), route="harmonic_closed_form", error_estimate=0.0
    )


def berezin_grid(
    phi: HarmonicSymbol,
    grid: DiscGrid,
    route: str,
    spec: QuadratureSpec = QuadratureSpec(),
    n: int = DEFAULT_MATRIX_SIZE,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[BerezinSample]:
    """Sweep the transform over a polar grid, row-major node order.

    The matrix route builds one truncated operator of size ``n`` and
    reuses it for every node.  The integral route evaluates phi once per
    rule and convolves ring by ring with FFTs when
    ``grid.angles_per_radius`` divides ``spec.angular_nodes`` (see the
    module docstring), matching per-node :func:`berezin_integral` up to
    rounding; other grids run :func:`berezin_integral` node by node.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; choose one of {ROUTES}")
    nodes = grid.nodes().ravel()
    if route == "matrix":
        op = toeplitz_harmonic(phi, n)
        return [berezin_matrix(op, z, tail_tol) for z in nodes]
    if route == "integral":
        if spec.angular_nodes % grid.angles_per_radius:
            return [berezin_integral(phi, z, spec) for z in nodes]
        _inside_disc(nodes, "z")
        v1 = _ring_integrals(phi, grid, spec).ravel().tolist()
        v2 = _ring_integrals(phi, grid, spec.doubled()).ravel().tolist()
        return [
            BerezinSample(z=complex(z), value=a, route="integral", error_estimate=abs(a - b))
            for z, a, b in zip(nodes, v1, v2)
        ]
    return [berezin_harmonic(phi, z) for z in nodes]


def _ring_integrals(phi, grid: DiscGrid, spec: QuadratureSpec) -> np.ndarray:
    """Kernel-weighted integrals at every grid node, one FFT per ring.

    Returns shape (len(grid.radii), grid.angles_per_radius); grid angles
    are every ``angular_nodes // angles_per_radius``-th entry of each
    ring's convolution (see the module docstring).
    """
    m = spec.angular_nodes
    nodes, weights = spec.points()
    # copies, so that the full node and weight arrays can be freed early
    r = nodes[::m].real.copy()  # the node at angle 0 of each radial ring
    w = weights[::m].copy()  # constant along a ring: it scales the kernel spectrum
    del weights
    vals = _eval_on_nodes(phi, nodes).reshape(-1, m)
    del nodes
    # complex spectrum as (re, im) pairs, so the real kernel multiplies it
    # without being cast to complex
    spectrum = np.fft.fft(vals, axis=1).view(np.float64).reshape(len(r), m, 2)
    del vals
    cos = np.cos(2.0 * np.pi * np.arange(m) / m)
    half = m // 2 + 1
    stride = m // grid.angles_per_radius
    out = np.empty((len(grid.radii), grid.angles_per_radius), dtype=np.complex128)
    for i, rho in enumerate(grid.radii):
        # |1 - conj(z) w|^2 = 1 - 2 rho r cos(t - alpha) + rho^2 r^2
        kern = np.multiply.outer(-2.0 * rho * r, cos)
        kern += (1.0 + (rho * r) ** 2)[:, None]
        np.square(kern, out=kern)
        np.divide((1.0 - rho**2) ** 2, kern, out=kern)
        # a real even kernel has a real, even spectrum
        khat = np.fft.rfft(kern, axis=1).real
        khat *= w[:, None]
        kern[:, :half] = khat
        kern[:, half:] = khat[:, m - half : 0 : -1]
        del khat
        acc = np.einsum("jm,jmc->mc", kern, spectrum)
        out[i] = np.fft.ifft(acc.view(np.complex128).ravel())[::stride]
    return out


def _check_grid(samples: list[BerezinSample]) -> None:
    _check_finite([(s.z, s.value, s.error_estimate) for s in samples], "Berezin grid")


def grid_to_csv(samples: list[BerezinSample], path) -> None:
    """Plotting interface: header re_z,im_z,re_val,im_val,route,err."""
    _check_grid(samples)
    with open(path, "w") as fh:
        fh.write("re_z,im_z,re_val,im_val,route,err\n")
        for s in samples:
            fh.write(
                f"{s.z.real!r},{s.z.imag!r},{s.value.real!r},"
                f"{s.value.imag!r},{s.route},{s.error_estimate!r}\n"
            )


def grid_to_json(samples: list[BerezinSample], path) -> None:
    _check_grid(samples)
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
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
