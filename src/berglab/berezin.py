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

import math
from dataclasses import dataclass

import numpy as np

from .analysis import check_threshold
from .disc import (
    QuadratureSpec,
    _eval_on_nodes,
    _inside_disc,
    _radial_rule,
    disc_quadrature,
    kernel_eval,
)
from .errors import NumericalError
from .symbols import DiscGrid, HarmonicSymbol
from .toeplitz import TruncatedOperator

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
        # hypot is inf where abs(complex) raises OverflowError; the value and the
        # estimate are tested apart, as their sum can overflow
        z, v = complex(self.z), complex(self.value)
        moduli = ("|z|", math.hypot(z.real, z.imag)), ("|value|", math.hypot(v.real, v.imag))
        for name, x in (*moduli, ("error_estimate", self.error_estimate)):
            if not math.isfinite(x):
                raise NumericalError(f"non-finite {name} {x} at z = {self.z}")
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
    pref = (1.0 - abs(z) ** 2) ** 2

    def weighted(w):
        return pref * np.abs(kernel_eval(z, w)) ** 2 * _eval_on_nodes(phi, w)

    v1 = disc_quadrature(weighted, spec)
    v2 = disc_quadrature(weighted, spec.doubled())
    return BerezinSample(
        z=z, value=v1, route="integral", error_estimate=abs(v1 - v2)
    )


#: kernel vectors per ``T @ K`` product of the matrix route
_MATRIX_BLOCK = 64


def berezin_matrix(
    op: TruncatedOperator, z, tail_tol: float = DEFAULT_TAIL_TOL
) -> BerezinSample | list[BerezinSample]:
    """Transform of a truncated operator: <T kappa, kappa>, at a point or a node array.

    The truncated kernel vector kappa_m = (1 - |z|^2) sqrt(m+1) conj(z)^m
    misses geometric tail mass (1 - |z|^2)^2 sum_{n >= N} (n+1) |z|^{2n};
    the error estimate is that tail times a cheap operator-norm proxy
    sqrt(||T||_1 ||T||_inf).  Every estimate is checked before any product:
    the first over ``tail_tol`` refuses (raises :class:`NumericalError`)
    rather than return a value it cannot trust; the integral route covers
    that regime.  Then one ``T @ K`` product per ``_MATRIX_BLOCK`` nodes.
    A scalar ``z`` gives one sample, an array a list in ravelled order.
    """
    check_threshold(tail_tol, "tail_tol")
    nodes = np.asarray(z, dtype=np.complex128)
    _inside_disc(nodes, "z")
    flat = nodes.ravel()
    n = op.n
    zs = flat.tolist()
    squares = [abs(z) ** 2 for z in zs]
    proxy = float(np.sqrt(np.linalg.norm(op.matrix, 1) * np.linalg.norm(op.matrix, np.inf)))
    if not np.isfinite(proxy):
        raise NumericalError(f"operator norm proxy {proxy} at N = {n}: the section overflowed")
    estimates = []
    for z, x in zip(zs, squares):
        tail = x**n * ((n + 1) * (1.0 - x) + x)
        estimate = proxy * tail
        if not estimate <= tail_tol:  # an overflowed norm proxy times a zero tail is NaN
            raise NumericalError(
                f"kernel tail estimate {estimate:.3e} exceeds {tail_tol:.1e} "
                f"at |z| = {abs(z):.4f} with N = {n}; use the integral route"
            )
        estimates.append(estimate)
    root = np.sqrt(np.arange(1.0, n + 1.0))[:, None]
    pref = 1.0 - np.array(squares)
    values = []
    for start in range(0, len(zs), _MATRIX_BLOCK):
        block = slice(start, start + _MATRIX_BLOCK)
        kappa = np.empty((n, pref[block].size), dtype=np.complex128)
        kappa[0] = 1.0
        kappa[1:] = np.conj(flat[block])
        np.multiply.accumulate(kappa, axis=0, out=kappa)  # conj(z)^m down each column
        kappa *= root * pref[block]
        values += np.einsum("mj,mj->j", kappa.conj(), op.matrix @ kappa).tolist()
    samples = [BerezinSample(z, v, "matrix", e) for z, v, e in zip(zs, values, estimates)]
    return samples if nodes.ndim else samples[0]


def berezin_harmonic(phi: HarmonicSymbol, z) -> BerezinSample | list[BerezinSample]:
    """Exact transform for harmonic symbols: the transform fixes them.

    For analytic g the reproducing property gives <g K_z, K_z> =
    g(z) ||K_z||^2, so g~ = g; conjugating shows the same for conj(g),
    and linearity extends it to phi = c g + d conj(g).  The error is
    exactly zero, the one legitimate zero estimate in the module.  phi is
    called once on the nodes; a scalar ``z`` gives one sample, an array a
    list in ravelled order.
    """
    nodes = np.asarray(z, dtype=np.complex128)
    _inside_disc(nodes, "z")
    flat = nodes.ravel()
    values = zip(flat.tolist(), _eval_on_nodes(phi, flat).tolist())
    samples = [BerezinSample(z, v, "harmonic_closed_form", 0.0) for z, v in values]
    return samples if nodes.ndim else samples[0]


def berezin_grid(
    phi: HarmonicSymbol, grid: DiscGrid, spec: QuadratureSpec = QuadratureSpec()
) -> list[BerezinSample]:
    """Sweep the integral route over a polar grid, row-major node order.

    phi is evaluated once per rule and convolved ring by ring with FFTs
    when ``grid.angles_per_radius`` divides ``spec.angular_nodes`` (see
    the module docstring), matching per-node :func:`berezin_integral` up
    to rounding; other grids run :func:`berezin_integral` node by node.
    :func:`berezin_matrix` and :func:`berezin_harmonic` sweep ``grid.nodes()`` itself.
    """
    nodes = grid.nodes().ravel()
    if spec.angular_nodes % grid.angles_per_radius:
        return [berezin_integral(phi, z, spec) for z in nodes]
    v1 = _ring_integrals(phi, grid, spec).ravel().tolist()
    v2 = _ring_integrals(phi, grid, spec.doubled()).ravel().tolist()
    return [
        BerezinSample(z=complex(z), value=a, route="integral", error_estimate=abs(a - b))
        for z, a, b in zip(nodes, v1, v2)
    ]


def _ring_integrals(phi, grid: DiscGrid, spec: QuadratureSpec) -> np.ndarray:
    """Kernel-weighted integrals at every grid node, one FFT per ring.

    Returns shape (len(grid.radii), grid.angles_per_radius); grid angles
    are every ``angular_nodes // angles_per_radius``-th entry of each
    ring's convolution (see the module docstring).
    """
    m = spec.angular_nodes
    r, mass = _radial_rule(spec.radial_nodes)
    w = mass / m  # the ring weight, constant along a ring: it scales the kernel spectrum
    vals = _eval_on_nodes(phi, spec.points()[0]).reshape(-1, m)
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


def grid_to_csv(samples: list[BerezinSample], path) -> None:
    """Plotting interface: header re_z,im_z,re_val,im_val,route,err."""
    with open(path, "w") as fh:
        fh.write("re_z,im_z,re_val,im_val,route,err\n")
        for s in samples:
            fh.write(
                f"{s.z.real!r},{s.z.imag!r},{s.value.real!r},"
                f"{s.value.imag!r},{s.route},{s.error_estimate!r}\n"
            )


#: one grid.json row in the ``json.dump(rows, fh, indent=1)`` layout
_JSON_GRID_ROW = (
    ' {{\n  "re_z": {},\n  "im_z": {},\n  "re_val": {},\n  "im_val": {},\n'
    '  "route": "{}",\n  "err": {}\n }}'
)


def grid_to_json(samples: list[BerezinSample], path) -> None:
    """A list of {re_z, im_z, re_val, im_val, route, err} objects, byte-identical to
    ``json.dump(rows, fh, indent=1)`` plus a newline; finite floats are written by
    ``float.__repr__``, as ``json`` writes them, and routes need no escaping."""
    rows = ",\n".join(
        _JSON_GRID_ROW.format(
            *map(float.__repr__, (s.z.real, s.z.imag, s.value.real, s.value.imag)),
            s.route,
            float.__repr__(s.error_estimate),
        )
        for s in samples
    )
    with open(path, "w") as fh:
        fh.write(f"[\n{rows}\n]\n" if rows else "[]\n")
