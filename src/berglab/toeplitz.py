"""Finite truncations of Toeplitz operators in the monomial basis.

A bounded symbol phi acts on the Bergman space through T_phi f =
P(phi f) with P the orthogonal projection onto analytic functions.  In
the orthonormal basis e_n = sqrt(n + 1) z^n the operator has entries
<phi e_n, e_m>.  For analytic phi = g with Taylor coefficients a_k the
entries close up:

    <g e_n, e_m> = a_{m-n} sqrt((n+1)/(m+1))   for m >= n, else 0,

a weighted lower-triangular Toeplitz structure.  Harmonic symbols
c g + d conj(g) compress to c A + d A^* with A the analytic truncation;
both formulas are exact compressions, not approximations, and the
quadrature builder below exists to prove that entry by entry rather
than trust the algebra.  What is *not* exact is spectral data: the
N x N corner sees only part of the operator.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disc import PowerSeries, QuadratureSpec, _ring_spectra
from .errors import NumericalError, _at_least
from .symbols import AnalyticSymbol, HarmonicSymbol

__all__ = [
    "TruncatedOperator",
    "check_size",
    "toeplitz_analytic",
    "toeplitz_harmonic",
    "toeplitz_quadrature",
    "write_matrix",
    "matrix_from_json",
]


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Immutable N x N truncation with provenance, finite in every entry.

    ``builder`` records which route produced the entries
    ("closed_form" or "quadrature"); downstream reports echo it so a
    number can always be traced to its construction.
    """

    matrix: np.ndarray
    symbol_tag: str
    builder: str

    #: set only by the builders below, whose fresh C-ordered complex128 array is adopted uncopied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        arr = self.matrix if _fresh else np.array(self.matrix, dtype=np.complex128, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("matrix must be square and nonempty")
        # max is NaN or inf for a NaN or +inf part, min for -inf; unlike np.isfinite,
        # neither reduction allocates an N^2 temporary
        parts = arr.view(np.float64)
        if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
            raise NumericalError(f"{self.symbol_tag}: matrix holds non-finite entries")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        if self.builder not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown builder {self.builder!r}")
        if not isinstance(self.symbol_tag, str):
            raise ValueError(f"symbol_tag must be a string, got {self.symbol_tag!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


#: rows per block of :func:`_analytic_matrix`; temporaries 6 % of the output at N = 1024
_BLOCK = 16


def _analytic_matrix(g, n: int, mix: tuple[complex, complex] | None = None) -> np.ndarray:
    """The N x N analytic truncation A of g, or ``c * A + d * A.conj().T`` bit for bit;
    ``g`` (a coefficient array, real ones giving a real matrix, or a symbol) is expanded
    only once the output is allocated."""
    out = np.empty((n, n), dtype=np.complex128 if isinstance(g, AnalyticSymbol) else g.dtype)
    coeffs = (g.series(n - 1).coeffs if isinstance(g, AnalyticSymbol) else g)[:n]
    pad = np.concatenate([np.zeros(n - len(coeffs)), coeffs[::-1], np.zeros(n - 1)])
    lower = sliding_window_view(pad, n)[::-1]  # lower[m, j] = a_{m-j}, zero for m < j
    idx = np.arange(1.0, n + 1.0)
    for r in range(0, n, _BLOCK):
        rows = slice(r, r + _BLOCK)
        np.multiply(lower[rows], np.sqrt(idx / idx[rows, None]), out=out[rows])
        if mix is not None:
            t = lower.T[rows] * np.sqrt(idx[rows, None] / idx)  # columns r.. of A, transposed
            # the scalar first, as in ``d * t``: with FMA, operand order can move the last bit
            np.multiply(mix[1], np.conjugate(t, out=t), out=t)
            np.multiply(mix[0], out[rows], out=out[rows])
            out[rows] += t
    return out


def check_size(n: int) -> int:
    """The truncation size of every builder, an integer at least 1."""
    return _at_least(n, 1, "n")


def toeplitz_analytic(g, n: int) -> TruncatedOperator:
    """Truncation of T_g for analytic g given by Taylor coefficients.

    Parameters
    ----------
    g : PowerSeries or array_like
        Coefficients a_0 .. a_K, a vector :class:`PowerSeries` accepts; entries
        beyond the declared degree are treated as zero, which is exact for
        polynomials and the honest truncation otherwise.
    n : int
        Truncation size, at least 1.

    Examples
    --------
    >>> toeplitz_analytic([1.0], 3).matrix.real
    array([[1., 0., 0.],
           [0., 1., 0.],
           [0., 0., 1.]])
    """
    check_size(n)
    coeffs = PowerSeries(g).coeffs
    return TruncatedOperator(
        _analytic_matrix(coeffs, n), f"analytic(deg={len(coeffs) - 1})", "closed_form", True
    )


def toeplitz_harmonic(phi: HarmonicSymbol, n: int) -> TruncatedOperator:
    """Truncation of T_phi for phi = c g + d conj(g): c A + d A^*.

    The adjoint relation T_phi^* = T_conj(phi) holds exactly for
    compressions (the projection commutes with taking corners), so this
    is the exact N x N compression, built from the symbol family's
    exact coefficient route.
    """
    check_size(n)
    a = _analytic_matrix(phi.g, n, (phi.c, phi.d))
    return TruncatedOperator(a, phi.tag(), "closed_form", True)


def toeplitz_quadrature(
    f, n: int, spec: QuadratureSpec = QuadratureSpec(), tag: str | None = None
) -> TruncatedOperator:
    """Truncation of T_f for any bounded evaluator, entry by entry.

    Entry (m, j) is the quadrature of w -> f(w) e_j(w) conj(e_m(w)).
    This is the independent oracle for the closed-form builders and the
    only route for non-harmonic symbols like |w|^2.  f is called once on
    the rule's nodes; on ring i, of radius r_i and weight w_i, the angular
    sum is an entry of the ring's DFT F_i (:func:`disc._ring_spectra`):

        T[m, j] = sqrt((m+1)(j+1)) sum_i w_i r_i^{m+j} F_i[(m - j) mod M],

    the same rule summed in another order, O(R M log M + R n^2) for R rings
    of M angles.  Beyond the result it holds two R x (2n - 1) tables, read
    through sliding windows (``DECISIONS.md`` entry 25).
    """
    check_size(n)
    r, w, ring_fft = _ring_spectra(f, spec)
    # per ring: lagged[u] = F[(u - n + 1) mod M] and powers[u] = w r^u
    lagged = ring_fft[:, (np.arange(2 * n - 1) - (n - 1)) % spec.angular_nodes]
    powers = w[:, None] * r[:, None] ** np.arange(2.0 * n - 1)
    # [i, row, j] views: lagged[i, row - j + n - 1] and powers[i, row + j]
    spectra = sliding_window_view(lagged, n, axis=1)[:, :, ::-1]
    radial = sliding_window_view(powers, n, axis=1)
    mat = np.einsum("imj,imj->mj", spectra, radial, out=np.empty((n, n), np.complex128))
    scale = np.sqrt(np.arange(1.0, n + 1.0))
    mat *= scale[:, None]
    mat *= scale
    return TruncatedOperator(mat, tag or "quadrature_symbol", "quadrature", True)


def _row_reprs(row: np.ndarray) -> list[str]:
    """re, im, re, im, ... of one matrix row as shortest round-trip strings.

    ``float.__repr__`` is what ``json`` emits for a finite float, so
    both files get the bytes of the element-wise encoders they
    replace.  A banded build is mostly +0.0, whose bit pattern is all
    zeros; those places get the constant "0.0" and ``repr`` runs on the
    rest (-0.0 has its sign bit set and keeps its own repr).
    """
    flat = row.view(np.float64)
    nonzero = flat.view(np.uint64) != 0
    if nonzero.all():
        return list(map(float.__repr__, flat.tolist()))
    idx = np.flatnonzero(nonzero).tolist()
    out = ["0.0"] * flat.size
    for i, s in zip(idx, map(float.__repr__, flat[idx].tolist())):
        out[i] = s
    return out


def write_matrix(op: TruncatedOperator, json_path, csv_path) -> None:
    """matrix.json and matrix.csv in one pass, a row at a time, each double formatted once
    for both.

    matrix.json is the envelope {N, symbol_tag, builder, data}, ``data`` in [re, im]
    pairs, byte-identical to ``json.dump(payload, fh, indent=1)`` plus a newline; Python's
    float serialization is shortest round-trip, so loading reproduces the exact doubles.
    matrix.csv holds rows of alternating re,im entries.
    """
    n = op.n
    header = json.dumps({"N": n, "symbol_tag": op.symbol_tag, "builder": op.builder}, indent=1)
    # a row of "data" in the json.dump(indent=1) layout: these strings at the even places,
    # re_0, im_0, re_1, ... at the odd ones
    parts = [None] * (4 * n + 1)
    parts[::2] = ["\n  [\n   [\n    "] + [",\n    ", "\n   ],\n   [\n    "] * n
    parts[-1] = "\n   ]\n  ]"
    with open(json_path, "w") as js, open(csv_path, "w") as cs:
        js.write(header[: -len("\n}")] + ',\n "data": [')
        sep = ""
        for row in op.matrix:
            parts[1::2] = cells = _row_reprs(row)
            js.write(sep + "".join(parts))
            cs.write(",".join(cells) + "\n")
            sep = ","
        js.write("\n ]\n}\n")


def matrix_from_json(path) -> TruncatedOperator:
    """The operator whose matrix.json :func:`write_matrix` wrote, bit for bit; ``data`` of
    any shape but N rows of N [re, im] pairs is refused."""
    with open(path) as fh:
        payload = json.load(fh)
    n = payload["N"]
    if type(n) is not int:  # JSON's true and 2.0 compare equal to sizes, but are none
        raise ValueError(f"header N must be an integer, got {n!r}")
    n = check_size(n)
    data = np.array(payload.pop("data"), dtype=np.float64)  # a ragged list raises ValueError
    if data.shape != (n, n, 2):
        raise ValueError(f"data has shape {data.shape}, expected ({n}, {n}, 2)")
    mat = data.view(np.complex128)[..., 0]
    return TruncatedOperator(mat, payload["symbol_tag"], payload["builder"])
