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
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .disc import QuadratureSpec, _coeff_vector, _eval_on_nodes
from .errors import NumericalError, _at_least
from .symbols import AnalyticSymbol, HarmonicSymbol

__all__ = [
    "TruncatedOperator",
    "check_size",
    "toeplitz_analytic",
    "toeplitz_harmonic",
    "toeplitz_quadrature",
    "matrix_to_csv",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Immutable N x N truncation with provenance.

    ``builder`` records which route produced the entries
    ("closed_form" or "quadrature"); downstream reports echo it so a
    number can always be traced to its construction.
    """

    matrix: np.ndarray
    symbol_tag: str
    builder: str

    #: set only by the builders below, whose fresh complex128 array is adopted uncopied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        arr = self.matrix if _fresh else np.array(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("matrix must be square and nonempty")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        if self.builder not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown builder {self.builder!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def norm_proxy(self) -> float:
        """Cheap operator-norm proxy sqrt(||T||_1 ||T||_inf), computed once."""
        return float(
            np.sqrt(
                np.linalg.norm(self.matrix, 1) * np.linalg.norm(self.matrix, np.inf)
            )
        )


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
        Coefficients a_0 .. a_K; entries beyond the declared degree are
        treated as zero, which is exact for polynomials and the honest
        truncation otherwise.
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
    coeffs = _coeff_vector(g)
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

    Entry (m, n) is the quadrature of w -> f(w) e_n(w) conj(e_m(w)).
    This is the independent oracle for the closed-form builders and the
    only route for non-harmonic symbols like |w|^2.  Cost is
    O(n^2 M_r M_theta); keep it for desk-size checks.
    """
    check_size(n)
    z, w = spec.points()
    vals = _eval_on_nodes(f, z)
    basis = np.ones((n, z.size), dtype=np.complex128)
    for k in range(1, n):
        basis[k] = basis[k - 1] * z
    basis *= np.sqrt(np.arange(1.0, n + 1.0))[:, None]
    weighted = basis.conj()
    weighted *= w * vals
    mat = weighted @ basis.T
    return TruncatedOperator(mat, tag or "quadrature_symbol", "quadrature", True)


def _row_reprs(row: np.ndarray):
    """re, im, re, im, ... of one matrix row as shortest round-trip strings.

    ``float.__repr__`` is what ``json`` emits for a finite float, so
    both writers produce the bytes of the element-wise encoders they
    replace.  A banded build is mostly +0.0, whose bit pattern is all
    zeros; those places get the constant "0.0" and ``repr`` runs on the
    rest (-0.0 has its sign bit set and keeps its own repr).
    """
    flat = row.view(np.float64)
    nonzero = flat.view(np.uint64) != 0
    if nonzero.all():
        return map(float.__repr__, flat.tolist())
    idx = np.flatnonzero(nonzero).tolist()
    out = ["0.0"] * flat.size
    for i, s in zip(idx, map(float.__repr__, flat[idx].tolist())):
        out[i] = s
    return iter(out)


def _check_finite(values, what: str) -> None:
    """Refuse to export ``what`` when ``values`` hold a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} holds non-finite entries, refusing to export")


def matrix_to_csv(op: TruncatedOperator, path) -> None:
    """Write rows of alternating re,im entries, full double precision."""
    _check_finite(op.matrix, f"{op.symbol_tag}: matrix")
    with open(path, "w") as fh:
        for row in op.matrix:
            fh.write(",".join(_row_reprs(row)) + "\n")


# json.dump(indent=1) layout of the [re, im] pairs of one row of "data"
_JSON_ROW_OPEN = "\n  [\n   [\n    "
_JSON_RE_IM = ",\n    "
_JSON_PAIR_SEP = "\n   ],\n   [\n    "
_JSON_ROW_CLOSE = "\n   ]\n  ]"


def matrix_to_json(op: TruncatedOperator, path) -> None:
    """JSON envelope {N, symbol_tag, builder, data}; round-trips bit-exactly.

    ``data`` holds [re, im] pairs; Python's float serialization is
    shortest round-trip, so loading reproduces the exact doubles.  The
    file is byte-identical to ``json.dump(payload, fh, indent=1)`` plus a
    newline, but is written one row at a time.
    """
    _check_finite(op.matrix, f"{op.symbol_tag}: matrix")
    header = json.dumps(
        {"N": op.n, "symbol_tag": op.symbol_tag, "builder": op.builder}, indent=1
    )
    with open(path, "w") as fh:
        fh.write(header[: -len("\n}")] + ',\n "data": [')
        sep = ""
        for row in op.matrix:
            it = _row_reprs(row)
            fh.write(
                sep
                + _JSON_ROW_OPEN
                + _JSON_PAIR_SEP.join(map(_JSON_RE_IM.join, zip(it, it)))
                + _JSON_ROW_CLOSE
            )
            sep = ","
        fh.write("\n ]\n}\n")


def matrix_from_json(path) -> TruncatedOperator:
    """The operator :func:`matrix_to_json` wrote, bit for bit; ``data`` of any shape but
    N rows of N [re, im] pairs is refused."""
    with open(path) as fh:
        payload = json.load(fh)
    n = payload["N"]
    data = np.array(payload.pop("data"), dtype=np.float64)  # a ragged list raises ValueError
    if data.shape != (n, n, 2):
        raise ValueError(f"data has shape {data.shape}, expected ({n}, {n}, 2)")
    mat = data.view(np.complex128)[..., 0]
    return TruncatedOperator(mat, payload["symbol_tag"], payload["builder"])
