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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .disc import QuadratureSpec, _coeff_vector, _eval_on_nodes
from .errors import NumericalError
from .symbols import HarmonicSymbol

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

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("matrix must be square and nonempty")
        arr = arr.copy()
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

    def adjoint_matrix(self) -> np.ndarray:
        return self.matrix.conj().T


def _analytic_diagonal(a_k: complex, k: int, n: int) -> np.ndarray:
    """Entries a_k sqrt((m+1)/(m+k+1)) at (m + k, m), m < n - k, of the analytic truncation."""
    idx = np.arange(n - k)
    return a_k * np.sqrt((idx + 1.0) / (idx + k + 1.0))


def _analytic_matrix(coeffs: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.complex128)
    for k in range(min(len(coeffs), n)):
        idx = np.arange(n - k)
        out[idx + k, idx] = _analytic_diagonal(coeffs[k], k, n)
    return out


def _jordan_wielandt_band(c: complex, d: complex, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Upper band storage of H = [[0, T], [T^*, 0]] for T = c A + d A^*.

    A is the N x N analytic truncation of the polynomial with
    coefficients a_0 .. a_deg.  Unknowns are interleaved, H[2i, 2j+1] =
    T[i, j], so H has bandwidth u = 2 deg + 1, and H[r, s] (r <= s) sits
    at ``ab[u + r - s, s]`` of the (u + 1) x 2N array LAPACK's
    ``?sbevx``/``?hbevx`` read.  H has eigenvalues +-sigma_i(T).
    """
    deg = min(len(coeffs), n) - 1
    u = 2 * deg + 1
    ab = np.zeros((u + 1, 2 * n), dtype=np.complex128)
    for k in range(deg + 1):
        diag = _analytic_diagonal(coeffs[k], k, n)
        if k == 0:
            ab[u - 1, 1::2] = c * diag + d * diag.conj()
            continue
        # T[i, i+k] = d conj(A[i+k, i]) at H[2i, 2i+2k+1]
        ab[u - 2 * k - 1, 2 * k + 1 :: 2] = d * diag.conj()
        # conj(T[j+k, j]) = conj(c A[j+k, j]) at H[2j+1, 2j+2k]
        ab[u - 2 * k + 1, 2 * k :: 2] = (c * diag).conj()
    return ab


def check_size(n: int) -> int:
    """The truncation size of every builder, at least 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n


def toeplitz_analytic(g, n: int, tag: str | None = None) -> TruncatedOperator:
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
        matrix=_analytic_matrix(coeffs, n),
        symbol_tag=tag or f"analytic(deg={len(coeffs) - 1})",
        builder="closed_form",
    )


def toeplitz_harmonic(phi: HarmonicSymbol, n: int) -> TruncatedOperator:
    """Truncation of T_phi for phi = c g + d conj(g): c A + d A^*.

    The adjoint relation T_phi^* = T_conj(phi) holds exactly for
    compressions (the projection commutes with taking corners), so this
    is the exact N x N compression, built from the symbol family's
    exact coefficient route.
    """
    check_size(n)
    a = _analytic_matrix(phi.g.series(n - 1).coeffs, n)
    # c A + d A^* in place: one temporary besides A, dropped before the copy.
    # The scalar goes first, as in ``c * a``: numpy's complex multiply may
    # use FMA, so operand order can change the last bit.
    t = a.conj().T
    np.multiply(phi.d, t, out=t)
    np.multiply(phi.c, a, out=a)
    a += t
    del t
    return TruncatedOperator(matrix=a, symbol_tag=phi.tag(), builder="closed_form")


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
    return TruncatedOperator(
        matrix=mat, symbol_tag=tag or "quadrature_symbol", builder="quadrature"
    )


def _row_reprs(row: np.ndarray):
    """re, im, re, im, ... of one matrix row as shortest round-trip strings.

    ``float.__repr__`` is what ``json`` emits for a finite float, so
    both writers produce the bytes of the element-wise encoders they
    replace.
    """
    return map(float.__repr__, row.view(np.float64).tolist())


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
    with open(path) as fh:
        payload = json.load(fh)
    n = payload["N"]
    data = payload["data"]
    mat = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        for j, (re, im) in enumerate(row):
            mat[i, j] = complex(re, im)
    return TruncatedOperator(
        matrix=mat, symbol_tag=payload["symbol_tag"], builder=payload["builder"]
    )
