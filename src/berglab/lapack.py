"""LAPACK's banded routines from the OpenBLAS that numpy loads, and the bands they read.

The sigma_min trend's banded routes: :func:`pencil_sigma` for a rational g
(``DECISIONS.md`` entry 5), :func:`bidiagonal_sigma` for a polynomial (entry 7).
Neither scales its input; :func:`dense_band_sigma`, for a large real matrix, scales
it and reduces it to a band in place (entries 14 and 20).  The routines are bound
when this module is imported, from the ``scipy-openblas`` library that numpy's wheel
bundles and has already mapped (entry 19); where numpy reports no such library, the
import succeeds, :func:`available` is false and a banded call is refused.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os

import numpy as np

from .errors import NumericalError

#: C prototypes of the LAPACK routines the routes call through ctypes, as OpenBLAS's
#: 64-bit integer interface exports them (``scipy_<name>_64_``): ``d`` is a double,
#: ``double_complex`` two, and every integer a 64-bit Fortran INTEGER, ``info *`` the
#: INFO that :func:`_call_lapack` appends; a ``char *`` takes one byte and no hidden length
_LAPACK_PROTOTYPES = {
    "dgbbrd": "void (char *, int *, int *, int *, int *, int *, d *, int *, d *, d *, d *, "
    "int *, d *, int *, d *, int *, d *, info *)",
    "dgeqrf": "void (int *, int *, d *, int *, d *, d *, int *, info *)",
    "dlarfb": "void (char *, char *, char *, char *, int *, int *, int *, d *, int *, d *, "
    "int *, d *, int *, d *, int *)",
    "dlarft": "void (char *, char *, int *, int *, d *, int *, d *, d *, int *)",
    "dsbgvx": "void (char *, char *, char *, int *, int *, int *, d *, int *, d *, int *, "
    "d *, int *, d *, d *, int *, int *, d *, int *, d *, d *, int *, d *, int *, int *, info *)",
    "dstebz": "void (char *, char *, int *, d *, d *, int *, int *, d *, d *, d *, int *, "
    "int *, d *, int *, int *, d *, int *, info *)",
    "zgbbrd": "void (char *, int *, int *, int *, int *, int *, double_complex *, int *, d *, "
    "d *, double_complex *, int *, double_complex *, int *, double_complex *, int *, "
    "double_complex *, d *, info *)",
    "zhbgvx": "void (char *, char *, char *, int *, int *, int *, double_complex *, int *, "
    "double_complex *, int *, double_complex *, int *, d *, d *, int *, int *, d *, int *, "
    "d *, double_complex *, int *, double_complex *, d *, int *, int *, info *)",
}
#: the numpy dtype each pointer of a prototype is called with
_POINTER_DTYPES = {
    "int *": np.int64, "info *": np.int64, "d *": np.float64, "double_complex *": np.complex128
}
#: the flags every array argument must have: LAPACK reads column-major and writes
_POINTER_FLAGS = ("F_CONTIGUOUS", "WRITEABLE")
#: twice the safe minimum: the tightest bisection tolerance, which LAPACK advises
_ABSTOL = 2 * np.finfo(float).tiny
#: eps^2: :func:`_band_sigma` bisects to eps^2 max|B| at least, the width below which a
#: bracket of sigma >= eps max|B| / 2 is already narrower than ``dstebz``'s 2 ulp sigma
_EPS_SQUARED = np.finfo(float).eps ** 2
#: the upper bandwidth :func:`dense_band_sigma` reduces to, and the reflectors each of its
#: panels applies in one ``dlarfb``: a wider band slows ``dgbbrd``, a narrower one the
#: panels' products; a multiple of 32, so that on N a multiple of 32 the reduction's
#: bits do not depend on the BLAS thread count (``DECISIONS.md`` entry 14)
_DENSE_BAND = 32


def _bind() -> dict | str:
    """Each routine of :data:`_LAPACK_PROTOTYPES` from numpy's OpenBLAS, callable through
    ctypes with bytes for each ``char *`` and, for the rest, a writeable
    Fortran-contiguous array of the pointer's dtype (``numpy.ctypeslib.ndpointer``; ctypes
    refuses any other argument before the call); or the message that refuses them all.

    numpy must report its LAPACK as ``scipy-openblas`` built with ``USE64BITINT``, and its
    wheel's ``numpy.libs`` must hold that one library, exporting every routine: ctypes
    passes whatever it is given, so a library of another integer width would corrupt
    memory instead of failing.  ``dlopen`` of the library numpy has mapped maps nothing new.
    """
    built = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    config = built.get("openblas configuration", "")
    reported = f"numpy {np.__version__} reports LAPACK {built.get('name')!r} ({config!r})"
    if built.get("name") != "scipy-openblas" or "USE64BITINT" not in config.split():
        return f"{reported}, not scipy-openblas with USE64BITINT"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    paths = glob.glob(os.path.join(glob.escape(libs), "libscipy_openblas64_*.so"))
    if len(paths) != 1:
        return f"{reported}, but {libs} holds {len(paths)} libscipy_openblas64_*.so, not 1"
    try:
        library = ctypes.CDLL(paths[0])
    except OSError as exc:
        return f"{reported}, but {paths[0]} does not load: {exc}"
    routines, pointers = {}, {
        t: np.ctypeslib.ndpointer(d, flags=_POINTER_FLAGS) for t, d in _POINTER_DTYPES.items()
    }
    for name, prototype in _LAPACK_PROTOTYPES.items():
        symbol = f"scipy_{name}_64_"
        try:
            routine = library[symbol]
        except AttributeError:
            return f"{reported}, but {paths[0]} exports no {symbol}"
        routine.restype = None
        routine.argtypes = [
            ctypes.c_char_p if t == "char *" else pointers[t]
            for t in prototype[len("void (") : -1].split(", ")
        ]
        routines[name] = routine
    return routines


#: every banded routine, bound at import: bound mid-run, the binding's Python objects
#: kept freed heap resident under the run's peak (``DECISIONS.md`` entry 19); or the
#: message refusing them
_ROUTINES = _bind()


def available() -> bool:
    """Whether :func:`_bind` bound the banded routines; where it did not, every banded
    call is refused and the callers in ``analysis`` take the dense SVD instead."""
    return not isinstance(_ROUTINES, str)


def _lapack_routine(name: str):
    """LAPACK's ``name`` as :func:`_bind` bound it, or the refusal it recorded."""
    if isinstance(_ROUTINES, str):
        raise NumericalError(f"banded LAPACK unavailable: {_ROUTINES}")
    return _ROUTINES[name]


def _call_lapack(name: str, *args) -> None:
    """LAPACK's ``name`` on ``args``, with an INFO appended as its last argument where
    the prototype ends in ``info *``; a Python int becomes an int64 and a float a double,
    and a nonzero INFO is refused.  A wrong number of arguments, or one that
    :func:`_lapack_routine` does not accept, raises before the call."""
    routine = _lapack_routine(name)
    info = np.zeros((), np.int64)
    tail = (info,) if _LAPACK_PROTOTYPES[name].endswith("info *)") else ()
    routine(*(
        np.array(a, np.int64 if isinstance(a, int) else np.float64)
        if isinstance(a, (int, float))
        else a
        for a, _ in zip((*args, *tail), routine.argtypes, strict=True)
    ))
    if info:
        raise NumericalError(f"LAPACK {name} returned info {int(info)}; refusing its result")


def _gram_band(a: np.ndarray, b: np.ndarray, n: int, w: int) -> np.ndarray:
    """Diagonals of G = L_a^* L_b, L_a and L_b the N x N analytic truncations of the
    polynomials a and b: ``out[w + s, i] = G[i, i + s]``, zero outside G, for |s| <= w.

    Row r = i + k of L_a^* meets column j = i + k - l of L_b in one term,
    ``conj(a_k) b_l sqrt((i+1)(j+1)) / (r+1)``, for r < N: O(N deg a deg b), no N x N array.
    """
    out = np.zeros((2 * w + 1, n), dtype=np.result_type(a, b))
    idx = np.arange(1.0, n + 1.0)  # i + 1
    for k, ak in enumerate(a):
        for l, bl in enumerate(b):
            s = k - l
            rows = slice(max(0, -s), n - k)
            i1 = idx[rows]
            out[w + s, rows] += np.conj(ak) * bl * np.sqrt(i1 * (i1 + s)) / (i1 + k)
    return out


def _pencil_bands(c, d, p: np.ndarray, q: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper band storage of the pencil (K, B) whose eigenvalues are +-sigma_i(T).

    T = c A + d A^* is the N x N truncation for g = p/q, so A = P Q^{-1}
    with P, Q the analytic truncations of p and q (sections of lower
    triangular operators multiply exactly).  With W = diag(Q, Q), W^*
    [[0, T], [T^*, 0]] W = K = [[0, M], [M^*, 0]], M = c Q^*P + d P^*Q, and
    W^* W = B = diag(Q^*Q, Q^*Q).  Unknowns are interleaved, K[2i, 2j+1] =
    M[i, j], so K has bandwidth ka = 2m + 1 for m = max(deg p, deg q) and B
    bandwidth kb = 2 deg q.  Entry (r, s), r <= s, of a matrix of bandwidth
    k sits at ``[k + r - s, s]`` of the (k + 1) x 2N Fortran-ordered array
    LAPACK's ``?sbgvx``/``?hbgvx`` read.
    """
    p, q = p[:n], q[:n]
    m = max(len(p), len(q)) - 1
    ka, kb = 2 * m + 1, 2 * (len(q) - 1)
    dtype = np.result_type(c, d, p, q)
    g = _gram_band(q, p, n, m)  # Q^* P
    ab = np.zeros((ka + 1, 2 * n), dtype=dtype, order="F")
    for s in range(m + 1):
        upper, lower = g[m + s, : n - s], g[m - s, s:]  # G[i, i+s], G[i+s, i]
        ab[ka - 2 * s - 1, 2 * s + 1 :: 2] = c * upper + d * np.conj(lower)  # M[i, i+s]
        if s:  # conj(M[i+s, i]) at K[2i+1, 2i+2s]
            ab[ka - 2 * s + 1, 2 * s :: 2] = np.conj(c * lower + d * np.conj(upper))
    gq = _gram_band(q, q, n, len(q) - 1)  # Q^* Q
    bb = np.zeros((kb + 1, 2 * n), dtype=dtype, order="F")
    for s in range(len(q)):
        bb[kb - 2 * s, 2 * s :: 2] = bb[kb - 2 * s, 2 * s + 1 :: 2] = gq[len(q) - 1 + s, : n - s]
    return ab, bb


def _harmonic_band(c: complex, d: complex, p: np.ndarray, n: int) -> np.ndarray:
    """General band storage of T = c A + d A^*, A the N x N analytic truncation of the
    polynomial p of degree m < N: entry (i, j), |i - j| <= m, sits at ``[m + i - j, j]``
    of the (2m + 1) x N Fortran-ordered array LAPACK's ``?gbbrd`` reads.  Built from
    A[i + k, i] = p_k sqrt((i + 1) / (i + k + 1)) in O(N m), with no N x N array.
    """
    m = len(p) - 1
    ab = np.zeros((2 * m + 1, n), dtype=np.result_type(c, d, p), order="F")
    idx = np.arange(1.0, n + 1.0)  # i + 1
    ab[m] = c * p[0] + d * np.conj(p[0])
    for k in range(1, m + 1):
        a = p[k] * np.sqrt(idx[: n - k] / idx[k:])  # A[i + k, i]
        ab[m + k, : n - k] = c * a  # T[i + k, i]
        ab[m - k, k:] = d * np.conj(a)  # T[i, i + k]
    return ab


def pencil_sigma(c, d, p: np.ndarray, q: np.ndarray, n: int) -> float:
    """sigma_min of T = c A + d A^*, A the N x N truncation of g = p/q (float64 or
    complex128 coefficients): eigenvalue N + 1 in ascending order of the pencil (K, B) of
    :func:`_pencil_bands`, by LAPACK's ``dsbgvx`` (real) or ``zhbgvx``; NaN if none is found.

    The eigenvalues of the pencil are exactly +-sigma_i(T); the bisection finds
    the one asked for without squaring the condition number as T^*T would.
    """
    ab, bb = _pencil_bands(c, d, p, q, n)
    real, dtype = np.isrealobj(ab), ab.dtype
    two_n, ka, kb = 2 * n, ab.shape[0] - 1, bb.shape[0] - 1
    w, found = np.zeros(two_n), np.zeros((), np.int64)
    unused = np.zeros(1, dtype)  # Q and Z: not referenced for jobz = 'N'
    work = [np.zeros(7 * two_n)] if real else [np.zeros(two_n, dtype), np.zeros(7 * two_n)]
    _call_lapack(
        "dsbgvx" if real else "zhbgvx",
        b"N", b"I", b"U", two_n, ka, kb, ab, ka + 1, bb, kb + 1, unused, 1, 0.0, 0.0,
        n + 1, n + 1, _ABSTOL, found, w, unused, 1,
        *work, np.zeros(5 * two_n, np.int64), np.zeros(two_n, np.int64),
    )
    return w[0] if found == 1 else math.nan


def bidiagonal_sigma(c, d, p: np.ndarray, n: int, cols: int | None = None) -> float:
    """sigma_min of T = c A + d A^*, A the N x N truncation of the polynomial p of degree
    m < N (float64 or complex128 coefficients), or of the window of T's first ``cols``
    columns, by :func:`_band_sigma` on T's band (:func:`_harmonic_band`), O(N^2 m) for
    half-bandwidth m; NaN if none is found."""
    m = len(p) - 1
    return _band_sigma(_harmonic_band(c, d, p, n)[:, :cols], m, m, rows=n)


def first_column_norm(c, d, p: np.ndarray) -> float:
    """||T e_0|| for T = c A + d A^*, A the N x N truncation of the polynomial p of degree
    m, at every N > m: T's first column holds T[i, 0] for i <= m alone, so it is read
    off the band of the (m + 1) x (m + 1) section (:func:`_harmonic_band`) bit for bit."""
    return float(np.linalg.norm(_harmonic_band(c, d, p, len(p))[:, 0]))


def _band_sigma(ab: np.ndarray, kl: int, ku: int, rows: int | None = None) -> float:
    """sigma_min of the M x N matrix T, M = ``rows`` >= N (N if not given), whose general
    band storage, ``kl`` subdiagonals and ``ku`` superdiagonals, is the (kl + ku + 1) x N
    Fortran-ordered ``ab`` (float64 or complex128, overwritten): a section, or a window
    of its first N columns; NaN if none is found.

    LAPACK's ``dgbbrd`` (real) or ``zgbbrd`` reduces the band to an N x N upper
    bidiagonal B = Q^* T P with real diagonal d_i and superdiagonal e_i by orthogonal
    transforms of T itself.  The Golub-Kahan tridiagonal of B, zero diagonal and
    off-diagonal d_1, e_1, d_2, ..., d_N, has the eigenvalues +-sigma_i(T); ``dstebz``
    bisects for the one at ascending index N + 1 until its bracket is narrower than
    max(abstol, 2 ulp sigma).  With abstol = max(2 tiny, eps^2 max|B|) every sigma of at
    least eps max|B| / 2 keeps the bits of the tightest tolerance, 2 tiny; a smaller one
    is only the rounding of ``dgbbrd``, whose backward error is p(N) eps ||T||, and is
    left below a few eps max|B| without the Sturm counts down to the safe minimum
    (``DECISIONS.md`` entry 24).  ``dgbbrd``'s work arrays hold max(M, N) = M entries;
    fewer corrupt the heap.
    """
    n = ab.shape[1]
    m = n if rows is None else rows
    two_n = 2 * n
    diag, off = np.zeros(n), np.zeros(max(n - 1, 1))
    real = np.isrealobj(ab)
    unused = np.zeros(1, ab.dtype)  # Q, P^T and C: not referenced for vect = 'N', ncc = 0
    work = [np.zeros(2 * m)] if real else [np.zeros(m, ab.dtype), np.zeros(m)]
    _call_lapack(
        "dgbbrd" if real else "zgbbrd",
        b"N", m, n, 0, kl, ku, ab, kl + ku + 1, diag, off, unused, 1, unused, 1, unused, 1,
        *work,
    )
    tridiagonal = np.zeros(two_n - 1)
    tridiagonal[::2], tridiagonal[1::2] = diag, off[: n - 1]
    # dstebz refuses a NaN or infinite band whatever the tolerance
    abstol = max(_ABSTOL, _EPS_SQUARED * float(np.abs(tridiagonal).max()))
    w, found = np.zeros(two_n), np.zeros((), np.int64)
    _call_lapack(
        "dstebz",
        b"I", b"E", two_n, 0.0, 0.0, n + 1, n + 1, abstol, np.zeros(two_n), tridiagonal,
        found, np.zeros((), np.int64), w, np.zeros(two_n, np.int64), np.zeros(two_n, np.int64),
        np.zeros(4 * two_n), np.zeros(3 * two_n, np.int64),
    )
    return w[0] if found == 1 else math.nan


def _block(flat: np.ndarray, lda: int, i: int, j: int, rows: int, cols: int) -> np.ndarray:
    """The block ``a[i : i + rows, j : j + cols]`` of the Fortran-ordered matrix ``a`` with
    ``lda`` rows whose 1-D view is ``flat``, as LAPACK reads it with leading dimension
    ``lda``: the view from the block's first entry on.  A block that does not lie inside
    ``a`` is refused, as LAPACK would read and write past it."""
    if not (0 <= i and i + rows <= lda and 0 <= j and (j + cols) * lda <= flat.size):
        raise ValueError(
            f"block of {rows} x {cols} at ({i}, {j}) outside a matrix of {lda} x "
            f"{flat.size // lda}"
        )
    return flat[i + j * lda :]


def dense_band_sigma(a: np.ndarray) -> float:
    """sigma_min of a real matrix A with no more columns than rows; NaN for a non-finite
    entry, inf for a sigma beyond the float range.  A writeable Fortran-ordered float64
    ``a`` is overwritten, any other copied so first (``DECISIONS.md`` entry 20).

    A, brought to a largest modulus in [1/2, 1) by an exact power of two, is reduced
    to an upper band of width b = ``_DENSE_BAND`` by orthogonal transforms, one panel
    of b columns at a time (Grosser & Lang 1999).  ``dgeqrf`` clears the panel below its
    diagonal; the panel's rows beyond the band, copied transposed into one contiguous
    buffer, are cleared by ``dgeqrf`` too, L = R^T taking their place.  Each panel's b
    reflectors reach the trailing columns, or the rows below, as one compact-WY block
    (``dlarft``, then ``dlarfb``; Schreiber & Van Loan 1989), so everything but the
    panels runs in matrix-matrix form, where ``dgebrd`` (inside the dense SVD) spends
    half its work in matrix-vector products.  :func:`_band_sigma` finishes on the
    band's N x N top, and sigma is scaled back (``DECISIONS.md`` entry 14).
    """
    a = np.require(a, np.float64, ["F", "W"])
    rows, n = a.shape
    top = max(a.max(), -a.min())  # NaN propagates, and no |A| is formed
    if not math.isfinite(top):
        return math.nan
    exp = math.frexp(top)[1]
    np.ldexp(a, -exp, out=a)  # exact unless an entry underflows
    flat = a.reshape(-1, order="F")  # a view: every block is a suffix of it
    b = _DENSE_BAND
    tau, t = np.zeros(b), np.zeros((b, b), order="F")
    work = np.zeros(rows * b)  # dgeqrf's, and dlarfb's ldwork x b with ldwork <= rows
    transposed = np.zeros(max(n - b, 0) * b)  # a row panel's transpose, rest x nb
    for k in range(0, n, b):
        nb, rest = min(b, n - k), max(n - k - b, 0)
        panel = _block(flat, rows, k, k, rows - k, nb)
        _call_lapack("dgeqrf", rows - k, nb, panel, rows, tau, work, work.size)
        if not rest:
            break
        _call_lapack("dlarft", b"F", b"C", rows - k, nb, panel, rows, tau, t, b)
        _call_lapack(
            "dlarfb", b"L", b"T", b"F", b"C", rows - k, rest, nb, panel, rows, t, b,
            _block(flat, rows, k, k + nb, rows - k, rest), rows, work, rest,
        )
        # the panel's rows right of it, a[k : k + nb, k + nb :] = L Q, as Q R = L^T
        row = transposed[: rest * nb].reshape(rest, nb, order="F")
        row[...] = a[k : k + nb, k + nb :].T
        _call_lapack("dgeqrf", rest, nb, row, rest, tau, work, work.size)
        reflectors, below = min(nb, rest), rows - k - nb
        _call_lapack("dlarft", b"F", b"C", rest, reflectors, row, rest, tau, t, b)
        _call_lapack(
            "dlarfb", b"R", b"N", b"F", b"C", below, rest, reflectors, row, rest, t, b,
            _block(flat, rows, k + nb, k + nb, below, rest), rows, work, below,
        )
        a[k : k + nb, k + nb :] = row.T  # R^T, and reflectors beyond the band, unread
    ku = min(b, n - 1)
    ab = np.zeros((ku + 1, n), order="F")
    for s in range(ku + 1):
        ab[ku - s, s:] = a.diagonal(s)  # a[i, i + s]
    return _scale_back(_band_sigma(ab, 0, ku), exp)


def _scale_back(sigma: float, exp: int) -> float:
    """|sigma| 2^exp, inf beyond the float range: the sigma_min of input scaled by 2^-exp
    (bisection can return a rounding-level value just below zero)."""
    try:
        return math.ldexp(abs(float(sigma)), exp)
    except OverflowError:
        return math.inf
