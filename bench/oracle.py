"""Correctness oracle: compare emitted reports with stored references.

Booleans, strings, ``None`` and integers must match exactly.  Floats
match within the absolute tolerance the tier-1 tests use for the same
quantity (table below).  Error estimates may not grow: an emitted
estimate may exceed its reference by rounding (``ESTIMATE_SLACK``) and
no more.  Byte identity of ``report.json`` is counted by the caller,
not gated here, because a change may move stated bits.
"""

from __future__ import annotations

import math

import numpy as np

#: absolute tolerance per report field, from the tier-1 test on that quantity
TOLERANCE = {
    # tests/test_berezin.py: transform values by each route at abs 1e-10
    "min_abs_value": 1e-10,
    # derived from sigma_min at 1e-12: |d drift| <= 2e-12 / sigma for sigma ~ 0.2
    "drift": 1e-10,
}
#: sigma_min, inf estimates, witness norms, margins (tests/test_analysis.py,
#: tests/test_cli.py, tests/test_symbols.py all use abs 1e-12)
DEFAULT_TOLERANCE = 1e-12
#: fields that are error estimates or defects: they may not grow
ESTIMATES = ("max_error_estimate", "residuals")
ESTIMATE_SLACK = 1e-12
#: sigma_min below this is rounding noise (eps * ||T||); the drift between
#: two noise values, and the stabilized flag read from it, carry no signal
SIGMA_NOISE = 1e-12
#: closed-form matrix entries (tests/test_toeplitz.py MACHINE)
MATRIX_TOLERANCE = 1e-12
#: quadrature-built entries against the closed form (acceptance criterion 1)
QUADRATURE_MATRIX_TOLERANCE = 1e-8


def compare(actual, reference, path: str = "report") -> list[str]:
    """Mismatches between an emitted report and its reference."""
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        if set(actual) != set(reference):
            return [f"{path}: keys {sorted(actual)} != {sorted(reference)}"]
        skip = set()
        sig = reference.get("sigma_min")
        if "drift" in reference and isinstance(sig, list) and min(sig[-2:]) <= SIGMA_NOISE:
            skip = {"drift", "stabilized"}
        out = []
        for k in reference:
            if k not in skip:
                out += compare(actual[k], reference[k], f"{path}.{k}")
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            return [f"{path}: expected a list of {len(reference)}"]
        out = []
        for i, (a, r) in enumerate(zip(actual, reference)):
            out += compare(a, r, f"{path}[{i}]")
        return out
    if isinstance(reference, float) and _is_number(actual):
        if not math.isfinite(actual):
            return [f"{path}: {actual!r} is not finite"]
        if key in ESTIMATES:
            ok = actual <= reference + ESTIMATE_SLACK
            return [] if ok else [f"{path}: estimate grew {reference!r} -> {actual!r}"]
        tol = TOLERANCE.get(key, DEFAULT_TOLERANCE)
        ok = abs(actual - reference) <= tol
        return [] if ok else [f"{path}: {actual!r} differs from {reference!r} by > {tol:g}"]
    if type(actual) is not type(reference) or actual != reference:
        return [f"{path}: {actual!r} != {reference!r}"]
    return []


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_invariants(report: dict, config: dict) -> list[str]:
    """Checks for a seeded theorem_check whose seed has no reference."""
    out = []
    for key in ("check", "count", "matrix_size", "seed"):
        if report.get(key) != config[key]:
            out.append(f"report.{key}: {report.get(key)!r} != {config[key]!r}")
    if report.get("s") != [float(x) for x in config["s"]]:
        out.append(f"report.s: {report.get('s')!r} != {config['s']!r}")
    if report.get("passes") != config["count"] or report.get("all_pass") is not True:
        out.append(f"report: {report.get('passes')!r} of {config['count']} checks pass")
    margin = report.get("min_margin")
    if not _is_number(margin) or not margin >= 0.0:
        out.append(f"report.min_margin: {margin!r} is not >= 0")
    return out


def check_matrix(op, expected: np.ndarray, csv_matrix: np.ndarray, report: dict) -> list[str]:
    """A parsed ``matrix.json`` against the oracle matrix, the CSV and the report."""
    out = []
    if op.n != report["n"] or op.builder != report["builder"]:
        out.append(f"matrix.json: N/builder {op.n}/{op.builder} disagree with the report")
    if op.symbol_tag != report["symbol_tag"]:
        out.append(f"matrix.json: symbol_tag {op.symbol_tag!r} disagrees with the report")
    tol = QUADRATURE_MATRIX_TOLERANCE if op.builder == "quadrature" else MATRIX_TOLERANCE
    if op.matrix.shape != expected.shape:
        return out + [f"matrix.json: shape {op.matrix.shape} != {expected.shape}"]
    err = float(np.max(np.abs(op.matrix - expected)))
    if not err <= tol:
        out.append(f"matrix.json: max |entry - oracle| = {err:.3e} > {tol:g}")
    pairs = np.stack([op.matrix.real, op.matrix.imag], axis=-1).reshape(op.n, 2 * op.n)
    if csv_matrix.shape != pairs.shape or not np.array_equal(csv_matrix, pairs):
        out.append("matrix.csv: entries differ from matrix.json")
    return out
