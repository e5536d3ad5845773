"""Workload definitions: fixed scenario lists run as a closed loop.

Each workload is a list of scenario configs that one client runs
through ``berglab.cli.run_scenario``, the next scenario starting only
after the previous one returns.  The workload seed reaches the program
only through the ``seed`` fields of the generated configs; it changes
the random matrices of the ``theorem_check`` scenarios and nothing else.

Why each workload exists is recorded next to its definition, together
with the layer it is expected to stress and the layers it should leave
alone, so that a later change can be checked against a prediction made
before it was measured.
"""

from __future__ import annotations

import zlib

#: dyadic radii 1 - 2^-j, j = 0..10, as in ``default_modulus_grid``
MODULUS_GRID = {"radii": [1.0 - 2.0 ** (-j) for j in range(11)], "angles": 256}
#: the shared grid of acceptance criterion 3
CRITERION_3_GRID = {"radii": [0.0, 0.3, 0.6, 0.8, 0.9], "angles": 32}
THRESHOLDS = {"inf_positive": 1e-3, "sigma_positive": 1e-6, "drift": 0.05}
SCHEDULE = [128, 256, 512, 1024]

#: invertibility and shift_demo require a seed but never read it; it is held
#: fixed so that their reports, and references, do not depend on the seed
ECHO_SEED = 0

POLY = {"type": "polynomial", "coeffs": [2.0, 1.0, 0.3]}
POLY_LINEAR = {"type": "polynomial", "coeffs": [2.0, 1.0]}


def _symbol(c, d, g) -> dict:
    return {"c": c, "d": d, "g": g}


def _derived_seed(seed: int, name: str) -> int:
    """Scenario seed from the workload seed; stable across Python runs."""
    return zlib.crc32(f"{seed}:{name}".encode()) & 0x7FFFFFFF


def _spectral_trend(seed: int) -> list[dict]:
    # Why: dense SVD in analysis.smallest_singular_value is ~87 % of the
    # traced pass (2 vCPU, 1 BLAS thread).  Two of the three symbols are polynomials, so a banded
    # route for polynomial g applies to them; the rational and the power
    # symbol do not qualify, and a polynomial-only fast path must leave
    # their time unchanged.  Matrices run from 256 KB (N = 128) to 16 MB
    # (N = 1024), crossing a 4 MB L2, and the schedules are nested
    # corners of each other.
    def inv(name, symbol):
        return {
            "name": name,
            "kind": "invertibility",
            "symbol": symbol,
            "schedule": SCHEDULE,
            "grid": MODULUS_GRID,
            "thresholds": THRESHOLDS,
            "seed": ECHO_SEED,
        }

    return [
        inv("inv_polynomial", _symbol(1.0, 0.5, POLY)),
        inv("inv_collapsing", _symbol(1.0, 0.5, {"type": "polynomial", "coeffs": [0.0, 1.0]})),
        inv(
            "inv_rational",
            _symbol(1.0, 0.25, {"type": "rational", "num": [1.0, 0.5], "den": [2.0, -0.5]}),
        ),
        {"name": "example_3_5", "kind": "example_3_5", "t": 1.0, "schedule": SCHEDULE},
    ]


def _berezin_quadrature(seed: int) -> list[dict]:
    # Why: honest quadrature over the disc (berezin.berezin_integral via
    # disc.kernel_eval, symbols.eval and disc.quadrature_points) does
    # nearly all the work, and analysis almost none.  The polynomial and
    # the power symbol separate kernel cost from symbol-evaluation cost
    # (log/exp dominate the latter).  The matrix and closed-form routes
    # reach the same layer by other paths, toeplitz_quadrature is the
    # quadrature builder, and the last scenario keeps the refusal path
    # (NumericalError, CLI exit 3) under measurement.
    symbol = _symbol(1.0, 0.5, POLY_LINEAR)
    return [
        {
            "name": "integral_polynomial",
            "kind": "berezin_grid",
            "route": "integral",
            "symbol": symbol,
            "grid": CRITERION_3_GRID,
            "quadrature": {"radial": 96, "angular": 384},
        },
        {
            "name": "integral_power",
            "kind": "berezin_grid",
            "route": "integral",
            "symbol": _symbol(
                1.0,
                0.0,
                {"type": "principal_power", "plus_exponent": 1.0, "minus_exponent": -1.0},
            ),
            "grid": {"radii": [0.0, 0.5, 0.8], "angles": 16},
            "quadrature": {"radial": 96, "angular": 384},
        },
        {
            "name": "matrix_route",
            "kind": "berezin_grid",
            "route": "matrix",
            "n": 256,
            "tail_tol": 1e-6,
            "symbol": symbol,
            "grid": CRITERION_3_GRID,
        },
        {
            "name": "closed_form_route",
            "kind": "berezin_grid",
            "route": "harmonic_closed_form",
            "symbol": symbol,
            "grid": CRITERION_3_GRID,
        },
        {
            "name": "quadrature_build",
            "kind": "toeplitz_build",
            "builder": "quadrature",
            "n": 64,
            "quadrature": {"radial": 64, "angular": 128},
            "symbol": symbol,
        },
        {
            "name": "matrix_refusal",
            "kind": "berezin_grid",
            "route": "matrix",
            "n": 64,
            "tail_tol": 1e-6,
            "symbol": symbol,
            "grid": {"radii": [0.0, 0.5, 0.95], "angles": 8},
            "expect": "NumericalError",
        },
    ]


def _build_export(seed: int) -> list[dict]:
    # Why: writing files dominates.  matrix_to_json plus matrix_to_csv
    # take ~2.2 s of the ~2.3 s N = 512 build, which writes 9.5 MB that
    # run_scenario then hashes.  The theorem checks run the same dense
    # sigma_min on unstructured normal matrices, where no banded route
    # applies.  An export change should show here and nowhere else; a
    # structured-SVD change should show nothing here.
    def check(name, check_id, s, **extra):
        return {
            "name": name,
            "kind": "theorem_check",
            "check": check_id,
            "count": 20,
            "matrix_size": 128,
            "s": s,
            "seed": _derived_seed(seed, name),
            **extra,
        }

    return [
        {
            "name": "build_512",
            "kind": "toeplitz_build",
            "builder": "closed_form",
            "n": 512,
            "symbol": _symbol(1.0, 0.5, POLY),
        },
        check("check_3_1", "3.1", [0.5, 0.25]),
        check("check_3_2", "3.2", [2.0, 1.0], vector_trials=200),
        check("check_3_3", "3.3", [0.5, -0.5]),
        {
            "name": "shift_demo",
            "kind": "theorem_check",
            "check": "shift_demo",
            "n": 512,
            "s": [2.0, 0.0],
            "seed": ECHO_SEED,
        },
    ]


WORKLOADS = {
    "spectral_trend": _spectral_trend,
    "berezin_quadrature": _berezin_quadrature,
    "build_export": _build_export,
}


def scenarios(workload: str, seed: int) -> list[dict]:
    """The workload's scenario configs for ``seed``, in run order.

    A config may carry ``expect``: the name of the exception the
    scenario must raise.  It is removed before the config reaches the
    program.
    """
    return WORKLOADS[workload](seed)
