"""Time both sides of each crossover that ``berglab.analysis`` selects a sigma_min route by.

Usage, from the repository root:

    python3 tools/crossovers.py [--sizes 384,448,512,576,640,704,768] [--repeat 7]

For each size N it prints one row per crossover: the best of ``--repeat`` wall times,
in seconds, of the route taken on one side of the constant and of the route taken on
the other, on the same input, and their ratio (below 1 where the first is faster):

* ``band reduction``: ``lapack.dense_band_sigma`` against numpy's SVD (``dgesdd``) on
  the real rotated N x N section of ``power_symbol(1)``, the trend's largest dense
  section; ``_BAND_REDUCTION_CUT`` is the N from which the first side is taken.
* ``bidiagonal``: ``lapack.bidiagonal_sigma`` against the dense route the trend takes
  for a wide band (the section built, then sigma_min), for a real polynomial g of
  the largest degree m with (2m + 1) * ``_BAND_RATIO_REAL`` <= N, c = 1, d = 0.5.
* ``pencil real`` and ``pencil complex``: ``lapack.pencil_sigma`` against the dense
  route of the Taylor section, for g = p / q of that degree m under
  ``_BAND_RATIO_REAL`` and ``_BAND_RATIO_COMPLEX``: p normal and q = 1 + z^m / 2,
  real with c = 1, d = 0.25, or rotated by i^k with c = 1 + 0.5i, d = 0.3.

Every side runs under the trend's power-of-two scaling (``analysis._scaled_sigma_min``).
Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before numpy loads, as
the constants were measured.  Each row also gives the two sigma values' difference.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from berglab import analysis, lapack  # noqa: E402
from berglab.symbols import _MINUS_I_POWERS, power_symbol  # noqa: E402
from berglab.toeplitz import _analytic_matrix  # noqa: E402

DEFAULT_SIZES = (384, 448, 512, 576, 640, 704, 768)


def best_of(repeat: int, run) -> tuple[float, float]:
    """The least wall time of ``repeat`` calls of ``run()``, and its last value."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        value = run()
        best = min(best, time.perf_counter() - start)
    return best, value


def _section(n: int) -> np.ndarray:
    """The real rotated section of ``power_symbol(1)``, d = 0, in the order the band route
    reduces."""
    r = power_symbol(1.0).series(n - 1).coeffs * _MINUS_I_POWERS[np.arange(n) % 4]
    return np.asfortranarray(_analytic_matrix(r.real, n, (1.0, 0.0)))


def _band_degree(n: int, ratio: int) -> int:
    """The largest m with (2m + 1) * ratio <= N, at least 1: the widest band routed."""
    return max(1, (n // ratio - 1) // 2)


def _rational(m: int, rotate: bool) -> tuple[np.ndarray, np.ndarray]:
    """p of degree m with normal coefficients and q = 1 + z^m / 2, zero-free on the
    closed disc, both rotated by i^k if ``rotate``."""
    p = np.random.default_rng(m).normal(size=m + 1).astype(complex)
    q = np.zeros(m + 1, complex)
    q[0], q[m] = 1.0, 0.5
    if rotate:
        p, q = (x * 1j ** np.arange(m + 1) for x in (p, q))
    return p, q


def crossover_rows(sizes, repeat: int) -> list[dict]:
    """One row per crossover and size: its name, N, the band's degree m (None for the
    band reduction), both sides' best times, and the two sigma values' difference."""
    scaled = analysis._scaled_sigma_min
    rows = []
    for n in sizes:
        section = _section(n)
        sides = {
            "band reduction": (
                None,
                lambda: lapack.dense_band_sigma(section.copy(order="F")),
                lambda: float(np.linalg.svd(section, compute_uv=False)[-1]),
            )
        }
        m = _band_degree(n, analysis._BAND_RATIO_REAL)
        p = np.random.default_rng(m).normal(size=m + 1)
        sides["bidiagonal"] = (
            m,
            lambda p=p: scaled(lapack.bidiagonal_sigma, 1.0, 0.5, p, n=n),
            lambda p=p: scaled(analysis._dense_sigma_min, 1.0, 0.5, p, n=n),
        )
        for name, ratio, cd, rotate in (
            ("pencil real", analysis._BAND_RATIO_REAL, (1.0, 0.25), False),
            ("pencil complex", analysis._BAND_RATIO_COMPLEX, (1 + 0.5j, 0.3), True),
        ):
            m = _band_degree(n, ratio)
            p, q = _rational(m, rotate)
            sides[name] = (
                m,
                lambda p=p, q=q, cd=cd: scaled(lapack.pencil_sigma, *cd, p, q, n=n),
                lambda p=p, q=q, cd=cd: scaled(analysis._dense_sigma_min, *cd, p, q, n=n),
            )
        for name, (m, route, dense) in sides.items():
            route_s, route_sigma = best_of(repeat, route)
            dense_s, dense_sigma = best_of(repeat, dense)
            rows.append({
                "crossover": name, "n": n, "m": m, "route_s": route_s, "dense_s": dense_s,
                "sigma_difference": abs(route_sigma - dense_sigma),
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)),
                        help="comma-separated sizes N (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=7, help="calls per side (default: 7)")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    print(f"{'crossover':<16}{'N':>6}{'m':>5}{'route s':>11}{'other s':>11}{'ratio':>8}"
          f"{'|diff|':>10}")
    for row in crossover_rows(sizes, args.repeat):
        m = "-" if row["m"] is None else row["m"]
        print(f"{row['crossover']:<16}{row['n']:>6}{m:>5}{row['route_s']:>11.4f}"
              f"{row['dense_s']:>11.4f}{row['route_s'] / row['dense_s']:>8.2f}"
              f"{row['sigma_difference']:>10.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
