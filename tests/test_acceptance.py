"""Contract conformance gate: one test and one printed line per criterion.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines; each test also carries its detail in the assertion
message.  Criterion 10 is expected to fail in its middle clause: the
stated factorization orientation contradicts the scalar identity it is
derived from, and the measured block norms grow instead of decaying.
The decisions ledger documents the analysis; the test asserts the
criterion as written rather than a repaired variant.
"""

import json

import numpy as np
import pytest

from berglab.analysis import (
    bounded_below_trend,
    invertibility_verdict,
    mix_bound_check,
    mix_sandwich_check,
    normality_defect,
    adjoint_mix,
    power_symbol_study,
    random_normal_matrix,
    shift_window_demo,
)
from berglab.berezin import berezin_grid, berezin_harmonic, berezin_integral, berezin_matrix
from berglab.cli import run_scenario
from berglab.disc import QuadratureSpec
from berglab.symbols import (
    DiscGrid,
    HarmonicSymbol,
    PolynomialSymbol,
    PrincipalPowerSymbol,
    RationalSymbol,
    inf_modulus,
    power_symbol,
)
from berglab.toeplitz import toeplitz_analytic, toeplitz_harmonic, toeplitz_quadrature

BOOSTED = QuadratureSpec(96, 384)
SHARED_GRID = DiscGrid((0.0, 0.3, 0.6, 0.8, 0.9), 32)

SUITE = [
    ("(1,0,2+z)", HarmonicSymbol(1.0, 0.0, PolynomialSymbol([2.0, 1.0])), True),
    ("(1,1,2+z)", HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0])), True),
    ("(1,2,z)", HarmonicSymbol(1.0, 2.0, PolynomialSymbol([0.0, 1.0])), False),
    ("(1,0.5,2+z)", HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0])), True),
]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_builder_oracle_agreement():
    spec = QuadratureSpec(64, 128)
    symbols = [
        PolynomialSymbol([0.0, 1.0]),
        PolynomialSymbol([0.0, 0.0, 1.0]),
        PolynomialSymbol([2.0, 1.0]),
        RationalSymbol([1.0], [1.0, -0.5]),
    ]
    worst = 0.0
    for g in symbols:
        closed = toeplitz_analytic(g.series(7), 8).matrix
        quad = toeplitz_quadrature(g, 8, spec, g.tag()).matrix
        worst = max(worst, float(np.max(np.abs(closed - quad))))
    ok = worst <= 1e-8
    _line(1, ok, f"max entry error {worst:.2e} across 4 symbols at N=8, quadrature 64x128")
    assert ok, f"builder disagreement {worst:.2e} exceeds 1e-8"


def test_criterion_02_berezin_three_route_agreement():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        phi = HarmonicSymbol(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
            PolynomialSymbol(coeffs),
        )
        op = toeplitz_harmonic(phi, 256)
        for _ in range(50):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            vi = berezin_integral(phi, z, BOOSTED).value
            vm = berezin_matrix(op, z).value
            vh = berezin_harmonic(phi, z).value
            worst = max(worst, abs(vi - vm), abs(vi - vh), abs(vm - vh))
    const = HarmonicSymbol(0.3 - 0.2j, 0.55 + 0.15j, PolynomialSymbol([1.0]))
    const_op = toeplitz_harmonic(const, 256)
    const_worst = 0.0
    for _ in range(10):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        expected = const.c + const.d
        for v in (
            berezin_integral(const, z, BOOSTED).value,
            berezin_matrix(const_op, z).value,
            berezin_harmonic(const, z).value,
        ):
            const_worst = max(const_worst, abs(v - expected))
    ok = worst <= 1e-6 and const_worst <= 1e-10
    _line(2, ok, f"pairwise {worst:.2e} (<=1e-6), constant {const_worst:.2e} (<=1e-10)")
    assert ok, f"route discrepancy {worst:.2e} / constant {const_worst:.2e}"


def test_criterion_03_transform_preserves_grid_minimum():
    nodes = SHARED_GRID.nodes().ravel()
    worst = 0.0
    for label, phi, _ in SUITE:
        direct = float(np.min(np.abs(phi(nodes))))
        # the ring/FFT sweep; tests/test_berezin.py checks it node by node
        # against berezin_integral on this grid
        samples = berezin_grid(phi, SHARED_GRID, spec=BOOSTED)
        transformed = float(min(abs(s.value) for s in samples))
        worst = max(worst, abs(direct - transformed))
    ok = worst <= 1e-5
    _line(3, ok, f"max |min|phi~| - min|phi|| = {worst:.2e} on the shared grid")
    assert ok, f"grid-min disagreement {worst:.2e} exceeds 1e-5"


def test_criterion_04_sigma_trend_separation():
    sizes = (16, 32, 64, 128, 256)
    stab_a = bounded_below_trend(HarmonicSymbol(1.0, 0.5, PolynomialSymbol([2.0, 1.0])), sizes)
    stab_b = bounded_below_trend(HarmonicSymbol(1.0, 1.0, PolynomialSymbol([2.0, 1.0])), sizes)
    ok_stab = all(
        t.stabilized and t.drift < 0.05 and t.sigma_min[-1] > 1e-2
        for t in (stab_a, stab_b)
    )

    collapse = bounded_below_trend(HarmonicSymbol(1.0, 0.5, PolynomialSymbol([0.0, 1.0])), sizes)
    target = 0.1 * collapse.sigma_min[0]
    sig = collapse.sigma_min
    # decreasing until crossing the 0.1 x sigma(16) mark, then staying below
    crossing = next((i for i, s in enumerate(sig) if s <= target), None)
    ok_collapse = crossing is not None
    if ok_collapse:
        ok_collapse = all(b < a for a, b in zip(sig[: crossing + 1], sig[1 : crossing + 1]))
        ok_collapse = ok_collapse and all(s <= target for s in sig[crossing:])

    disagreements = [
        label
        for label, phi, invertible in SUITE
        if (invertibility_verdict(phi).verdict == "invertible_likely") != invertible
    ]
    ok = ok_stab and ok_collapse and not disagreements
    _line(
        4,
        ok,
        f"floors {stab_a.sigma_min[-1]:.3f}/{stab_b.sigma_min[-1]:.3f} stabilized, "
        f"collapse to {sig[-1]:.1e}, verdict disagreements {disagreements}",
    )
    assert ok, f"stab={ok_stab} collapse={ok_collapse} disagreements={disagreements}"


def test_criterion_05_pointwise_sandwich():
    rng = np.random.default_rng(505)
    n = 10**4
    s = rng.uniform(0.05, 3.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    combo = np.abs(s * g + np.conj(g))
    lower_slack = float((combo - np.abs(np.abs(s) - 1.0) * np.abs(g)).min())
    upper_slack = float(((np.abs(s) + 1.0) * np.abs(g) - combo).min())
    ok = lower_slack >= -1e-12 and upper_slack >= -1e-12
    _line(5, ok, f"10^4 samples, slacks {lower_slack:.2e} / {upper_slack:.2e}")
    assert ok, f"sandwich violated: {lower_slack:.2e}, {upper_slack:.2e}"


def test_criterion_06_mix_lower_bound_sweep():
    rng = np.random.default_rng(606)
    holds = 0
    for _ in range(1000):
        n = int(rng.integers(4, 21))
        t = random_normal_matrix(rng, n)
        s = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        check = mix_bound_check(t, s)
        holds += bool(check.bound_holds)
    ok = holds == 1000
    _line(6, ok, f"sigma_min(sT+T*) >= (1-|s|) sigma_min(T) in {holds}/1000 samples")
    assert ok, f"lower bound held in only {holds}/1000 samples"


def test_criterion_07_mix_sandwich_sweep():
    rng = np.random.default_rng(707)
    within = 0
    for _ in range(1000):
        t = random_normal_matrix(rng, 8)
        s = rng.uniform(1.0 + 1e-9, 3.0) * np.exp(2j * np.pi * rng.uniform())
        check = mix_sandwich_check(t, s, trials=1000, rng=rng)
        within += check.within_bounds
    witness_a = np.diag([1.0, 2.0j])
    e1 = np.array([0.0, 1.0])
    ratio_a = np.linalg.norm(adjoint_mix(witness_a, 2.0) @ e1) / np.linalg.norm(witness_a @ e1)
    h = np.array([0.3 + 1j, -0.7, 0.2j])
    eye = np.eye(3, dtype=complex)
    ratio_b = np.linalg.norm(adjoint_mix(eye, 3.0) @ h) / np.linalg.norm(eye @ h)
    ok = within == 1000 and abs(ratio_a - 1.0) <= 1e-12 and abs(ratio_b - 4.0) <= 1e-12
    _line(
        7,
        ok,
        f"{within}/1000 sweeps within bounds; witness ratios {ratio_a:.12f}, {ratio_b:.12f}",
    )
    assert ok, f"within={within}/1000, witnesses {ratio_a}, {ratio_b}"


def test_criterion_08_unimodular_mix_normality():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 16))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        scale = float(np.linalg.norm(a)) ** 2
        for _ in range(20):
            s = np.exp(2j * np.pi * rng.uniform())
            worst = max(worst, normality_defect(adjoint_mix(a, s)) / scale)
    ok = worst <= 1e-12
    _line(8, ok, f"normality defect of sA+A* at most {worst:.2e} x ||A||_F^2")
    assert ok, f"defect ratio {worst:.2e} exceeds 1e-12"


def test_criterion_09_shift_window_witness():
    a = toeplitz_analytic([0.0, 1.0], 16).matrix
    e0 = np.zeros(16)
    e0[0] = 1.0
    adjoint_exact_zero = bool(np.all(a.conj().T @ e0 == 0.0))
    mix_norm = float(np.linalg.norm(adjoint_mix(a, 2.0) @ e0))
    ratios = [shift_window_demo(n, 2.0).window_ratio_mix for n in (16, 64, 256)]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    ok = (
        adjoint_exact_zero
        and abs(mix_norm - np.sqrt(2.0)) <= 1e-12
        and all(r > 0.9 for r in ratios)
        and spread <= 0.05
    )
    _line(
        9,
        ok,
        f"A*e0 = 0 exactly, ||(2A+A*)e0|| = {mix_norm:.12f}, "
        f"window ratios {[f'{r:.4f}' for r in ratios]} (spread {spread:.1%})",
    )
    assert ok, f"witnesses: zero={adjoint_exact_zero}, mix={mix_norm}, ratios={ratios}"


def test_criterion_10_oscillatory_factorization():
    t = 1.0
    phi = power_symbol(t)
    plus = PrincipalPowerSymbol(t, 0.0)
    minus = PrincipalPowerSymbol(0.0, t)

    grid_min = inf_modulus(phi).minimum
    ok_bound = grid_min >= np.exp(-np.pi)

    # the criterion's orientation: T_plus T_phi - T_minus on the top-left
    # N/2 block, required to decrease as N doubles
    norms = []
    for n in (32, 64, 128, 256):
        a_plus = toeplitz_analytic(plus.series(n - 1), n).matrix
        a_phi = toeplitz_analytic(phi.series(n - 1), n).matrix
        a_minus = toeplitz_analytic(minus.series(n - 1), n).matrix
        block = (a_plus @ a_phi - a_minus)[: n // 2, : n // 2]
        norms.append(float(np.max(np.abs(block))))
    ok_residual = all(b < a for a, b in zip(norms, norms[1:]))

    study = power_symbol_study(t)
    ok_trend = study.trend.stabilized and study.trend.sigma_min[-1] > 0

    ok = ok_bound and ok_residual and ok_trend
    detail = (
        f"grid min {grid_min:.4f} >= e^-pi: {ok_bound}; "
        f"stated-orientation block residuals {[f'{x:.3f}' for x in norms]} "
        f"decreasing: {ok_residual}; trend stabilized positive: {ok_trend}"
    )
    _line(10, ok, detail)
    assert ok, (
        f"{detail}. The stated residual compares T_plus T_phi with T_minus, but the "
        f"scalar identity is (1-z)^it phi = (1+z)^it, so the product equals a fixed "
        f"operator other than T_minus and its nested block norms grow. The corrected "
        f"orientation T_minus T_phi - T_plus is exact under truncation: max residual "
        f"{max(study.residuals):.1e} across sizes {study.sizes}. See the decisions ledger."
    )


def test_criterion_11_window_hyponormality():
    rng = np.random.default_rng(1111)
    n = 16
    counts = []
    for coeffs in ([0.0, 1.0], [2.0, 1.0], [0.0, 0.5, 1.0]):
        a = toeplitz_analytic(coeffs, n).matrix
        degree = len(coeffs) - 1
        width = n - degree - 1
        hits = 0
        for _ in range(500):
            f = np.zeros(n, dtype=complex)
            f[:width] = rng.normal(size=width) + 1j * rng.normal(size=width)
            hits += bool(
                np.linalg.norm(a @ f)
                >= np.linalg.norm(a.conj().T @ f) - 1e-12 * np.linalg.norm(f)
            )
        counts.append(hits)
    ok = all(c == 500 for c in counts)
    _line(11, ok, f"||A f|| >= ||A* f|| on windows: {counts} of 500 each")
    assert ok, f"hyponormality window counts {counts}"


def test_criterion_12_scenario_determinism(tmp_path):
    scenarios = [
        {
            "name": "det-toeplitz",
            "kind": "toeplitz_build",
            "builder": "closed_form",
            "n": 8,
            "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
        },
        {
            "name": "det-berezin",
            "kind": "berezin_grid",
            "route": "matrix",
            "n": 64,
            "tail_tol": 1e-6,
            "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
            "grid": {"radii": [0.0, 0.4, 0.7], "angles": 16},
        },
        {
            "name": "det-invertibility",
            "kind": "invertibility",
            "symbol": {"c": 1.0, "d": 0.0, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
            "schedule": [16, 32, 64],
            "grid": {"radii": [0.0, 0.5, 0.9], "angles": 32},
            "thresholds": {"inf_positive": 1e-3, "sigma_positive": 1e-6, "drift": 0.05},
            "seed": 12,
        },
        {
            "name": "det-theorem",
            "kind": "theorem_check",
            "check": "3.2",
            "count": 10,
            "matrix_size": 6,
            "s": 1.5,
            "vector_trials": 100,
            "seed": 12,
        },
        {"name": "det-ex35", "kind": "example_3_5", "t": 1.0, "schedule": [16, 32, 64]},
    ]
    mismatches = []
    for config in scenarios:
        path = tmp_path / f"{config['name']}.json"
        path.write_text(json.dumps(config))
        dir_a = tmp_path / f"{config['name']}-a"
        dir_b = tmp_path / f"{config['name']}-b"
        run_scenario(path, str(dir_a))
        run_scenario(path, str(dir_b))
        for out in sorted(dir_a.iterdir()):
            other = dir_b / out.name
            if out.name == "manifest.json":
                ma = json.loads(out.read_text())
                mb = json.loads(other.read_text())
                del ma["timings_s"], mb["timings_s"]
                if ma != mb:
                    mismatches.append(f"{config['name']}/{out.name}")
            elif out.read_bytes() != other.read_bytes():
                mismatches.append(f"{config['name']}/{out.name}")
    ok = not mismatches
    _line(12, ok, f"5 scenario kinds rerun byte-identical (modulo timings); mismatches {mismatches}")
    assert ok, f"non-deterministic outputs: {mismatches}"
