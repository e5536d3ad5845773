"""Scenario-driven front end: JSON config in, reports and manifest out.

A scenario names one experiment kind, carries every physically
meaningful parameter explicitly (sizes, grids, thresholds, seeds have
no defaults), and is parsed strictly: a misspelled or extraneous field
is an error naming the field, not a silent ignore.  Reports are plain
JSON with deterministic key order and shortest-round-trip floats, so a
rerun with the same config and seed reproduces them byte for byte;
wall-clock timings live only in the manifest, which also inventories
every emitted file with its SHA-256.

Exit codes: 0 success, 2 config or validation error, 3 numerical
refusal (the underlying module error text is passed through verbatim).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import (
    check_schedule,
    invertibility_verdict,
    mix_bound_check,
    mix_sandwich_check,
    mix_transfer_check,
    normality_defect,
    power_symbol_study,
    random_normal_matrix,
    shift_window_demo,
    smallest_singular_value,
    VerdictConfig,
)
from .berezin import ROUTES, berezin_grid, grid_to_csv, grid_to_json
from .disc import QuadratureSpec
from .errors import ConfigError, NumericalError
from .symbols import (
    DiscGrid,
    HarmonicSymbol,
    polynomial_symbol,
    principal_power_symbol,
    rational_symbol,
)
from .toeplitz import (
    matrix_to_csv,
    matrix_to_json,
    toeplitz_harmonic,
    toeplitz_quadrature,
)

__all__ = ["Scenario", "RunManifest", "parse_scenario", "run_scenario", "main"]

KINDS = (
    "toeplitz_build",
    "berezin_grid",
    "invertibility",
    "theorem_check",
    "example_3_5",
)
CHECKS = ("3.1", "3.2", "3.3", "shift_demo")


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(f"unknown field(s) {', '.join(map(repr, extra))} in {where}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return d[key]


def _as_complex(v, where: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise ConfigError(f"{where} must be a number or a [re, im] pair")


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    return float(v)


def _coeff_list(v, where: str) -> list[complex]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a nonempty list")
    return [_as_complex(x, f"{where}[{i}]") for i, x in enumerate(v)]


def _parse_analytic(d, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    kind = _require(d, "type", where)
    if kind == "polynomial":
        _reject_unknown(d, {"type", "coeffs"}, where)
        return polynomial_symbol(_coeff_list(_require(d, "coeffs", where), f"{where}.coeffs"))
    if kind == "rational":
        _reject_unknown(d, {"type", "num", "den"}, where)
        num = _coeff_list(_require(d, "num", where), f"{where}.num")
        den = _coeff_list(_require(d, "den", where), f"{where}.den")
        try:
            return rational_symbol(num, den)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "principal_power":
        _reject_unknown(d, {"type", "plus_exponent", "minus_exponent"}, where)
        return principal_power_symbol(
            _as_float(_require(d, "plus_exponent", where), f"{where}.plus_exponent"),
            _as_float(_require(d, "minus_exponent", where), f"{where}.minus_exponent"),
        )
    raise ConfigError(
        f"{where}.type must be one of 'polynomial', 'rational', 'principal_power'"
    )


def _parse_symbol(d, where: str = "symbol") -> HarmonicSymbol:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(d, {"c", "d", "g"}, where)
    c = _as_complex(_require(d, "c", where), f"{where}.c")
    dd = _as_complex(_require(d, "d", where), f"{where}.d")
    g = _parse_analytic(_require(d, "g", where), f"{where}.g")
    return HarmonicSymbol(c, dd, g)


def _parse_grid(d, where: str = "grid") -> DiscGrid:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(d, {"radii", "angles"}, where)
    radii = _require(d, "radii", where)
    if not isinstance(radii, list) or not all(isinstance(r, (int, float)) for r in radii):
        raise ConfigError(f"{where}.radii must be a list of numbers")
    angles = _as_int(_require(d, "angles", where), f"{where}.angles")
    try:
        return DiscGrid(tuple(float(r) for r in radii), angles)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_quadrature(d, where: str = "quadrature") -> QuadratureSpec:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(d, {"radial", "angular"}, where)
    try:
        return QuadratureSpec(
            _as_int(_require(d, "radial", where), f"{where}.radial"),
            _as_int(_require(d, "angular", where), f"{where}.angular"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_schedule(v, where: str = "schedule") -> tuple[int, ...]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a nonempty list of integers")
    sizes = [_as_int(x, f"{where}[{i}]") for i, x in enumerate(v)]
    try:
        return check_schedule(sizes)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_thresholds(d, where: str = "thresholds") -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(d, {"inf_positive", "sigma_positive", "drift"}, where)
    return {
        key: _as_float(_require(d, key, where), f"{where}.{key}")
        for key in ("inf_positive", "sigma_positive", "drift")
    }


@dataclass(frozen=True)
class Scenario:
    """One validated experiment: kind plus the typed fields it needs."""

    name: str
    kind: str
    raw: dict
    symbol: HarmonicSymbol | None = None
    grid: DiscGrid | None = None
    quadrature: QuadratureSpec | None = None
    schedule: tuple[int, ...] | None = None
    thresholds: dict | None = None
    seed: int | None = None
    n: int | None = None
    builder: str | None = None
    route: str | None = None
    tail_tol: float | None = None
    check: str | None = None
    count: int | None = None
    matrix_size: int | None = None
    s: complex | None = None
    vector_trials: int | None = None
    t: float | None = None
    output_dir: str | None = None


_COMMON = {"name", "kind", "output_dir"}


def parse_scenario(config: dict) -> Scenario:
    """Validate a config document strictly and return the typed scenario.

    Every check happens before any computation; error messages name the
    offending field.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    name = _require(config, "name", "config")
    if not isinstance(name, str) or not name:
        raise ConfigError("config.name must be a nonempty string")
    kind = _require(config, "kind", "config")
    if kind not in KINDS:
        raise ConfigError(f"config.kind must be one of {', '.join(KINDS)}")
    out = config.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config.output_dir must be a string")
    base = dict(name=name, kind=kind, raw=config, output_dir=out)

    if kind == "toeplitz_build":
        _reject_unknown(config, _COMMON | {"symbol", "n", "builder", "quadrature"}, "config")
        builder = _require(config, "builder", "config")
        if builder not in ("closed_form", "quadrature"):
            raise ConfigError("config.builder must be 'closed_form' or 'quadrature'")
        quad = None
        if builder == "quadrature":
            quad = _parse_quadrature(_require(config, "quadrature", "config"))
        elif "quadrature" in config:
            raise ConfigError("config.quadrature only applies to the quadrature builder")
        return Scenario(
            **base,
            symbol=_parse_symbol(_require(config, "symbol", "config")),
            n=_as_int(_require(config, "n", "config"), "config.n"),
            builder=builder,
            quadrature=quad,
        )

    if kind == "berezin_grid":
        _reject_unknown(
            config, _COMMON | {"symbol", "grid", "route", "quadrature", "n", "tail_tol"}, "config"
        )
        route = _require(config, "route", "config")
        if route not in ROUTES:
            raise ConfigError(f"config.route must be one of {', '.join(ROUTES)}")
        quad = n = tail = None
        if route == "integral":
            quad = _parse_quadrature(_require(config, "quadrature", "config"))
        elif route == "matrix":
            n = _as_int(_require(config, "n", "config"), "config.n")
            tail = _as_float(_require(config, "tail_tol", "config"), "config.tail_tol")
        return Scenario(
            **base,
            symbol=_parse_symbol(_require(config, "symbol", "config")),
            grid=_parse_grid(_require(config, "grid", "config")),
            route=route,
            quadrature=quad,
            n=n,
            tail_tol=tail,
        )

    if kind == "invertibility":
        _reject_unknown(
            config, _COMMON | {"symbol", "schedule", "grid", "thresholds", "seed"}, "config"
        )
        return Scenario(
            **base,
            symbol=_parse_symbol(_require(config, "symbol", "config")),
            schedule=_parse_schedule(_require(config, "schedule", "config")),
            grid=_parse_grid(_require(config, "grid", "config")),
            thresholds=_parse_thresholds(_require(config, "thresholds", "config")),
            seed=_as_int(_require(config, "seed", "config"), "config.seed"),
        )

    if kind == "theorem_check":
        check = _require(config, "check", "config")
        if check not in CHECKS:
            raise ConfigError(f"config.check must be one of {', '.join(CHECKS)}")
        if check == "shift_demo":
            _reject_unknown(config, _COMMON | {"check", "n", "s", "seed"}, "config")
            return Scenario(
                **base,
                check=check,
                n=_as_int(_require(config, "n", "config"), "config.n"),
                s=_as_complex(_require(config, "s", "config"), "config.s"),
                seed=_as_int(_require(config, "seed", "config"), "config.seed"),
            )
        allowed = _COMMON | {"check", "count", "matrix_size", "s", "seed"}
        if check == "3.2":
            allowed |= {"vector_trials"}
        _reject_unknown(config, allowed, "config")
        trials = None
        if check == "3.2":
            trials = _as_int(
                _require(config, "vector_trials", "config"), "config.vector_trials"
            )
        return Scenario(
            **base,
            check=check,
            count=_as_int(_require(config, "count", "config"), "config.count"),
            matrix_size=_as_int(_require(config, "matrix_size", "config"), "config.matrix_size"),
            s=_as_complex(_require(config, "s", "config"), "config.s"),
            seed=_as_int(_require(config, "seed", "config"), "config.seed"),
            vector_trials=trials,
        )

    # example_3_5
    _reject_unknown(config, _COMMON | {"t", "schedule"}, "config")
    return Scenario(
        **base,
        t=_as_float(_require(config, "t", "config"), "config.t"),
        schedule=_parse_schedule(_require(config, "schedule", "config")),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _run_toeplitz_build(sc: Scenario, outdir: Path) -> list[Path]:
    if sc.builder == "quadrature":
        op = toeplitz_quadrature(sc.symbol, sc.n, sc.quadrature, sc.symbol.tag())
    else:
        op = toeplitz_harmonic(sc.symbol, sc.n)
    matrix_to_json(op, outdir / "matrix.json")
    matrix_to_csv(op, outdir / "matrix.csv")
    report = {
        "name": sc.name,
        "kind": sc.kind,
        "n": op.n,
        "builder": op.builder,
        "symbol_tag": op.symbol_tag,
        "sigma_min": smallest_singular_value(op),
        "normality_defect": normality_defect(op),
    }
    _write_json(outdir / "report.json", report)
    return [outdir / "matrix.json", outdir / "matrix.csv", outdir / "report.json"]


def _run_berezin_grid(sc: Scenario, outdir: Path) -> list[Path]:
    kwargs = {}
    if sc.route == "integral":
        kwargs["spec"] = sc.quadrature
    elif sc.route == "matrix":
        kwargs["n"] = sc.n
        kwargs["tail_tol"] = sc.tail_tol
    samples = berezin_grid(sc.symbol, sc.grid, sc.route, **kwargs)
    grid_to_csv(samples, outdir / "grid.csv")
    grid_to_json(samples, outdir / "grid.json")
    moduli = [abs(s.value) for s in samples]
    k = int(np.argmin(moduli))
    report = {
        "name": sc.name,
        "kind": sc.kind,
        "route": sc.route,
        "symbol_tag": sc.symbol.tag(),
        "num_points": len(samples),
        "min_abs_value": moduli[k],
        "argmin": [samples[k].z.real, samples[k].z.imag],
        "max_error_estimate": max(s.error_estimate for s in samples),
    }
    _write_json(outdir / "report.json", report)
    return [outdir / "grid.csv", outdir / "grid.json", outdir / "report.json"]


def _run_invertibility(sc: Scenario, outdir: Path) -> list[Path]:
    config = VerdictConfig(
        sizes=sc.schedule,
        grid=sc.grid,
        inf_threshold=sc.thresholds["inf_positive"],
        sigma_threshold=sc.thresholds["sigma_positive"],
        drift_threshold=sc.thresholds["drift"],
        seed=sc.seed,
    )
    report = invertibility_verdict(sc.symbol, config).to_dict()
    report["name"] = sc.name
    report["kind"] = sc.kind
    _write_json(outdir / "report.json", report)
    return [outdir / "report.json"]


def _run_theorem_check(sc: Scenario, outdir: Path) -> list[Path]:
    report = {"name": sc.name, "kind": sc.kind, "check": sc.check, "seed": sc.seed}
    if sc.check == "shift_demo":
        report.update(shift_window_demo(sc.n, sc.s).to_dict())
    else:
        rng = np.random.default_rng(sc.seed)
        passes = 0
        margins = []
        for _ in range(sc.count):
            t = random_normal_matrix(rng, sc.matrix_size)
            if sc.check == "3.1":
                c = mix_bound_check(t, sc.s)
                ok = c.equivalence_holds and bool(c.bound_holds)
                margins.append(c.sigma_mix - c.lower_bound)
            elif sc.check == "3.2":
                c = mix_sandwich_check(t, sc.s, trials=sc.vector_trials, rng=rng)
                ok = c.within_bounds and c.equivalence_holds
                margins.append(min(c.ratio_min - c.lower, c.upper - c.ratio_max))
            else:
                c = mix_transfer_check(t, sc.s)
                ok = c.transfer_holds
                margins.append(min(c.sigma_t, c.sigma_mix))
            passes += ok
        report.update(
            {
                "count": sc.count,
                "matrix_size": sc.matrix_size,
                "s": [sc.s.real, sc.s.imag],
                "passes": passes,
                "all_pass": passes == sc.count,
                "min_margin": float(min(margins)),
            }
        )
    _write_json(outdir / "report.json", report)
    return [outdir / "report.json"]


def _run_example_3_5(sc: Scenario, outdir: Path) -> list[Path]:
    report = power_symbol_study(sc.t, sizes=sc.schedule).to_dict()
    report["name"] = sc.name
    report["kind"] = sc.kind
    _write_json(outdir / "report.json", report)
    return [outdir / "report.json"]


_PIPELINES = {
    "toeplitz_build": _run_toeplitz_build,
    "berezin_grid": _run_berezin_grid,
    "invertibility": _run_invertibility,
    "theorem_check": _run_theorem_check,
    "example_3_5": _run_example_3_5,
}


@dataclass(frozen=True)
class RunManifest:
    """Provenance record: scenario echo, versions, timings, file hashes."""

    scenario: dict
    versions: dict
    timings_s: dict
    outputs: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "versions": self.versions,
            "timings_s": self.timings_s,
            "outputs": list(self.outputs),
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_scenario(config_path, output_dir: str | None = None) -> RunManifest:
    """Execute one scenario file end to end and write its manifest.

    ``output_dir`` overrides the config's own; one of the two must be
    present.  Every emitted file lands in the manifest with its hash
    (the manifest itself is written last and cannot self-reference).
    """
    t0 = time.perf_counter()
    raw = Path(config_path).read_text()
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    sc = parse_scenario(config)
    outdir = output_dir or sc.output_dir
    if outdir is None:
        raise ConfigError("missing required field 'output_dir' (config or --output-dir)")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t1 = time.perf_counter()
    files = _PIPELINES[sc.kind](sc, outdir)
    t2 = time.perf_counter()
    manifest = RunManifest(
        scenario=config,
        versions={
            "berglab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        timings_s={
            "parse": t1 - t0,
            "compute": t2 - t1,
            "write": time.perf_counter() - t2,
        },
        outputs=tuple(
            {"path": f.name, "sha256": _sha256(f), "bytes": f.stat().st_size}
            for f in files
        ),
    )
    _write_json(outdir / "manifest.json", manifest.to_dict())
    return manifest


def _cmd_run(args) -> int:
    run_scenario(args.config, args.output_dir)
    return 0


def _cmd_validate(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    sc = parse_scenario(config)
    print(f"ok: {sc.kind} scenario {sc.name!r}")
    return 0


def _cmd_example35(args) -> int:
    try:
        schedule = tuple(int(x) for x in args.schedule.split(","))
    except ValueError as exc:
        raise ConfigError("--schedule must be comma-separated integers") from exc
    config = {
        "name": f"example35-t{args.t:g}",
        "kind": "example_3_5",
        "t": args.t,
        "schedule": list(schedule),
    }
    sc = parse_scenario(config)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = _run_example_3_5(sc, outdir)
    report = json.loads(files[0].read_text())
    print(
        f"t={args.t:g}  grid_min={report['grid_min']:.6g}  "
        f"bound={report['modulus_bound']:.6g}  bounds_hold={report['bounds_hold']}  "
        f"max_residual={max(report['residuals']):.3g}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="berglab",
        description="Truncated Bergman-space Toeplitz experiments from JSON scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="parse and validate a config, run nothing")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_ex = sub.add_parser("example35", help="oscillatory quotient symbol study")
    p_ex.add_argument("--t", type=float, required=True)
    p_ex.add_argument("--schedule", required=True, help="comma-separated sizes")
    p_ex.add_argument("--output-dir", default=".")
    p_ex.set_defaults(func=_cmd_example35)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
