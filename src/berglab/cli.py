"""Scenario-driven front end: JSON config in, reports and manifest out.

A scenario names one experiment kind, carries every physically
meaningful parameter explicitly (sizes, grids, thresholds, seeds have
no defaults), and is parsed strictly against :data:`SCHEMA`: a
misspelled, extraneous or out-of-domain field is an error naming the
field, not a silent ignore, and a field's domain is checked by the same
function the computation calls.  Reports are plain JSON with
deterministic key order (a report dataclass's field order),
shortest-round-trip floats and complex numbers as ``[re, im]``, so a
rerun with the same config and seed reproduces them byte for byte;
wall-clock timings live only in the manifest, which also inventories
every emitted file with its SHA-256.

Exit codes: 0 success, 2 config or validation error, 3 numerical
refusal, a non-finite result or exhausted memory (the underlying error
text is passed through verbatim).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from . import __version__
from .analysis import (
    check_mix_s,
    check_schedule,
    check_shift_window,
    invertibility_verdict,
    mix_bound_check,
    mix_sandwich_check,
    mix_transfer_check,
    normality_defect,
    power_symbol_study,
    random_normal_matrix,
    shift_window_demo,
    smallest_singular_value,
)
from .berezin import berezin_grid, grid_to_csv, grid_to_json
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
    check_size,
    matrix_to_csv,
    matrix_to_json,
    toeplitz_harmonic,
    toeplitz_quadrature,
)

__all__ = ["SCHEMA", "Scenario", "RunManifest", "parse_scenario", "run_scenario", "main"]

# A parser is a function of (value, where) that returns the typed value or
# raises ConfigError naming ``where``, the field's path in the config.


def _checked(check, where: str, *args):
    """``check(*args)``, with its ValueError reported against ``where``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _then(parse, check, *args):
    """Parser: ``parse``, then the domain check ``check(value, *args)``."""
    return lambda v, where: _checked(check, where, parse(v, where), *args)


def _as_float(v, where: str) -> float:
    """A finite number: ``json.loads`` accepts ``NaN`` and ``Infinity``, reads
    ``1e999`` as ``inf``, and an integer literal may overflow a float."""
    try:
        x = float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be a finite number")
    return x


def _as_complex(v, where: str) -> complex:
    if not isinstance(v, list):
        return complex(_as_float(v, where))
    if len(v) != 2:
        raise ConfigError(f"{where} must be a finite number or a [re, im] pair")
    return complex(_as_float(v[0], f"{where}[0]"), _as_float(v[1], f"{where}[1]"))


def _as_int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer")
    return v


def _at_least(n: int, least: int) -> int:
    if n < least:
        raise ValueError(f"must be at least {least}")
    return n


def _name(v, where: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where} must be a nonempty string")
    return v


def _list(item):
    """Parser of a nonempty list whose entries ``item`` parses."""

    def parse(v, where):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{where} must be a nonempty list")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(v)]

    return parse


def _variant(d, key: str, table: dict, where: str):
    """The tag ``d[key]``, its entry of ``table``, and ``d`` without ``key``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    tag = d.get(key)
    if not isinstance(tag, str) or tag not in table:
        raise ConfigError(f"{where}.{key} must be one of {', '.join(table)}")
    return tag, table[tag], {k: v for k, v in d.items() if k != key}


def _object(fields: dict, build=None):
    """Parser of an object holding exactly ``fields``, {field: parser}.

    A field ``fields`` does not list is refused by name, and so is a
    listed field the object lacks.  The parsed values come back as a
    dict, or passed in order to ``build``.
    """

    def parse(d, where):
        if not isinstance(d, dict):
            raise ConfigError(f"{where} must be an object")
        extra = sorted(set(d) - set(fields))
        if extra:
            raise ConfigError(f"unknown field(s) {', '.join(map(repr, extra))} in {where}")
        for key in fields:
            if key not in d:
                raise ConfigError(f"missing required field {key!r} in {where}")
        values = [field(d[key], f"{where}.{key}") for key, field in fields.items()]
        return dict(zip(fields, values)) if build is None else _checked(build, where, *values)

    return parse


_COEFFS = _list(_as_complex)

#: symbol.g by its ``type``
_ANALYTIC = {
    "polynomial": _object({"coeffs": _COEFFS}, polynomial_symbol),
    "rational": _object({"num": _COEFFS, "den": _COEFFS}, rational_symbol),
    "principal_power": _object(
        {"plus_exponent": _as_float, "minus_exponent": _as_float}, principal_power_symbol
    ),
}


def _analytic(d, where: str):
    _, parse, rest = _variant(d, "type", _ANALYTIC, where)
    return parse(rest, where)


_SYMBOL = _object({"c": _as_complex, "d": _as_complex, "g": _analytic}, HarmonicSymbol)
_GRID = _object({"radii": _list(_as_float), "angles": _as_int}, DiscGrid)
_QUADRATURE = _object({"radial": _as_int, "angular": _as_int}, QuadratureSpec)
_THRESHOLDS = _object({key: _as_float for key in ("inf_positive", "sigma_positive", "drift")})
_SCHEDULE = _then(_list(_as_int), check_schedule)
_SIZE = _then(_as_int, check_size)
_COUNT = _then(_as_int, _at_least, 1)
#: required by every kind that has it; ``invertibility`` and ``shift_demo`` only echo it
_SEED = _then(_as_int, _at_least, 0)


def _mix(side: str) -> dict:
    s = _then(_as_complex, check_mix_s, side)
    return {"count": _COUNT, "matrix_size": _COUNT, "s": s, "seed": _SEED}


#: every scenario kind's fields, {field: parser}, besides ``name`` and the
#: optional ``output_dir``; a kind with variants is a pair of its
#: discriminating field and one such table per variant
SCHEMA = {
    "toeplitz_build": (
        "builder",
        {
            "closed_form": {"symbol": _SYMBOL, "n": _SIZE},
            "quadrature": {"symbol": _SYMBOL, "n": _SIZE, "quadrature": _QUADRATURE},
        },
    ),
    "berezin_grid": (
        "route",
        {
            "integral": {"symbol": _SYMBOL, "grid": _GRID, "quadrature": _QUADRATURE},
            "matrix": {"symbol": _SYMBOL, "grid": _GRID, "n": _SIZE, "tail_tol": _as_float},
            "harmonic_closed_form": {"symbol": _SYMBOL, "grid": _GRID},
        },
    ),
    "invertibility": {
        "symbol": _SYMBOL,
        "schedule": _SCHEDULE,
        "grid": _GRID,
        "thresholds": _THRESHOLDS,
        "seed": _SEED,
    },
    "theorem_check": (
        "check",
        {
            "3.1": _mix("<"),
            "3.2": {**_mix(">"), "vector_trials": _COUNT},
            "3.3": _mix("!="),
            "shift_demo": {
                "n": _then(_as_int, check_shift_window),
                "s": _then(_as_complex, check_mix_s, ">"),
                "seed": _SEED,
            },
        },
    ),
    "example_3_5": {"t": _as_float, "schedule": _SCHEDULE},
}


class Scenario(SimpleNamespace):
    """One validated experiment: ``name``, ``kind``, ``output_dir`` (or None),
    the discriminating field of a kind with variants, and exactly the typed
    fields :data:`SCHEMA` lists for its variant."""


def parse_scenario(config: dict) -> Scenario:
    """Validate a config document strictly and return the typed scenario.

    Every check happens before any computation; error messages name the
    offending field.
    """
    kind, fields, rest = _variant(config, "kind", SCHEMA, "config")
    tags = {"kind": kind}
    if isinstance(fields, tuple):
        key, table = fields
        tags[key], fields, rest = _variant(rest, key, table, "config")
    out = rest.pop("output_dir", None)
    if out is not None and not isinstance(out, str):
        raise ConfigError("config.output_dir must be a string")
    parsed = _object({"name": _name, **fields})(rest, "config")
    return Scenario(**tags, output_dir=out, **parsed)


def _pair(z) -> list:
    """``json.dumps`` fallback: a complex number as ``[re, im]``, nothing else."""
    if isinstance(z, complex):
        return [z.real, z.imag]
    raise TypeError(f"{type(z).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, indent=1, allow_nan=False, default=_pair)
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise NumericalError(f"{path.name} holds non-finite values, refusing to write it") from exc
    path.write_text(text + "\n")


def _run_toeplitz_build(sc: Scenario) -> tuple[dict, tuple]:
    if sc.builder == "quadrature":
        op = toeplitz_quadrature(sc.symbol, sc.n, sc.quadrature, sc.symbol.tag())
    else:
        op = toeplitz_harmonic(sc.symbol, sc.n)
    report = {
        "name": sc.name,
        "kind": sc.kind,
        "n": op.n,
        "builder": op.builder,
        "symbol_tag": op.symbol_tag,
        # the dense SVD: loading SciPy's LAPACK for the banded route adds more peak memory
        # than an N = 512 build allocates itself (DECISIONS.md 4)
        "sigma_min": smallest_singular_value(op),
        "normality_defect": normality_defect(op),
    }
    return report, ((matrix_to_json, op), (matrix_to_csv, op))


def _run_berezin_grid(sc: Scenario) -> tuple[dict, tuple]:
    # the route's own fields: quadrature (integral), n and tail_tol (matrix)
    kwargs = {key: v for key, v in vars(sc).items() if key in ("n", "tail_tol")}
    if sc.route == "integral":
        kwargs["spec"] = sc.quadrature
    samples = berezin_grid(sc.symbol, sc.grid, sc.route, **kwargs)
    moduli = [abs(s.value) for s in samples]
    k = int(np.argmin(moduli))
    report = {
        "name": sc.name,
        "kind": sc.kind,
        "route": sc.route,
        "symbol_tag": sc.symbol.tag(),
        "num_points": len(samples),
        "min_abs_value": moduli[k],
        "argmin": samples[k].z,
        "max_error_estimate": max(s.error_estimate for s in samples),
    }
    return report, ((grid_to_csv, samples), (grid_to_json, samples))


def _run_invertibility(sc: Scenario) -> tuple[dict, tuple]:
    verdict = invertibility_verdict(sc.symbol, sc.schedule, sc.grid, **sc.thresholds, seed=sc.seed)
    return {**asdict(verdict), "name": sc.name, "kind": sc.kind}, ()


#: the operator-mix checks of ``theorem_check``, by ``check``
_MIX_CHECKS = {"3.1": mix_bound_check, "3.2": mix_sandwich_check, "3.3": mix_transfer_check}


def _run_theorem_check(sc: Scenario) -> tuple[dict, tuple]:
    report = {"name": sc.name, "kind": sc.kind, "check": sc.check, "seed": sc.seed}
    if sc.check == "shift_demo":
        return {**report, **asdict(shift_window_demo(sc.n, sc.s))}, ()
    rng = np.random.default_rng(sc.seed)
    # 3.2 draws its vectors from the stream of the matrices, after each matrix
    extra = {"trials": sc.vector_trials, "rng": rng} if sc.check == "3.2" else {}
    checks = [
        _MIX_CHECKS[sc.check](random_normal_matrix(rng, sc.matrix_size), sc.s, **extra)
        for _ in range(sc.count)
    ]
    passes = sum(c.passed for c in checks)
    report.update(
        count=sc.count,
        matrix_size=sc.matrix_size,
        s=sc.s,
        passes=passes,
        all_pass=passes == sc.count,
        min_margin=float(min(c.margin for c in checks)),
    )
    return report, ()


def _run_example_3_5(sc: Scenario) -> tuple[dict, tuple]:
    report = asdict(power_symbol_study(sc.t, sizes=sc.schedule))
    return {**report, "name": sc.name, "kind": sc.kind}, ()


#: each kind's pipeline and the names of the files it returns besides report.json.  A
#: pipeline is a function of the scenario alone, returning ``(report, files)``: files[i]
#: is the pair ``(writer, data)`` that :func:`run_scenario` writes as
#: ``writer(data, outdir / names[i])``; no pipeline touches the output directory
_PIPELINES = {
    "toeplitz_build": (_run_toeplitz_build, ("matrix.json", "matrix.csv")),
    "berezin_grid": (_run_berezin_grid, ("grid.csv", "grid.json")),
    "invertibility": (_run_invertibility, ()),
    "theorem_check": (_run_theorem_check, ()),
    "example_3_5": (_run_example_3_5, ()),
}


def _remove_outputs(outdir: Path) -> None:
    """Remove every file that a run of any kind writes from ``outdir``."""
    for name in ("report.json", "manifest.json", *(n for _, ns in _PIPELINES.values() for n in ns)):
        (outdir / name).unlink(missing_ok=True)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record: scenario echo, versions, timings, file hashes."""

    scenario: dict
    versions: dict
    timings_s: dict
    outputs: tuple[dict, ...]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_config(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def run_scenario(config, output_dir: str | None = None) -> RunManifest:
    """Execute one scenario end to end and write its manifest.

    ``config`` is a scenario file's path or a parsed config document;
    ``output_dir`` overrides the config's own, and one of the two must be
    present.  The only code that touches the output directory: after the
    pipeline returns, the files of an earlier run of any kind are removed
    (other files are left alone) and the pipeline's files, report.json and
    the manifest are written; a failed or refused run leaves none of them.
    Every emitted file lands in the manifest with its hash (the manifest
    itself is written last and cannot self-reference).
    """
    t0 = time.perf_counter()
    if not isinstance(config, dict):
        config = _load_config(config)
    sc = parse_scenario(config)
    outdir = output_dir or sc.output_dir
    if outdir is None:
        raise ConfigError("missing required field 'output_dir' (config or --output-dir)")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pipeline, names = _PIPELINES[sc.kind]
    t1 = time.perf_counter()
    try:
        # overflow is refused where it matters: by the sigma_min checks and the writers
        with np.errstate(over="ignore", invalid="ignore"):
            report, files = pipeline(sc)
        t2 = time.perf_counter()
        _remove_outputs(outdir)
        paths = [outdir / name for name in (*names, "report.json")]
        for (writer, data), path in zip(files, paths[:-1], strict=True):
            writer(data, path)
        _write_json(paths[-1], report)
        outputs = tuple(
            {"path": f.name, "sha256": _sha256(f), "bytes": f.stat().st_size} for f in paths
        )
        manifest = RunManifest(
            scenario=config,
            versions={
                "berglab": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": sys.version.split()[0],
            },
            # compute: the pipeline alone; write: the files, report.json and their hashes
            timings_s={"parse": t1 - t0, "compute": t2 - t1, "write": time.perf_counter() - t2},
            outputs=outputs,
        )
        _write_json(outdir / "manifest.json", asdict(manifest))
    except BaseException:
        _remove_outputs(outdir)
        raise
    return manifest


def _cmd_run(args) -> int:
    run_scenario(args.config, args.output_dir)
    return 0


def _cmd_validate(args) -> int:
    sc = parse_scenario(_load_config(args.config))
    print(f"ok: {sc.kind} scenario {sc.name!r}")
    return 0


def _cmd_example35(args) -> int:
    try:
        schedule = [int(x) for x in args.schedule.split(",")]
    except ValueError as exc:
        raise ConfigError("--schedule must be comma-separated integers") from exc
    config = {"name": f"example35-t{args.t:g}", "kind": "example_3_5", "t": args.t,
              "schedule": schedule}
    run_scenario(config, args.output_dir)
    report = json.loads((Path(args.output_dir) / "report.json").read_text())
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
    except (ValueError, FileNotFoundError) as exc:  # ConfigError is a ValueError
        error, code = exc, 2
    except (NumericalError, MemoryError) as exc:
        error, code = exc, 3
    print(f"error: {str(error) or type(error).__name__}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
