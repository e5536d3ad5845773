"""berglab benchmark: closed-loop scenario workloads, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``bench/workloads.py``.  A run does three
things:

1. measures ``setup_s``: the median wall time of fresh interpreters that
   only ``import berglab.cli``, which every ``berglab run`` pays;
2. starts ``bench/worker.py`` with the BLAS thread count pinned to 1,
   which runs one warm-up pass and then timed passes of the workload
   for about ``--seconds`` seconds, checking every report against the
   stored references in ``bench/reference/``;
3. prints every metric by name and unit, then one JSON line with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (``pass_s``, ``setup_s``,
``peak_rss_mb``).  ``pass_s`` is the median wall time of the measured
passes scaled to the reference host speed of ``probe.py``, by the
median of the probes run between their scenarios: the shared host's
speed drifts by more than the bounds over minutes, and the scaling
takes most of that drift out while keeping every change in the
program's own time.  The unscaled median is printed and recorded
beside it.  ``setup_s`` stays in wall seconds, as launch times do not
track the probe.  ``peak_rss_mb`` includes the probe's arrays (about
10 MB).
``--trace 1`` splits the time between untraced and traced passes and
reports per-layer metrics from the traced ones, in wall seconds.
Outputs and the full record of the run (quartiles, environment, span
dump) go to ``bench/_work/``.  Exit code 0 means the run completed and
the gate was evaluated; 1 means a failure in the benchmark itself, 2 a
missing program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads
from tracer import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_LAUNCHES = 10
#: a run must end within 180 s; the worker gets what is left of this
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # setup_s is the import cost with cached bytecode, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> list[float]:
    """Wall seconds of fresh interpreters importing ``berglab.cli``."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import berglab.cli"],
            cwd=ROOT, env=child_env(), check=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str | None:
    """The checkout's commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over ``src/berglab/*.py``, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "berglab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _sum(*names: str, field: str = "s") -> tuple[tuple[str, ...], str]:
    return names, field


#: per-layer metric -> (unit, (span names summed, span field)); see tracer.summarize
LAYER_METRICS = {
    "cli.parse_scenario.s": ("s", _sum("cli.parse_scenario")),
    "cli.run_scenario.s": ("s", _sum("cli.run_scenario")),
    "cli.files_written": ("count", _sum("cli.run_scenario", field="files")),
    "cli.bytes_written": ("B", _sum("cli.run_scenario", field="bytes")),
    "cli.refusals": ("count", _sum("cli.run_scenario", field="raised.NumericalError")),
    "disc.kernel_eval.s": ("s", _sum("disc.kernel_eval")),
    "disc.kernel_eval.calls": ("count", _sum("disc.kernel_eval", field="calls")),
    "disc.kernel_eval.points": ("count", _sum("disc.kernel_eval", field="points")),
    "disc.quadrature_points.s": ("s", _sum("disc.quadrature_points")),
    "disc.quadrature_points.calls": ("count", _sum("disc.quadrature_points", field="calls")),
    "disc.normalized_kernel_coeffs.s": ("s", _sum("disc.normalized_kernel_coeffs")),
    "symbols.series.s": ("s", _sum("symbols.series")),
    "symbols.series.calls": ("count", _sum("symbols.series", field="calls")),
    "symbols.series.coeffs": ("count", _sum("symbols.series", field="coeffs")),
    "symbols.eval.s": ("s", _sum("symbols.eval")),
    "symbols.eval.points": ("count", _sum("symbols.eval", field="points")),
    "symbols.inf_modulus.s": ("s", _sum("symbols.inf_modulus")),
    "symbols.inf_modulus.calls": ("count", _sum("symbols.inf_modulus", field="calls")),
    "toeplitz.toeplitz_harmonic.s": ("s", _sum("toeplitz.toeplitz_harmonic")),
    "toeplitz.toeplitz_harmonic.calls": ("count", _sum("toeplitz.toeplitz_harmonic", field="calls")),
    "toeplitz.toeplitz_analytic.s": ("s", _sum("toeplitz.toeplitz_analytic")),
    "toeplitz.toeplitz_quadrature.s": ("s", _sum("toeplitz.toeplitz_quadrature")),
    "toeplitz.toeplitz_quadrature.gflop": (
        "Gflop", _sum("toeplitz.toeplitz_quadrature", field="gflop")),
    "toeplitz.matrix_to_json.s": ("s", _sum("toeplitz.matrix_to_json")),
    "toeplitz.matrix_to_csv.s": ("s", _sum("toeplitz.matrix_to_csv")),
    "toeplitz.export.bytes": (
        "B", _sum("toeplitz.matrix_to_json", "toeplitz.matrix_to_csv", field="bytes")),
    "berezin.berezin_grid.s": ("s", _sum("berezin.berezin_grid")),
    "berezin.berezin_integral.s": ("s", _sum("berezin.berezin_integral")),
    "berezin.berezin_integral.calls": ("count", _sum("berezin.berezin_integral", field="calls")),
    "berezin.berezin_matrix.s": ("s", _sum("berezin.berezin_matrix")),
    "berezin.berezin_matrix.calls": ("count", _sum("berezin.berezin_matrix", field="calls")),
    "berezin.berezin_matrix.refusals": (
        "count", _sum("berezin.berezin_matrix", field="raised.NumericalError")),
    "berezin.berezin_harmonic.s": ("s", _sum("berezin.berezin_harmonic")),
    "berezin.grid_export.s": ("s", _sum("berezin.grid_to_csv", "berezin.grid_to_json")),
    "berezin.grid_export.bytes": (
        "B", _sum("berezin.grid_to_csv", "berezin.grid_to_json", field="bytes")),
    "analysis.smallest_singular_value.s": ("s", _sum("analysis.smallest_singular_value")),
    "analysis.smallest_singular_value.calls": (
        "count", _sum("analysis.smallest_singular_value", field="calls")),
    "analysis.smallest_singular_value.n3_sum": (
        "count", _sum("analysis.smallest_singular_value", field="n3")),
    "analysis.normality_defect.s": ("s", _sum("analysis.normality_defect")),
    "analysis.bounded_below_trend.s": ("s", _sum("analysis.bounded_below_trend")),
    "analysis.invertibility_verdict.s": ("s", _sum("analysis.invertibility_verdict")),
    "analysis.power_symbol_study.s": ("s", _sum("analysis.power_symbol_study")),
    "analysis.random_normal_matrix.s": ("s", _sum("analysis.random_normal_matrix")),
    "analysis.mix_checks.s": ("s", _sum(
        "analysis.mix_bound_check", "analysis.mix_sandwich_check",
        "analysis.mix_transfer_check")),
    "analysis.shift_window_demo.s": ("s", _sum("analysis.shift_window_demo")),
}


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics: for each, the median over traced passes of its per-pass value."""
    summaries = record["summaries"]

    def median(fn) -> float:
        return statistics.median(fn(s) for s in summaries)

    def total(s, names, field) -> float:
        return sum(s["names"].get(n, {}).get(field, 0) for n in names)

    m = {key: (median(lambda s: total(s, *spans)), unit)
         for key, (unit, spans) in LAYER_METRICS.items()}
    m["berezin.berezin_integral.s_per_node"] = (median(
        lambda s: total(s, ["berezin.berezin_integral"], "s")
        / max(total(s, ["berezin.berezin_integral"], "calls"), 1)), "s/node")
    for module in MODULES:
        m[f"{module}.self_s"] = (median(lambda s: s["self_s"][module]), "s")
    for key in ("identical", "compared"):
        m[f"cli.reports_{key}"] = (statistics.median(i[key] for i in record["identity"]), "count")
    traced = statistics.median(record["traced_pass_s"])
    untraced = statistics.median(record["untraced_pass_s"])
    m["trace.self_share"] = (median(lambda s: sum(s["self_s"].values())) / traced, "ratio")
    m["trace.pass_s"] = (traced, "s")
    m["trace.untraced_pass_s"] = (untraced, "s")
    m["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="berglab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "berglab" / "cli.py").is_file():
        print(f"error: no berglab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    setup = measure_setup()
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    remaining = DEADLINE_S - (time.perf_counter() - started)
    try:
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True, timeout=remaining)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    record = json.loads((workdir / "worker.json").read_text())
    record["environment"].update(
        nproc=os.cpu_count(), git_commit=git_commit(), src_sha256=source_digest(),
        blas_env=BLAS_ENV,
    )
    record["setup_s"] = setup
    shutil.rmtree(workdir / "out", ignore_errors=True)

    if record["self_check_missed"]:
        for line in record["self_check_missed"][:20]:
            print(f"self-check: {line}", file=sys.stderr)
        print("error: the correctness gate let corrupted outputs through", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(record)
        samples = {"trace.untraced_pass_s": record["untraced_pass_s"],
                   "trace.pass_s": record["traced_pass_s"]}
    else:
        wall = statistics.median(record["pass_s"])
        scale = probe.scale([t for pass_probes in record["probe_s"] for t in pass_probes])
        record.update(wall_pass_s=wall, host_scale=scale)
        samples = {"pass_s": [t * scale for t in record["pass_s"]], "setup_s": setup}
        metrics = {
            "pass_s": (statistics.median(samples["pass_s"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
        print(f"{'wall pass_s':42s} {wall:.4f} s  (unscaled; host scale {scale:.4f})")
    for key, (value, unit) in metrics.items():
        if key in samples:
            q1, _, q3 = quartiles(samples[key])
            print(f"{key:42s} {value:.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples[key])})")
        else:
            print(f"{key:42s} {value:.6g} {unit}")
    names = [c["name"] for c in workloads.scenarios(args.workload, args.seed)]
    for i, name in enumerate(names if "scenario_s" in record else []):
        q1, med, q3 = quartiles([p[i] for p in record["scenario_s"]])
        print(f"  scenario {name:31s} {med:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f})")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_ratio':42s} {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for reason in record["reasons"]:
        print(f"failure: {reason}")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
