"""Runs one workload as a closed loop in a process of its own.

Started by ``run.py`` with the BLAS thread count pinned in its
environment; writes its measurements to ``<workdir>/worker.json``.

One warm-up pass runs first and is checked but not timed.  Measured
passes follow while another pass still fits in what is left of
``--seconds``, with at least ``MIN_PASSES`` of them.  Every
pass is checked against the oracle; output bytes must also repeat
exactly from pass to pass, as the program promises byte-for-byte
reruns, so the files of the last pass are the ones verified in full
(``matrix.json`` parsed back and compared with the closed form).  With
``--trace 1`` half the budget goes to untraced passes and half to
traced ones.  A host-speed probe (``probe.py``) runs before every
scenario, outside the timed calls, so that ``run.py`` can scale the
run's pass times to the reference host speed.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import oracle  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from berglab import cli  # noqa: E402
from berglab.errors import NumericalError  # noqa: E402
from berglab.toeplitz import matrix_from_json, toeplitz_harmonic  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PASSES = 2


class Tally:
    """Scenario outcomes: attempted, failed, and why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons += [f"{name}: {p}" for p in problems[:3]]


def outcome_problems(expect: str | None, error: BaseException | None) -> list[str]:
    """Refusal accounting: only the expected NumericalError counts as success."""
    if expect is None:
        return [] if error is None else [f"raised {type(error).__name__}: {error}"]
    if isinstance(error, NumericalError) and type(error).__name__ == expect:
        return []
    if error is None:
        return [f"returned normally where {expect} was expected"]
    return [f"raised {type(error).__name__} where {expect} was expected"]


class Workload:
    """Configs, references and output directories of one workload run."""

    def __init__(self, name: str, seed: int, workdir: Path):
        reference = json.loads((ROOT / "bench" / "reference" / f"{name}.json").read_text())
        self.references = reference["scenarios"]
        self.items = []
        for config in workloads.scenarios(name, seed):
            config = dict(config)
            expect = config.pop("expect", None)
            outdir = workdir / "out" / config["name"]
            outdir.mkdir(parents=True, exist_ok=True)
            path = workdir / "configs" / f"{config['name']}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config))
            self.items.append((config, expect, str(path), str(outdir)))
        self.output_hashes: dict[str, list] = {}

    def run_pass(self, tracer: Tracer | None = None) -> tuple[float, list, list[float]]:
        """One closed-loop pass; returns wall seconds, per-scenario
        (manifest, error, seconds) and the host-speed probes taken before
        each scenario (their time is not pass time)."""
        results, probes = [], []
        for config, expect, path, outdir in self.items:
            probes.append(probe.probe())
            if tracer is not None:
                tracer.request = config["name"]
            error = manifest = None
            t0 = time.perf_counter()
            try:
                manifest = cli.run_scenario(path, outdir)
            except Exception as exc:  # every failure is counted, never fatal
                error = exc
            results.append((manifest, error, time.perf_counter() - t0))
        return sum(r[2] for r in results), results, probes

    def reference_for(self, config: dict) -> dict | None:
        entry = self.references[config["name"]]
        if "by_seed" in entry:
            return entry["by_seed"].get(str(config["seed"]))
        return entry

    def check_pass(self, results: list, tally: Tally) -> dict:
        """Check every scenario of a pass; returns byte-identity counts."""
        identical = compared = 0
        for (config, expect, _, outdir), (manifest, error, _) in zip(self.items, results):
            problems = outcome_problems(expect, error)
            if manifest is not None and not problems:
                raw = (Path(outdir) / "report.json").read_bytes()
                reference = self.reference_for(config)
                problems = self.check_report(json.loads(raw), config, reference)
                if reference is not None:
                    compared += 1
                    identical += hashlib.sha256(raw).hexdigest() == reference["sha256"]
                hashes = [(o["path"], o["sha256"]) for o in manifest.outputs]
                first = self.output_hashes.setdefault(config["name"], hashes)
                if hashes != first:
                    problems.append("output bytes differ from the first pass of this run")
            tally.record(config["name"], problems)
        return {"identical": identical, "compared": compared}

    @staticmethod
    def check_report(report: dict, config: dict, reference: dict | None) -> list[str]:
        if reference is None:
            return oracle.check_invariants(report, config)
        return oracle.compare(report, reference["report"])

    def verify_files(self, tally: Tally) -> None:
        """Full check of the last pass's matrix files (every pass had the same bytes)."""
        for config, _, _, outdir in self.items:
            matrix = Path(outdir) / "matrix.json"
            if config["kind"] != "toeplitz_build" or not matrix.exists():
                continue
            sc = cli.parse_scenario(config)
            report = json.loads((Path(outdir) / "report.json").read_text())
            expected = toeplitz_harmonic(sc.symbol, sc.n).matrix
            csv = np.loadtxt(Path(outdir) / "matrix.csv", delimiter=",", ndmin=2)
            problems = oracle.check_matrix(matrix_from_json(matrix), expected, csv, report)
            tally.record(f"{config['name']} files", problems)


def self_check(work: Workload, results: list) -> list[str]:
    """Feed the gate corrupted outputs; each must fail and raise the failed count.

    Every checked field of every warm-up report is corrupted in turn, so
    the oracle is shown to reject a wrong value of each field it is
    trusted with.  Returns what did not trip.
    """
    missed = []
    for (config, _, _, outdir), (manifest, _, _) in zip(work.items, results):
        if manifest is None:
            continue
        report = json.loads((Path(outdir) / "report.json").read_text())
        reference = work.reference_for(config)
        for label, corrupt in _corruptions(report, reference is None):
            tally = Tally()
            tally.record(config["name"], work.check_report(corrupt, config, reference))
            if tally.failed != 1:
                missed.append(f"{config['name']}: corrupted {label} passed the oracle")
    for expect, error, label in (
        (None, NumericalError("refused"), "unexpected refusal"),
        ("NumericalError", None, "missing refusal"),
        ("NumericalError", ValueError("wrong error"), "wrong exception"),
    ):
        tally = Tally()
        tally.record("synthetic", outcome_problems(expect, error))
        if tally.failed != 1:
            missed.append(f"{label} was not counted as failed")
    return missed


def _corruptions(report: dict, invariants_only: bool):
    """Copies of ``report`` with one field made wrong, labelled by its path.

    ``drift`` and ``stabilized`` are left alone: the oracle ignores them
    where sigma_min is at rounding level, so corrupting them proves
    nothing there.
    """
    if invariants_only:
        for key, bad in (("all_pass", False), ("min_margin", -1.0), ("passes", -1)):
            yield key, {**report, key: bad}
        return
    for path, value in _leaves(report):
        if {"drift", "stabilized"} & set(path):
            continue
        if isinstance(value, bool):
            bad = not value
        elif isinstance(value, int):
            bad = value + 1
        elif isinstance(value, float):
            bad = 2.0 * value + 1e-6
        elif isinstance(value, str):
            bad = value + "x"
        else:
            continue
        corrupt = copy.deepcopy(report)
        holder = corrupt
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = bad
        yield ".".join(map(str, path)), corrupt


def _leaves(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, path + (i,))
    else:
        yield path, node


def _passes(work: Workload, budget: float, minimum: int, estimate: float, tally: Tally,
            traced: bool = False) -> dict:
    """Checked passes while another one fits in ``budget`` seconds.

    Returns pass times, per-scenario times and probe times of each pass,
    byte-identity counts and, when ``traced``, each pass's spans.
    """
    out = {"times": [], "scenario_times": [], "probes": [], "identity": [], "traces": []}
    started = time.perf_counter()
    times = out["times"]
    while len(times) < minimum or (
            time.perf_counter() - started + min(times + [estimate]) <= budget):
        if traced:
            tracer = Tracer()
            with tracer:
                seconds, results, probes = work.run_pass(tracer)
            out["traces"].append(tracer.spans)
        else:
            seconds, results, probes = work.run_pass()
        out["identity"].append(work.check_pass(results, tally))
        times.append(seconds)
        out["scenario_times"].append([r[2] for r in results])
        out["probes"].append(probes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    work = Workload(args.workload, args.seed, workdir)
    tally = Tally()
    warm_started = time.perf_counter()
    _, warm_results, _ = work.run_pass()
    warm_s = time.perf_counter() - warm_started
    work.check_pass(warm_results, tally)
    missed = self_check(work, warm_results)

    out = {"warmup_s": warm_s, "self_check_missed": missed}
    # the warm-up pass counts against the run's --seconds
    budget = args.seconds - warm_s
    if args.trace:
        half = budget / 2
        plain = _passes(work, half, MIN_TRACE_PASSES, warm_s, tally)
        traced = _passes(work, half, MIN_TRACE_PASSES, warm_s, tally, True)
        out.update(untraced_pass_s=plain["times"], traced_pass_s=traced["times"],
                   untraced_probe_s=plain["probes"], traced_probe_s=traced["probes"],
                   identity=traced["identity"],
                   summaries=[summarize(spans) for spans in traced["traces"]])
        (workdir / "spans.json").write_text(json.dumps(traced["traces"]))
    else:
        passes = _passes(work, budget, MIN_PASSES, warm_s, tally)
        out.update(pass_s=passes["times"], scenario_s=passes["scenario_times"],
                   probe_s=passes["probes"], identity=passes["identity"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work.verify_files(tally)
    out.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons[:20])
    out["environment"] = environment()
    (workdir / "worker.json").write_text(json.dumps(out))
    return 0


def environment() -> dict:
    """BLAS threads in effect and library versions, for every result."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
