"""Regenerate the stored reference reports in ``bench/reference/``.

Run from the repository root at the commit whose outputs become the
reference:

    python3 bench/make_reference.py

Each scenario runs once through ``berglab.cli.run_scenario`` with the
BLAS thread count pinned to 1.  Scenarios whose config depends on the
workload seed (the ``theorem_check`` 3.x matrices) get one reference
per workload seed in ``SEEDS``; the benchmark checks other seeds by
invariants.  Regenerating the references changes what the benchmark
accepts, so say why in CHANGES.md whenever they change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from berglab.cli import run_scenario  # noqa: E402
from berglab.errors import NumericalError  # noqa: E402

SEEDS = range(32)


def _entry(config: dict, scratch: Path) -> dict:
    config = dict(config)
    expect = config.pop("expect", None)
    path = scratch / "config.json"
    path.write_text(json.dumps(config))
    outdir = scratch / "out"
    try:
        run_scenario(str(path), str(outdir))
    except NumericalError as exc:
        if expect != type(exc).__name__:
            raise
        return {"raises": expect}
    raw = (outdir / "report.json").read_bytes()
    return {"report": json.loads(raw), "sha256": hashlib.sha256(raw).hexdigest()}


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    scratch = ROOT / "bench" / "_work" / "reference-build"
    for name in workloads.WORKLOADS:
        by_seed = {seed: workloads.scenarios(name, seed) for seed in SEEDS}
        scenarios = {}
        for i, config in enumerate(by_seed[0]):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            if all(configs[i] == config for configs in by_seed.values()):
                scenarios[config["name"]] = _entry(config, scratch)
                continue
            scenarios[config["name"]] = {
                "by_seed": {
                    str(configs[i]["seed"]): _entry(configs[i], scratch)
                    for configs in by_seed.values()
                }
            }
        out = ROOT / "bench" / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(
            json.dumps({"commit": commit, "workload_seeds": [SEEDS.start, SEEDS.stop - 1],
                        "scenarios": scenarios}, indent=1) + "\n"
        )
        print(f"wrote {out.relative_to(ROOT)}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
