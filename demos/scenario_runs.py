"""
Scenario files and reproducible reports
=======================================

The command-line front end consumes one JSON scenario per run and
leaves behind a report plus a manifest hashing every emitted file.
Identical config and seed reproduce the report byte for byte.
"""

import json
import tempfile
from pathlib import Path

from berglab.cli import run_scenario

scenario = {
    "name": "demo-invertibility",
    "kind": "invertibility",
    "symbol": {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}},
    "schedule": [16, 32, 64, 128],
    "grid": {"radii": [0.0, 0.3, 0.6, 0.9], "angles": 64},
    "thresholds": {"inf_positive": 1e-3, "sigma_positive": 1e-6, "drift": 0.05},
    "seed": 7,
}

with tempfile.TemporaryDirectory(prefix="berglab-demo-") as tmp:
    workdir = Path(tmp)
    config = workdir / "scenario.json"
    config.write_text(json.dumps(scenario, indent=1))

    manifest = run_scenario(config, str(workdir / "run1"))
    report = json.loads((workdir / "run1" / "report.json").read_text())
    print(f"verdict: {report['verdict']}  (inf estimate {report['inf_estimate']:.4f})")
    print("emitted files:")
    for entry in manifest.outputs:
        print(f"  {entry['path']:14} {entry['bytes']:6d} bytes  sha256 {entry['sha256'][:16]}...")

    # rerun into a second directory: the reports must match byte for byte
    run_scenario(config, str(workdir / "run2"))
    first, second = (workdir / run / "report.json" for run in ("run1", "run2"))
    print(f"\nrerun report byte-identical: {first.read_bytes() == second.read_bytes()}")
