"""Hash every output of the benchmark workloads, to show that a change moves no byte.

Usage, from the repository root:

    python3 tools/output_hashes.py --seed 7 --out change.json
    python3 tools/output_hashes.py --compare parent.json change.json

The first form runs every scenario of the workloads in
``bench/workloads.py`` for ``--seed`` through ``berglab.cli.run_scenario``
of this checkout, each in its own directory under a temporary one, and
writes one JSON map (to stdout without ``--out``):

* ``<workload>/<scenario>/<file>``: the SHA-256 of each emitted file;
  ``manifest.json`` is hashed without ``timings_s``, the one field that
  differs from run to run;
* ``<workload>/<scenario>``: for a scenario that must raise (its
  ``expect``), the exception's name and text.

The second form prints every key whose entry differs between two maps,
or that only one of them holds, and exits 1 if there is any.  To check a
change, run the first form on a checkout of the parent commit and on the
change, then compare the two maps.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from berglab.cli import run_scenario  # noqa: E402


def run_scenarios(scenarios: dict[str, dict], root: Path) -> dict[str, str]:
    """Run each config into ``root/<key>``; returns the refusal text of each
    scenario whose ``expect`` it raised, by key.  Any other exception propagates."""
    refusals = {}
    for key, config in scenarios.items():
        config = dict(config)
        expect = config.pop("expect", None)
        try:
            run_scenario(config, str(root / key))
        except Exception as exc:
            if expect is None:
                raise
            refusals[key] = f"{type(exc).__name__}: {exc}"
    return refusals


def _file_hash(path: Path) -> str:
    raw = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(raw)
        del manifest["timings_s"]
        raw = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


def hash_map(root: Path, refusals: dict[str, str]) -> dict[str, str]:
    """The map of every file under ``root`` by its relative path, plus ``refusals``."""
    out = {
        path.relative_to(root).as_posix(): _file_hash(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    return {**out, **refusals}


def differences(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One line per key whose entry differs, or that only one map holds."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"{key}: only in the first map")
        elif key not in a:
            lines.append(f"{key}: only in the second map")
        elif a[key] != b[key]:
            lines.append(f"{key}: {a[key]} != {b[key]}")
    return lines


def workload_scenarios(seed: int) -> dict[str, dict]:
    """Every scenario of every workload for ``seed``, keyed ``<workload>/<name>``."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    import workloads

    return {
        f"{name}/{config['name']}": config
        for name in workloads.WORKLOADS
        for config in workloads.scenarios(name, seed)
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed", type=int, help="run the workloads and write their map")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two maps")
    parser.add_argument("--out", help="file for the map (default: stdout)")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = differences(a, b)
        print("\n".join(lines) if lines else f"{len(a)} entries, all equal")
        return 1 if lines else 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        mapping = hash_map(root, run_scenarios(workload_scenarios(args.seed), root))
    text = json.dumps(mapping, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
