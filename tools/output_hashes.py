"""Hash and keep every workload output, to show which bytes and values a change moves.

Usage, from the repository root:

    python3 tools/output_hashes.py --seed 7 --out change.json
    python3 tools/output_hashes.py --compare parent.json change.json

The first form runs every scenario of the workloads in
``bench/workloads.py`` for ``--seed`` through ``berglab.cli.run_scenario``
of this checkout, each in its own directory under a temporary one, and
writes one JSON map (to stdout without ``--out``):

* ``<workload>/<scenario>/<file>``: ``{"sha256": ...}`` for each emitted
  file, with its parsed content under ``"json"`` for a JSON file and its
  lines under ``"csv"`` for a CSV file; ``manifest.json`` is hashed and
  kept without ``timings_s``, the one field that differs from run to run;
* ``<workload>/<scenario>``: for a scenario that must raise (its
  ``expect``), the exception's name and text.

The second form prints every key that only one map holds, and for each
entry that differs: the added and the removed keys and every moved leaf
(``path: old -> new``) of a JSON file, where more than twenty moved only
the first twenty and then their number and the largest absolute move; the
number of changed rows and the first of them for a CSV file; else both
entries.  Equal entries print nothing; it exits 1 if any entry differs.
To check a change, run the first form on a checkout of the parent commit
and on the change, then compare the two maps.  A map that holds bare
hashes, as this tool wrote before it kept content, compares by hash.

Run as a script, it pins OpenBLAS, OpenMP and MKL to one thread before numpy
loads: LAPACK's blocked steps round differently at other thread counts, and
two reports, the ``3.1`` and ``3.3`` checks, move with them.  Maps made under any ``OPENBLAS_NUM_THREADS``
therefore compare equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

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


def _file_entry(path: Path) -> dict:
    raw = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(raw)
        del manifest["timings_s"]
        raw = json.dumps(manifest, sort_keys=True).encode()
    entry = {"sha256": hashlib.sha256(raw).hexdigest()}
    if path.suffix == ".json":
        entry["json"] = json.loads(raw)
    elif path.suffix == ".csv":
        entry["csv"] = raw.decode().splitlines()
    return entry


def hash_map(root: Path, refusals: dict[str, str]) -> dict:
    """The entry of every file under ``root`` by its relative path, plus ``refusals``."""
    out = {
        path.relative_to(root).as_posix(): _file_entry(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    return {**out, **refusals}


def _digest(entry):
    """A file's hash, or a refusal's text; an entry of an older map is its hash."""
    return entry["sha256"] if isinstance(entry, dict) else entry


#: the moved leaves of one JSON file listed one by one; past them, one line sums them up
MOVES_LISTED = 20


def _json_diff(old, new, path: str = "") -> list:
    """The added and removed keys (as lines) and the moved leaves (as ``(path, old, new)``)
    between two JSON values, in document order."""
    if isinstance(old, dict) and isinstance(new, dict):
        changes = [f"added {path}{k}" for k in new if k not in old]
        changes += [f"removed {path}{k}" for k in old if k not in new]
        for k in old:
            if k in new:
                changes += _json_diff(old[k], new[k], f"{path}{k}.")
        return changes
    path = path.rstrip(".")
    if isinstance(old, list) and isinstance(new, list):
        changes = [f"added {path}[{i}]" for i in range(len(old), len(new))]
        changes += [f"removed {path}[{i}]" for i in range(len(new), len(old))]
        for i, (x, y) in enumerate(zip(old, new)):
            changes += _json_diff(x, y, f"{path}[{i}].")
        return changes
    return [] if old == new else [(path, old, new)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_changes(old, new) -> list[str]:
    """The added and removed keys and the moved leaves (``path: old -> new``) between two
    JSON values; of more than :data:`MOVES_LISTED` moved leaves, the first ones and then
    their number and the largest absolute move between numbers."""
    lines, moves = [], []
    for change in _json_diff(old, new):
        if isinstance(change, str):
            lines.append(change)
            continue
        moves.append(change)
        if len(moves) <= MOVES_LISTED:
            path, x, y = change
            lines.append(f"{path}: {json.dumps(x)} -> {json.dumps(y)}")
    if len(moves) > MOVES_LISTED:
        numeric = [abs(y - x) for _, x, y in moves if _is_number(x) and _is_number(y)]
        largest = f", the largest absolute move {max(numeric)!r}" if numeric else ""
        lines.append(f"{len(moves)} leaves moved{largest}")
    return lines


def _csv_changes(old: list[str], new: list[str]) -> list[str]:
    """The number of changed rows and the first of them; a missing row reads None."""
    changed = [(i, x, y) for i, (x, y) in enumerate(zip_longest(old, new)) if x != y]
    if not changed:
        return []
    i, x, y = changed[0]
    rows = max(len(old), len(new))
    return [f"{len(changed)} of {rows} rows changed, first at line {i + 1}: {x!r} -> {y!r}"]


def _entry_changes(a, b) -> list[str]:
    """What moved between two entries whose hashes differ, or both entries when
    no content of theirs tells."""
    lines = []
    if isinstance(a, dict) and isinstance(b, dict):
        if "json" in a and "json" in b:
            lines = _json_changes(a["json"], b["json"])
        elif "csv" in a and "csv" in b:
            lines = _csv_changes(a["csv"], b["csv"])
    return lines or [f"{_digest(a)} != {_digest(b)}"]


def differences(a: dict, b: dict) -> list[str]:
    """One line per key that only one map holds, and per change of a differing entry."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"{key}: only in the first map")
        elif key not in a:
            lines.append(f"{key}: only in the second map")
        elif _digest(a[key]) != _digest(b[key]):
            lines += [f"{key}: {line}" for line in _entry_changes(a[key], b[key])]
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
