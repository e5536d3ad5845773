"""Search the exit-code contract over single- and two-leaf mutations of the workload scenarios.

Usage, from the repository root:

    python3 tools/contract_search.py

Every scenario of ``bench/workloads.py`` (seed 7) is shrunk to desk size
(:func:`shrink`), and then one leaf at a time is set to each value of
:data:`VALUES`, sizes included (:func:`mutations`); then :data:`PAIRS` cases
per scenario, drawn with a fixed seed, set two different leaves each
(:func:`pair_mutations`).  Each case runs
``berglab validate`` and twice ``berglab run`` through ``berglab.cli.main``
in this process.  A case violates the contract when

* ``validate`` and ``run`` disagree: validate 0 requires run 0 or 3, and
  validate 2 requires run 2 (an exception that escapes ``main`` counts
  as exit 1);
* an emitted JSON file holds ``NaN`` or ``Infinity``;
* two runs exit differently, or emit different bytes (the manifest's
  ``timings_s`` aside).

Cases that ``validate`` itself refuses numerically (exit 3) are listed
apart: they keep the contract, but ``validate`` should refuse them without
computing, so each marks work that ``validate`` does and only ``run``
needs.  A case that runs
longer than :data:`TIMEOUT_S` seconds is listed, not judged; the alarm fires
between Python bytecodes, so a long call into numpy ends first.

Before numpy loads, OpenBLAS, OpenMP and MKL are pinned to one thread, as
the runs are compared byte for byte.  The address space of this process,
and of no other, is capped at :data:`ADDRESS_SPACE`, so that a size numpy can
index but no memory holds is refused as a MemoryError instead of being
allocated.  It prints one line per violation and per listed case, and
exits 1 on any violation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from berglab.cli import main as berglab  # noqa: E402
from output_hashes import hash_map, workload_scenarios  # noqa: E402

#: what each leaf is set to: extreme and tiny magnitudes, non-finite literals (which
#: ``json.loads`` accepts), small integers, pairs, a size numpy indexes but no memory
#: holds, and sizes numpy cannot index
VALUES = [
    0, -1, 1e308, -1e308, 1e-320, -1e-320, 5e-324, float("nan"), float("inf"), 0.5, 1, 2, 3,
    1e300, -1e300, [1e308, 1e308], [1e-320, 0], 2**40, 2**63, 10**400,
]
#: two-leaf cases drawn per scenario, and the seed of the draw
PAIRS = 200
PAIR_SEED = 7
#: seconds a case may run
TIMEOUT_S = 5
#: bytes of address space this process may map: about ten times what it maps at start
ADDRESS_SPACE = 1 << 30
#: the desk-size value of each size field of a workload scenario
SHRUNK = {"n": 16, "matrix_size": 8, "count": 2, "vector_trials": 4,
          "schedule": [4, 8, 16], "quadrature": {"radial": 8, "angular": 16}}


class Timeout(BaseException):
    """A case ran past its alarm; a BaseException, so that no handler in the program
    takes it for a refusal."""


def shrink(config: dict) -> dict:
    """``config`` at desk size: each field of :data:`SHRUNK`, and a grid of its first three
    radii and 8 angles; ``expect`` is dropped."""
    out = {k: copy.deepcopy(SHRUNK.get(k, v)) for k, v in config.items() if k != "expect"}
    if "grid" in config:
        out["grid"] = {"radii": config["grid"]["radii"][:3], "angles": 8}
    return out


def leaves(node, path=()):
    """The path of every value below ``node`` that is not an object or a list."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from leaves(child, (*path, key))
    else:
        yield path


def _mutated(config: dict, assignments) -> tuple[str, dict]:
    """A label and a copy of ``config`` with each ``(leaf path, value)`` of ``assignments``
    set; the label joins each leaf's dotted path and value with ``; ``."""
    mutated = copy.deepcopy(config)
    labels = []
    for path, value in assignments:
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(value)
        labels.append(f"{'.'.join(map(str, path))} = {_short(json.dumps(value))}")
    return "; ".join(labels), mutated


def mutations(config: dict):
    """``(label, mutated config)`` for each leaf of ``config`` and each value of
    :data:`VALUES`; the label is the leaf's dotted path and the value."""
    for path in leaves(config):
        for value in VALUES:
            yield _mutated(config, [(path, value)])


def pair_mutations(config: dict, count: int = PAIRS):
    """``count`` distinct ``(label, mutated config)`` cases, each setting two different
    leaves of ``config`` to values of :data:`VALUES`, drawn by ``random.Random(PAIR_SEED)``."""
    pairs = list(itertools.combinations(leaves(config), 2))
    n = len(VALUES)
    cases = range(len(pairs) * n * n)
    for i in random.Random(PAIR_SEED).sample(cases, min(count, len(cases))):
        (p, q), (u, v) = pairs[i // (n * n)], divmod(i % (n * n), n)
        yield _mutated(config, [(p, VALUES[u]), (q, VALUES[v])])


def _short(text: str) -> str:
    """``text``, or its head and length where it is longer than a 64-bit integer."""
    return text if len(text) <= 20 else f"{text[:3]}... ({len(text)} digits)"


def contract_holds(validated: int, ran: int) -> bool:
    """Whether the exit codes of validate and run keep the contract."""
    return ran in (0, 3) if validated == 0 else validated == ran == 2


def non_finite(text: str) -> bool:
    """Whether the JSON ``text`` holds ``NaN``, ``Infinity`` or ``-Infinity``."""
    found = []
    json.loads(text, parse_constant=found.append)
    return bool(found)


def _exit_code(argv: list[str]) -> tuple[int, str]:
    """berglab's exit code for ``argv`` and what it wrote to stderr; an exception that
    escapes it is exit 1, as the console script would exit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = berglab(argv)
        except Exception as exc:
            return 1, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def check_case(config: dict, root: Path) -> tuple[str, str] | None:
    """The kind (``violation`` or ``validate-3``) and the text of what ``config`` breaks
    in the contract, running in ``root``, or None where it keeps it."""
    path = root / "scenario.json"
    path.write_text(json.dumps(config))
    validated, why = _exit_code(["validate", str(path)])
    a, b = root / "a", root / "b"
    for outdir in (a, b):
        shutil.rmtree(outdir, ignore_errors=True)
    code, text = _exit_code(["run", str(path), "--output-dir", str(a)])
    again, _ = _exit_code(["run", str(path), "--output-dir", str(b)])
    if validated == 3:
        return "validate-3", f"run {code}: {why}"
    if code != again:
        return "violation", f"two runs exited {code} and {again}"
    if not contract_holds(validated, code):
        return "violation", f"validate {validated}, run {code}: {text or why}"
    if code:
        return None
    emitted = hash_map(a, {})  # the manifest without its timings
    for name in emitted:
        if name.endswith(".json") and non_finite((a / name).read_text()):
            return "violation", f"{name} holds NaN or Infinity"
    if emitted != hash_map(b, {}):
        return "violation", "two runs emitted different bytes"
    return None


def _alarm(signum, frame):
    raise Timeout


def main() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, hard))
    signal.signal(signal.SIGALRM, _alarm)
    counts = {"case": 0, "violation": 0, "validate-3": 0, "timeout": 0}
    with tempfile.TemporaryDirectory() as tmp:
        for key, config in workload_scenarios(7).items():
            small = shrink(config)
            for label, mutated in itertools.chain(mutations(small), pair_mutations(small)):
                counts["case"] += 1
                signal.alarm(TIMEOUT_S)
                try:
                    found = check_case(mutated, Path(tmp))
                except Timeout:
                    found = "timeout", f"over {TIMEOUT_S} s"
                finally:
                    signal.alarm(0)
                if found:
                    counts[found[0]] += 1
                    print(f"{found[0]}: {key}: {label}: {found[1]}", flush=True)
    print(", ".join(f"{n} {k}{'s' * (n != 1)}" for k, n in counts.items()))
    return 1 if counts["violation"] else 0


if __name__ == "__main__":
    sys.exit(main())
