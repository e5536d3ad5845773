"""Assemble paired benchmark runs into one ``BENCH_*.json`` file.

Usage, from the repository root:

    python3 tools/bench_pairs.py --out BENCH_12.json \\
        --description "..." --command "python3 bench/run.py ..." \\
        parent:1:<dir>/build_export-4242-0/record.json \\
        change:1:<dir2>/build_export-4242-0/record.json ...

Each argument is ``SIDE:PAIR:PATH``: a ``record.json`` that
``bench/run.py`` left in ``bench/_work/<workload>-<seed>-<trace>/``,
the side it measured (``parent`` or ``change``) and its pair number.
The record must still sit in a directory of that name, which gives the
workload and whether the run was traced.  Within a pair, the record
listed first ran first.

The output holds ``description``, ``command``, ``environment`` (the
first record's, without the commit and source digest) and, per
workload, ``runs`` (untraced runs), ``traced`` (per-layer metrics of
traced runs, by side) and ``summary``: for each end-to-end metric,
both sides' quartiles, how many pairs the change won or lost, and
``meets_gain_rule``.  All these metrics are better lower; a tie counts
for neither side.

A gain counts only when the change wins at least nine tenths of at
least ten pairs, and its median beats the parent's by more than the
parent's own interquartile range: the run-to-run spread of a shared
host is the floor a difference must clear.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SIDES = ("parent", "change")
#: per-run values summarized across pairs
SUMMARY_METRICS = ("pass_s", "wall_pass_s", "setup_s", "peak_rss_mb")
#: the gain rule: pairs needed, and the share of them the change must win
GAIN_PAIRS = 10
GAIN_SHARE = 0.9


def quartiles(values: list[float]) -> list[float] | None:
    """q1, median, q3 as ``bench/run.py`` computes them; None without values."""
    if not values:
        return None
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, statistics.median(values), q3]


def meets_gain_rule(entry: dict) -> bool:
    """Whether a ``summary`` entry shows a gain: at least ``GAIN_PAIRS`` pairs, the
    change winning ``GAIN_SHARE`` of them, and the change's median below the
    parent's by more than the parent's interquartile range."""
    parent, change = entry["parent_quartiles"], entry["change_quartiles"]
    if parent is None or change is None or entry["pairs"] < GAIN_PAIRS:
        return False
    q1, median, q3 = parent
    return entry["change_wins"] >= GAIN_SHARE * entry["pairs"] and median - change[1] > q3 - q1


def parse_run(arg: str) -> tuple[str, int, Path]:
    side, pair, path = arg.split(":", 2)
    if side not in SIDES:
        raise ValueError(f"{arg}: side must be one of {', '.join(SIDES)}")
    return side, int(pair), Path(path)


def run_entry(record: dict, side: str, pair: int, first: bool) -> dict:
    """One untraced run: the scaled pass_s with its quartiles, and what else it measured."""
    metrics = record["metrics"]
    return {
        "pair": pair,
        "side": side,
        "first": first,
        "pass_s": metrics["pass_s"]["value"],
        "pass_s_quartiles": quartiles([t * record["host_scale"] for t in record["pass_s"]]),
        "wall_pass_s": record["wall_pass_s"],
        "host_scale": record["host_scale"],
        "passes": len(record["pass_s"]),
        "setup_s": metrics["setup_s"]["value"],
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "attempted": record["attempted"],
        "failed": record["failed"],
    }


def summarize(runs: list[dict]) -> dict:
    by_pair = {(r["pair"], r["side"]): r for r in runs}
    pairs = sorted({p for p, _ in by_pair if all((p, s) in by_pair for s in SIDES)})
    out = {}
    for metric in SUMMARY_METRICS:
        entry = {
            f"{side}_quartiles": quartiles([r[metric] for r in runs if r["side"] == side])
            for side in SIDES
        }
        diffs = [by_pair[p, "change"][metric] - by_pair[p, "parent"][metric] for p in pairs]
        entry.update(
            change_wins=sum(d < 0 for d in diffs),
            change_losses=sum(d > 0 for d in diffs),
            pairs=len(pairs),
        )
        entry["meets_gain_rule"] = meets_gain_rule(entry)
        out[metric] = entry
    return out


def assemble(runs: list[tuple[str, int, Path]], description: str, command: str) -> dict:
    workloads: dict[str, dict] = {}
    environment = None
    started = set()
    for side, pair, path in runs:
        record = json.loads(path.read_text())
        workload, _, trace = path.parent.name.rsplit("-", 2)
        if environment is None:
            environment = {k: v for k, v in record["environment"].items()
                           if k not in ("git_commit", "src_sha256")}
        w = workloads.setdefault(workload, {"runs": [], "traced": {}})
        if trace == "1":
            metrics = {k: v["value"] for k, v in record["metrics"].items()}
            w["traced"].setdefault(side, []).append({"pair": pair, **metrics})
        else:
            first = (workload, pair) not in started
            started.add((workload, pair))
            w["runs"].append(run_entry(record, side, pair, first))
    for w in workloads.values():
        w["summary"] = summarize(w["runs"])
    return {
        "description": description,
        "command": command,
        "workloads": dict(sorted(workloads.items())),
        "environment": environment,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("runs", nargs="+", metavar="SIDE:PAIR:PATH")
    args = parser.parse_args(argv)
    bench = assemble([parse_run(a) for a in args.runs], args.description, args.command)
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
