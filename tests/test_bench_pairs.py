"""tools/bench_pairs.py: paired benchmark records into one BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ENVIRONMENT = {"blas": "openblas 0.3", "blas_threads": 1, "python": "3.11.7", "numpy": "2.4.6",
               "scipy": "1.17.1", "nproc": 2, "blas_env": {"OPENBLAS_NUM_THREADS": "1"}}


def record(pass_s, scale, setup_s, rss, commit):
    """A ``bench/run.py --trace 0`` record with the fields the tool reads."""
    scaled = sorted(t * scale for t in pass_s)
    return {
        "pass_s": pass_s,
        "wall_pass_s": sorted(pass_s)[len(pass_s) // 2],
        "host_scale": scale,
        "attempted": 5 * len(pass_s),
        "failed": 0,
        "environment": {**ENVIRONMENT, "git_commit": commit, "src_sha256": commit * 2},
        "metrics": {
            "pass_s": {"value": scaled[len(scaled) // 2], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


def write(tmp_path, label, rec, name="build_export-11-0"):
    path = tmp_path / label / name / "record.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(rec))
    return path


def test_two_records_make_one_pair(tmp_path):
    parent = write(tmp_path, "p", record([1.0, 1.2, 1.1], 0.5, 0.30, 71.5, "aaa"))
    change = write(tmp_path, "c", record([0.8, 0.9, 1.0], 0.5, 0.30, 71.4, "bbb"))
    bench = bench_pairs.assemble(
        [bench_pairs.parse_run(f"parent:1:{parent}"), bench_pairs.parse_run(f"change:1:{change}")],
        "one pair", "python3 bench/run.py",
    )
    assert list(bench) == ["description", "command", "workloads", "environment"]
    assert bench["environment"] == ENVIRONMENT
    w = bench["workloads"]["build_export"]
    assert list(w) == ["runs", "traced", "summary"] and w["traced"] == {}
    first, second = w["runs"]
    assert (first["side"], first["first"], second["side"], second["first"]) == (
        "parent", True, "change", False)
    assert first["pass_s"] == 0.55 and first["passes"] == 3
    assert first["pass_s_quartiles"] == [0.5, 0.55, 0.6]
    s = w["summary"]
    # one pair is too few for the gain rule, however clear the win
    assert s["pass_s"] == {"parent_quartiles": [0.55] * 3, "change_quartiles": [0.45] * 3,
                           "change_wins": 1, "change_losses": 0, "pairs": 1,
                           "meets_gain_rule": False}
    # equal setup times: a tie counts for neither side
    assert (s["setup_s"]["change_wins"], s["setup_s"]["change_losses"]) == (0, 0)
    assert (s["peak_rss_mb"]["change_wins"], s["wall_pass_s"]["change_wins"]) == (1, 1)


def test_traced_runs_and_the_command_line(tmp_path):
    untraced = write(tmp_path, "p", record([1.0], 1.0, 0.3, 70.0, "aaa"))
    traced = write(tmp_path, "t", {
        "environment": ENVIRONMENT,
        "metrics": {"analysis.smallest_singular_value.calls": {"value": 120.0, "unit": "count"}},
    }, name="build_export-11-1")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--out", str(out), "--description", "d", "--command", "c",
                             f"parent:1:{untraced}", f"change:1:{traced}"]) == 0
    w = json.loads(out.read_text())["workloads"]["build_export"]
    assert w["traced"] == {"change": [{"pair": 1, "analysis.smallest_singular_value.calls": 120.0}]}
    # no complete pair: nothing is won or lost, and the change side has no quartiles
    assert w["summary"]["pass_s"] == {"parent_quartiles": [1.0] * 3, "change_quartiles": None,
                                      "change_wins": 0, "change_losses": 0, "pairs": 0,
                                      "meets_gain_rule": False}


def test_unknown_side_refused():
    with pytest.raises(ValueError, match="side"):
        bench_pairs.parse_run("baseline:1:x/record.json")


def pass_s_summary(parent, change):
    """The pass_s summary of paired untraced runs with these scaled medians, pair by pair."""
    runs = [bench_pairs.run_entry(record([t], 1.0, 0.3, 70.0, side), side, pair, True)
            for pair, (p, c) in enumerate(zip(parent, change), 1)
            for side, t in (("parent", p), ("change", c))]
    return bench_pairs.summarize(runs)["pass_s"]


PARENT = [1.20, 1.22, 1.18, 1.21, 1.19, 1.23, 1.20, 1.22, 1.19, 1.21]  # IQR 1.19-1.22


def test_gain_rule_accepts_a_clear_win():
    s = pass_s_summary(PARENT, [t - 0.3 for t in PARENT])
    assert (s["change_wins"], s["pairs"], s["meets_gain_rule"]) == (10, 10, True)


def test_gain_rule_needs_nine_wins_in_ten():
    change = [t - 0.3 for t in PARENT[:8]] + [t + 0.01 for t in PARENT[8:]]
    s = pass_s_summary(PARENT, change)
    assert (s["change_wins"], s["change_losses"], s["meets_gain_rule"]) == (8, 2, False)
    # nine wins and one tie are enough
    change[8] = PARENT[8] - 0.3
    change[9] = PARENT[9]
    assert pass_s_summary(PARENT, change)["meets_gain_rule"]


def test_gain_rule_refuses_a_win_inside_the_parent_spread():
    # every pair won, by 0.02 s: less than the parent's 0.03 s interquartile range
    s = pass_s_summary(PARENT, [t - 0.02 for t in PARENT])
    q1, _, q3 = s["parent_quartiles"]
    assert s["change_wins"] == 10 and q3 - q1 > 0.02
    assert not s["meets_gain_rule"]
