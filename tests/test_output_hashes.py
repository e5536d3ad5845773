"""tools/output_hashes.py: the byte-identity map of emitted files and refusals."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", _PATH)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)

SYMBOL = {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}}
SCENARIOS = {
    "tiny/build": {"name": "build", "kind": "toeplitz_build", "builder": "closed_form", "n": 4,
                   "symbol": SYMBOL},
    "tiny/refusal": {"name": "refusal", "kind": "berezin_grid", "route": "matrix", "n": 4,
                     "tail_tol": 1e-6, "symbol": SYMBOL,
                     "grid": {"radii": [0.0, 0.95], "angles": 4}, "expect": "NumericalError"},
}


def mapped(root):
    return output_hashes.hash_map(root, output_hashes.run_scenarios(SCENARIOS, root))


def test_reruns_agree_and_a_changed_byte_is_reported(tmp_path, capsys):
    first, second = mapped(tmp_path / "a"), mapped(tmp_path / "b")
    assert first == second
    assert sorted(first) == [
        "tiny/build/manifest.json",
        "tiny/build/matrix.csv",
        "tiny/build/matrix.json",
        "tiny/build/report.json",
        "tiny/refusal",
    ]
    assert first["tiny/refusal"].startswith("NumericalError: kernel tail estimate")

    csv = tmp_path / "b" / "tiny" / "build" / "matrix.csv"
    raw = bytearray(csv.read_bytes())
    raw[0] ^= 1
    csv.write_bytes(bytes(raw))
    changed = output_hashes.hash_map(tmp_path / "b", {"tiny/refusal": second["tiny/refusal"]})
    paths = []
    for name, entries in (("a.json", first), ("b.json", changed)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(entries))
    assert output_hashes.main(["--compare", *map(str, paths)]) == 1
    old, new = first["tiny/build/matrix.csv"]["csv"][0], changed["tiny/build/matrix.csv"]["csv"][0]
    assert new == chr(ord(old[0]) ^ 1) + old[1:]
    assert capsys.readouterr().out.splitlines() == [
        f"tiny/build/matrix.csv: 1 of 4 rows changed, first at line 1: {old!r} -> {new!r}"
    ]


def test_differences_name_keys_only_one_map_holds():
    assert output_hashes.differences({"x": "1", "y": "2"}, {"y": "2", "z": "3"}) == [
        "x: only in the first map",
        "z: only in the second map",
    ]


REPORT = {"verdict": "inconclusive", "sigma_min": [0.5, 0.25], "sandwich": {"lower": 1.0}}
CSV_ROWS = ["re_z,im_z,re_val", "0.0,0.0,2.0", "0.5,0.0,2.5", "0.9,0.0,2.9"]


def tree(root, report=REPORT, rows=CSV_ROWS):
    """The map of a scenario directory holding ``report.json`` and ``grid.csv``."""
    (root / "s").mkdir(parents=True)
    (root / "s" / "report.json").write_text(json.dumps(report, indent=1))
    (root / "s" / "grid.csv").write_text("\n".join(rows) + "\n")
    return output_hashes.hash_map(root, {})


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda r: r["sandwich"].update(upper=3.0), ["added sandwich.upper"]),
        (lambda r: r.pop("sandwich"), ["removed sandwich"]),
        (lambda r: r["sigma_min"].__setitem__(1, 0.125), ["sigma_min[1]: 0.25 -> 0.125"]),
        (lambda r: r["sigma_min"].append(0.1), ["added sigma_min[2]"]),
        (lambda r: r.update(verdict=None), ['verdict: "inconclusive" -> null']),
    ],
    ids=["added-key", "removed-key", "moved-float", "added-item", "moved-string"],
)
def test_compare_lists_what_moved_in_a_json_file(tmp_path, edit, expected):
    changed = copy.deepcopy(REPORT)
    edit(changed)
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b", report=changed)
    assert output_hashes.differences(a, b) == [f"s/report.json: {line}" for line in expected]


def test_compare_counts_changed_csv_rows(tmp_path):
    rows = [*CSV_ROWS[:2], "0.5,0.0,2.5000000000000004", "0.9,0.0,2.8999999999999995"]
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b", rows=rows)
    assert output_hashes.differences(a, b) == [
        "s/grid.csv: 2 of 4 rows changed, first at line 3: "
        "'0.5,0.0,2.5' -> '0.5,0.0,2.5000000000000004'"
    ]
    shorter = tree(tmp_path / "c", rows=CSV_ROWS[:3])
    assert output_hashes.differences(a, shorter) == [
        "s/grid.csv: 1 of 4 rows changed, first at line 4: '0.9,0.0,2.9' -> None"
    ]


def test_unchanged_files_print_nothing(tmp_path, capsys):
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert a["s/report.json"]["json"] == REPORT and a["s/grid.csv"]["csv"] == CSV_ROWS
    # a map of bare hashes, as the tool wrote before it kept content, compares by hash
    bare = {key: entry["sha256"] for key, entry in a.items()}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(bare))
    paths[1].write_text(json.dumps(b))
    assert output_hashes.main(["--compare", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "2 entries, all equal\n"
