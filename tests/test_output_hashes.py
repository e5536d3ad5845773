"""tools/output_hashes.py: the byte-identity map of emitted files and refusals."""

import importlib.util
import json
from pathlib import Path

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
    assert capsys.readouterr().out.splitlines() == [
        f"tiny/build/matrix.csv: {first['tiny/build/matrix.csv']} != "
        f"{changed['tiny/build/matrix.csv']}"
    ]


def test_differences_name_keys_only_one_map_holds():
    assert output_hashes.differences({"x": "1", "y": "2"}, {"y": "2", "z": "3"}) == [
        "x: only in the first map",
        "z: only in the second map",
    ]
