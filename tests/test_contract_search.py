"""tools/contract_search.py: the helpers of the exit-code contract search."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from berglab.cli import parse_scenario

_PATH = Path(__file__).resolve().parents[1] / "tools" / "contract_search.py"
_spec = importlib.util.spec_from_file_location("contract_search", _PATH)
contract_search = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract_search)

SYMBOL = {"c": 1.0, "d": 0.5, "g": {"type": "polynomial", "coeffs": [2.0, 1.0]}}
BUILD = {"name": "b", "kind": "toeplitz_build", "builder": "closed_form", "n": 4,
         "symbol": SYMBOL}


def test_every_workload_scenario_shrinks_to_a_valid_desk_size_config():
    for key, config in contract_search.workload_scenarios(7).items():
        small = contract_search.shrink(config)
        parse_scenario(small)  # still valid
        assert "expect" not in small and small.get("n", 0) <= 16, key
        assert small.get("schedule", [16])[-1] <= 16 and small.get("matrix_size", 8) <= 8
        if "grid" in small:
            assert len(small["grid"]["radii"]) <= 3 and small["grid"]["angles"] == 8


def test_each_mutation_sets_one_leaf_to_one_value():
    leaves = list(contract_search.leaves(BUILD))
    assert leaves == [("name",), ("kind",), ("builder",), ("n",), ("symbol", "c"),
                      ("symbol", "d"), ("symbol", "g", "type"), ("symbol", "g", "coeffs", 0),
                      ("symbol", "g", "coeffs", 1)]
    cases = list(contract_search.mutations(BUILD))
    assert len(cases) == len(leaves) * len(contract_search.VALUES)
    label, mutated = cases[len(contract_search.VALUES) * 8 - 1]  # the last value at coeffs[0]
    assert label == "symbol.g.coeffs.0 = 100... (401 digits)"
    assert mutated["symbol"]["g"]["coeffs"] == [10**400, 1.0]
    assert BUILD["symbol"]["g"]["coeffs"] == [2.0, 1.0]  # the original is left as it was


def _at(config, path):
    for key in path:
        config = config[key]
    return json.dumps(config)


def test_pair_mutations_set_two_different_leaves_each():
    original = copy.deepcopy(BUILD)
    cases = list(contract_search.pair_mutations(BUILD, count=50))
    assert cases == list(contract_search.pair_mutations(BUILD, count=50))  # a fixed draw
    assert len({label for label, _ in cases}) == 50  # no case twice
    leaves = {".".join(map(str, path)): path for path in contract_search.leaves(BUILD)}
    for label, mutated in cases:
        first, second = (part.partition(" = ")[0] for part in label.split("; "))
        assert first != second
        changed = {name for name, path in leaves.items() if _at(mutated, path) != _at(BUILD, path)}
        assert changed <= {first, second}
    assert BUILD == original  # the original is left as it was
    # 9 leaves: 36 pairs of leaves, each with every pair of values, and no more
    every = contract_search.pair_mutations(BUILD, count=10**6)
    assert sum(1 for _ in every) == 36 * len(contract_search.VALUES) ** 2


@pytest.mark.parametrize("validated, ran, holds", [
    (0, 0, True), (0, 3, True), (2, 2, True),
    (0, 1, False), (0, 2, False), (2, 0, False), (2, 3, False), (2, 1, False),
])
def test_contract_holds(validated, ran, holds):
    assert contract_search.contract_holds(validated, ran) is holds


def test_non_finite_reads_the_literals_json_loads_accepts():
    assert not contract_search.non_finite('{"x": [1.0, 1e308, "NaN"]}')
    for literal in ("NaN", "Infinity", "-Infinity"):
        assert contract_search.non_finite(f'{{"x": [1.0, {literal}]}}')


def test_check_case_runs_berglab_and_judges_its_codes(tmp_path, monkeypatch):
    assert contract_search.check_case(BUILD, tmp_path) is None
    assert sorted(contract_search.hash_map(tmp_path / "a", {})) == [
        "manifest.json", "matrix.csv", "matrix.json", "report.json"
    ]
    codes = {"validate": 0, "run": 2}
    monkeypatch.setattr(contract_search, "berglab", lambda argv: codes[argv[0]])
    assert contract_search.check_case(BUILD, tmp_path) == ("violation", "validate 0, run 2: ")
    codes["validate"] = 3
    assert contract_search.check_case(BUILD, tmp_path) == ("validate-3", "run 2: ")
