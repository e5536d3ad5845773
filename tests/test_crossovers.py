"""tools/crossovers.py: both sides of each sigma_min route crossover, timed."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "crossovers.py"
_spec = importlib.util.spec_from_file_location("crossovers", _PATH)
crossovers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(crossovers)


def test_rows_time_both_sides_of_every_crossover():
    rows = crossovers.crossover_rows((48, 80), repeat=1)
    names = ["band reduction", "bidiagonal", "pencil real", "pencil complex"]
    assert [(r["crossover"], r["n"]) for r in rows] == [(x, n) for n in (48, 80) for x in names]
    # the widest band each rule routes at N = 80: (2m + 1) * 16 <= 80, and m = 1 at least
    assert [r["m"] for r in rows[4:]] == [None, 2, 2, 1]
    for row in rows:
        assert row["route_s"] > 0 and row["dense_s"] > 0
        # both sides compute the same sigma_min
        assert row["sigma_difference"] <= 1e-12


def test_main_prints_one_row_per_crossover(capsys):
    assert crossovers.main(["--sizes", "40", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["crossover", "N"]
    assert [line.rsplit(None, 6)[0] for line in lines[1:]] == [
        "band reduction", "bidiagonal", "pencil real", "pencil complex"
    ]
