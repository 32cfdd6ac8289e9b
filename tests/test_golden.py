"""Every golden config reproduces its committed CSV, cell by cell."""

import csv
import io

import pytest

from golden_runs import GOLDEN_DIR, NAMES, _rows, compare, run
from catlab.records import _INT_COLUMNS


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")


def test_no_golden_config_goes_missing():
    assert NAMES == ["convert_n12", "convert_sampled", "convert_window",
                     "interval_n40", "interval_n8", "sweep_open", "sweep_rho_ex1",
                     "sweep_ring"]


@pytest.mark.parametrize("name", NAMES)
def test_golden_csv_matches_cell_by_cell(name, tmp_path, capsys):
    got = run(name, tmp_path / "out.csv")
    capsys.readouterr()
    assert compare(name, _golden(name), got) == []


def test_golden_check_catches_a_relative_change_of_1e_10():
    for name in NAMES:
        comment, header, *rows = _rows(_golden(name))
        for col, column in enumerate(header):
            if column in _INT_COLUMNS or column == "wall_ms":
                continue
            moved = [["%.17g" % (float(cell) * (1.0 + 1e-10)) if cell and i == col else cell
                      for i, cell in enumerate(row)] for row in rows]
            if moved == rows:
                continue  # every cell is zero or empty: no relative change exists
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows([comment, header, *moved])
            assert compare(name, _golden(name), out.getvalue()), (name, column)
