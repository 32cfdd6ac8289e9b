"""Golden CSV outputs: run each config under tests/golden/ and compare cells.

Each golden is a config NAME.ini, whose one section names the mode, and the
CSV NAME.csv that `catlab <mode>` wrote for it at one OpenBLAS thread.
compare() checks a run against its golden cell by cell: the comment line,
the header, integer and empty cells exactly; floats to RTOL relative to
|want|, or to SEARCH_RTOL in the columns of LOOSE; wall_ms not at all. The
tolerance has no absolute floor, so a zero cell must stay zero and a small
one, such as the purity bound of 8.0e-5 at n = 40, is held as tightly as a
large one. The BLAS thread count moves the last digits of a float. Against
one OpenBLAS thread, two moved the rho_ex1 sweep's search c_dense by 5.0e-13
and its q_fit by 1.2e-12, relative, and every other cell by at most
1.0e-14 relative (2-core x86-64, OpenBLAS 0.3.31). Over n = 8, 10, 12 that q_fit
moves by 1.2e-11. SEARCH_RTOL sits above this spread and below the 1e-10
relative change that the goldens must catch.

Regenerate, printing every cell whose text moved before writing:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_runs.py
"""
from __future__ import annotations

import configparser
import csv
import math
import sys
import tempfile
from pathlib import Path

from catlab.cli import main
from catlab.records import _INT_COLUMNS

GOLDEN_DIR = Path(__file__).parent / "golden"
RTOL = 1e-12
SEARCH_RTOL = 5e-11
# columns that carry a search or a fit; any other float is held to RTOL
LOOSE = {"sweep_ring": {"q_fit"}, "sweep_open": {"q_fit"},
         "sweep_rho_ex1": {"c_dense", "q_fit"}}
NAMES = sorted(path.stem for path in GOLDEN_DIR.glob("*.ini"))


def run(name: str, out: Path) -> str:
    """The CSV text of the golden config `name`, written through out."""
    ini = GOLDEN_DIR / f"{name}.ini"
    parser = configparser.ConfigParser()
    parser.read(ini, encoding="utf-8")
    mode = parser.sections()[0]
    if main([mode, "--config", str(ini), "--out", str(out)]) != 0:
        raise RuntimeError(f"catlab {mode} failed on {ini}")
    return out.read_text(encoding="utf-8")


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(text.splitlines()))


def compare(name: str, want: str, got: str, exact: bool = False) -> list[str]:
    """One line per cell of got that moved from want beyond its tolerance,
    or at all with exact."""
    want_rows, got_rows = _rows(want), _rows(got)
    if want_rows[:2] != got_rows[:2] or len(want_rows) != len(got_rows):
        return [f"{name}: comment, header or row count differs"]
    header, moved = want_rows[1], []
    for index, (old, new) in enumerate(zip(want_rows[2:], got_rows[2:])):
        for column, a, b in zip(header, old, new):
            if column == "wall_ms" or a == b:
                continue
            rtol = SEARCH_RTOL if column in LOOSE.get(name, ()) else RTOL
            if not exact and column not in _INT_COLUMNS and a and b:
                x, y = float(a), float(b)
                if math.isfinite(x) and abs(y - x) <= rtol * abs(x):
                    continue
            moved.append(f"{name} row {index} {column}: {a!r} -> {b!r}")
    return moved


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            golden = GOLDEN_DIR / f"{name}.csv"
            got = run(name, Path(tmp) / "out.csv")
            want = golden.read_text(encoding="utf-8") if golden.exists() else got
            for line in compare(name, want, got, exact=True):
                print(line)
            golden.write_text(got, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
