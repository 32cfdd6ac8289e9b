"""Output records: a fixed-schema CSV, a JSONL mirror, and seed derivation.

The CSV is byte-deterministic for a given configuration and BLAS thread
count (the thread count moves the last digits of the floats): floats are
rendered with %.17g (round-trip exact), absent values are empty fields,
newlines are LF, and the wall-clock column is always left empty there.
Timing and timestamps go to the JSONL stream, which is the non-
deterministic sibling of the same rows.
"""
from __future__ import annotations

import json
from datetime import datetime, timezone

CSV_SCHEMA_COMMENT = "# catlab csv schema v1"

CSV_COLUMNS = (
    "n", "m_lo", "m_hi", "beta", "h", "jx", "jy", "jz", "prob",
    "c_dense", "c_closed", "purity", "purity_bound", "e_mean", "e_var",
    "mx2", "i_value", "q_fit", "q_fit_err", "seed", "wall_ms",
)

_INT_COLUMNS = {"n", "m_lo", "m_hi", "seed"}

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 generator; a stable 64-bit bijection.

    x is an int in [0, 2**64) or a uint64 array, which wraps the same way.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, index: int) -> int:
    """Derive the per-record seed from the configured seed and record index.

    index may be a uint64 array, giving every record's seed at once. Stable
    across platforms and releases; changing it would silently break
    reproducibility of archived runs.
    """
    return splitmix64((seed & _MASK64) ^ splitmix64(index & _MASK64))


def new_row() -> dict:
    """A record with every column present and empty."""
    return {col: None for col in CSV_COLUMNS}


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _INT_COLUMNS:
        return str(int(value))
    return "%.17g" % float(value)


def format_csv(rows) -> str:
    """Render rows to the full CSV text, schema comment included."""
    lines = [CSV_SCHEMA_COMMENT, ",".join(CSV_COLUMNS)]
    for row in rows:
        extra = set(row) - set(CSV_COLUMNS)
        if extra:
            raise ValueError(f"row has unknown columns: {sorted(extra)}")
        cells = []
        for col in CSV_COLUMNS:
            value = None if col == "wall_ms" else row.get(col)
            cells.append(_format_cell(col, value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(rows, path: str | None, stream=None) -> None:
    """Write the CSV to a file path (UTF-8, LF) or to a text stream."""
    text = format_csv(rows)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stream.write(text)


def append_jsonl(rows, path: str) -> None:
    """Append one JSON object per row, with real timing and a timestamp."""
    stamp = datetime.now(timezone.utc).isoformat()
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            payload = {col: row.get(col) for col in CSV_COLUMNS}
            payload["timestamp"] = stamp
            fh.write(json.dumps(payload) + "\n")


def read_csv(path: str) -> list[dict]:
    """Read a schema-v1 CSV back into rows of parsed values.

    Empty cells come back as None, integer columns as int, everything else
    as float; unknown header layouts are rejected.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError(f"{path} has no header row")
    header = tuple(body[0].split(","))
    if header != CSV_COLUMNS:
        raise ValueError(f"{path} does not match the v1 column layout")
    rows = []
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"malformed row in {path}: {ln!r}")
        row = {}
        for col, cell in zip(CSV_COLUMNS, cells):
            if cell == "":
                row[col] = None
            elif col in _INT_COLUMNS:
                row[col] = int(cell)
            else:
                row[col] = float(cell)
        rows.append(row)
    return rows
