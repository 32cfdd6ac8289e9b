"""Row schema, deterministic CSV bytes, JSONL logs, and seed mixing."""

import io
import json

import numpy as np
import pytest

from catlab.records import (
    CSV_COLUMNS,
    CSV_SCHEMA_COMMENT,
    append_jsonl,
    format_csv,
    mix_seed,
    new_row,
    read_csv,
    splitmix64,
    write_csv,
)

MASK64 = (1 << 64) - 1


def sample_rows():
    row = new_row()
    row.update(n=6, m_lo=0, m_hi=0, beta=1.0, h=1.0, prob=0.3125,
               c_dense=32.880923701895014, purity=1.0 / 3.0, seed=42,
               wall_ms=17.3)
    other = new_row()
    other.update(n=4, m_lo=-2, m_hi=2, beta=0.5, h=-1.0, prob=1e-17)
    return [row, other]


def test_new_row_covers_schema():
    row = new_row()
    assert tuple(row) == CSV_COLUMNS
    assert all(v is None for v in row.values())


def test_format_csv_layout():
    text = format_csv(sample_rows())
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA_COMMENT
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert text.endswith("\n")
    assert "\r" not in text


def test_format_csv_full_precision_and_blank_wall_ms():
    text = format_csv(sample_rows())
    body = text.splitlines()[2]
    assert "32.880923701895014" in body
    assert "0.33333333333333331" in body  # 17 significant digits
    assert body.endswith(",")  # wall clock never lands in the csv
    assert "17.3" not in text
    assert "1e-17" in text.splitlines()[3]


def test_format_csv_rejects_unknown_columns():
    row = new_row()
    row["not_a_column"] = 1.0
    with pytest.raises(ValueError):
        format_csv([row])


def test_format_csv_integer_columns_stay_integers():
    body = format_csv(sample_rows()).splitlines()[2]
    first = body.split(",")
    assert first[0] == "6" and first[1] == "0" and first[19] == "42"


def test_write_and_read_csv_roundtrip(tmp_path):
    path = str(tmp_path / "rows.csv")
    rows = sample_rows()
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == 2
    assert back[0]["n"] == 6 and isinstance(back[0]["n"], int)
    assert back[0]["c_dense"] == 32.880923701895014
    assert back[0]["wall_ms"] is None
    assert back[1]["q_fit"] is None
    assert back[1]["h"] == -1.0


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(Exception):
        read_csv(str(path))


def test_write_csv_to_stream_matches_file(tmp_path):
    rows = sample_rows()
    path = str(tmp_path / "rows.csv")
    write_csv(rows, path)
    buf = io.StringIO()
    write_csv(rows, None, stream=buf)
    assert buf.getvalue() == open(path, encoding="utf-8").read()


def test_csv_bytes_are_reproducible(tmp_path):
    a = format_csv(sample_rows())
    b = format_csv(sample_rows())
    assert a == b


def test_append_jsonl_keeps_wall_clock(tmp_path):
    path = str(tmp_path / "log.jsonl")
    append_jsonl(sample_rows(), path)
    append_jsonl(sample_rows()[:1], path)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["wall_ms"] == 17.3
    assert first["n"] == 6
    assert "timestamp" in first and first["timestamp"].endswith("+00:00")


def test_splitmix64_is_a_bijection_sample():
    outs = {splitmix64(k) for k in range(2000)}
    assert len(outs) == 2000
    assert all(0 <= v <= MASK64 for v in outs)


def test_mix_seed_determinism_and_spread():
    assert mix_seed(42, 7) == mix_seed(42, 7)
    seeds = {mix_seed(42, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(42, 0) != mix_seed(43, 0)
    # negative python ints fold into the unsigned domain instead of crashing
    assert 0 <= mix_seed(-1, 3) <= MASK64


def test_mix_seed_over_an_index_array_matches_the_int_form():
    index = np.arange(2000, dtype=np.uint64)
    for seed in (0, 42, -1, MASK64, 1 << 64):
        mixed = mix_seed(seed, index)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [mix_seed(seed, k) for k in range(2000)]
    edges = np.array([0, 1, 1 << 63, MASK64], dtype=np.uint64)
    assert splitmix64(edges).tolist() == [splitmix64(int(k)) for k in edges]
