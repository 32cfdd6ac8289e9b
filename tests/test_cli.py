"""End-to-end runs of every mode through the command line entry point."""

import json
import math
import subprocess
import sys

import pytest

from catlab.cli import main
from catlab.config import load_config
from catlab.errors import UsageError
from catlab.indices import c_closed_form_free
from catlab.records import read_csv


def ini(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_mode_is_a_usage_error(capsys):
    assert main(["transmogrify", "--config", "x.ini"]) == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    rc = main(["convert", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_convert_exact_row_contents(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 6", "betah = 1.0", "m = 0")
    out = str(tmp_path / "row.csv")
    assert main(["convert", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert (row["n"], row["m_lo"], row["m_hi"]) == (6, 0, 0)
    assert row["c_closed"] == pytest.approx(c_closed_form_free(6, 0, 1.0), rel=1e-12)
    assert row["c_dense"] == pytest.approx(row["c_closed"], rel=1e-10)
    assert row["purity"] <= row["purity_bound"] + 1e-12
    assert row["e_mean"] == pytest.approx(0.0, abs=1e-11)
    assert 2.0 * row["mx2"] == pytest.approx(row["c_dense"], rel=1e-10)
    assert row["wall_ms"] is None


def test_convert_parity_violation_exit_code(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 6", "betah = 1.0", "m = 1")
    assert main(["convert", "--config", cfg]) == 2
    capsys.readouterr()


def test_convert_ground_state_row(tmp_path, capsys):
    cfg = ini(tmp_path, "g.ini", "[convert]", "n = 5", "ground = true", "m = 5")
    out = str(tmp_path / "g.csv")
    assert main(["convert", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    row = read_csv(out)[0]
    assert row["beta"] is None
    assert row["prob"] == pytest.approx(2.0**-5, rel=1e-10)
    assert row["c_dense"] == pytest.approx(10.0, rel=1e-10)
    assert row["purity"] == pytest.approx(1.0, abs=1e-10)


def test_convert_sampled_is_seed_deterministic(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[convert]", "n = 4", "betah = 0.8",
              "outcome = sampled", "shots = 5", "seed = 99")
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["convert", "--config", cfg, "--out", out_a]) == 0
    assert main(["convert", "--config", cfg, "--out", out_b]) == 0
    capsys.readouterr()
    assert open(out_a, "rb").read() == open(out_b, "rb").read()
    rows = read_csv(out_a)
    assert len(rows) == 5
    assert len({r["seed"] for r in rows}) == 5  # per-shot derived seeds differ


def test_convert_sampled_builds_the_state_once(tmp_path, capsys, monkeypatch):
    import catlab.cli

    calls = []

    def counting(ham, beta):
        calls.append(ham.n)
        return catlab.thermal.gibbs_state(ham, beta)

    monkeypatch.setattr(catlab.cli, "gibbs_state", counting)
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 6", "betah = 0.7",
              "outcome = sampled", "shots = 8", "seed = 11")
    out = str(tmp_path / "rows.csv")
    assert main(["convert", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert len(rows) == 8
    assert len({row["m_lo"] for row in rows}) > 1
    assert calls == [6]


def test_convert_sampled_requires_seed(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[convert]", "n = 4", "betah = 0.8",
              "outcome = sampled", "shots = 5")
    assert main(["convert", "--config", cfg]) == 2
    capsys.readouterr()


def test_convert_jsonl_carries_wall_clock(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 4", "betah = 1.0", "m = 0")
    log = str(tmp_path / "log.jsonl")
    assert main(["convert", "--config", cfg, "--jsonl", log]) == 0
    capsys.readouterr()
    entry = json.loads(open(log, encoding="utf-8").read().splitlines()[0])
    assert entry["wall_ms"] is None or entry["wall_ms"] >= 0.0
    assert "timestamp" in entry


def test_config_rejects_beta_and_betah_together(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 4", "beta = 1.0",
              "betah = 1.0", "m = 0")
    assert main(["convert", "--config", cfg]) == 2
    assert "pick one" in capsys.readouterr().err


def test_config_rejects_unknown_keys_and_empty_values(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 4", "betah = 1.0",
              "m = 0", "typo_key = 7")
    assert main(["convert", "--config", cfg]) == 2
    cfg2 = ini(tmp_path, "d.ini", "[convert]", "n = 4", "betah =", "m = 0")
    assert main(["convert", "--config", cfg2]) == 2
    capsys.readouterr()


def test_config_requires_matching_section(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[sweep]", "n_list = 4,6,8", "betah = 1.0")
    assert main(["convert", "--config", cfg]) == 2
    capsys.readouterr()


def test_sweep_workers_agree_byte_for_byte(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 4, 6, 8", "betah = 1.0",
              "m = 0")
    one = str(tmp_path / "w1.csv")
    two = str(tmp_path / "w2.csv")
    assert main(["sweep", "--config", cfg, "--out", one, "--workers", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", two, "--workers", "2"]) == 0
    capsys.readouterr()
    assert open(one, "rb").read() == open(two, "rb").read()
    rows = read_csv(one)
    assert [r["n"] for r in rows] == [4, 6, 8]
    assert len({r["q_fit"] for r in rows}) == 1  # the fit is stamped everywhere
    # three sizes leave the fit error undefined: an empty cell, not 0
    assert all(r["q_fit_err"] is None for r in rows)


def test_sweep_gibbs_exponent_band(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 4, 6, 8, 10",
              "betah = 1.0", "m = 0")
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    q = read_csv(out)[0]["q_fit"]
    assert 1.85 <= q <= 2.0


def test_sweep_capacity_skip_and_fail(tmp_path, capsys):
    base = ("[sweep]", "n_list = 4, 6, 8, 14", "betah = 1.0", "m = 0")
    hard = ini(tmp_path, "hard.ini", *base)
    soft = ini(tmp_path, "soft.ini", *base, "on_capacity = skip")
    assert main(["sweep", "--config", hard]) == 4
    out = str(tmp_path / "soft.csv")
    assert main(["sweep", "--config", soft, "--out", out]) == 0
    capsys.readouterr()
    assert [r["n"] for r in read_csv(out)] == [4, 6, 8]


def test_sweep_runs_at_the_dense_cap(tmp_path, capsys):
    from catlab.spincore import pauli_site

    cached = pauli_site.cache_info().currsize
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 8, 10, 12",
              "betah = 1.0", "m = 0")
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert pauli_site.cache_info().currsize == cached
    rows = read_csv(out)
    assert [r["n"] for r in rows] == [8, 10, 12]
    row = rows[-1]
    n, t2 = 12, math.tanh(1.0) ** 2
    mx2 = n + 0.5 * n * n * t2
    assert row["prob"] == pytest.approx(math.comb(n, n // 2) / 2.0**n, rel=1e-10)
    assert row["c_dense"] == pytest.approx(c_closed_form_free(n, 0, 1.0), rel=1e-10)
    assert row["c_dense"] == pytest.approx(row["c_closed"], rel=1e-10)
    assert row["mx2"] == pytest.approx(mx2, rel=1e-10)
    assert row["e_var"] == pytest.approx(mx2, rel=1e-10)
    assert row["e_mean"] == pytest.approx(0.0, abs=1e-10)
    assert row["purity"] <= row["purity_bound"] + 1e-12
    assert row["q_fit_err"] is None
    fit_cfg = ini(tmp_path, "f.ini", "[fit]", f"input_csv = {out}")
    assert main(["fit", "--config", fit_cfg]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["q_fit_err"] is None


def test_memory_error_is_a_capacity_failure(tmp_path, capsys, monkeypatch):
    import catlab.cli

    def exhausted(cfg, args):
        raise MemoryError

    monkeypatch.setitem(catlab.cli._HANDLERS, "convert", exhausted)
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 12", "betah = 1.0", "m = 0")
    assert main(["convert", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "out of memory" in err and "n=12" in err


def test_sweep_fixture_source_rejects_gibbs_keys(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 6, 8, 10",
              "source = rho_ex2", "betah = 1.0")
    assert main(["sweep", "--config", cfg]) == 2
    capsys.readouterr()


def test_sweep_gibbs_source_rejects_resolution(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 4, 6, 8",
              "betah = 1.0", "resolution = 1")
    assert main(["sweep", "--config", cfg]) == 2
    assert "resolution only applies to fixture sources" in capsys.readouterr().err


def test_sweep_resolution_below_two_fails_at_load(tmp_path):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 6, 8, 10",
              "source = rho_ex2", "resolution = 1")
    with pytest.raises(UsageError, match="resolution must be at least 2"):
        load_config(cfg, "sweep")


def test_sweep_fixture_source_exponent(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 6, 8, 10",
              "source = rho_ex2", "resolution = 64")
    out = str(tmp_path / "f.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    q = read_csv(out)[0]["q_fit"]
    assert 0.95 <= q <= 1.05


def test_interval_closed_form_only_scales_past_dense_cap(tmp_path, capsys):
    cfg = ini(tmp_path, "i.ini", "[interval]", "n = 40", "betah = 1.0",
              "intervals = -2:2, 0:0", "closed_form_only = true")
    out = str(tmp_path / "i.csv")
    assert main(["interval", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert all(r["c_dense"] is None for r in rows)
    assert all(r["c_closed"] is not None for r in rows)
    assert all(0.0 <= r["i_value"] <= 1.0 for r in rows)


def test_interval_dense_demand_past_cap_is_capacity_error(tmp_path, capsys):
    cfg = ini(tmp_path, "i.ini", "[interval]", "n = 40", "betah = 1.0",
              "intervals = -2:2", "closed_form_only = false")
    assert main(["interval", "--config", cfg]) == 4
    capsys.readouterr()


def test_interval_auto_checks_dense_against_closed(tmp_path, capsys):
    cfg = ini(tmp_path, "i.ini", "[interval]", "n = 8", "betah = 1.0",
              "intervals = 0:0, -2:2, 2:6, -8:8")
    out = str(tmp_path / "i.csv")
    assert main(["interval", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    for row in read_csv(out):
        assert row["c_dense"] == pytest.approx(row["c_closed"], rel=1e-9,
                                               abs=1e-9)
    full = read_csv(out)[3]
    assert full["c_closed"] == 0.0 and full["i_value"] == 0.0


def test_fit_mode_reads_back_sweep_output(tmp_path, capsys):
    sweep_cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 4, 6, 8, 10",
                    "betah = 1.0", "m = 0")
    csv_path = str(tmp_path / "s.csv")
    assert main(["sweep", "--config", sweep_cfg, "--out", csv_path]) == 0
    capsys.readouterr()
    fit_cfg = ini(tmp_path, "f.ini", "[fit]", f"input_csv = {csv_path}")
    assert main(["fit", "--config", fit_cfg]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["points"] == 4
    assert 1.85 <= payload["q_fit"] <= 2.0
    assert payload["q_fit_err"] >= 0.0


def test_fit_mode_rejects_missing_csv_and_bad_column(tmp_path, capsys):
    cfg = ini(tmp_path, "f.ini", "[fit]", "input_csv = nowhere.csv")
    assert main(["fit", "--config", cfg]) == 2
    sweep_cfg = ini(tmp_path, "s.ini", "[sweep]", "n_list = 4, 6, 8",
                    "betah = 1.0", "m = 0")
    csv_path = str(tmp_path / "s.csv")
    main(["sweep", "--config", sweep_cfg, "--out", csv_path])
    bad = ini(tmp_path, "b.ini", "[fit]", f"input_csv = {csv_path}",
              "value_column = nope")
    assert main(["fit", "--config", bad]) == 2
    capsys.readouterr()


def test_verify_mode_prints_named_checks(tmp_path, capsys):
    cfg = ini(tmp_path, "v.ini", "[verify]", "n = 6", "m = 2", "betah = 0.8")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for name in ("sector_probability", "catness_value", "energy_mean",
                 "energy_variance", "transverse_second_moment", "purity_bound"):
        assert f"check={name}" in out
    assert "status=fail" not in out


def test_verify_mode_rejects_row_outputs(tmp_path, capsys):
    cfg = ini(tmp_path, "v.ini", "[verify]", "n = 4", "m = 0", "betah = 1.0")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_feasibility_mode_emits_json(tmp_path, capsys):
    cfg = ini(tmp_path, "f.ini", "[feasibility]", "rounded_constants = true")
    assert main(["feasibility", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selected"] == "rounded"
    assert payload["rounded"]["feasible"] is True
    assert payload["precise"]["coherence_time"] == pytest.approx(4.7e-6)


def test_oracle_mode_runs_selected_families(tmp_path, capsys):
    cfg = ini(tmp_path, "o.ini", "[oracle]", "max_n = 4",
              "families = partition_free, fixtures")
    assert main(["oracle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "family=partition_free status=ok" in out
    assert out.strip().splitlines()[-1] == "families=2 failed=0"


def test_oracle_mode_inject_fault_fails(tmp_path, capsys):
    cfg = ini(tmp_path, "o.ini", "[oracle]", "max_n = 4",
              "families = fixtures", "inject_fault = true")
    assert main(["oracle", "--config", cfg]) == 3
    assert "family=injected_fault status=fail" in capsys.readouterr().out


def test_subprocess_entry_point_matches_in_process(tmp_path):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 4", "betah = 1.0", "m = 0")
    out = str(tmp_path / "sub.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "catlab.cli", "convert", "--config", cfg,
         "--out", out],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    in_proc = str(tmp_path / "in.csv")
    assert main(["convert", "--config", cfg, "--out", in_proc]) == 0
    assert open(out, "rb").read() == open(in_proc, "rb").read()
