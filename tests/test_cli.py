"""End-to-end runs of every mode through the command line entry point."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

from catlab import cli
from catlab.cli import main
from catlab.config import _MODE_KEYS, MODES, ExperimentConfig, load_config
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lines", [
    ("h = 1e308", "betah = 1"),  # the symmetry blocks overflow
    ("jx = 1e200", "beta = 1"),  # the energy variance overflows to nan
])
def test_convert_numerical_failure_is_a_broken_invariant(tmp_path, capsys, lines):
    cfg = ini(tmp_path, "c.ini", "[convert]", "n = 4", *lines, "m = 0")
    out = tmp_path / "row.csv"
    assert main(["convert", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


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


# m_lo and seed of every row of a sampled convert (n = 6, betah = 1,
# shots = 64, seed = 99), recorded with numpy's Generator(Philox(key=seed))
# built once per shot
_SAMPLED_M = [
    -2, -4, 2, 0, 0, 4, -4, 4, -2, 2, 0, -2, 2, -2, -2, 6, -4, -4, -2, 0,
    0, 0, 0, -4, -2, 0, 4, 0, 0, 0, 0, -2, 0, 0, 4, 0, 2, -2, -2, -2, 0, 2,
    -2, 0, -2, 0, -2, 4, 2, -2, 2, 0, -4, 4, 2, 4, -2, -2, -2, -2, 2, 2, 0,
    0,
]
_SAMPLED_SEEDS = [
    7654031746014058981, 4938449432114577906, 7429787215549260381,
    10743031015200810241, 10587956994047984722, 16491114306010228379,
    11855393115662049859, 17307912314138778387, 10363727640957950584,
    15668360119407216229, 10419037129475538570, 364892619214373889,
    10719441966831531763, 11493237734502600000, 17932918691552326761,
    2412583266187517545, 7436567656669067297, 9853130485750636562,
    8626614380204051705, 5008102436499181575, 16026904627139000217,
    9639126377024016882, 16925152143834228859, 502885646939010208,
    6984763800241313631, 4982329502436505182, 9130914284313995488,
    7043306553577135029, 7756343666559551247, 13092827392353228823,
    781050246781001225, 12878860634049988623, 14607105364407951403,
    6154659894799406026, 2144968655481501631, 3105163046155049014,
    6364204811083862322, 4674928599363822780, 17351581723382347755,
    10072038067360987061, 9067472194641337746, 63671316052809924,
    10891912604220792788, 15129045074331746422, 9580106372554599176,
    3907812357540353742, 7434286292990153851, 8858805310299576518,
    6450474496189480475, 9566062798019494716, 2709173812756367596,
    13840466235415208788, 7262771459233721720, 16782375997268194830,
    17194025569833532024, 6629004100723035718, 13198349752070792108,
    865422172802808584, 3751776640616466993, 15067678918216606032,
    14053653767182900720, 15971573778607785020, 12535936280506949283,
    15655700075453659016,
]


def test_convert_sampled_keeps_its_pinned_outcomes_and_seeds(tmp_path, capsys):
    cfg = ini(tmp_path, "s.ini", "[convert]", "n = 6", "betah = 1.0",
              "outcome = sampled", "shots = 64", "seed = 99")
    out = str(tmp_path / "s.csv")
    assert main(["convert", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert [r["m_lo"] for r in rows] == _SAMPLED_M
    assert [r["m_hi"] for r in rows] == _SAMPLED_M
    assert [r["seed"] for r in rows] == _SAMPLED_SEEDS


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


def test_convert_seed_flag_stands_in_for_the_seed_key(tmp_path, capsys):
    lines = ("[convert]", "n = 4", "betah = 0.8", "outcome = sampled", "shots = 5")
    flag = str(tmp_path / "flag.csv")
    key = str(tmp_path / "key.csv")
    assert main(["convert", "--config", ini(tmp_path, "a.ini", *lines),
                 "--seed", "5", "--out", flag]) == 0
    assert main(["convert", "--config", ini(tmp_path, "b.ini", *lines, "seed = 5"),
                 "--out", key]) == 0
    capsys.readouterr()
    assert open(flag, "rb").read() == open(key, "rb").read()


@pytest.mark.parametrize("mode, lines", [
    ("interval", ("n = 6", "betah = 1.0", "intervals = -2:2")),
    ("verify", ("n = 4", "m = 0", "betah = 1.0")),
    ("fit", ("input_csv = rows.csv",)),
    ("feasibility", ("n_spins = 100",)),
])
def test_seed_flag_is_a_usage_error_where_the_mode_takes_no_seed(tmp_path, capsys, mode, lines):
    cfg = ini(tmp_path, "s.ini", f"[{mode}]", *lines)
    assert load_config(cfg, mode).seed is None
    assert main([mode, "--config", cfg, "--seed", "3"]) == 2
    assert "--seed" in capsys.readouterr().err


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


@pytest.mark.parametrize("mode, key, lines", [
    ("convert", "h", ("n = 4", "betah = 1.0", "h = nan", "m = 0")),
    ("convert", "jx", ("n = 4", "betah = 1.0", "jx = inf", "m = 0")),
    ("convert", "betah", ("n = 4", "betah = inf", "m = 0")),
    ("interval", "betah", ("n = 10", "betah = inf", "intervals = -2:2")),
    ("interval", "h", ("n = 10", "betah = 1.0", "h = inf", "intervals = -2:2")),
    ("feasibility", "sensitivity", ("sensitivity = nan",)),
    # finite inputs whose quotient beta = betah / h overflows
    ("convert", "betah / h", ("n = 4", "betah = 1e300", "h = 1e-300", "m = 0")),
])
def test_config_rejects_non_finite_numbers(tmp_path, capsys, mode, key, lines):
    cfg = ini(tmp_path, "c.ini", f"[{mode}]", *lines)
    assert main([mode, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err and "finite" in captured.err


def test_config_requires_matching_section(tmp_path, capsys):
    cfg = ini(tmp_path, "c.ini", "[sweep]", "n_list = 4,6,8", "betah = 1.0")
    assert main(["convert", "--config", cfg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("mode, key, lines", [
    ("convert", "n", ("n = 0", "betah = 1.0", "m = 0")),
    ("convert", "n", ("n = -2", "betah = 1.0", "m = 0")),
    ("verify", "n", ("n = 0", "m = 0", "betah = 1.0")),
    ("interval", "n", ("n = 0", "betah = 1.0", "intervals = 0:0")),
    ("interval", "n", ("n = -4", "betah = 1.0", "intervals = 0:0")),
    ("sweep", "n_list", ("n_list = 0, 2, 4", "betah = 1.0")),
])
def test_config_rejects_non_positive_sizes(tmp_path, capsys, mode, key, lines):
    cfg = ini(tmp_path, "c.ini", f"[{mode}]", *lines)
    assert main([mode, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} must be a spin count of at least 1")


@pytest.mark.parametrize("key", ["beta", "betah"])
def test_convert_ground_state_takes_no_temperature(tmp_path, capsys, key):
    cfg = ini(tmp_path, "g.ini", "[convert]", "n = 4", "ground = true",
              f"{key} = 1.0", "h = 0.5", "m = 0")
    assert main(["convert", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} only applies to thermal states" in captured.err


# Per mode: the smallest valid section and its config, then sections that
# together give every allow-listed key a value that differs from its default.
_MINIMAL = {
    "convert": ({"n": "4", "betah": "1.0", "m": "0"}, dict(n=4, beta=1.0, m=0)),
    "sweep": ({"n_list": "4, 6, 8", "betah": "1.0"},
              dict(n_list=(4, 6, 8), beta=1.0, m=0)),
    "interval": ({"n": "10", "betah": "1.0", "intervals": "-2:2"},
                 dict(n=10, beta=1.0, intervals=((-2, 2),))),
    "fit": ({"input_csv": "rows.csv"}, dict(input_csv="rows.csv")),
    "verify": ({"n": "6", "m": "2", "betah": "1.0"}, dict(n=6, m=2, beta=1.0)),
    "feasibility": ({}, {}),
    "oracle": ({}, dict(seed=0)),
}
_FULL = {
    "convert": [
        ({"n": "5", "betah": "1.5", "h": "3", "jx": "0.1", "jy": "0.2", "jz": "0.3",
          "boundary": "open", "outcome": "interval", "m": "1", "m_lo": "-3",
          "m_hi": "3", "shots": "4", "seed": "9"},
         dict(n=5, beta=0.5, h=3.0, j=(0.1, 0.2, 0.3), boundary="open",
              outcome="interval", m=1, m_lo=-3, m_hi=3, shots=4, seed=9)),
        ({"n": "5", "beta": "0.5", "m": "1"}, dict(n=5, beta=0.5, m=1)),
        ({"n": "5", "ground": "true", "h": "0.5", "m": "1"},
         dict(n=5, ground=True, h=0.5, m=1)),
    ],
    "sweep": [
        ({"n_list": "3, 5, 7", "beta": "0.5", "h": "2", "jx": "0.1", "jy": "0.2",
          "jz": "0.3", "boundary": "open", "m": "1", "seed": "9"},
         dict(n_list=(3, 5, 7), beta=0.5, h=2.0, j=(0.1, 0.2, 0.3), boundary="open",
              m=1, seed=9)),
        ({"n_list": "4, 6, 8", "source": "rho_ex1", "resolution": "64"},
         dict(n_list=(4, 6, 8), source="rho_ex1", resolution=64)),
    ],
    "interval": [
        ({"n": "40", "beta": "0.5", "h": "2", "intervals": "-2:2, 0:4"},
         dict(n=40, beta=0.5, h=2.0, intervals=((-2, 2), (0, 4)))),
    ],
    "fit": [
        ({"input_csv": " rows.csv ", "value_column": "purity", "floor": "no"},
         dict(input_csv="rows.csv", value_column="purity", floor=False)),
    ],
    "verify": [
        ({"n": "6", "m": "2", "beta": "0.5", "h": "2"}, dict(n=6, m=2, beta=0.5, h=2.0)),
    ],
    "feasibility": [
        ({"tau_single": "1e-3", "n_spins": "50", "distance_r": "2e-6",
          "sensitivity": "1e-16", "duty_fraction": "0.5"},
         dict(tau_single=1e-3, n_spins=50, distance_r=2e-6, sensitivity=1e-16,
              duty_fraction=0.5)),
    ],
    "oracle": [
        ({"families": "fixtures, sampling", "inject_fault": "yes", "max_n": "6",
          "seed": "4"},
         dict(families=("fixtures", "sampling"), inject_fault=True, max_n=6, seed=4)),
    ],
}


@pytest.mark.parametrize("mode", MODES)
def test_config_table_parses_every_key_into_its_field(tmp_path, mode):
    def load(items):
        lines = [f"{key} = {raw}" for key, raw in items.items()]
        return load_config(ini(tmp_path, "t.ini", f"[{mode}]", *lines), mode)

    items, fields = _MINIMAL[mode]
    assert load(items) == ExperimentConfig(mode=mode, **fields)
    default = ExperimentConfig(mode=mode)
    given = set(items)
    for items, fields in _FULL[mode]:
        given |= set(items)
        assert all(getattr(default, name) != value for name, value in fields.items())
        assert load(items) == ExperimentConfig(mode=mode, **fields)
    assert given == _MODE_KEYS[mode]


@pytest.mark.parametrize("mode, lines, line", [
    ("sweep", ("n_list = 4, 6, 8", "betah = 1.0"), "on_capacity = skip"),
    ("interval", ("n = 8", "betah = 1.0", "intervals = 0:0"), "closed_form_only = true"),
    ("feasibility", (), "rounded_constants = true"),
], ids=["on_capacity", "closed_form_only", "rounded_constants"])
def test_removed_config_keys_are_usage_errors(tmp_path, capsys, mode, lines, line):
    cfg = ini(tmp_path, "r.ini", f"[{mode}]", *lines, line)
    assert main([mode, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown keys in [{mode}]: {line.split()[0]}\n"


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
    out = tmp_path / "hard.csv"
    assert main(["sweep", "--config", hard, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: n=14 exceeds the dense cap of 12 spins\n"
    assert not out.exists()  # the sizes are checked before any row runs


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


def test_fixture_sweep_row_builds_no_dense_matrix(tmp_path):
    # the rho_ex1 row at n = 10 traced 32 MB when the fixture was a dense
    # 1024 x 1024 complex matrix; kept as its 10 columns it traces about 8 MB
    cfg = load_config(ini(tmp_path, "s.ini", "[sweep]", "n_list = 6, 8, 10",
                          "source = rho_ex1"), "sweep")
    tracemalloc.start()
    try:
        row = cli._sweep_row((cfg, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["c_dense"] == pytest.approx(128.0, rel=1e-10)
    assert peak <= 12 * 2**20


def test_interval_closed_form_only_scales_past_dense_cap(tmp_path, capsys):
    cfg = ini(tmp_path, "i.ini", "[interval]", "n = 40", "betah = 1.0",
              "intervals = -2:2, 0:0")
    out = str(tmp_path / "i.csv")
    assert main(["interval", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rows = read_csv(out)
    assert all(r["c_dense"] is None for r in rows)
    assert all(r["c_closed"] is not None for r in rows)
    assert all(0.0 <= r["i_value"] <= 1.0 for r in rows)


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
    cfg = ini(tmp_path, "f.ini", "[feasibility]")
    assert main(["feasibility", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
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
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0
    in_proc = str(tmp_path / "in.csv")
    assert main(["convert", "--config", cfg, "--out", in_proc]) == 0
    assert open(out, "rb").read() == open(in_proc, "rb").read()
