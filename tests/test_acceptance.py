"""Acceptance gate: twelve go/no-go criteria over the whole package.

Each test evaluates one criterion end to end, prints a single PASS/FAIL
line with the measured figure and its tolerance (visible even under
pytest's capture), and then asserts. The dense comparisons run against
tests/denseref.py, which shares no code paths with the package.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import denseref
from catlab.analysis import (
    FeasibilityInput,
    averaged_identity_check,
    feasibility_calc,
    pauli_decomposition_c,
    sufficient_conditions_check,
    time_evolution_invariance,
)
from catlab.cli import main
from catlab.indices import (
    c_closed_form_free,
    fit_exponent,
    fixture_states,
    i_function,
    interval_c_closed,
    observable_search,
    optimal_witness,
    q_functional,
    vcm,
    witness_w,
)
from catlab.measure import OutcomeSpec, post_state
from catlab.records import read_csv
from catlab.spincore import as_state, total_magnetization
from catlab.thermal import (
    SpinHamiltonian,
    gibbs_state,
    log_free_partition_eq,
    log_free_partition_post,
    log_interval_partition_post,
    xyz_c_expansion,
)

REL_CLOSED = 1e-10      # closed form vs dense, criteria 1, 3, 5, 11
REL_PARTITION = 1e-10   # log partitions vs dense traces
ABS_LOGSUM = 1e-12      # log-domain probability normalization
ABS_EQUALITY = 1e-12    # exact identities (beta = 0 purity, witness traces)
ABS_MEAN = 1e-11        # post-measurement energy mean
INTERVAL_SLACK = 2.5    # interval residual budget, units of n
DRIFT_TOL = 1e-9        # catness drift under commuting evolution
FEAS_REL = 0.02         # feasibility figures vs quoted values

SIZES = (2, 4, 6, 8)
FIELD_GRID = (0.0, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0)


def announce(number, name, passed, detail, capsys):
    line = (f"criterion {number:02d} {name}: "
            f"{'PASS' if passed else 'FAIL'} ({detail})")
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def signed_gibbs(n, betah):
    """Dense reference Gibbs state at signed beta*h (field carries the sign)."""
    h = 1.0 if betah >= 0 else -1.0
    return denseref.gibbs(denseref.hamiltonian(n, h), abs(betah)), h


def test_criterion_01_closed_form_catness(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in SIZES:
        mx = denseref.magnetization("x", n)
        for betah in FIELD_GRID:
            rho, _ = signed_gibbs(n, betah)
            for m in range(-n, n + 1, 2):
                proj = denseref.sector_projector(n, m, m)
                post, _ = denseref.project(rho, proj)
                want = denseref.catness(post, mx, proj)
                got = c_closed_form_free(n, m, betah)
                worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
        elapsed = time.perf_counter() - start
    passed = worst <= REL_CLOSED and elapsed < 120.0
    announce(1, "closed form catness on the full grid", passed,
             f"max rel err {worst:.2e} vs tol {REL_CLOSED:.0e}, "
             f"{elapsed:.1f}s of 120s budget", capsys)


def test_criterion_02_log_partitions(capsys):
    worst = 0.0
    for n in (2, 4, 6, 8):
        hmat = denseref.hamiltonian(n, 1.0)
        for betah in (0.0, 0.3, 1.0, 3.0):
            weights = denseref.scipy.linalg.expm(-betah * hmat)
            want_eq = math.log(np.trace(weights).real)
            err = abs(log_free_partition_eq(n, betah) - want_eq) / max(abs(want_eq), 1.0)
            worst = max(worst, err)
            for m in range(-n, n + 1, 2):
                proj = denseref.sector_projector(n, m, m)
                want = math.log(np.trace(proj @ weights @ proj).real)
                worst = max(worst, abs(log_free_partition_post(n, m, betah) - want)
                            / max(abs(want), 1.0))
    norm_defect = 0.0
    for n in (100, 1000):
        for betah in (0.3, 1.0, 3.0):
            gap = abs(log_interval_partition_post(n, -n, n, betah)
                      - log_free_partition_eq(n, betah))
            norm_defect = max(norm_defect, gap)
    passed = worst <= REL_PARTITION and norm_defect <= ABS_LOGSUM
    announce(2, "log partition functions dense and large-n", passed,
             f"max rel err {worst:.2e} vs {REL_PARTITION:.0e}, "
             f"log-domain normalization defect {norm_defect:.2e} vs {ABS_LOGSUM:.0e}",
             capsys)


def test_criterion_03_interval_outcomes(capsys):
    n, betah = 8, 1.0
    windows = ((0, 0), (-2, 2), (2, 6), (-8, 8))
    rho, _ = signed_gibbs(n, betah)
    mx = denseref.magnetization("x", n)
    tanh2 = math.tanh(betah) ** 2
    worst_resid = 0.0
    closed_err = 0.0
    i_ok = True
    for lo, hi in windows:
        proj = denseref.sector_projector(n, lo, hi)
        post, _ = denseref.project(rho, proj)
        dense = denseref.catness(post, mx, proj)
        ival = i_function(n, lo, hi)
        i_ok = i_ok and 0.0 <= ival <= 1.0
        worst_resid = max(worst_resid, abs(dense - n * n * tanh2 * ival) / n)
        closed = interval_c_closed(n, lo, hi, betah)
        closed_err = max(closed_err, abs(closed - dense) / max(abs(dense), 1.0))
    full_range_zero = i_function(n, -n, n) == 0.0
    passed = (worst_resid <= INTERVAL_SLACK and i_ok and full_range_zero
              and closed_err <= REL_CLOSED)
    announce(3, "interval windows against the leading term", passed,
             f"max residual {worst_resid:.3f}n vs {INTERVAL_SLACK}n, "
             f"closed vs dense {closed_err:.2e} vs {REL_CLOSED:.0e}, "
             f"I in [0,1] and exactly 0 at full range: {i_ok and full_range_zero}",
             capsys)


def test_criterion_04_purity_bound(capsys):
    from catlab.analysis import purity_bound_free
    worst_violation = -math.inf
    eq_defect = 0.0
    for n in SIZES:
        for betah in FIELD_GRID:
            rho, _ = signed_gibbs(n, betah)
            for m in range(-n, n + 1, 2):
                proj = denseref.sector_projector(n, m, m)
                post, _ = denseref.project(rho, proj)
                pur = float(np.trace(post @ post).real)
                bound = purity_bound_free(n, m, betah)
                worst_violation = max(worst_violation, pur - bound)
                if betah == 0.0:
                    eq_defect = max(eq_defect, abs(pur - bound))
    passed = worst_violation <= 1e-12 and eq_defect <= ABS_EQUALITY
    announce(4, "purity never exceeds the sector bound", passed,
             f"worst violation {worst_violation:.2e} vs 1e-12, "
             f"infinite-temperature equality defect {eq_defect:.2e} vs "
             f"{ABS_EQUALITY:.0e}", capsys)


def test_criterion_05_energy_moments(capsys):
    from catlab.analysis import energy_moments_free_closed
    worst_mean = 0.0
    worst_var = 0.0
    for n in SIZES:
        for betah in FIELD_GRID:
            rho, h = signed_gibbs(n, betah)
            hmat = denseref.hamiltonian(n, h)
            for m in range(-n, n + 1, 2):
                proj = denseref.sector_projector(n, m, m)
                post, _ = denseref.project(rho, proj)
                mean = float(np.trace(post @ hmat).real)
                second = float(np.trace(post @ hmat @ hmat).real)
                closed = energy_moments_free_closed(n, m, abs(betah), h)
                worst_mean = max(worst_mean, abs(mean))
                var = second - mean * mean
                worst_var = max(worst_var,
                                abs(var - closed.variance) / abs(closed.variance))
    passed = worst_mean <= ABS_MEAN and worst_var <= REL_CLOSED
    announce(5, "post-measurement energy moments", passed,
             f"max |mean| {worst_mean:.2e} vs {ABS_MEAN:.0e}, "
             f"max variance rel err {worst_var:.2e} vs {REL_CLOSED:.0e}", capsys)


def test_criterion_06_coupling_expansion(capsys):
    n, m, h, j = 6, 0, 1.0, (0.3, 0.2, 0.4)
    mx = denseref.magnetization("x", n)
    proj = denseref.sector_projector(n, m, m)

    def dense_c(beta, field):
        hmat = denseref.hamiltonian(n, field, j)
        post, _ = denseref.project(denseref.gibbs(hmat, beta), proj)
        return denseref.catness(post, mx, proj)

    resid = [abs(dense_c(beta, h) - xyz_c_expansion(n, m, beta, h, j))
             for beta in (0.05, 0.025)]
    ratio = resid[0] / resid[1]
    evenness = abs(dense_c(0.05, h) - dense_c(0.05, -h)) / abs(dense_c(0.05, h))
    passed = 6.0 <= ratio <= 10.0 and evenness <= 1e-10
    announce(6, "coupled-chain expansion is second order and even in h", passed,
             f"halving ratio {ratio:.2f} vs [6, 10], "
             f"field evenness {evenness:.2e} vs 1e-10", capsys)


def test_criterion_07_witness_identities(capsys):
    vcm_err = 0.0
    for n in (2, 4, 6):
        vcm_err = max(vcm_err, abs(vcm(fixture_states("cat_plus", n)).e_max - n))
    w_err = 0.0
    for n in (3, 5):
        mix = fixture_states("rho_ex1", n)
        w_err = max(w_err, abs(np.trace(mix.mat @ witness_w(n).mat).real - 1.0))
    q_zero = q_functional(fixture_states("rho_ex2", 4), total_magnetization("z", 4))
    rng = np.random.default_rng(2024)
    half_err = 0.0
    a = total_magnetization("x", 4)
    mx = denseref.magnetization("x", 4)
    for _ in range(50):
        rho = as_state(denseref.random_density_matrix(4, rng))
        _, value = optimal_witness(rho, a)
        want = 0.5 * denseref.trace_norm(denseref.double_commutator(mx, rho.mat))
        half_err = max(half_err, abs(value - want) / max(want, 1e-300))
    passed = (vcm_err <= 1e-10 and w_err <= ABS_EQUALITY
              and abs(q_zero) <= ABS_EQUALITY and half_err <= 1e-10)
    announce(7, "witness identities and variance matrix", passed,
             f"cat e_max defect {vcm_err:.2e} vs 1e-10, "
             f"Tr[rho W] defect {w_err:.2e} vs {ABS_EQUALITY:.0e}, "
             f"commuting q {abs(q_zero):.2e} vs {ABS_EQUALITY:.0e}, "
             f"half-trace-norm rel err {half_err:.2e} vs 1e-10 over 50 states",
             capsys)


def test_criterion_08_growth_exponents(capsys):
    free_points = [(n, c_closed_form_free(n, 0, 1.0)) for n in (4, 6, 8, 10)]
    q_free, _ = fit_exponent(free_points, floor=True)
    mix_points = [(n, observable_search(fixture_states("rho_ex2", n),
                                        resolution=64).c_value)
                  for n in (6, 8, 10)]
    q_mix, _ = fit_exponent(mix_points, floor=True)
    passed = 1.85 <= q_free <= 2.0 and 0.95 <= q_mix <= 1.05
    announce(8, "size scaling of the catness", passed,
             f"thermal sweep exponent {q_free:.4f} vs [1.85, 2.0], "
             f"two-branch mixture exponent {q_mix:.4f} vs [0.95, 1.05]", capsys)


def test_criterion_09_measurement_settings(capsys):
    decomp = pauli_decomposition_c(4, 0)
    rebuilt = np.zeros((16, 16), dtype=complex)
    for letters, coeff in decomp.terms:
        rebuilt += coeff * denseref.string_operator(letters)
    want = denseref.double_commutator(denseref.magnetization("x", 4),
                                      denseref.sector_projector(4, 0, 0))
    rebuild_err = float(np.abs(rebuilt - want).max())
    bounds_ok = all(
        pauli_decomposition_c(n, 0).settings_count
        <= pauli_decomposition_c(n, 0).settings_bound()
        for n in (2, 4, 6))
    passed = rebuild_err <= 1e-10 and decomp.settings_count == 7 and bounds_ok
    announce(9, "measurement settings decomposition", passed,
             f"rebuild err {rebuild_err:.2e} vs 1e-10, "
             f"settings {decomp.settings_count} == 7 at four spins, "
             f"bound holds up to six spins: {bounds_ok}", capsys)


def test_criterion_10_feasibility_figures(capsys):
    report = feasibility_calc(FeasibilityInput(), rounded_constants=True)
    checks = (
        ("coherence", report.coherence_time, 4.7e-6),
        ("resolvable", report.resolvable_field, 60e-15),
        ("single spin", report.single_spin_field, 65e-15),
    )
    worst = max(abs(got - want) / want for _, got, want in checks)
    passed = worst <= FEAS_REL and report.feasible
    announce(10, "magnetometer feasibility figures", passed,
             f"max rel gap {worst:.3f} vs {FEAS_REL}, verdict feasible: "
             f"{report.feasible}", capsys)


def test_criterion_11_consistency_suite(capsys):
    n = 6
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), 1.0)
    suff = sufficient_conditions_check(
        total_magnetization("x", n), total_magnetization("z", n),
        rho, (0, 2, -2, 4))
    suff_worst = max(suff.condition_residuals)

    rng = np.random.default_rng(77)
    avg_worst = 0.0
    for _ in range(100):
        state = as_state(denseref.random_density_matrix(4, rng))
        avg_worst = max(avg_worst, averaged_identity_check(state).residual)

    from catlab.measure import double_projection_c, double_projection_dense
    dp_worst = 0.0
    for size in (4, 6, 8):
        for m_x in range(-size, size + 1, 2):
            for m_z in range(-size, size + 1, 2):
                got = double_projection_c(size, m_x, m_z)
                want = double_projection_dense(size, m_x, m_z)
                dp_worst = max(dp_worst, abs(got - want) / max(abs(want), 1.0))

    post = post_state(rho, OutcomeSpec.exact(0))
    evo = time_evolution_invariance(post, SpinHamiltonian(n=n, h=1.0),
                                    (0.4, 1.1, 3.0))
    drift = max(evo.residuals)
    passed = (suff_worst <= 1e-10 and avg_worst <= 1e-10
              and dp_worst <= REL_CLOSED and evo.applicable
              and drift <= DRIFT_TOL)
    announce(11, "consistency identities", passed,
             f"sector-escape residual {suff_worst:.2e} vs 1e-10, "
             f"averaged identity {avg_worst:.2e} vs 1e-10 over 100 states, "
             f"double projection {dp_worst:.2e} vs {REL_CLOSED:.0e}, "
             f"evolution drift {drift:.2e} vs {DRIFT_TOL:.0e}", capsys)


def test_criterion_12_pipeline_self_checks(tmp_path, capsys):
    oracle_cfg = tmp_path / "oracle.ini"
    oracle_cfg.write_text("[oracle]\nmax_n = 8\n", encoding="utf-8")
    start = time.perf_counter()
    rc = main(["oracle", "--config", str(oracle_cfg)])
    oracle_elapsed = time.perf_counter() - start
    capsys.readouterr()

    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text("[sweep]\nn_list = 4, 6, 8, 10\nbetah = 1.0\nm = 0\n",
                         encoding="utf-8")
    outputs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "catlab.cli", "sweep",
             "--config", str(sweep_cfg), "--out", str(out),
             "--workers", workers],
            capture_output=True, text=True, timeout=540,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    q_fit = read_csv(str(tmp_path / "w1.csv"))[0]["q_fit"]
    passed = rc == 0 and oracle_elapsed < 600.0 and identical
    announce(12, "oracle families and deterministic pipeline", passed,
             f"oracle exit {rc} in {oracle_elapsed:.1f}s of 600s, "
             f"worker outputs byte-identical: {identical}, "
             f"swept exponent {q_fit:.3f}", capsys)
