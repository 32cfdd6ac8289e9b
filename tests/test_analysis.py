"""Consistency checks, dynamics, measurement budgets, and feasibility."""

import math

import numpy as np
import pytest

import denseref
from catlab.analysis import (
    FeasibilityInput,
    averaged_identity_check,
    energy_moments_dense,
    energy_moments_free_closed,
    feasibility_calc,
    matching_equilibrium_beta,
    pauli_decomposition_c,
    purity_bound_free,
    sufficiency_ratio_exponent,
    sufficient_conditions_check,
    symmetry_even_in_h,
    time_evolution_invariance,
    transverse_moments,
)
from catlab.errors import ContractViolationError, DomainError
from catlab.indices import c_closed_form_free
from catlab.measure import OutcomeSpec, post_state
from catlab.spincore import as_state, pure_state, total_magnetization
from catlab.thermal import SpinHamiltonian, gibbs_state

RTOL = 1e-10


def free_post(n, betah, m=0):
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    return post_state(rho, OutcomeSpec.exact(m))


def test_purity_matches_trace_square():
    rho = free_post(4, 0.8)
    assert rho.purity == pytest.approx(np.trace(rho.mat @ rho.mat).real, rel=1e-13)


def test_purity_bound_holds_and_saturates_at_infinite_temperature():
    for n in (4, 6):
        for m in range(-n, n + 1, 2):
            for betah in (0.0, 0.4, 1.5):
                post = free_post(n, betah, m)
                bound = purity_bound_free(n, m, betah)
                assert post.purity <= bound + 1e-12
            assert free_post(n, m=m, betah=0.0).purity == pytest.approx(
                purity_bound_free(n, m, 0.0), abs=1e-12)


def test_energy_moments_closed_matches_dense():
    for n, m, betah in ((4, 0, 0.6), (6, 2, 1.2)):
        ham = SpinHamiltonian(n=n, h=1.0)
        post = free_post(n, betah, m)
        closed = energy_moments_free_closed(n, m, betah, 1.0)
        dense = energy_moments_dense(post, ham)
        assert closed.mean == 0.0
        assert dense.mean == pytest.approx(0.0, abs=1e-11)
        assert dense.variance == pytest.approx(closed.variance, rel=RTOL)


def test_energy_variance_closed_form_value():
    n, m, betah = 6, 2, 0.9
    t = math.tanh(betah)
    want = n + 0.5 * (n * n - m * m) * t * t
    assert energy_moments_free_closed(n, m, betah, 1.0).variance == pytest.approx(
        want, rel=1e-13)
    # the field strength scales quadratically
    assert energy_moments_free_closed(n, m, betah, 2.0).variance == pytest.approx(
        4.0 * want, rel=1e-13)


def test_transverse_moments_match_catness():
    n, m, betah = 5, 1, 1.0
    post = free_post(n, betah, m)
    mx_mean, my_mean, mx2 = transverse_moments(post)
    assert mx_mean == pytest.approx(0.0, abs=1e-11)
    assert my_mean == pytest.approx(0.0, abs=1e-11)
    assert 2.0 * mx2 == pytest.approx(c_closed_form_free(n, m, betah), rel=RTOL)


def test_matching_equilibrium_beta_roundtrip():
    n, h = 6, 1.3
    for beta in (0.2, 0.9):
        e_mean = -n * h * math.tanh(beta * h)
        assert matching_equilibrium_beta(e_mean, n, h) == pytest.approx(
            beta, rel=1e-12)
    with pytest.raises(DomainError):
        matching_equilibrium_beta(-n * h * 1.01, n, h)
    with pytest.raises(DomainError):
        matching_equilibrium_beta(0.0, n, 0.0)


def test_symmetry_even_in_h_free_field():
    report = symmetry_even_in_h(
        lambda g: SpinHamiltonian(n=4, h=g), betah_grid=(0.3, 1.0))
    assert max(report.z_residual) <= 1e-11
    assert max(report.c_residual) <= 1e-11
    assert report.rz_residual <= 1e-12


def test_symmetry_report_flags_odd_control_term():
    # an explicit longitudinal bias breaks the h -> -h equivalence
    def build(g):
        return SpinHamiltonian(n=4, h=g, j=(0.0, 0.0, 0.3 * g))

    report = symmetry_even_in_h(build, betah_grid=(0.8,))
    assert report.rz_residual > 1e-3


def test_sufficient_conditions_on_free_post_state():
    n, betah = 6, 1.0
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    a = total_magnetization("x", n)
    b = total_magnetization("z", n)
    outcomes = (0, 2, -2)
    report = sufficient_conditions_check(a, b, rho, outcomes)
    assert report.skipped == ()
    assert max(report.condition_residuals) <= 1e-10
    t = math.tanh(betah)
    for m, ratio in zip(report.outcomes, report.second_moment_ratios):
        want = n + 0.5 * (n * n - m * m) * t * t
        assert ratio == pytest.approx(want, rel=1e-10)


def test_sufficient_conditions_skips_impossible_outcomes():
    n = 4
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0  # the all-up state only ever reports magnetization n
    rho = pure_state(vec)
    a = total_magnetization("x", n)
    b = total_magnetization("z", n)
    report = sufficient_conditions_check(a, b, rho, (n, n - 2))
    assert report.skipped == (float(n - 2),)
    assert math.isnan(report.condition_residuals[1])
    assert math.isnan(report.second_moment_ratios[1])
    assert report.condition_residuals[0] <= 1e-10


def test_sufficient_conditions_rejects_non_eigenvalues():
    rho = free_post(4, 0.5)
    a = total_magnetization("x", 4)
    b = total_magnetization("z", 4)
    with pytest.raises(DomainError):
        sufficient_conditions_check(a, b, rho, (1,))


def test_sufficient_conditions_needs_a_z_diagonal_measured_observable():
    rho = free_post(4, 0.5)
    mx = total_magnetization("x", 4)
    with pytest.raises(ContractViolationError):
        sufficient_conditions_check(mx, mx, rho, (0,))


def test_sufficiency_ratio_exponent_near_quadratic():
    q, err = sufficiency_ratio_exponent((4, 6, 8), betah=1.0)
    assert q == pytest.approx(1.862546228971793, abs=1e-9)
    assert math.isnan(err)  # three sizes leave no residual degree of freedom


def test_averaged_identity_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = as_state(denseref.random_density_matrix(4, rng))
        report = averaged_identity_check(rho)
        assert report.residual <= 1e-10
        assert report.skipped == ()


def test_averaged_identity_plus_state_value():
    for n in (3, 5):
        vec = np.ones(2**n, dtype=complex)
        report = averaged_identity_check(pure_state(vec))
        assert report.averaged_c == pytest.approx(float(n * n + n), rel=1e-12)
        assert report.pinched_value == pytest.approx(report.averaged_c, rel=1e-12)


def test_time_evolution_preserves_optimal_catness():
    n = 6
    post = free_post(n, 1.0)
    ham = SpinHamiltonian(n=n, h=1.0, j=(0.5, 0.0, 0.0))
    report = time_evolution_invariance(post, ham, (0.0, 0.7, 2.3))
    assert report.applicable
    assert report.notice == ""
    assert report.outcome_window == (0, 0)
    assert max(report.residuals) <= 1e-9


def test_time_evolution_flags_non_commuting_hamiltonian():
    post = free_post(4, 1.0)
    ham = SpinHamiltonian(n=4, h=1.0, j=(0.0, 0.0, 0.4))
    report = time_evolution_invariance(post, ham, (0.5,))
    assert not report.applicable
    assert "commute" in report.notice


def string_to_matrix(letters):
    return denseref.string_operator(letters)


def test_pauli_decomposition_rebuilds_double_commutator():
    n, m = 4, 0
    decomp = pauli_decomposition_c(n, m)
    rebuilt = np.zeros((2**n, 2**n), dtype=complex)
    for letters, coeff in decomp.terms:
        rebuilt += coeff * string_to_matrix(letters)
    mx = denseref.magnetization("x", n)
    proj = denseref.sector_projector(n, m, m)
    want = denseref.double_commutator(mx, proj)
    np.testing.assert_allclose(rebuilt, want, atol=1e-10)


def test_pauli_decomposition_setting_count():
    decomp = pauli_decomposition_c(4, 0)
    assert len(decomp.terms) == 19
    assert decomp.settings_count == 7
    assert decomp.settings_bound() == 7
    for n in (2, 4, 6):
        d = pauli_decomposition_c(n, 0)
        assert d.settings_count <= d.settings_bound()


def test_pauli_decomposition_settings_are_compatible():
    # every term must be readable from its assigned measurement setting:
    # wherever the term acts nontrivially the setting prescribes that axis
    decomp = pauli_decomposition_c(4, 0)
    assert len(decomp.assignments) == len(decomp.terms)
    for (letters, _), setting_idx in zip(decomp.terms, decomp.assignments):
        setting = decomp.settings[setting_idx]
        for site, letter in enumerate(letters):
            if letter != "i":
                assert setting[site] == letter, f"{letters} vs {setting}"


def test_feasibility_defaults_precise_constants():
    report = feasibility_calc(FeasibilityInput())
    assert report.coherence_time == pytest.approx(4.7e-6, rel=1e-12)
    assert report.readout_window == pytest.approx(3.525e-6, rel=1e-12)
    assert report.resolvable_field == pytest.approx(60.26e-15, rel=1e-3)
    assert report.single_spin_field == pytest.approx(68.7e-15, rel=1e-2)
    assert report.feasible
    assert report.constants_used == "precise"


def test_feasibility_rounded_constants():
    report = feasibility_calc(FeasibilityInput(), rounded_constants=True)
    assert report.single_spin_field == pytest.approx(65.78e-15, rel=1e-3)
    assert report.constants_used == "rounded"
    assert report.feasible


def test_feasibility_flips_at_large_standoff():
    report = feasibility_calc(FeasibilityInput(distance_r=6e-6))
    assert not report.feasible  # dipole field falls off cubically


def test_feasibility_rejects_bad_inputs():
    with pytest.raises(DomainError):
        feasibility_calc(FeasibilityInput(tau_single=0.0))
    with pytest.raises(DomainError):
        feasibility_calc(FeasibilityInput(n_spins=0))
