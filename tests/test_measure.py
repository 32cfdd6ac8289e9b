"""Outcome distributions, post-measurement states, and sampling."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseref
from catlab.analysis import (energy_moments_dense, sufficient_conditions_check,
                             transverse_moments)
from catlab.errors import ImpossibleOutcomeError, InvalidOutcomeError
from catlab.indices import expect_c
from catlab.measure import (
    OutcomeSpec,
    double_projection_c,
    double_projection_dense,
    outcome_distribution,
    outcome_probability,
    post_state,
    sample_outcome,
)
from catlab.spincore import (QuantumState, as_state, mz_projector, pure_state,
                             total_magnetization)
from catlab.thermal import SpinHamiltonian, gibbs_state

ATOL = 1e-12


def free_gibbs(n, betah):
    return gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)


def test_outcome_spec_kinds():
    exact = OutcomeSpec.exact(2)
    window = OutcomeSpec.interval(-2, 4)
    assert exact.is_exact and not window.is_exact
    assert (exact.m_lo, exact.m_hi) == (2, 2)
    assert (window.m_lo, window.m_hi) == (-2, 4)


def test_outcome_spec_projector_and_mask():
    spec = OutcomeSpec.interval(0, 2)
    proj = spec.projector(4)
    np.testing.assert_allclose(proj.mat, denseref.sector_projector(4, 0, 2),
                               atol=ATOL)
    mask = spec.mask(4)
    np.testing.assert_array_equal(mask, np.diag(proj.mat).real.astype(bool))


def test_distribution_support_and_normalization():
    n = 5
    dist = outcome_distribution(free_gibbs(n, 0.8))
    assert list(dist.support) == list(range(-n, n + 1, 2))
    np.testing.assert_allclose(sum(dist.probs), 1.0, atol=1e-13)
    assert min(dist.probs) >= 0.0


def test_distribution_matches_diagonal_sums():
    n, betah = 4, 1.2
    rho = free_gibbs(n, betah)
    dist = outcome_distribution(rho)
    vals = denseref.mz_eigenvalues(n)
    diag = np.diag(rho.mat).real
    for m, p in zip(dist.support, dist.probs):
        assert p == pytest.approx(diag[vals == m].sum(), abs=1e-14)


def test_outcome_probability_interval_adds_sectors():
    rho = free_gibbs(6, 0.9)
    dist = outcome_distribution(rho)
    want = sum(p for m, p in zip(dist.support, dist.probs) if -2 <= m <= 2)
    got = outcome_probability(rho, OutcomeSpec.interval(-2, 2))
    assert got == pytest.approx(want, rel=1e-13)


def test_post_state_matches_reference_projection():
    n, m, betah = 5, 1, 1.0
    rho = free_gibbs(n, betah)
    got = post_state(rho, OutcomeSpec.exact(m))
    want, _ = denseref.project(rho.mat, denseref.sector_projector(n, m, m))
    np.testing.assert_allclose(got.mat, want, atol=ATOL)
    assert np.trace(got.mat).real == pytest.approx(1.0, rel=1e-13)


def test_post_state_is_projection_idempotent():
    rho = free_gibbs(4, 0.7)
    once = post_state(rho, OutcomeSpec.exact(0))
    twice = post_state(once, OutcomeSpec.exact(0))
    np.testing.assert_allclose(once.mat, twice.mat, atol=ATOL)


def test_post_state_impossible_outcome():
    vec = np.zeros(2**4, dtype=complex)
    vec[0] = 1.0  # all spins up, so the magnetization is exactly n
    rho = pure_state(vec)
    with pytest.raises(ImpossibleOutcomeError):
        post_state(rho, OutcomeSpec.exact(0))


def test_outcome_parity_is_enforced():
    rho = free_gibbs(4, 0.5)
    with pytest.raises(InvalidOutcomeError):
        outcome_probability(rho, OutcomeSpec.exact(3))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_random_states_give_normalized_distributions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    rho = as_state(denseref.random_density_matrix(n, rng))
    dist = outcome_distribution(rho)
    assert min(dist.probs) >= -1e-14
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_sample_outcome_deterministic_per_seed():
    dist = outcome_distribution(free_gibbs(6, 1.0))
    first = sample_outcome(dist, 12345)
    assert first == sample_outcome(dist, 12345)
    assert first in set(dist.support)
    draws = {sample_outcome(dist, s) for s in range(40)}
    assert len(draws) > 1


def test_sample_outcome_frequencies_track_probabilities():
    dist = outcome_distribution(free_gibbs(4, 1.0))
    counts = {m: 0 for m in dist.support}
    shots = 4000
    for s in range(shots):
        counts[sample_outcome(dist, s)] += 1
    for m, p in zip(dist.support, dist.probs):
        assert counts[m] / shots == pytest.approx(p, abs=0.03)


def test_double_projection_closed_matches_dense():
    for n in (4, 6):
        for m_x in range(-n, n + 1, 2):
            for m_z in range(-n, n + 1, 2):
                got = double_projection_c(n, m_x, m_z)
                want = double_projection_dense(n, m_x, m_z)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_double_projection_dense_matches_reference():
    # project onto a transverse sector, then a longitudinal one, and witness
    # with the longitudinal projector itself
    n, m_x, m_z = 4, 2, 0
    mx = denseref.magnetization("x", n)
    wx, vx = np.linalg.eigh(mx)
    cols = vx[:, np.abs(wx - m_x) < 1e-9]
    px = cols @ cols.conj().T
    rho = px / np.trace(px).real
    pz = denseref.sector_projector(n, m_z, m_z)
    post, _ = denseref.project(rho, pz)
    want = denseref.catness(post, mx, pz)
    assert double_projection_dense(n, m_x, m_z) == pytest.approx(want, rel=1e-10)


def test_row_path_never_assembles_the_gibbs_matrix():
    n = 8
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0, j=(0.2, 0.1, 0.3)), 0.9)
    spec = OutcomeSpec.exact(0)
    prob = outcome_probability(rho, spec)
    post = post_state(rho, spec)
    dist = outcome_distribution(rho)
    assert "mat" not in vars(rho)
    want, want_prob = denseref.project(rho.mat, denseref.sector_projector(n, 0, 0))
    assert prob == pytest.approx(want_prob, rel=1e-13)
    assert dist.probs[n // 2] == pytest.approx(want_prob, rel=1e-13)
    np.testing.assert_allclose(post.mat, want, atol=ATOL)


_XYZ8 = SpinHamiltonian(n=8, h=1.0, j=(0.2, 0.1, 0.3))
_MX8, _MZ8 = total_magnetization("x", 8), total_magnetization("z", 8)


def _sufficiency(rho):
    report = sufficient_conditions_check(_MX8, _MZ8, rho, (0, 2, -4))
    return (*report.probabilities, *report.condition_residuals,
            *report.second_moment_ratios)


_KERNEL_READS = {
    "energy_moments_dense": lambda rho: astuple(energy_moments_dense(rho, _XYZ8)),
    "transverse_moments": transverse_moments,
    "expect_c": lambda rho: expect_c(rho, _MX8, mz_projector(8, 0)),
    "outcome_distribution": lambda rho: outcome_distribution(rho).probs,
    "sufficient_conditions_check": _sufficiency,
}


@pytest.mark.parametrize("read", sorted(_KERNEL_READS))
def test_kernel_reads_never_assemble_the_gibbs_matrix(read):
    rho = gibbs_state(_XYZ8, 0.9)
    got = _KERNEL_READS[read](rho)
    assert "mat" not in vars(rho)
    want = _KERNEL_READS[read](QuantumState(denseref.gibbs(denseref.hamiltonian(
        8, 1.0, (0.2, 0.1, 0.3)), 0.9)))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
