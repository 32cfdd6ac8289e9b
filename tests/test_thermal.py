"""Hamiltonians, Gibbs states, log partitions, and coupling expansions."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

import denseref
from catlab.errors import DomainError
from catlab.measure import OutcomeSpec, outcome_probability
from catlab.spincore import symmetry_eigh
from catlab.thermal import (
    SpinHamiltonian,
    gibbs_state,
    ground_state,
    log_free_partition_eq,
    log_free_partition_post,
    log_interval_partition_post,
    sector_zz_mean,
    sector_zz_sq_mean,
    xyz_c_expansion,
    xyz_c_expansion_jperp,
    zpost_xyz_expansion,
)

RTOL = 1e-12


def test_bond_list_periodic_vs_open():
    assert list(SpinHamiltonian(n=4, h=1.0).bonds()) == [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert list(SpinHamiltonian(n=4, h=1.0, boundary="open").bonds()) == [
        (1, 2), (2, 3), (3, 4)]
    # a ring of two sites would duplicate the single bond
    assert list(SpinHamiltonian(n=2, h=1.0).bonds()) == [(1, 2)]


def test_is_free_flag():
    assert SpinHamiltonian(n=4, h=1.0).is_free
    assert not SpinHamiltonian(n=4, h=1.0, j=(0.1, 0.0, 0.0)).is_free


KERNEL_SIZES = (1, 2, 3, 4, 5, 8)


def test_realize_matches_reference():
    # built by bit flips and signs; jy != 0 exercises the -z_a z_b entry
    for n in KERNEL_SIZES:
        for boundary in ("periodic", "open"):
            ham = SpinHamiltonian(n=n, h=0.8, j=(0.3, 0.2, 0.4), boundary=boundary)
            want = denseref.hamiltonian(n, 0.8, (0.3, 0.2, 0.4), boundary)
            np.testing.assert_allclose(ham.realize().mat, want, atol=1e-12)


def test_gibbs_state_matches_expm():
    # flip-parity block eigensolves against a full-space matrix exponential
    for n in KERNEL_SIZES:
        for boundary in ("periodic", "open"):
            ham = SpinHamiltonian(n=n, h=0.7, j=(0.2, 0.1, 0.3), boundary=boundary)
            rho = gibbs_state(ham, beta=0.9)
            want = denseref.gibbs(denseref.hamiltonian(n, 0.7, (0.2, 0.1, 0.3),
                                                       boundary), 0.9)
            np.testing.assert_allclose(rho.mat, want, atol=1e-12)
            assert np.trace(rho.mat).real == pytest.approx(1.0, rel=RTOL)


SYMMETRY_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)


def _dense_ground(hmat):
    w, v = np.linalg.eigh(hmat)
    vecs = v[:, w <= w[0] + 1e-9 * max(1.0, abs(w[0]))]
    return vecs @ vecs.conj().T / vecs.shape[1]


def test_symmetry_blocks_match_dense_reference():
    # n = 6 holds 010101, whose translation period is 2 and for which T s = F s;
    # the flip maps the m = +2 window onto m = -2, outside itself
    j = (0.2, 0.1, 0.3)
    for n in SYMMETRY_SIZES:
        vals = denseref.mz_eigenvalues(n)
        low = n % 2
        windows = [vals == m for m in (low, low + 2, -low - 2) if abs(m) <= n]
        windows.append((vals >= -1) & (vals <= 3))
        for boundary in ("periodic", "open"):
            ham = SpinHamiltonian(n=n, h=0.7, j=j, boundary=boundary)
            hmat = denseref.hamiltonian(n, 0.7, j, boundary)
            want = denseref.gibbs(hmat, 0.9)
            rho = gibbs_state(ham, beta=0.9)
            np.testing.assert_allclose(rho.diagonal(), np.diag(want).real, atol=1e-12)
            for mask in windows:
                np.testing.assert_allclose(rho.block(mask), want[np.ix_(mask, mask)],
                                           atol=1e-12)
            assert rho.purity == pytest.approx(np.trace(want @ want).real, rel=1e-12)
            np.testing.assert_allclose(rho.mat, want, atol=1e-12)
            np.testing.assert_allclose(ground_state(ham).mat, _dense_ground(hmat),
                                       atol=1e-12)


def test_ground_state_free_field_is_polarized():
    ham = SpinHamiltonian(n=3, h=1.0)
    rho = ground_state(ham)
    assert rho.purity == pytest.approx(1.0, abs=1e-12)
    plus = np.ones(8) / math.sqrt(8.0)
    np.testing.assert_allclose(rho.mat, np.outer(plus, plus), atol=1e-12)


def test_ground_state_degenerate_becomes_uniform_mixture():
    rho = ground_state(SpinHamiltonian(n=3, h=0.0))
    np.testing.assert_allclose(rho.mat, np.eye(8) / 8.0, atol=1e-12)


def test_ground_state_degeneracy_spans_both_parity_sectors():
    # at h = 0 the ferromagnetic ring's two aligned states are its ground
    # space; (|up..up> +/- |down..down>)/sqrt(2) are translation invariant
    # (momentum 0) and lie in opposite flip characters
    for n in (2, 3, 5):
        ham = SpinHamiltonian(n=n, h=0.0, j=(0.0, 0.0, 1.0))
        spec = symmetry_eigh(ham.terms(), translation=True)
        # rows 0 and 1 are momentum 0 with flip character +1 and -1
        even, odd = spec.energies[0].min(), spec.energies[1].min()
        assert even == pytest.approx(odd, abs=1e-12)
        assert even == pytest.approx(spec.energies.min(), abs=1e-12)
        want = np.zeros((2**n, 2**n))
        want[0, 0] = want[-1, -1] = 0.5
        np.testing.assert_allclose(ground_state(ham).mat, want, atol=1e-12)


def test_log_free_partition_eq_matches_dense_trace():
    for n in (2, 5, 8):
        for betah in (0.0, 0.3, 1.0, 3.0):
            hmat = denseref.hamiltonian(n, 1.0)
            want = math.log(np.trace(denseref.scipy.linalg.expm(-betah * hmat)).real)
            assert log_free_partition_eq(n, betah) == pytest.approx(want, rel=1e-12)


def test_log_free_partition_eq_large_n_normalization():
    n = 1000
    betah = 0.7
    shifted = log_free_partition_eq(n, betah) - n * math.log(2.0 * math.cosh(betah))
    assert abs(shifted) <= 1e-9


def test_log_free_partition_post_matches_projected_trace():
    for n in (3, 6):
        for m in range(-n, n + 1, 2):
            hmat = denseref.hamiltonian(n, 1.0)
            proj = denseref.sector_projector(n, m, m)
            want = math.log(np.trace(
                proj @ denseref.scipy.linalg.expm(-0.8 * hmat) @ proj).real)
            got = log_free_partition_post(n, m, 0.8)
            assert got == pytest.approx(want, rel=1e-12)


def test_partition_difference_is_outcome_probability():
    n, m, betah = 6, 2, 1.1
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    prob = outcome_probability(rho, OutcomeSpec.exact(m))
    want = math.exp(log_free_partition_post(n, m, betah)
                    - log_free_partition_eq(n, betah))
    assert prob == pytest.approx(want, rel=1e-11)


def test_interval_partition_sums_snapped_sectors():
    n, betah = 7, 0.9
    got = log_interval_partition_post(n, -2, 4, betah)
    sectors = [m for m in range(-n, n + 1, 2) if -2 <= m <= 4]
    want = logsumexp([log_free_partition_post(n, m, betah) for m in sectors])
    assert got == pytest.approx(want, rel=1e-13)


def test_interval_partition_full_range_is_equilibrium():
    n, betah = 9, 1.3
    assert log_interval_partition_post(n, -n, n, betah) == pytest.approx(
        log_free_partition_eq(n, betah), rel=1e-13)


def enumerate_bond_sums(n, m):
    vals = denseref.mz_eigenvalues(n)
    idx = np.flatnonzero(vals == m)
    sums = []
    for k in idx:
        z = [1.0 - 2.0 * ((int(k) >> (n - s)) & 1) for s in range(1, n + 1)]
        sums.append(sum(z[i] * z[(i + 1) % n] for i in range(n)))
    return np.array(sums)


def test_sector_zz_mean_matches_enumeration():
    for n in (3, 5, 6):
        for m in range(-n, n + 1, 2):
            want = enumerate_bond_sums(n, m).mean()
            assert sector_zz_mean(n, m) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_sector_zz_sq_mean_matches_enumeration():
    for n in (4, 6):
        for m in range(-n, n + 1, 2):
            want = (enumerate_bond_sums(n, m) ** 2).mean()
            assert sector_zz_sq_mean(n, m) == pytest.approx(want, rel=1e-12)
    # fully polarized sector: every bond aligned, the sum is n
    assert sector_zz_sq_mean(5, 5) == pytest.approx(25.0, rel=1e-12)


def dense_catness(n, m, beta, h, j):
    hmat = denseref.hamiltonian(n, h, j)
    rho = denseref.gibbs(hmat, beta)
    post, _ = denseref.project(rho, denseref.sector_projector(n, m, m))
    mx = denseref.magnetization("x", n)
    eta = denseref.sector_projector(n, m, m)
    return denseref.catness(post, mx, eta)


def test_xyz_expansion_residual_shrinks_cubically():
    n, m, h, j = 6, 0, 1.0, (0.3, 0.2, 0.4)
    resid = []
    for beta in (0.05, 0.025):
        resid.append(abs(dense_catness(n, m, beta, h, j)
                         - xyz_c_expansion(n, m, beta, h, j)))
    ratio = resid[0] / resid[1]
    assert 6.0 <= ratio <= 10.0


def test_xyz_expansion_free_limit_matches_closed_form():
    # with all couplings off the expansion is the closed form truncated at
    # second order in beta, so the gap is the quartic tail of tanh^2
    from catlab.indices import c_closed_form_free
    n, m, betah = 6, 2, 0.08
    got = xyz_c_expansion(n, m, betah, 1.0, (0.0, 0.0, 0.0))
    want = c_closed_form_free(n, m, betah)
    assert abs(got - want) <= (n * n - m * m) * betah**4


def test_jperp_expansion_cube_law_at_unit_coupling():
    n, m, h, jx, jp = 6, 0, 1.0, 0.3, 1.0
    resid = []
    for beta in (0.05, 0.025):
        dense = dense_catness(n, m, beta, h, (jx, jp, jp))
        resid.append(abs(dense - xyz_c_expansion_jperp(n, m, beta, h, jx, jp)))
    ratio = resid[0] / resid[1]
    assert 6.0 <= ratio <= 10.0


def test_zpost_expansion_residual_order():
    n, m, h, j = 6, 0, 1.0, (0.3, 0.2, 0.4)
    resid = []
    for beta in (0.05, 0.025):
        hmat = denseref.hamiltonian(n, h, j)
        proj = denseref.sector_projector(n, m, m)
        dense = np.trace(proj @ denseref.scipy.linalg.expm(-beta * hmat) @ proj).real
        resid.append(abs(dense - zpost_xyz_expansion(n, m, beta, h, j)))
    ratio = resid[0] / resid[1]
    assert 6.0 <= ratio <= 14.0


def test_expansions_reject_tiny_chains():
    with pytest.raises(DomainError):
        xyz_c_expansion(2, 0, 0.1, 1.0, (0.1, 0.1, 0.1))
    with pytest.raises(DomainError):
        xyz_c_expansion_jperp(2, 0, 0.1, 1.0, 0.1, 0.1)
