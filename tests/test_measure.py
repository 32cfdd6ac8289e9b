"""Outcome distributions, post-measurement states, and sampling."""

import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from numpy.random import Generator, Philox
from hypothesis import given, settings, strategies as st

import denseref
from catlab import cli, measure, spincore
from catlab.analysis import (averaged_identity_check, energy_moments_dense,
                             sufficient_conditions_check, transverse_moments)
from catlab.errors import ImpossibleOutcomeError, InvalidOutcomeError
from catlab.indices import expect_c
from catlab.measure import (
    OutcomeSpec,
    double_projection_c,
    double_projection_dense,
    outcome_distribution,
    outcome_probability,
    post_state,
    sample_outcomes,
)
from catlab.spincore import (QuantumState, SpectralState, additive_observable,
                             as_state, mz_projector, pauli_terms, pure_state,
                             total_magnetization)
from catlab.thermal import SpinHamiltonian, gibbs_state, ground_state

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
    np.testing.assert_allclose(proj.dense(), denseref.sector_projector(4, 0, 2),
                               atol=ATOL)
    mask = spec.mask(4)
    np.testing.assert_array_equal(mask, np.diag(proj.dense()).astype(bool))


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
    first = sample_outcomes(dist, 12345)
    assert first == sample_outcomes(dist, 12345)
    assert first in set(dist.support)
    draws = {sample_outcomes(dist, s) for s in range(40)}
    assert len(draws) > 1
    batch = sample_outcomes(dist, np.array([12345, 12345, *range(40)]))
    assert batch[0] == batch[1] == first
    assert set(batch[2:].tolist()) == draws


def test_sample_outcome_frequencies_track_probabilities():
    dist = outcome_distribution(free_gibbs(4, 1.0))
    counts = {m: 0 for m in dist.support}
    shots = 4000
    for s in range(shots):
        counts[sample_outcomes(dist, s)] += 1
    batch = sample_outcomes(dist, np.arange(shots, dtype=np.uint64))
    for m, p in zip(dist.support, dist.probs):
        assert counts[m] / shots == pytest.approx(p, abs=0.03)
        assert np.count_nonzero(batch == m) == counts[m]


# reference draws of numpy's Generator(Philox(key=seed & (2**64 - 1))), one
# Generator per seed
_PINNED_SEEDS = [0, 1, 2, 3, 7, 42, 99, 12345, -1, -12345, 2**31, 2**32 + 5,
                 2**53 + 1, 2**63, 2**63 + 17, 2**64 - 1, 2**64, 2**64 + 12345,
                 3 * 2**64 + 7, 0xDEADBEEFCAFEBABE]
_PINNED_DRAWS = [-6, -2, 0, 4, 2, 2, -4, 0, -2, 0, 2, -2, -4, 4, -4, -2, -6, 0, 2, 2]


def test_sample_outcome_keeps_its_pinned_draws():
    dist = outcome_distribution(free_gibbs(6, 1.0))
    assert [sample_outcomes(dist, s) for s in _PINNED_SEEDS] == _PINNED_DRAWS
    # a seed outside [0, 2**64) is reduced mod 2**64 before it keys the draw
    keys = np.array([s & ((1 << 64) - 1) for s in _PINNED_SEEDS], dtype=np.uint64)
    assert sample_outcomes(dist, keys).tolist() == _PINNED_DRAWS


def test_philox_draw_matches_numpy_generator_bit_for_bit():
    rng = np.random.default_rng(20240611)
    keys = np.concatenate([
        rng.integers(0, 2**64 - 1, size=10_000, dtype=np.uint64, endpoint=True),
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)])
    want = np.array([Generator(Philox(key=int(k))).random() for k in keys])
    got = measure._philox_uniform(keys)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # an int key runs the same arithmetic and gives the same bits
    for k, w in zip(keys[-4:], want[-4:]):
        assert np.float64(measure._philox_uniform(int(k))).view(np.uint64) == w.view(np.uint64)


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


@pytest.mark.parametrize("n", [2, 3, 5])
def test_double_projection_dense_matches_reference_at_every_outcome(n):
    mx = denseref.magnetization("x", n)
    wx, vx = np.linalg.eigh(mx)
    for m_x in range(-n, n + 1, 2):
        cols = vx[:, np.abs(wx - m_x) < 1e-9]
        rho = cols @ cols.conj().T / cols.shape[1]
        for m_z in range(-n, n + 1, 2):
            pz = denseref.sector_projector(n, m_z, m_z)
            want = denseref.catness(denseref.project(rho, pz)[0], mx, pz)
            assert double_projection_dense(n, m_x, m_z) == pytest.approx(want, rel=1e-12,
                                                                          abs=1e-12)


def test_double_projection_dense_builds_no_dense_matrix():
    tracemalloc.start()
    try:
        value = double_projection_dense(10, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(double_projection_c(10, 0, 0), rel=1e-12)
    assert peak <= 16 << 20  # one dense 2^10 x 2^10 complex matrix is 16 MB


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


def _averaged(rho):
    report = averaged_identity_check(rho)
    return report.averaged_c, report.pinched_value


_KERNEL_READS = {
    "averaged_identity_check": _averaged,
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


_J = (0.2, 0.1, 0.3)


def _window_cases(n):
    """(state, its dense reference) pairs: a Gibbs and a ground state on each
    boundary and a random dense state."""
    for boundary in ("periodic", "open"):
        ham = SpinHamiltonian(n=n, h=0.7, j=_J, boundary=boundary)
        hmat = denseref.hamiltonian(n, 0.7, _J, boundary)
        yield gibbs_state(ham, 0.9), denseref.gibbs(hmat, 0.9)
        yield ground_state(ham), denseref.ground(hmat)
    dense = denseref.random_density_matrix(n, np.random.default_rng(n))
    yield QuantumState(dense), dense


def _pauli_sums(n):
    """Hermitian Pauli sums whose traces the window state must reproduce:
    H, Mx (which leaves every exact window), Mx^2 and a site-dependent sum
    with complex amplitudes."""
    rng = np.random.default_rng(100 + n)
    mx = total_magnetization("x", n).terms()
    bonds = [(s, s + 1, tuple(rng.standard_normal(3))) for s in range(1, n)]
    return [SpinHamiltonian(n=n, h=0.7, j=_J).terms(), mx, mx @ mx,
            pauli_terms(n, rng.standard_normal((n, 3)), bonds)]


@pytest.mark.parametrize("n", range(1, 9))
def test_window_state_matches_dense_reference(n):
    low = n % 2
    inner = OutcomeSpec.exact(low)
    specs = (inner, OutcomeSpec.exact(-n), OutcomeSpec.interval(-1, 3),
             OutcomeSpec.interval(-1, 1), OutcomeSpec.interval(-2, 2))
    rng = np.random.default_rng(n)
    rows, cols = rng.integers(0, 2**n, (2, 40))
    mask = rng.random(2**n) < 0.5
    picked = np.flatnonzero(mask)
    sums = _pauli_sums(n)
    dense_sums = [(terms, tmat, tmat @ tmat) for terms in sums for tmat in [terms.dense()]]
    mx, mx_dense = total_magnetization("x", n).terms(), denseref.magnetization("x", n)
    witnesses = {}

    def check_sums(post, want, picked_sums):
        for terms, tmat, tmat2 in picked_sums:
            assert post.expect(terms) == pytest.approx(np.einsum("ij,ji->", want, tmat),
                                                       rel=1e-12, abs=ATOL)
            assert post.expect(terms, terms) == pytest.approx(
                np.einsum("ij,ji->", want, tmat2), rel=1e-12, abs=ATOL)

    def check_catness(post, want, eta):
        # Tr[rho [Mx, [Mx, P]]], the dense double commutator taken once per window
        key = (eta.m_lo, eta.m_hi)
        if key not in witnesses:
            witnesses[key] = denseref.double_commutator(mx_dense, denseref.sector_projector(n, *key))
        want_c = np.einsum("ij,ji->", want, witnesses[key]).real
        assert post.catness(mx, eta.projector(n)) == pytest.approx(want_c, rel=1e-12, abs=ATOL)

    for rho, dense in _window_cases(n):
        for spec in specs:
            post = post_state(rho, spec)
            want, _ = denseref.project(dense, denseref.sector_projector(n, spec.m_lo, spec.m_hi))
            window = spec.mask(n)
            # the global flip reverses the basis order: a mirrored window
            # commutes with every symmetry group
            kept = isinstance(rho, SpectralState) and np.array_equal(window, window[::-1])
            assert isinstance(post, SpectralState) == kept
            np.testing.assert_allclose(post.diagonal(), np.diag(want), atol=ATOL)
            assert post.purity == pytest.approx(np.trace(want @ want).real, rel=1e-12)
            np.testing.assert_array_equal(post.support(), np.flatnonzero(window))
            check_catness(post, want, spec)
            check_catness(post, want, OutcomeSpec.interval(-n, n))
            check_sums(post, want, dense_sums[:3])
            if kept:
                # every read of an invariant sum came from the factors and the blocks
                assert "_table" not in vars(post)
            check_catness(post, want, inner)
            check_sums(post, want, dense_sums[3:])
            np.testing.assert_allclose(post.entries(rows, cols), want[rows, cols], atol=ATOL)
            np.testing.assert_allclose(post.entries(picked[:, None], picked),
                                       want[np.ix_(mask, mask)], atol=ATOL)
            if isinstance(rho, SpectralState):
                assert np.isrealobj(post.entries(picked[:, None], picked))
            assert "mat" not in vars(post)
            reference = QuantumState(post.mat)
            np.testing.assert_allclose(post.mat, want, atol=ATOL)
            for terms in sums:
                assert terms.expect(post) == pytest.approx(terms.expect(reference),
                                                           rel=1e-12, abs=ATOL)
            if spec is not specs[1]:
                twice = post_state(post, inner)
                want_twice, _ = denseref.project(want, denseref.sector_projector(n, low, low))
                np.testing.assert_allclose(twice.mat, want_twice, atol=ATOL)


def test_window_purity_is_an_accurate_sum():
    # a BLAS dot over every d^2 entry of the embedded state is 3e-13 off here
    spec = OutcomeSpec.interval(-4, 4)
    post = post_state(gibbs_state(SpinHamiltonian(n=10, h=1.0), 1.0), spec)
    rows = np.flatnonzero(spec.mask(10))
    block = post.entries(rows[:, None], rows)
    want = math.fsum((np.conj(block) * block).real.ravel())
    assert abs(post.purity - want) <= 1e-14 * want


def _dense_sufficiency(coeffs, dense, outcomes):
    n = coeffs.shape[0]
    amat = sum(c * denseref.site_operator(axis, s + 1, n)
               for s in range(n) for axis, c in zip("xyz", coeffs[s]))
    vals = denseref.mz_eigenvalues(n)
    resids, ratios = [], []
    for m in outcomes:
        block = np.ix_(vals == m, vals == m)
        prob = np.trace(dense[block]).real
        resids.append(np.linalg.norm(amat[block], axis=0).max())
        ratios.append(np.trace(dense[block] @ (amat @ amat)[block]).real / prob)
    return resids, ratios


def test_sufficiency_matches_dense_reference_for_a_site_dependent_observable():
    n, outcomes = 8, (0, 2, -4)
    coeffs = np.random.default_rng(8).standard_normal((n, 3))
    rho = gibbs_state(_XYZ8, 0.9)
    report = sufficient_conditions_check(additive_observable(coeffs), _MZ8, rho, outcomes)
    resids, ratios = _dense_sufficiency(
        coeffs, denseref.gibbs(denseref.hamiltonian(n, 1.0, _J), 0.9), outcomes)
    np.testing.assert_allclose(report.condition_residuals, resids, rtol=1e-12)
    np.testing.assert_allclose(report.second_moment_ratios, ratios, rtol=1e-12)
    assert "mat" not in vars(rho)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_XYZ10 = SpinHamiltonian(n=10, h=1.0, j=_J)


def test_sufficiency_allocates_no_dense_matrix():
    rho = gibbs_state(_XYZ10, 0.9)
    a, b = total_magnetization("x", 10), total_magnetization("z", 10)
    peak = _peak_bytes(lambda: sufficient_conditions_check(a, b, rho, (0,)))
    assert peak < 4**10 * 8
    # the m = 0 sector is read from the blocks, with no table of the Gibbs rows
    assert "_table" not in vars(rho)


def _row_reads(monkeypatch, ham, rho):
    """The peak bytes that the CSV row's reads of rho allocate, with rho and
    its post-state; fails if a WindowState is made."""
    made = []

    def keep(state, spec):
        made.append(post_state(state, spec))
        return made[-1]

    def no_window(*args):
        raise AssertionError("the row made a WindowState")

    monkeypatch.setattr(cli, "post_state", keep)
    monkeypatch.setattr(spincore.WindowState, "__init__", no_window)
    spec = OutcomeSpec.exact(0)
    peak = _peak_bytes(lambda: (outcome_probability(rho, spec),
                                cli._dense_columns(ham, rho, spec)))
    return peak, rho, made[0]


def test_dense_columns_allocate_no_dense_matrix(monkeypatch):
    peak, rho, post = _row_reads(monkeypatch, _XYZ10, gibbs_state(_XYZ10, 0.9))
    assert peak < 4**10 * 8
    for state in (rho, post):
        assert "mat" not in vars(state) and "_table" not in vars(state)


def test_cap_row_reads_its_blocks_in_under_sixteen_mib(monkeypatch):
    # the orbit table alone took 44.7 MiB here; the masked eigenvectors are 7.3 MB
    ham = SpinHamiltonian(n=12, h=1.0)
    peak, rho, post = _row_reads(monkeypatch, ham, gibbs_state(ham, 1.0))
    assert peak < 4**12
    for state in (rho, post):
        assert "mat" not in vars(state) and "_table" not in vars(state)


def test_transverse_moments_read_a_table_of_the_window_orbits():
    # the table of every orbit took 54.4 MiB here; this one holds the m = 0 orbits
    rho = gibbs_state(SpinHamiltonian(n=12, h=1.0, j=(0.2, 0.0, 0.1)), 1.0)
    post = post_state(rho, OutcomeSpec.exact(0))
    assert isinstance(post, SpectralState)
    got = []
    assert _peak_bytes(lambda: got.append(transverse_moments(post))) <= 16 << 20
    table, _ = post._table
    orbits = int(post.inside.sum())
    assert table.shape == (len(post.group.images), orbits + 1, orbits + 1)
    assert "_table" not in vars(rho)
    # the state commutes with the global flip, under which Mx and My are odd
    assert got[0][:2] == pytest.approx((0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_ground_row_reads_its_blocks(monkeypatch, boundary):
    ham = SpinHamiltonian(n=8, h=0.7, j=_J, boundary=boundary)
    _, rho, post = _row_reads(monkeypatch, ham, ground_state(ham))
    for state in (rho, post):
        assert "mat" not in vars(state) and "_table" not in vars(state)
