"""Macroscopicity indices: witnesses, searches, variance matrices, fits."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import comb

import denseref
from catlab import indices, spincore
from catlab.errors import (ContractViolationError, DomainError, ImpossibleOutcomeError,
                           InvalidOutcomeError)
from catlab.indices import (
    _catness_form,
    _commutes_with_mz,
    expect_c,
    fit_exponent,
    fixture_states,
    i_function,
    interval_c_closed,
    interval_r_count,
    observable_search,
    optimal_witness,
    q_functional,
    vcm,
    witness_w,
)
from catlab.measure import OutcomeSpec, post_state
from catlab.spincore import (
    FactoredState,
    QuantumState,
    additive_observable,
    as_state,
    herm_expm,
    mz_interval_projector,
    mz_projector,
    pauli_terms,
    pure_state,
    total_magnetization,
    uniform_observable,
)
from catlab.thermal import SpinHamiltonian, gibbs_state

RTOL = 1e-10


def free_post(n, betah, m=0):
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    return post_state(rho, OutcomeSpec.exact(m))


def test_closed_form_matches_dense_catness():
    for n, m, betah in ((4, 0, 0.7), (5, 1, 1.3), (6, -2, 0.3)):
        post = free_post(n, betah, m)
        proj = denseref.sector_projector(n, m, m)
        mx = denseref.magnetization("x", n)
        want = denseref.catness(post.mat, mx, proj)
        assert interval_c_closed(n, m, m, betah) == pytest.approx(want, rel=RTOL)


def test_closed_form_limits():
    # infinite temperature leaves only the flip-flop floor
    assert interval_c_closed(6, 2, 2, 0.0) == pytest.approx(12.0, rel=1e-13)
    # beta -> inf saturates tanh
    assert interval_c_closed(6, 0, 0, math.inf) == pytest.approx(48.0, rel=1e-13)


def test_closed_form_even_in_field_sign():
    assert interval_c_closed(6, 2, 2, 1.1) == pytest.approx(
        interval_c_closed(6, 2, 2, -1.1), rel=1e-14)


def test_expect_c_matches_reference():
    n, m, betah = 5, 1, 0.9
    post = free_post(n, betah, m)
    got = expect_c(post, total_magnetization("x", n), mz_projector(n, m))
    mx = denseref.magnetization("x", n)
    proj = denseref.sector_projector(n, m, m)
    assert got == pytest.approx(denseref.catness(post.mat, mx, proj), rel=RTOL)


def test_expect_c_kernel_matches_reference_when_mx_stays_in_window():
    # Mx maps M_z = 0 to +/-2, inside [-2, 2], so C != 2 <Mx^2> here and
    # the kernel's full double commutator is what is checked
    n = 6
    ham = SpinHamiltonian(n=n, h=1.0, j=(0.3, 0.2, 0.4))
    post = post_state(gibbs_state(ham, 0.8), OutcomeSpec.interval(-2, 2))
    proj = denseref.sector_projector(n, -2, 2)
    want = denseref.catness(post.mat, denseref.magnetization("x", n), proj)
    got = expect_c(post, total_magnetization("x", n), mz_interval_projector(n, -2, 2))
    assert got == pytest.approx(want, rel=RTOL)
    assert abs(want - 2.0 * np.trace(post.mat @ denseref.magnetization("x", n)
                                     @ denseref.magnetization("x", n)).real) > 1.0
    # a general observable (y and z parts) on a random state
    rng = np.random.default_rng(3)
    rho = as_state(denseref.random_density_matrix(n, rng))
    coeffs = rng.standard_normal((n, 3))
    amat = sum(c * denseref.site_operator(axis, site + 1, n)
               for site in range(n) for c, axis in zip(coeffs[site], "xyz"))
    got = expect_c(rho, additive_observable(coeffs), mz_interval_projector(n, -2, 4))
    want = denseref.catness(rho.mat, amat, denseref.sector_projector(n, -2, 4))
    assert got == pytest.approx(want, rel=RTOL, abs=1e-12)


def test_expect_c_invariant_under_global_flip():
    n, m, betah = 4, 2, 0.8
    post = free_post(n, betah, m)
    flip = denseref.string_operator("x" * n)
    flipped = as_state(flip @ post.mat @ flip)
    a = total_magnetization("x", n)
    got = expect_c(flipped, a, mz_projector(n, -m))
    want = expect_c(post, a, mz_projector(n, m))
    assert got == pytest.approx(want, rel=1e-12)


def test_expect_c_reads_any_pauli_terms_eta_through_the_kernel():
    # a Hermitian eta off the z diagonal: site terms with y parts, plus bonds
    n = 4
    rng = np.random.default_rng(19)
    site = rng.standard_normal((n, 3))
    bonds = [(1, 2, (0.3, -0.5, 0.2)), (2, 4, (-0.7, 0.4, 0.1)), (4, 1, (0.6, 0.0, -0.3))]
    eta = pauli_terms(n, site, bonds)
    emat = sum(site[s - 1, k] * denseref.site_operator(axis, s, n)
               for s in range(1, n + 1) for k, axis in enumerate("xyz"))
    for a, b, j in bonds:
        emat = emat + sum(c * denseref.site_operator(axis, a, n)
                          @ denseref.site_operator(axis, b, n) for c, axis in zip(j, "xyz"))
    np.testing.assert_allclose(eta.dense(), emat, rtol=0, atol=1e-14)
    coeffs = rng.standard_normal((n, 3))
    obs = additive_observable(coeffs)
    amat = sum(coeffs[s - 1, k] * denseref.site_operator(axis, s, n)
               for s in range(1, n + 1) for k, axis in enumerate("xyz"))
    ham = SpinHamiltonian(n=n, h=1.0, j=(0.3, 0.2, 0.4))
    states = [as_state(denseref.random_density_matrix(n, rng)), fixture_states("psi2", n),
              post_state(gibbs_state(ham, 0.8), OutcomeSpec.interval(-2, 2))]
    for rho in states:
        got = expect_c(rho, obs, eta)
        want = denseref.catness(rho.mat, amat, emat)
        assert abs(want) > 0.5
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(expect_c(rho, obs, emat), rel=1e-12)
    rho = states[0]
    with pytest.raises(ContractViolationError):
        expect_c(rho, obs, rho)
    with pytest.raises(ContractViolationError):
        expect_c(rho, obs, pauli_terms(n + 1, np.ones((n + 1, 3))))


def test_i_function_limits_and_bounds():
    n = 8
    assert i_function(n, 0, 0) == pytest.approx(1.0, rel=1e-13)
    assert i_function(n, 2, 2) == pytest.approx(1.0 - (2.0 / n) ** 2, rel=1e-13)
    assert i_function(n, -n, n) == 0.0
    for lo, hi in ((-2, 2), (0, 4), (-6, 2)):
        assert 0.0 <= i_function(n, lo, hi) <= 1.0


def test_interval_r_count_sums_binomials():
    n = 9
    for lo, hi in ((-1, 1), (-3, 5), (-9, 9)):
        sectors = [m for m in range(-n, n + 1, 2) if lo <= m <= hi]
        want = sum(comb(n, (n - m) // 2, exact=True) for m in sectors)
        assert math.exp(interval_r_count(n, lo, hi)) == pytest.approx(
            float(want), rel=1e-12)


def test_interval_c_closed_collapses_to_point_formula():
    # n = 1 included: the window form divides by neither n - 1 nor n^2 - m^2
    for betah in (0.0, 0.3, 1.0, math.inf):
        t2 = math.tanh(betah) ** 2
        for n in range(1, 41):
            for m in range(-n, n + 1, 2):
                want = 2 * n + (n * n - m * m) * t2
                assert interval_c_closed(n, m, m, betah) == pytest.approx(want, rel=1e-14)
    with pytest.raises(InvalidOutcomeError):
        interval_c_closed(6, 1, 1, 1.0)
    with pytest.raises(InvalidOutcomeError):
        interval_c_closed(6, 8, 8, 1.0)


def test_interval_c_closed_full_range_vanishes():
    assert interval_c_closed(8, -8, 8, 1.0) == 0.0


def test_interval_c_closed_matches_dense():
    n, betah = 6, 0.9
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    mx = denseref.magnetization("x", n)
    for lo, hi in ((0, 0), (-2, 2), (2, 6), (-6, 6)):
        post = post_state(rho, OutcomeSpec.interval(lo, hi))
        proj = mz_interval_projector(n, lo, hi).dense()
        want = denseref.catness(post.mat, mx, proj)
        assert interval_c_closed(n, lo, hi, betah) == pytest.approx(
            want, rel=1e-10, abs=1e-10)


def test_optimal_witness_attains_half_trace_norm():
    n, betah = 4, 1.0
    post = free_post(n, betah)
    a = total_magnetization("x", n)
    eta, value = optimal_witness(post, a)
    assert value == pytest.approx(0.5 * q_functional(post, a), rel=1e-12)
    # the witness is a projector and reproduces its own value
    np.testing.assert_allclose(eta @ eta, eta, atol=1e-10)
    np.testing.assert_allclose(eta, eta.conj().T, atol=1e-12)
    assert expect_c(post, a, eta) == pytest.approx(value, rel=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_optimal_witness_half_trace_norm_random_states(seed):
    rng = np.random.default_rng(seed)
    n = 3
    rho = as_state(denseref.random_density_matrix(n, rng))
    a = total_magnetization("x", n)
    _, value = optimal_witness(rho, a)
    comm = denseref.double_commutator(denseref.magnetization("x", n), rho.mat)
    assert value == pytest.approx(0.5 * denseref.trace_norm(comm),
                                  rel=1e-9, abs=1e-12)


_XYZ5 = (SpinHamiltonian(n=5, h=1.0, j=(0.2, 0.1, 0.3)), 0.9)


def _xyz5_dense(window=None):
    rho = denseref.gibbs(denseref.hamiltonian(5, 1.0, (0.2, 0.1, 0.3)), 0.9)
    if window is None:
        return rho
    return denseref.project(rho, denseref.sector_projector(5, *window))[0]


# one state of each class, with its reference built by denseref
_WITNESS_STATES = {
    "dense": (lambda: as_state(denseref.random_density_matrix(5, np.random.default_rng(31))),
              lambda: denseref.random_density_matrix(5, np.random.default_rng(31))),
    "factored": (lambda: fixture_states("rho_ex1", 5),
                 lambda: denseref.fixture_dense("rho_ex1", 5)),
    "window_exact": (lambda: post_state(gibbs_state(*_XYZ5), OutcomeSpec.exact(1)),
                     lambda: _xyz5_dense((1, 1))),
    "window_interval": (lambda: post_state(gibbs_state(*_XYZ5), OutcomeSpec.interval(-1, 3)),
                        lambda: _xyz5_dense((-1, 3))),
    "spectral": (lambda: gibbs_state(*_XYZ5), _xyz5_dense),
}


@pytest.mark.parametrize("kind", sorted(_WITNESS_STATES))
def test_every_witness_reads_the_factor_form(kind):
    make, reference = _WITNESS_STATES[kind]
    rho, want_rho = make(), reference()
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal((5, 3))
    observables = [(total_magnetization("x", 5), denseref.magnetization("x", 5)),
                   (additive_observable(coeffs),
                    sum(coeffs[site - 1, k] * denseref.site_operator(axis, site, 5)
                        for site in range(1, 6) for k, axis in enumerate("xyz")))]
    g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    eta = (g + g.conj().T) / 2.0
    for a, amat in observables:
        comm = denseref.double_commutator(amat, want_rho)
        lam = np.linalg.eigvalsh(comm)
        proj, value = optimal_witness(rho, a)
        assert value == pytest.approx(denseref.optimal_catness(want_rho, amat), rel=1e-12)
        assert denseref.catness(want_rho, amat, proj) == pytest.approx(value, rel=1e-12)
        assert np.trace(proj).real == pytest.approx(
            np.count_nonzero(lam > 1e-9 * np.abs(lam).max()), abs=1e-9)
        assert q_functional(rho, a) == pytest.approx(denseref.trace_norm(comm), rel=1e-12)
        assert expect_c(rho, a, eta) == pytest.approx(
            denseref.catness(want_rho, amat, eta), rel=1e-12)
    assert kind == "dense" or "mat" not in vars(rho)


def test_witness_value_zero_when_observable_commutes():
    n = 4
    rho = fixture_states("rho_ex2", n)
    a = total_magnetization("z", n)
    assert q_functional(rho, a) == pytest.approx(0.0, abs=1e-12)
    eta, value = optimal_witness(rho, a)
    assert value == 0.0
    np.testing.assert_allclose(eta, 0.0, atol=1e-12)


def test_q_functional_known_values():
    for n in (4, 6):
        cat = fixture_states("cat_plus", n)
        a = total_magnetization("z", n)
        assert q_functional(cat, a) == pytest.approx(4.0 * n * n, rel=1e-12)
        _, value = optimal_witness(cat, a)
        assert value == pytest.approx(2.0 * n * n, rel=1e-12)
    for n in (5, 7):
        mix = fixture_states("rho_ex1", n)
        a = total_magnetization("z", n)
        assert q_functional(mix, a) == pytest.approx(
            4.0 * (n - 2.0) ** 2, rel=1e-12)


def test_vcm_rejects_mixed_states():
    with pytest.raises(ContractViolationError):
        vcm(free_post(4, 1.0))


def test_vcm_cat_state_top_eigenvalue_is_n():
    for n in (2, 4, 6):
        mat = vcm(fixture_states("cat_plus", n))
        assert mat.n == n
        np.testing.assert_allclose(mat.entries, mat.entries.conj().T, atol=1e-12)
        assert mat.e_max == pytest.approx(float(n), abs=1e-10)


def test_vcm_principal_observable_recovers_cat_value():
    n = 4
    cat = fixture_states("cat_plus", n)
    obs = vcm(cat).principal_observable()
    value = expect_c(cat, obs, optimal_witness(cat, obs)[0])
    # the z cat is witnessed best by the z magnetization
    assert value == pytest.approx(2.0 * n * n, rel=1e-10)


def test_observable_search_free_post_state():
    report = observable_search(free_post(6, 1.0), resolution=64)
    base = interval_c_closed(6, 0, 0, 1.0)
    assert report.c_value >= base - 1e-9
    assert report.c_value == pytest.approx(35.749377, rel=1e-4)
    assert report.eta_trace >= 1.0


def test_observable_search_cat_state():
    n = 4
    report = observable_search(fixture_states("cat_plus", n), resolution=64)
    assert report.c_value == pytest.approx(2.0 * n * n, rel=1e-8)


def test_observable_search_uses_vcm_candidate_for_pure_states():
    # the staircase state is witnessed best by a site-dependent observable,
    # so the variance-matrix candidate must beat every uniform direction
    # (a dense uniform sweep tops out near 18.43 at n=4)
    n = 4
    report = observable_search(fixture_states("psi2", n), resolution=64)
    assert not report.a_used.uniform
    assert report.c_value >= 23.0


def test_observable_search_rejects_tiny_grids():
    with pytest.raises(DomainError):
        observable_search(free_post(4, 1.0), resolution=1)


def _assert_matches_dense(got, rho, amat):
    value, eta_trace = got
    assert value == pytest.approx(denseref.optimal_catness(rho, amat), rel=1e-10)
    lam = np.linalg.eigvalsh(denseref.double_commutator(amat, rho))
    assert eta_trace == np.count_nonzero(lam > 1e-9 * np.abs(lam).max())


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("rank", [1, 3, None])
def test_catness_form_matches_dense_reference(n, rank):
    rng = np.random.default_rng(10 * n + (rank or 0))
    rho = as_state(denseref.random_density_matrix(n, rng, rank))
    weights, vecs = rho.factors()
    uniform = _catness_form(weights, vecs,
                            [total_magnetization(axis, n) for axis in "xyz"])
    for _ in range(4):
        # non-unit directions: the form normalizes them as a uniform A does
        d = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
        unit = d / np.linalg.norm(d)
        amat = sum(c * denseref.magnetization(axis, n) for c, axis in zip(unit, "xyz"))
        _assert_matches_dense(uniform.value(d), rho.mat, amat)
    coeffs = rng.standard_normal((n, 3))
    amat = sum(coeffs[site - 1, k] * denseref.site_operator(axis, site, n)
               for site in range(1, n + 1) for k, axis in enumerate("xyz"))
    single = _catness_form(weights, vecs, [additive_observable(coeffs)])
    _assert_matches_dense(single.value((1.0,)), rho.mat, amat)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_observable_search_rho_ex1_fixture_values(n):
    # half the q_functional 4(n-2)^2 that the oracle checks for rho_ex1
    report = observable_search(fixture_states("rho_ex1", n))
    assert report.c_value == pytest.approx(2.0 * (n - 2) ** 2, rel=1e-10)
    assert report.eta_trace == n


def test_state_factors_restrict_to_the_support():
    rng = np.random.default_rng(7)
    support = [1, 4, 6, 11, 13]
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    g[0] *= 1e-4  # a support row with small entries must stay in the solve
    mat = np.zeros((16, 16), dtype=complex)
    mat[np.ix_(support, support)] = g @ g.conj().T / np.trace(g @ g.conj().T).real
    rho = as_state(mat)
    weights, vecs = rho.factors()
    assert not _commutes_with_mz(rho)  # rows 1 and 6 lie in different M_z sectors
    w = np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(weights, w[w > 1e-12], rtol=1e-12)
    off = np.setdiff1d(np.arange(16), support)
    assert np.all(vecs[off] == 0)
    np.testing.assert_allclose((vecs * weights) @ vecs.conj().T, mat, atol=1e-14)


_FIXTURE_CASES = ([(kind, n) for kind in indices.FIXTURE_KINDS if kind != "rho_ex3"
                   for n in range(2, 9)] + [("rho_ex3", 3), ("rho_ex3", 6)])


@pytest.mark.parametrize("kind, n", _FIXTURE_CASES)
def test_factored_fixture_matches_its_dense_definition(kind, n):
    rho, want = fixture_states(kind, n), denseref.fixture_dense(kind, n)
    assert isinstance(rho, FactoredState)
    every = np.arange(1 << n)
    np.testing.assert_allclose(rho.entries(every[:, None], every), want, rtol=0, atol=1e-12)
    # the elementwise read, as PauliTerms.expect makes it
    np.testing.assert_allclose(rho.entries(every, every ^ 3), want[every, every ^ 3],
                               rtol=0, atol=1e-12)
    assert rho.purity == pytest.approx(np.vdot(want, want).real, rel=0, abs=1e-12)
    assert rho.support().tolist() == np.flatnonzero(np.abs(want).sum(axis=1)).tolist()
    assert "mat" not in vars(rho)
    np.testing.assert_allclose(rho.mat, want, rtol=0, atol=1e-12)


def test_rho_ex1_at_two_sites_is_one_column():
    # both flipped pairs are {|01>, |10>}, so the mixture is a pure state
    rho = fixture_states("rho_ex1", 2)
    assert rho.weights.tolist() == [1.0]
    assert rho.purity == 1.0


def test_factored_pure_state_matches_its_outer_product():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    rho = pure_state(vec)
    unit = vec / np.linalg.norm(vec)
    want = np.outer(unit, unit.conj())
    every = np.arange(64)
    np.testing.assert_allclose(rho.entries(every[:, None], every), want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rho.diagonal(), np.diag(want), rtol=0, atol=1e-12)
    assert rho.purity == pytest.approx(1.0, rel=0, abs=1e-12)
    assert rho.support().tolist() == every.tolist()
    np.testing.assert_allclose(rho.mat, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", indices.FIXTURE_KINDS)
def test_post_state_of_a_factored_fixture_matches_the_dense_projection(kind):
    n = 6 if kind == "rho_ex3" else 8
    rho, dense = fixture_states(kind, n), denseref.fixture_dense(kind, n)
    specs = ([OutcomeSpec.exact(m) for m in range(-n, n + 1, 2)]
             + [OutcomeSpec.interval(lo, hi) for lo, hi in ((-4, 4), (-n, 0), (2, n))])
    for spec in specs:
        proj = denseref.sector_projector(n, spec.m_lo, spec.m_hi)
        if np.trace(proj @ dense).real <= 1e-14:
            with pytest.raises(ImpossibleOutcomeError):
                post_state(rho, spec)
            continue
        want, _ = denseref.project(dense, proj)
        np.testing.assert_allclose(post_state(rho, spec).mat, want, rtol=0, atol=1e-12)
    assert "mat" not in vars(rho)


def _one_sector_pure(n=6, m=0):
    rng = np.random.default_rng(13)
    vec = np.where(denseref.mz_eigenvalues(n) == m,
                   rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n), 0.0)
    return pure_state(vec)


def test_state_factors_of_a_factored_state_run_no_eigensolve(monkeypatch):
    states = {kind: fixture_states(kind, 6) for kind in indices.FIXTURE_KINDS}
    states["one_sector"] = _one_sector_pure()
    calls = []
    herm_eigh = indices._herm_eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return herm_eigh(*args, **kwargs)

    monkeypatch.setattr(spincore, "_herm_eigh", counting)
    got = {name: (*rho.factors(), _commutes_with_mz(rho)) for name, rho in states.items()}
    assert calls == []
    monkeypatch.undo()
    for name in ("rho_ex2", "one_sector"):
        assert got[name][2] is True
    for name in ("rho_ex1", "cat_plus", "psi2"):
        assert got[name][2] is False
    for name, (weights, vecs, commutes) in got.items():
        # the eigensolve of the dense matrix agrees on weights and commutation
        dense = as_state(states[name].mat)
        dense_w, _ = dense.factors()
        dense_commutes = _commutes_with_mz(dense)
        np.testing.assert_allclose(weights, dense_w, rtol=0, atol=1e-12)
        assert commutes == dense_commutes
        assert np.all(np.diff(weights) >= 0.0)
        np.testing.assert_allclose((vecs * weights) @ vecs.conj().T, states[name].mat,
                                   rtol=0, atol=1e-14)


def test_commutation_scan_reads_a_full_support_state_in_bounded_chunks(monkeypatch):
    n = 10
    rng = np.random.default_rng(21)
    generic = pure_state(rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n))
    assert generic.support().size == 2**n
    monkeypatch.setattr(indices, "_GATHER_CHUNK", 1 << 16)
    tracemalloc.start()
    try:
        commutes = _commutes_with_mz(generic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not commutes
    assert peak <= 4 << 20  # the whole support block is 16 MB
    # a sector-0 column and one on the last two basis states: their only
    # entry between two sectors sits in the last chunk of 16 rows
    sector = np.where(denseref.mz_eigenvalues(n) == 0, 1.0, 0.0) / math.sqrt(comb(n, n // 2))
    monkeypatch.setattr(indices, "_GATHER_CHUNK", 16 * 256)
    for tail, want in (([0.0, 1.0], True), ([math.sqrt(0.5), math.sqrt(0.5)], False)):
        vecs = np.zeros((2**n, 2), dtype=complex)
        vecs[:, 0], vecs[-2:, 1] = sector, tail
        rho = FactoredState(vecs, np.array([0.5, 0.5]))
        assert _commutes_with_mz(rho) is want
        assert _commutes_with_mz(as_state(rho.mat)) is want


@pytest.mark.parametrize("kind", indices.FIXTURE_KINDS)
def test_search_on_a_fixture_never_builds_its_dense_matrix(kind):
    rho = fixture_states(kind, 9 if kind == "rho_ex3" else 10)
    observable_search(rho)
    assert "mat" not in rho.__dict__


def test_fixture_state_shapes_and_purity():
    for kind in ("cat_plus", "cat_minus", "psi1", "psi2"):
        state = fixture_states(kind, 4)
        assert state.purity == pytest.approx(1.0, abs=1e-12)
    for kind in ("rho_ex1", "rho_ex2"):
        state = fixture_states(kind, 4)
        assert state.purity < 1.0
    state = fixture_states("rho_ex3", 6)
    assert np.trace(state.mat).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        fixture_states("rho_ex3", 4)
    with pytest.raises(DomainError):
        fixture_states("no_such_kind", 4)


def test_cat_fixtures_are_orthogonal_superpositions():
    n = 3
    plus = fixture_states("cat_plus", n).mat
    minus = fixture_states("cat_minus", n).mat
    overlap = np.trace(plus @ minus).real
    assert overlap == pytest.approx(0.0, abs=1e-12)


def test_witness_w_spectrum_and_expectation():
    for n in (3, 5):
        w = witness_w(n)
        vals = np.linalg.eigvalsh(w)
        np.testing.assert_allclose(np.unique(np.round(vals, 9)), [-1.0, 0.0, 1.0],
                                   atol=1e-12)
        mix = fixture_states("rho_ex1", n)
        assert np.trace(mix.mat @ w).real == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_recovers_exact_power_law():
    points = [(n, 2.5 * n**1.7) for n in (4, 6, 8, 10)]
    q, err = fit_exponent(points, floor=False)
    assert q == pytest.approx(1.7, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_three_points_has_undefined_stderr():
    q, err = fit_exponent([(4, 16.0), (6, 36.0), (8, 64.0)], floor=False)
    assert q == pytest.approx(2.0, abs=1e-12)
    assert math.isnan(err)


def test_fit_exponent_floor_clamps_values_at_n():
    points = [(4, 1.0), (6, 1.0), (8, 1.0)]
    q_floored, _ = fit_exponent(points, floor=True)
    q_raw, _ = fit_exponent(points, floor=False)
    assert q_floored == pytest.approx(1.0, abs=1e-12)
    assert q_raw == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_input_validation():
    with pytest.raises(DomainError):
        fit_exponent([(4, 16.0), (6, 36.0)])
    with pytest.raises(DomainError):
        fit_exponent([(4, 16.0), (4, 20.0), (8, 64.0)])
    with pytest.raises(DomainError):
        fit_exponent([(4, -1.0), (6, 36.0), (8, 64.0)], floor=False)
    # without the floor, nothing else stops a non-finite size from reaching the fit
    for bad in (math.nan, math.inf, -math.inf):
        for floor in (False, True):
            with pytest.raises(DomainError):
                fit_exponent([(bad, 40.0), (6, 36.0), (8, 64.0), (10, 100.0)], floor=floor)


def test_fixture_sweep_exponents():
    # the two-branch mixture grows linearly, the cat quadratically
    mix_points = []
    cat_points = []
    for n in (6, 8, 10):
        mix_points.append((n, observable_search(fixture_states("rho_ex2", n),
                                                resolution=64).c_value))
        cat_points.append((n, observable_search(fixture_states("cat_plus", n),
                                                resolution=64).c_value))
    q_mix, _ = fit_exponent(mix_points)
    q_cat, _ = fit_exponent(cat_points)
    assert 0.95 <= q_mix <= 1.05
    assert 1.95 <= q_cat <= 2.05


def test_rho_ex2_search_value_closed_form():
    # best uniform direction for the two-branch mixture gives n + n sqrt(3 - 2/n)
    for n in (6, 8):
        got = observable_search(fixture_states("rho_ex2", n), resolution=64).c_value
        want = n + n * math.sqrt(3.0 - 2.0 / n)
        assert got == pytest.approx(want, rel=1e-6)


def test_witnesses_of_a_factored_state_read_no_entries(monkeypatch):
    # its columns are its factors, and only the search asks whether it
    # commutes with M_z
    pure, mixed = fixture_states("psi2", 6), fixture_states("rho_ex1", 6)
    mx = total_magnetization("x", 6)

    def reads():
        return (vcm(pure).e_max, optimal_witness(mixed, mx)[1], q_functional(mixed, mx),
                expect_c(mixed, mx, witness_w(6)))

    want = reads()

    def no_entries(*args):
        raise AssertionError("entries() was read")

    monkeypatch.setattr(FactoredState, "entries", no_entries)
    assert reads() == want


def test_observable_search_factors_a_pure_state_once(monkeypatch):
    # the search and its covariance candidate share one factorization
    calls = []
    factors = FactoredState.factors

    def counting(rho):
        calls.append(rho)
        return factors(rho)

    monkeypatch.setattr(FactoredState, "factors", counting)
    report = observable_search(fixture_states("cat_plus", 6))
    assert len(calls) == 1
    assert report.c_value == pytest.approx(2.0 * 6 * 6, rel=1e-10)



def _ring_post(spec, n=6):
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0, j=(0.2, 0.0, 0.1)), 1.0)
    return post_state(rho, spec)


def _sector_state(n=5, m=1):
    """A random complex density matrix inside the sector M_z = m."""
    rng = np.random.default_rng(11)
    rows = np.flatnonzero(denseref.mz_eigenvalues(n) == m)
    g = (rng.standard_normal((rows.size, rows.size))
         + 1j * rng.standard_normal((rows.size, rows.size)))
    block = g @ g.conj().T
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[np.ix_(rows, rows)] = block / np.trace(block).real
    return as_state(mat)


# each state with the c_value that a full-sphere search (312 spiral
# directions and a Nelder-Mead polish over both angles) gave for it
_COMMUTING = {
    "post_m0": (lambda: _ring_post(OutcomeSpec.exact(0)), 43.11685175677459),
    "post_m2": (lambda: _ring_post(OutcomeSpec.exact(2)), 39.91296190870575),
    "post_m4": (lambda: _ring_post(OutcomeSpec.exact(4)), 30.465736519831978),
    "post_m6": (lambda: _ring_post(OutcomeSpec.exact(6)), 15.797958971132719),
    "rho_ex2_6": (lambda: fixture_states("rho_ex2", 6), 15.79795897113272),
    "rho_ex2_8": (lambda: fixture_states("rho_ex2", 8), 21.266499161421617),
    "sector_5": (_sector_state, 11.940863179646229),
}
_NON_COMMUTING = {
    "rho_ex1_6": (lambda: fixture_states("rho_ex1", 6), 32.000000000000014),
    "rho_ex1_8": (lambda: fixture_states("rho_ex1", 8), 71.99999999998894),
    "rho_ex1_10": (lambda: fixture_states("rho_ex1", 10), 127.99999999992835),
    "cat_plus_6": (lambda: fixture_states("cat_plus", 6), 71.99999999999996),
    "psi2_6": (lambda: fixture_states("psi2", 6), 44.893309284648495),
}
# the search's value, which the dense optimal catness at its a_used confirms
_INTERVAL = (lambda: _ring_post(OutcomeSpec.interval(-2, 2)), 28.40958346002633)


def _random_state(n, rank, seed):
    return as_state(denseref.random_density_matrix(n, np.random.default_rng(seed), rank))


# random full-rank and rank-2 states, where the ascent needs its step doubling
# to finish in few steps, each pinned with a full-sphere search's value; the
# ascent exceeds them by up to 1.6e-11 relative
_RANDOM = {
    "random_5_full": (lambda: _random_state(5, None, 1), 5.638138010777471),
    "random_6_full": (lambda: _random_state(6, None, 2), 6.539226779834621),
    "random_5_rank2": (lambda: _random_state(5, 2, 3), 15.65851818151695),
    "random_6_rank2": (lambda: _random_state(6, 2, 4), 19.199322402112745),
}
_SPHERE_VALUES = {**_COMMUTING, **_NON_COMMUTING, **_RANDOM, "interval": _INTERVAL}


def _dense_polar_scan(rho, n):
    """Max over theta of the optimal catness of sin(theta) Mx + cos(theta) Mz:
    a 2001-point scan of [0, pi/2] from dense matrices and a bounded polish
    between the neighbours of the best point."""
    mx, mz = denseref.magnetization("x", n), denseref.magnetization("z", n)
    dxx = denseref.double_commutator(mx, rho)
    dzz = denseref.double_commutator(mz, rho)
    dxz = denseref.double_commutator(mx + mz, rho) - dxx - dzz
    # rows and columns where every D(theta) vanishes add only zero eigenvalues
    weight = np.abs(dxx) + np.abs(dxz) + np.abs(dzz)
    live = np.flatnonzero(weight.sum(axis=0) + weight.sum(axis=1))
    dxx, dxz, dzz = (d[np.ix_(live, live)] for d in (dxx, dxz, dzz))

    def value(theta):
        s, c = math.sin(theta), math.cos(theta)
        lam = np.linalg.eigvalsh(s * s * dxx + s * c * dxz + c * c * dzz)
        return float(lam[lam > 0.0].sum())

    thetas = np.linspace(0.0, 0.5 * math.pi, 2001)
    values = [value(t) for t in thetas]
    i = int(np.argmax(values))
    res = minimize_scalar(lambda t: -value(t), method="bounded",
                          bounds=(thetas[max(i - 1, 0)], thetas[min(i + 1, 2000)]),
                          options={"xatol": 1e-12})
    return max(values[i], -res.fun)


@pytest.mark.parametrize("name", sorted(_SPHERE_VALUES))
def test_search_is_no_worse_than_the_full_sphere_search(name):
    make, sphere = _SPHERE_VALUES[name]
    got = observable_search(make()).c_value
    assert got >= sphere - 1e-10 * max(1.0, abs(sphere))


@pytest.mark.parametrize("name", sorted(_COMMUTING))
def test_commuting_search_matches_a_dense_polar_scan(name):
    rho = _COMMUTING[name][0]()
    assert _commutes_with_mz(rho)
    report = observable_search(rho)
    assert report.c_value == pytest.approx(_dense_polar_scan(rho.mat, rho.n), rel=1e-8)
    # the value does not depend on the azimuth, and the reported one is 0
    assert report.a_used.uniform
    assert report.a_used.site_coeffs[0, 1] == 0.0


@pytest.mark.parametrize("name", sorted(_NON_COMMUTING))
def test_non_commuting_states_keep_the_sphere_search(name):
    make, sphere = _NON_COMMUTING[name]
    rho = make()
    _, vecs = rho.factors()
    assert not _commutes_with_mz(rho)
    assert vecs.dtype == complex
    # the same code path as the pinned search; its last digits (rho_ex1 at
    # n = 8 and 10) follow the BLAS thread count, so the match is relative
    assert observable_search(rho).c_value == pytest.approx(sphere, rel=1e-12)


def test_interval_post_state_keeps_the_sphere_search_on_real_factors():
    make, sphere = _INTERVAL
    rho = make()
    _, vecs = rho.factors()
    assert not _commutes_with_mz(rho)  # the window [-2, 2] holds three M_z sectors
    assert vecs.dtype == np.float64
    report = observable_search(rho)
    assert report.c_value == pytest.approx(sphere, rel=1e-12)
    amat = sum(c * denseref.magnetization(axis, rho.n)
               for c, axis in zip(report.a_used.site_coeffs[0], "xyz"))
    assert report.c_value == pytest.approx(denseref.optimal_catness(rho.mat, amat), rel=1e-12)


@pytest.mark.parametrize("m", [0, 2])
def test_polar_forms_are_real_for_a_real_state(m):
    # an open chain's post-state breaks the translation and takes one block,
    # real for a real state
    rho = post_state(gibbs_state(SpinHamiltonian(n=6, h=1.0, j=(0.2, 0.0, 0.1),
                                                 boundary="open"), 1.0), OutcomeSpec.exact(m))
    form = _catness_form(*rho.factors(), [total_magnetization(axis, 6) for axis in "xz"])
    assert _commutes_with_mz(rho)
    assert rho.factors()[1].dtype == form.forms.dtype == np.float64
    assert form.mult.tolist() == [1]
    # a ring's real forms read each conjugate pair of momenta (k, 6 - k) once:
    # the blocks k = 0..3, the two of 0 < k < 3 counted twice
    ring = _catness_form(*_ring_post(OutcomeSpec.exact(m)).factors(),
                         [total_magnetization(axis, 6) for axis in "xz"])
    assert ring.real and ring.mult.tolist() == [1, 2, 2, 1]
    forms, rows = ring.unfolded()
    assert forms.shape[1] == rows.shape[0] == 6
    np.testing.assert_array_equal(forms[:, 4:], ring.forms[:, 1:3].conj())

@pytest.mark.parametrize("resolution", [2, 3])
def test_polar_search_polishes_a_one_or_two_angle_grid(resolution):
    rho = _COMMUTING["post_m2"][0]()
    report = observable_search(rho, resolution=resolution)
    full = observable_search(rho)
    assert report.c_value == pytest.approx(full.c_value, rel=1e-12)
    assert report.eta_trace == full.eta_trace
    assert report.a_used.site_coeffs[0, 1] == 0.0


@pytest.mark.parametrize("name", ["post_m0", "post_m2", "post_m4", "post_m6",
                                  "rho_ex2_6", "rho_ex2_8"])
def test_polar_search_reports_an_optimal_equator_exactly(name):
    # the optimum is theta = pi/2, evaluated exactly before the grid; the
    # polish starts there, so no rounding moves a_used off it
    rho = _COMMUTING[name][0]()
    for resolution in (2, 3, indices.SEARCH_RESOLUTION):
        report = observable_search(rho, resolution=resolution)
        assert report.a_used.site_coeffs[0].tolist() == [1.0, 0.0, 0.0], resolution


_ASCENT_FORMS = {
    "post_m0": (_COMMUTING["post_m0"][0], "xz"),
    "rho_ex1_6": (_NON_COMMUTING["rho_ex1_6"][0], "xyz"),
    "random_5_rank3": (lambda: _random_state(5, 3, 5), "xyz"),
}


@pytest.mark.parametrize("name", sorted(_ASCENT_FORMS))
def test_ascent_step_never_lowers_the_value(name):
    make, axes = _ASCENT_FORMS[name]
    rho = make()
    form = _catness_form(*rho.factors(), [total_magnetization(a, rho.n) for a in axes])
    for c in np.random.default_rng(17).standard_normal((20, len(axes))):
        before = form.value(c)[0]
        assert form.value(form.step(c))[0] >= before - 1e-12 * (1.0 + before)
    # the search stops where the step no longer moves the direction
    c = observable_search(rho).a_used.site_coeffs[0][["xyz".index(a) for a in axes]]
    assert np.abs(form.step(c) - c).max() <= 1e-6


@pytest.mark.parametrize("resolution", [2, 3, 64, 312])
def test_polar_search_evaluation_count(monkeypatch, resolution):
    # the full-sphere search evaluated about 424 directions at resolution 312;
    # each row of a stack passed to value is one evaluated direction
    calls = []
    value = indices._CatnessForm.value

    def counting(self, coeffs):
        calls.extend(np.atleast_2d(coeffs))
        return value(self, coeffs)

    monkeypatch.setattr(indices._CatnessForm, "value", counting)
    observable_search(_COMMUTING["post_m0"][0](), resolution=resolution)
    assert len(calls) <= math.ceil(resolution / 2) + 50
    # no direction is evaluated twice: not the odd grid's z = 0, which is the
    # equator, nor the ascent's start, which is the best grid direction
    assert len({np.asarray(c).tobytes() for c in calls}) == len(calls)


def _ring_shift(n):
    """The basis-state permutation of T, which moves site s to site s + 1."""
    idx = np.arange(2**n)
    return (idx >> 1) | ((idx & 1) << (n - 1))


def _translation_symmetrized(n, rank, seed):
    """A random complex state averaged over the cyclic translations."""
    g = denseref.random_density_matrix(n, np.random.default_rng(seed), rank)
    shift = _ring_shift(n)
    mats = [g]
    for _ in range(n - 1):
        mats.append(mats[-1][np.ix_(shift, shift)])
    return as_state(sum(mats) / n)


def _rotated_rho_ex1(n, seed):
    """rho_ex1 as FactoredState(V Q, w) for a random unitary Q: the same state,
    since its weights are all equal, but every column mixes all momenta."""
    weights, vecs = fixture_states("rho_ex1", n).factors()
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return FactoredState(vecs @ q, weights)


def _broken_ring_post():
    """The m = 0 ring post-state with one pair of entries moved by 1e-9,
    which breaks the translation."""
    mat = _ring_post(OutcomeSpec.exact(0)).mat.copy()
    i, j = np.flatnonzero(denseref.mz_eigenvalues(6) == 0)[[0, 3]]
    mat[i, j] += 1e-9
    mat[j, i] += 1e-9
    return as_state(mat)


# each state, the axes of its forms and the blocks they take: real forms
# (a real state over x and z) keep the momenta k <= n / 2, complex ones (My,
# or complex factors) all n, and a state that breaks the translation one
_BLOCKED_STATES = {
    "rho_ex1_6": (lambda: fixture_states("rho_ex1", 6), "xyz", 6),
    "rho_ex1_8": (lambda: fixture_states("rho_ex1", 8), "xyz", 8),
    "rho_ex1_8_rotated": (lambda: _rotated_rho_ex1(8, 11), "xyz", 8),
    "ring_m0": (lambda: _ring_post(OutcomeSpec.exact(0)), "xz", 4),
    "ring_m2": (lambda: _ring_post(OutcomeSpec.exact(2)), "xz", 4),
    "ring_window": (lambda: _INTERVAL[0](), "xyz", 6),
    "ring_window_xz": (lambda: _INTERVAL[0](), "xz", 4),
    "symmetrized": (lambda: _translation_symmetrized(5, 2, 7), "xyz", 5),
    "broken_ring": (_broken_ring_post, "xz", 1),
}


@pytest.mark.parametrize("name", sorted(_BLOCKED_STATES))
def test_momentum_blocks_match_the_dense_reference(name):
    make, axes, blocks = _BLOCKED_STATES[name]
    rho = make()
    n, dense = rho.n, rho.mat
    form = _catness_form(*rho.factors(), [total_magnetization(axis, n) for axis in axes])
    assert form.forms.shape[1] == blocks
    rng = np.random.default_rng(5)
    directions = rng.standard_normal((6, len(axes)))
    units = np.zeros((6, 3))
    units[:, ["xyz".index(axis) for axis in axes]] = directions
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    amats = [sum(c * denseref.magnetization(axis, n) for c, axis in zip(unit, "xyz"))
             for unit in units]
    values, traces = form.value(directions)
    for value, trace, amat in zip(values, traces, amats):
        lam = np.linalg.eigvalsh(denseref.double_commutator(amat, dense))
        assert value == pytest.approx(denseref.optimal_catness(dense, amat), rel=1e-10)
        # counted at the package's floor: some directions have a true
        # eigenvalue between it and _assert_matches_dense's 1e-9
        assert trace == np.count_nonzero(lam > 1e-12 * (1.0 + np.abs(lam).max()))
    for c in directions:  # no step lowers the value
        before = form.value(c)[0]
        assert form.value(form.step(c))[0] >= before - 1e-12 * (1.0 + before)
    # the witnesses of one uniform A read the same blocks
    a, amat = uniform_observable(units[0], n), amats[0]
    d = denseref.double_commutator(amat, dense)
    lam, u = np.linalg.eigh(d)
    top = u[:, lam > 1e-9 * np.abs(lam).max()]
    eta, value = optimal_witness(rho, a)
    assert value == pytest.approx(denseref.optimal_catness(dense, amat), rel=1e-10)
    np.testing.assert_allclose(eta, top @ top.conj().T, atol=1e-9)
    assert q_functional(rho, a) == pytest.approx(denseref.trace_norm(d), rel=1e-10)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    for eta in (g + g.conj().T, g @ g.conj().T / 2**n):  # Hermitian, complex
        want = np.trace(eta @ d).real
        assert expect_c(rho, a, eta) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_one_rank_floor_serves_every_momentum_block():
    # a pure state of momentum 0: every form column lies in the k = 0 block,
    # and the other blocks hold only rounding, which one floor over all
    # blocks drops (a floor per block would keep it as directions of its own)
    n, shift = 6, _ring_shift(6)
    rng = np.random.default_rng(3)
    psi = cur = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    for _ in range(n - 1):
        cur = cur[shift]
        psi = psi + cur
    rho = pure_state(psi)
    form = _catness_form(*rho.factors(), [total_magnetization(axis, n) for axis in "xyz"])
    assert form.forms.shape[1] == n and not form.basis[1:].any()
    amat = denseref.magnetization("y", n)
    assert form.value((0.0, 1.0, 0.0))[0] == pytest.approx(
        denseref.optimal_catness(rho.mat, amat), rel=1e-10)


def test_search_reads_a_window_state_through_its_block():
    rho = gibbs_state(SpinHamiltonian(n=8, h=1.0, j=(0.2, 0.1, 0.3)), 0.9)
    post = post_state(rho, OutcomeSpec.exact(0))
    report = observable_search(post)
    assert "mat" not in vars(rho)
    assert "mat" not in vars(post)
    # the full-sphere search gave 65.62279688782245
    assert report.c_value == pytest.approx(65.62279688782245, rel=1e-12)


_NON_HERMITIAN_CALLS = {
    "herm_expm": lambda mat: herm_expm(mat, 1.0),
    "q_functional": lambda mat: q_functional(QuantumState(mat), total_magnetization("x", 3)),
    "expect_c": lambda mat: expect_c(QuantumState(mat), total_magnetization("x", 3),
                                     np.eye(8)),
    "as_state": as_state,
    "optimal_witness": lambda mat: optimal_witness(QuantumState(mat),
                                                   total_magnetization("x", 3)),
    "observable_search": lambda mat: observable_search(QuantumState(mat)),
}


def _one_sided():
    # row 2 is zero but column 2 is not
    mat = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    mat[1, 2] = 0.4
    return mat


def _random_trace_one():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return mat / np.trace(mat)


@pytest.mark.parametrize("make", [_random_trace_one, _one_sided],
                         ids=["random", "one_sided"])
@pytest.mark.parametrize("caller", sorted(_NON_HERMITIAN_CALLS))
def test_every_dense_eigensolve_rejects_non_hermitian_input(caller, make):
    # eigh reads one triangle, so without the check these return numbers
    with pytest.raises(ContractViolationError, match="must be Hermitian"):
        _NON_HERMITIAN_CALLS[caller](make())


def test_dense_eigensolves_go_through_one_helper():
    # the oracle is the independent cross-check and keeps its own eigvalsh
    sites = []
    for path in sorted(Path(indices.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                func = getattr(child, "func", None)
                if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                        and func.attr.startswith("eig")
                        and ast.unparse(func.value) == "np.linalg"):
                    sites.append(scope)
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    # the helper calls eigh, and eigvalsh when only eigenvalues are wanted
    assert sorted(sites) == ["indices._CatnessForm.value", "spincore._herm_eigh",
                             "spincore._herm_eigh", "spincore.symmetry_eigh"]
