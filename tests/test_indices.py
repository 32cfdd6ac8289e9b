"""Macroscopicity indices: witnesses, searches, variance matrices, fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import comb

import denseref
from catlab import indices
from catlab.errors import ContractViolationError, DomainError
from catlab.indices import (
    _catness_form,
    _state_factors,
    c_closed_form_free,
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
    additive_observable,
    as_state,
    mz_interval_projector,
    mz_projector,
    total_magnetization,
    trace_norm,
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
        assert c_closed_form_free(n, m, betah) == pytest.approx(want, rel=RTOL)


def test_closed_form_limits():
    # infinite temperature leaves only the flip-flop floor
    assert c_closed_form_free(6, 2, 0.0) == pytest.approx(12.0, rel=1e-13)
    # beta -> inf saturates tanh
    assert c_closed_form_free(6, 0, math.inf) == pytest.approx(48.0, rel=1e-13)


def test_closed_form_even_in_field_sign():
    assert c_closed_form_free(6, 2, 1.1) == pytest.approx(
        c_closed_form_free(6, 2, -1.1), rel=1e-14)


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
    n, betah = 8, 1.0
    for m in (-4, 0, 2):
        assert interval_c_closed(n, m, m, betah) == pytest.approx(
            c_closed_form_free(n, m, betah), rel=1e-12)


def test_interval_c_closed_full_range_vanishes():
    assert interval_c_closed(8, -8, 8, 1.0) == 0.0


def test_interval_c_closed_matches_dense():
    n, betah = 6, 0.9
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    mx = denseref.magnetization("x", n)
    for lo, hi in ((0, 0), (-2, 2), (2, 6), (-6, 6)):
        post = post_state(rho, OutcomeSpec.interval(lo, hi))
        proj = mz_interval_projector(n, lo, hi).mat
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
    np.testing.assert_allclose(eta.mat @ eta.mat, eta.mat, atol=1e-10)
    np.testing.assert_allclose(eta.mat, eta.mat.conj().T, atol=1e-12)
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


def test_witness_value_zero_when_observable_commutes():
    n = 4
    rho = fixture_states("rho_ex2", n)
    a = total_magnetization("z", n)
    assert q_functional(rho, a) == pytest.approx(0.0, abs=1e-12)
    eta, value = optimal_witness(rho, a)
    assert value == 0.0
    np.testing.assert_allclose(eta.mat, 0.0, atol=1e-12)


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
    base = c_closed_form_free(6, 0, 1.0)
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
    weights, vecs = _state_factors(rho)
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


@pytest.mark.parametrize("n", [6, 8])
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
    weights, vecs = _state_factors(as_state(mat))
    w = np.linalg.eigvalsh(mat)
    np.testing.assert_allclose(weights, w[w > 1e-12], rtol=1e-12)
    off = np.setdiff1d(np.arange(16), support)
    assert np.all(vecs[off] == 0)
    np.testing.assert_allclose((vecs * weights) @ vecs.conj().T, mat, atol=1e-14)


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
        vals = np.linalg.eigvalsh(w.mat)
        np.testing.assert_allclose(np.unique(np.round(vals, 9)), [-1.0, 0.0, 1.0],
                                   atol=1e-12)
        mix = fixture_states("rho_ex1", n)
        assert np.trace(mix.mat @ w.mat).real == pytest.approx(1.0, abs=1e-12)


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


def test_observable_search_factors_a_pure_state_once(monkeypatch):
    # the search and its covariance candidate share one factorization
    calls = []

    def counting(rho):
        calls.append(rho)
        return _state_factors(rho)

    monkeypatch.setattr(indices, "_state_factors", counting)
    report = observable_search(fixture_states("cat_plus", 6))
    assert len(calls) == 1
    assert report.c_value == pytest.approx(2.0 * 6 * 6, rel=1e-10)
