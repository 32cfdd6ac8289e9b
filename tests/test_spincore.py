"""Operator algebra, projectors, and spectral exponentials."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseref
from catlab.errors import CapacityError, ContractViolationError, InvalidOutcomeError
from catlab.spincore import (
    DENSE_CAP,
    PauliTerms,
    _symmetry_group,
    additive_observable,
    apply_additive,
    as_state,
    double_commutator,
    herm_expm,
    mz_interval_projector,
    mz_projector,
    mz_values,
    pauli_site,
    pauli_terms,
    pure_state,
    snap_interval,
    symmetry_eigh,
    total_magnetization,
    trace_norm,
    uniform_observable,
    unitary_evolution,
)
from catlab.thermal import SpinHamiltonian

ATOL = 1e-12
RTOL = 1e-12


def basis_state(index, n):
    vec = np.zeros(2**n, dtype=complex)
    vec[index] = 1.0
    return pure_state(vec)


def test_pauli_site_matches_kron_chain():
    for n in (2, 3, 4):
        for axis in "xyz":
            for site in range(1, n + 1):
                got = pauli_site(axis, site, n).mat
                want = denseref.site_operator(axis, site, n)
                np.testing.assert_allclose(got, want, atol=ATOL)


def test_pauli_site_algebra():
    n = 3
    sx = pauli_site("x", 2, n).mat
    sy = pauli_site("y", 2, n).mat
    sz = pauli_site("z", 2, n).mat
    np.testing.assert_allclose(sx @ sx, np.eye(2**n), atol=ATOL)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 2.0j * sz, atol=ATOL)
    # different sites commute
    other = pauli_site("y", 1, n).mat
    np.testing.assert_allclose(sx @ other, other @ sx, atol=ATOL)


def test_total_magnetization_matches_site_sum():
    for axis in "xyz":
        got = total_magnetization(axis, 4).realize().mat
        want = denseref.magnetization(axis, 4)
        np.testing.assert_allclose(got, want, atol=ATOL)


def test_mz_values_counts_cleared_bits():
    np.testing.assert_array_equal(mz_values(3), denseref.mz_eigenvalues(3))
    vals = mz_values(2)
    np.testing.assert_array_equal(vals, [2.0, 0.0, 0.0, -2.0])


def test_site_one_is_most_significant_bit():
    n = 3
    sz1 = pauli_site("z", 1, n).mat
    # index 0b011 has site 1 up, sites 2 and 3 down
    assert sz1[3, 3] == pytest.approx(1.0)
    sz3 = pauli_site("z", 3, n).mat
    assert sz3[3, 3] == pytest.approx(-1.0)


def test_apply_additive_matches_dense_matrix():
    rng = np.random.default_rng(7)
    n = 5
    coeffs = rng.standard_normal((n, 3))
    obs = additive_observable(coeffs)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        for k, axis in enumerate("xyz"):
            dense += coeffs[site - 1, k] * denseref.site_operator(axis, site, n)
    block = rng.standard_normal((2**n, 4)) + 1j * rng.standard_normal((2**n, 4))
    np.testing.assert_allclose(apply_additive(obs, block), dense @ block,
                               rtol=RTOL, atol=ATOL)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_apply_additive_random_directions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    coeffs = rng.standard_normal((n, 3))
    obs = additive_observable(coeffs)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        for k, axis in enumerate("xyz"):
            dense += coeffs[site - 1, k] * denseref.site_operator(axis, site, n)
    np.testing.assert_allclose(apply_additive(obs, vec[:, None])[:, 0],
                               dense @ vec, rtol=1e-11, atol=1e-11)


def test_symmetry_eigh_rejects_asymmetric_or_complex_input():
    # M_z is odd under the global flip
    with pytest.raises(ContractViolationError):
        symmetry_eigh(total_magnetization("z", 3).terms(), translation=False)
    # the real H with its amplitudes stored as complex numbers
    real = SpinHamiltonian(n=3, h=1.0).terms()
    as_complex = PauliTerms(3, {f: np.asarray(a, dtype=complex)
                                for f, a in real.flips.items()})
    with pytest.raises(ContractViolationError):
        symmetry_eigh(as_complex, translation=False)
    # site-dependent fields break the translation of a ring; the x field is
    # flip-even, so only the translation check can catch it, as for an
    # open chain's bonds offered as a ring
    z_field = np.zeros((4, 3))
    z_field[:, 2] = (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ContractViolationError):
        symmetry_eigh(pauli_terms(4, z_field), translation=True)
    x_field = z_field[:, ::-1]
    symmetry_eigh(pauli_terms(4, x_field), translation=False)
    with pytest.raises(ContractViolationError, match="translation"):
        symmetry_eigh(pauli_terms(4, x_field), translation=True)
    chain = SpinHamiltonian(n=4, h=1.0, j=(0.3, 0.2, 0.1), boundary="open")
    with pytest.raises(ContractViolationError, match="translation"):
        symmetry_eigh(chain.terms(), translation=True)


def test_symmetry_group_tables_on_the_six_site_ring():
    group = _symmetry_group(6, True)
    alt = 0b010101
    shift, flip = group.images[2], group.images[1]
    assert shift[alt] == flip[alt] == 0b101010
    i = group.rep_index[alt]
    assert group.reps[i] == alt
    assert group.stab[i] == 6  # T^2, T^4 and T^t F for odd t fix it
    # only the characters trivial on that stabilizer hold its orbit:
    # (k = 0, p = +1) in row 0 and (k = 3, p = -1) in row 7
    assert list(np.flatnonzero(group.pos[:, i] < group.valid.shape[1])) == [0, 7]
    # the kept blocks, with their conjugates, hold every basis state once
    assert int(group.mult @ group.valid.sum(axis=1)) == 64


def test_uniform_observable_realizes_magnetization():
    direction = np.array([0.6, 0.0, 0.8])
    got = uniform_observable(direction, 3).realize().mat
    want = 0.6 * denseref.magnetization("x", 3) + 0.8 * denseref.magnetization("z", 3)
    np.testing.assert_allclose(got, want, atol=ATOL)


def test_mz_projector_matches_reference():
    for n in (2, 3, 4):
        for m in range(-n, n + 1, 2):
            got = mz_projector(n, m).mat
            want = denseref.sector_projector(n, m, m)
            np.testing.assert_allclose(got, want, atol=ATOL)


def test_mz_projector_rejects_bad_parity():
    with pytest.raises(InvalidOutcomeError):
        mz_projector(4, 1)
    with pytest.raises(InvalidOutcomeError):
        mz_projector(4, 6)


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 6))
def test_projectors_resolve_identity(n):
    total = np.zeros((2**n, 2**n), dtype=complex)
    for m in range(-n, n + 1, 2):
        p = mz_projector(n, m).mat
        np.testing.assert_allclose(p @ p, p, atol=ATOL)
        np.testing.assert_allclose(p, p.conj().T, atol=ATOL)
        total += p
    np.testing.assert_allclose(total, np.eye(2**n), atol=ATOL)


def test_interval_projector_snaps_inward():
    p = mz_interval_projector(4, -1, 3)
    want = denseref.sector_projector(4, 0, 2)
    np.testing.assert_allclose(p.mat, want, atol=ATOL)


def test_interval_projector_rejects_empty_window():
    with pytest.raises(InvalidOutcomeError):
        mz_interval_projector(4, 1, 1)
    with pytest.raises(InvalidOutcomeError):
        mz_interval_projector(4, 5, 7)


def test_snap_interval_clips_and_orders():
    assert snap_interval(4, -9, 9) == (-4, 4)
    assert snap_interval(4, -1, 1) == (0, 0)
    assert snap_interval(5, -1, 1) == (-1, 1)
    with pytest.raises(InvalidOutcomeError):
        snap_interval(4, 3, 1)


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 8), st.integers(-10, 10), st.integers(-10, 10))
def test_snap_interval_lattice_invariants(n, lo, hi):
    try:
        slo, shi = snap_interval(n, lo, hi)
    except InvalidOutcomeError:
        # only legitimate when no outcome of the right parity fits
        assert hi < lo or hi < -n or lo > n or (
            lo == hi and (n - lo) % 2 == 1)
        return
    assert -n <= slo <= shi <= n
    assert (n - slo) % 2 == 0 and (n - shi) % 2 == 0
    assert slo >= lo and shi <= hi


def test_herm_expm_matches_scipy():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    hmat = (g + g.conj().T) / 2.0
    from catlab.spincore import as_operator
    got = herm_expm(as_operator(hmat), -0.7).mat
    want = denseref.scipy.linalg.expm(-0.7 * hmat)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_herm_expm_roundtrip_is_conditioning_limited():
    from catlab.spincore import as_operator
    rng = np.random.default_rng(11)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    hmat = (g + g.conj().T) / 2.0
    hmat *= 5.0 / np.linalg.norm(hmat, 2)
    op = as_operator(hmat)
    fwd = herm_expm(op, 1.0).mat
    bwd = herm_expm(op, -1.0).mat
    defect = np.max(np.abs(fwd @ bwd - np.eye(16)))
    assert defect < 1e-10
    # at scale 20 only the conditioning-aware relative bound is meaningful
    hmat *= 4.0
    op = as_operator(hmat)
    fwd = herm_expm(op, 1.0).mat
    bwd = herm_expm(op, -1.0).mat
    defect = np.max(np.abs(fwd @ bwd - np.eye(16)))
    scale = np.max(np.abs(fwd)) * np.max(np.abs(bwd))
    assert defect < 1e-10 * scale


def test_unitary_evolution_is_unitary_and_correct():
    ham = SpinHamiltonian(n=3, h=0.9, j=(0.2, 0.1, 0.3))
    u = unitary_evolution(ham.realize(), 1.3).mat
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    want = denseref.scipy.linalg.expm(-1.3j * denseref.hamiltonian(3, 0.9, (0.2, 0.1, 0.3)))
    np.testing.assert_allclose(u, want, atol=1e-11)


def test_double_commutator_matches_reference():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    eta = (g + g.conj().T) / 2.0
    amat = denseref.magnetization("x", 3)
    got = double_commutator(total_magnetization("x", 3), eta).mat
    np.testing.assert_allclose(got, denseref.double_commutator(amat, eta), atol=1e-11)


def test_double_commutator_site_dependent_observable_non_hermitian_operand():
    rng = np.random.default_rng(17)
    n = 5
    coeffs = rng.standard_normal((n, 3))
    assert np.all(coeffs[:, 1] != 0.0)
    amat = sum(c * denseref.site_operator(axis, site, n)
               for site in range(1, n + 1)
               for axis, c in zip("xyz", coeffs[site - 1]))
    x = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    got = double_commutator(additive_observable(coeffs), x).mat
    np.testing.assert_allclose(got, denseref.double_commutator(amat, x), atol=1e-10)


def test_double_commutator_rejects_a_dense_observable():
    amat = denseref.magnetization("x", 3)
    with pytest.raises(ContractViolationError):
        double_commutator(amat, np.eye(8))
    with pytest.raises(ContractViolationError):
        double_commutator(total_magnetization("x", 3), np.eye(4))


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    hmat = (g + g.conj().T) / 2.0
    assert trace_norm(hmat) == pytest.approx(denseref.trace_norm(hmat), rel=1e-12)


def test_as_state_validates_input():
    good = np.eye(4) / 4.0
    state = as_state(good)
    assert state.purity == pytest.approx(0.25)
    with pytest.raises(ContractViolationError):
        as_state(np.diag([1.1, -0.1, 0.0, 0.0]))
    with pytest.raises(ContractViolationError):
        as_state(np.diag([0.7, 0.7, 0.0, 0.0]))
    skew = good.astype(complex).copy()
    skew[0, 1] = 0.3j
    with pytest.raises(ContractViolationError):
        as_state(skew)


def test_pure_state_normalizes():
    vec = np.array([3.0, 4.0], dtype=complex)
    state = pure_state(vec)
    assert np.trace(state.mat).real == pytest.approx(1.0)
    assert state.purity == pytest.approx(1.0)


def test_dense_cap_guards_realization():
    with pytest.raises(CapacityError):
        mz_projector(DENSE_CAP + 1, DENSE_CAP + 1)
    with pytest.raises(CapacityError):
        total_magnetization("z", DENSE_CAP + 2).realize()
