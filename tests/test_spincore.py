"""Operator algebra, projectors, and spectral exponentials."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import denseref
from catlab import spincore
from catlab.errors import CapacityError, ContractViolationError, InvalidOutcomeError
from catlab.indices import expect_c
from catlab.spincore import (
    DENSE_CAP,
    FactoredState,
    PauliTerms,
    QuantumState,
    SpectralState,
    WindowState,
    _symmetry_group,
    additive_observable,
    as_state,
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
    uniform_observable,
)
from catlab.thermal import SpinHamiltonian, gibbs_state

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
                got = pauli_site(axis, site, n)
                want = denseref.site_operator(axis, site, n)
                np.testing.assert_allclose(got, want, atol=ATOL)


def test_pauli_site_algebra():
    n = 3
    sx = pauli_site("x", 2, n)
    sy = pauli_site("y", 2, n)
    sz = pauli_site("z", 2, n)
    np.testing.assert_allclose(sx @ sx, np.eye(2**n), atol=ATOL)
    np.testing.assert_allclose(sx @ sy - sy @ sx, 2.0j * sz, atol=ATOL)
    # different sites commute
    other = pauli_site("y", 1, n)
    np.testing.assert_allclose(sx @ other, other @ sx, atol=ATOL)


def test_total_magnetization_matches_site_sum():
    for axis in "xyz":
        got = total_magnetization(axis, 4).realize()
        want = denseref.magnetization(axis, 4)
        np.testing.assert_allclose(got, want, atol=ATOL)


def test_mz_values_counts_cleared_bits():
    np.testing.assert_array_equal(mz_values(3), denseref.mz_eigenvalues(3))
    vals = mz_values(2)
    np.testing.assert_array_equal(vals, [2.0, 0.0, 0.0, -2.0])


def test_site_one_is_most_significant_bit():
    n = 3
    sz1 = pauli_site("z", 1, n)
    # index 0b011 has site 1 up, sites 2 and 3 down
    assert sz1[3, 3] == pytest.approx(1.0)
    sz3 = pauli_site("z", 3, n)
    assert sz3[3, 3] == pytest.approx(-1.0)


def test_pauli_terms_apply_matches_dense_matrix():
    rng = np.random.default_rng(7)
    n = 5
    coeffs = rng.standard_normal((n, 3))
    obs = additive_observable(coeffs)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        for k, axis in enumerate("xyz"):
            dense += coeffs[site - 1, k] * denseref.site_operator(axis, site, n)
    block = rng.standard_normal((2**n, 4)) + 1j * rng.standard_normal((2**n, 4))
    np.testing.assert_allclose(obs.terms().apply(block), dense @ block,
                               rtol=RTOL, atol=ATOL)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_pauli_terms_apply_random_directions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    coeffs = rng.standard_normal((n, 3))
    obs = additive_observable(coeffs)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        for k, axis in enumerate("xyz"):
            dense += coeffs[site - 1, k] * denseref.site_operator(axis, site, n)
    np.testing.assert_allclose(obs.terms().apply(vec[:, None])[:, 0],
                               dense @ vec, rtol=1e-11, atol=1e-11)


def test_pauli_terms_apply_takes_a_vector_or_a_block():
    n = 3
    rng = np.random.default_rng(11)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    site_y = np.zeros((n, 3))
    site_y[1, 1] = 0.7
    cases = {
        "site z": total_magnetization("z", n).terms(),
        "site y": pauli_terms(n, site_y),
        "bond": pauli_terms(n, bonds=[(1, 3, (0.3, 0.2, 0.4))]),
    }
    for name, terms in cases.items():
        column = terms.apply(vec[:, None])
        assert column.shape == (2**n, 1), name
        got = terms.apply(vec)
        assert got.shape == (2**n,), name
        np.testing.assert_array_equal(got, column[:, 0])
        np.testing.assert_allclose(got, terms.dense() @ vec, rtol=RTOL, atol=ATOL)
        for bad in (np.ones(2**n + 1), np.ones((2**(n - 1), 2)), np.ones((2**n, 2, 2))):
            with pytest.raises(ContractViolationError):
                terms.apply(bad)


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
    # real, flip- and translation-symmetric, yet <01| H |00> = 1 against
    # <00| H |01> = 2: its eigenvalues are +-2 sqrt 2, not the blocks' +-2
    lopsided = np.array([1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ContractViolationError, match="Hermitian"):
        symmetry_eigh(PauliTerms(2, {1: lopsided, 2: lopsided}), translation=True)
    # real, Hermitian, flip- and translation-symmetric, but the site reversal
    # sends sum_i X_i Z_i+1 Z_i+2 to sum_i Z_i Z_i+1 X_i+2: a ring rejects
    # it, and the flip alone, whose blocks are real as built, still takes it
    n, flips = 5, {}
    for i in range(1, n + 1):
        x = np.zeros((n, 3))
        x[i - 1, 0] = 1.0
        zz = pauli_terms(n, bonds=[(i % n + 1, (i + 1) % n + 1, (0.0, 0.0, 1.0))])
        for mask, amp in (pauli_terms(n, x) @ zz).flips.items():
            flips[mask] = flips.get(mask, 0.0) + amp
    chiral = PauliTerms(n, flips)
    with pytest.raises(ContractViolationError, match="reflection"):
        symmetry_eigh(chiral, translation=True)
    group, w, _ = symmetry_eigh(chiral, translation=False)
    np.testing.assert_allclose(np.sort(w.ravel()), np.linalg.eigvalsh(chiral.dense()),
                               rtol=0, atol=1e-12)


def test_open_chain_eigensolves_real_blocks():
    # the flip alone has the real characters +-1, so both blocks are real
    ham = SpinHamiltonian(n=6, h=1.0, j=(0.2, 0.0, 0.1), boundary="open")
    group, w, u = symmetry_eigh(ham.terms(), translation=False)
    assert group.chars.dtype == w.dtype == u.dtype == np.float64
    rho = gibbs_state(ham, beta=1.0)
    want = denseref.gibbs(denseref.hamiltonian(6, 1.0, (0.2, 0.0, 0.1), "open"), 1.0)
    np.testing.assert_allclose(rho.mat, want, rtol=RTOL, atol=ATOL)


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
    assert list(np.flatnonzero(group.held[:, i])) == [0, 7]
    # the kept blocks, with their conjugates, hold every basis state once
    assert int(group.mult @ group.valid.sum(axis=1)) == 64
    # without the flip: the six translations, one row per momentum k <= 3
    # (the search forms' blocks); T^2 and T^4 fix the alternating state, so
    # only k = 0 and k = 3 hold its orbit of two states
    moves = _symmetry_group(6, True, False)
    assert moves.images.shape == (6, 64) and moves.images[1][alt] == 0b101010
    assert moves.stab[moves.rep_index[alt]] == 3
    assert moves.mult.tolist() == [1, 2, 2, 1]
    assert list(np.flatnonzero(moves.held[:, moves.rep_index[alt]])) == [0, 3]
    assert int(moves.mult @ moves.held.sum(axis=1)) == 64


def test_translation_group_without_the_flip_checks_t_alone():
    # its generator is T = images[1], not images[2] = T^2, and it holds no
    # flip: ZZ on the bonds (1, 2), (3, 4), (5, 6) is invariant under T^2
    # only, and M_z commutes with every translation but not with the flip
    group = _symmetry_group(6, True, False)
    orbits = np.arange(group.reps.size)
    dimers = pauli_terms(6, bonds=[(a, a + 1, (0.0, 0.0, 1.0)) for a in (1, 3, 5)])
    with pytest.raises(ContractViolationError, match="cyclic translation"):
        spincore._character_blocks(group, dimers, orbits)
    blocks = spincore._character_blocks(group, total_magnetization("z", 6).terms(), orbits)
    # M_z is diagonal: each momentum reads M_z of the orbits it holds
    want = (group.held * mz_values(6)[group.reps])[:, :, None] * np.eye(orbits.size)
    np.testing.assert_allclose(blocks, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, j, boundary", [(6, (0.0, 0.0, 0.0), "periodic"),
                                          (8, (0.2, 0.1, 0.3), "periodic"),
                                          (8, (0.2, 0.1, 0.3), "open")])
def test_blocks_and_projections_are_indexed_by_orbit(n, j, boundary):
    ham = SpinHamiltonian(n=n, h=1.0, j=j, boundary=boundary)
    group, _, u = symmetry_eigh(ham.terms(), translation=boundary == "periodic")
    # one row per orbit, the trivial character holding every orbit; the rows
    # of an orbit a character holds no state of are exactly zero
    assert u.shape[1:] == (group.reps.size, group.reps.size) and group.held[0].all()
    assert not u[np.nonzero(~group.held)].any()
    np.testing.assert_array_equal(group.valid.sum(axis=1), group.held.sum(axis=1))
    mask = (mz_values(n) >= -2) & (mz_values(n) <= 2)
    post = gibbs_state(ham, 1.0).project(mask, 2.0)
    assert isinstance(post, SpectralState)
    np.testing.assert_array_equal(post.inside, mask[group.reps])
    np.testing.assert_array_equal(post.support(), np.flatnonzero(mask))


def test_uniform_observable_realizes_magnetization():
    direction = np.array([0.6, 0.0, 0.8])
    got = uniform_observable(direction, 3).realize()
    want = 0.6 * denseref.magnetization("x", 3) + 0.8 * denseref.magnetization("z", 3)
    np.testing.assert_allclose(got, want, atol=ATOL)


def test_mz_projector_matches_reference():
    for n in (2, 3, 4):
        for m in range(-n, n + 1, 2):
            got = mz_projector(n, m).dense()
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
        p = mz_projector(n, m).dense()
        np.testing.assert_allclose(p @ p, p, atol=ATOL)
        np.testing.assert_allclose(p, p.conj().T, atol=ATOL)
        total += p
    np.testing.assert_allclose(total, np.eye(2**n), atol=ATOL)


def test_interval_projector_snaps_inward():
    p = mz_interval_projector(4, -1, 3)
    want = denseref.sector_projector(4, 0, 2)
    np.testing.assert_allclose(p.dense(), want, atol=ATOL)


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
    got = herm_expm(hmat, -0.7)
    want = denseref.scipy.linalg.expm(-0.7 * hmat)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_herm_expm_roundtrip_is_conditioning_limited():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    hmat = (g + g.conj().T) / 2.0
    hmat *= 5.0 / np.linalg.norm(hmat, 2)
    fwd = herm_expm(hmat, 1.0)
    bwd = herm_expm(hmat, -1.0)
    defect = np.max(np.abs(fwd @ bwd - np.eye(16)))
    assert defect < 1e-10
    # at scale 20 only the conditioning-aware relative bound is meaningful
    hmat *= 4.0
    fwd = herm_expm(hmat, 1.0)
    bwd = herm_expm(hmat, -1.0)
    defect = np.max(np.abs(fwd @ bwd - np.eye(16)))
    scale = np.max(np.abs(fwd)) * np.max(np.abs(bwd))
    assert defect < 1e-10 * scale


def test_double_commutator_matches_reference():
    # [A, [A, eta]] for a dense eta is read through expect_c as Tr[rho C]
    rng = np.random.default_rng(5)
    rho = as_state(denseref.random_density_matrix(3, rng))
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    eta = (g + g.conj().T) / 2.0
    amat = denseref.magnetization("x", 3)
    assert expect_c(rho, total_magnetization("x", 3), eta) == pytest.approx(
        np.trace(rho.mat @ denseref.double_commutator(amat, eta)).real, rel=1e-12)


def test_double_commutator_site_dependent_observable_non_hermitian_operand():
    rng = np.random.default_rng(17)
    n = 5
    coeffs = rng.standard_normal((n, 3))
    assert np.all(coeffs[:, 1] != 0.0)
    amat = sum(c * denseref.site_operator(axis, site, n)
               for site in range(1, n + 1)
               for axis, c in zip("xyz", coeffs[site - 1]))
    rho = as_state(denseref.random_density_matrix(n, rng))
    x = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    a = additive_observable(coeffs)
    # a non-Hermitian operand gives a complex trace, which expect_c refuses;
    # its Hermitian part carries the value
    with pytest.raises(ContractViolationError, match="imaginary part"):
        expect_c(rho, a, x)
    herm = (x + x.conj().T) / 2.0
    assert expect_c(rho, a, herm) == pytest.approx(
        np.trace(rho.mat @ denseref.double_commutator(amat, x)).real, rel=1e-12)


def test_double_commutator_rejects_a_dense_observable():
    rho = as_state(denseref.random_density_matrix(3, np.random.default_rng(3)))
    with pytest.raises(ContractViolationError, match="AdditiveObservable"):
        expect_c(rho, denseref.magnetization("x", 3), np.eye(8))
    with pytest.raises(ContractViolationError, match="dimension"):
        expect_c(rho, total_magnetization("x", 3), np.eye(4))
    with pytest.raises(ContractViolationError, match="dimension"):
        expect_c(rho, total_magnetization("x", 4), np.eye(8))


def test_kernel_double_commutator_matches_reference():
    rng = np.random.default_rng(23)
    n = 5
    # Mx against an outcome projector, and a site-dependent observable with
    # y parts against a Pauli sum with flips and complex amplitudes
    coeffs = rng.standard_normal((n, 3))
    bonds = [(1, 3, (0.4, -0.7, 0.2)), (2, 5, (0.0, 0.3, 0.0))]
    cases = [(total_magnetization("x", n).terms(), mz_interval_projector(n, -1, 3)),
             (additive_observable(coeffs).terms(),
              pauli_terms(n, rng.standard_normal((n, 3)), bonds))]
    for a, e in cases:
        got = a.double_commutator(e)
        assert isinstance(got, PauliTerms)
        np.testing.assert_allclose(got.dense(), denseref.double_commutator(a.dense(), e.dense()),
                                   rtol=0, atol=1e-12)


def test_eigenvalue_checks_skip_the_eigenvectors(monkeypatch):
    rho = denseref.random_density_matrix(4, np.random.default_rng(5))

    def refuse(*args, **kwargs):
        raise AssertionError("eigh computes eigenvectors that are not read")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    np.testing.assert_allclose(as_state(rho).mat, rho, atol=0)
    with pytest.raises(ContractViolationError, match="PSD floor"):
        as_state(np.diag([1.1, -0.1]))


def test_no_caller_reads_a_state_through_its_dense_matrix():
    # spincore implements the reads, and the oracle is the independent
    # cross-check; thermal's realize() is the one dense view of H
    def is_mat(node):
        return isinstance(node, ast.Attribute) and node.attr == "mat"

    def is_dim_square(node):
        return (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(isinstance(e, ast.Attribute) and e.attr == "dim" for e in node.elts))

    found = []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        if path.name in ("spincore.py", "oracle.py"):
            continue
        dense_ok = path.name == "thermal.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            args = [*node.args, *(k.value for k in node.keywords)]
            on_mat = any(map(is_mat, args))
            func = ast.unparse(node.func)
            if ((node.func.attr == "expect" and on_mat)
                    or (func in ("np.diag", "np.diagonal") and on_mat)
                    or (node.func.attr == "diagonal" and is_mat(node.func.value))
                    or (not dense_ok and node.func.attr == "dense")
                    or (not dense_ok and func == "np.zeros" and any(map(is_dim_square, args)))
                    or (not dense_ok and func == "np.where" and on_mat)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_no_low_rank_state_is_built_as_a_dense_matrix():
    # fixtures and pure states are kept as their factors (FactoredState).
    # witness_w is exempt: it builds the dense array that the oracle
    # reads, so indices.py as a whole keeps one np.zeros((dim, dim))
    def is_square(node):
        return (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and ast.unparse(node.elts[0]) == ast.unparse(node.elts[1]))

    seen, found = [], []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(func, ast.FunctionDef)
                    and func.name in ("fixture_states", "pure_state")):
                continue
            seen.append(func.name)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = ast.unparse(node.func)
                if name == "np.outer" or (name == "np.zeros" and node.args
                                          and is_square(node.args[0])):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert sorted(seen) == ["fixture_states", "pure_state"]
    assert found == []


def test_no_module_builds_a_kronecker_chain():
    # every Pauli operator comes from the bit-operation kernel. The oracle's
    # _string_matrix stays as its independent reference for the Pauli strings
    found = []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for func in ast.walk(tree)
                  if path.name == "oracle.py" and isinstance(func, ast.FunctionDef)
                  and func.name == "_string_matrix" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in exempt
                    and ast.unparse(node.func).split(".")[-1] == "kron"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_every_double_commutator_is_the_kernels():
    # [A, [A, X]] is PauliTerms.double_commutator or the witness form of the
    # index layer; the oracle's plain-product reference is exempt by name
    defined, stray = [], []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f): f"{c.name}.{f.name}" for c in ast.walk(tree)
                   if isinstance(c, ast.ClassDef) for f in c.body
                   if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and "commutator" in node.name:
                defined.append(f"{path.stem}.{methods.get(id(node), node.name)}")
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", ""))
            if isinstance(node, ast.Call) and "commutator" in name:
                kernel = isinstance(func, ast.Attribute) and name == "double_commutator"
                reference = path.name == "oracle.py" and name == "_dense_double_commutator"
                if not (kernel or reference):
                    stray.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert sorted(defined) == ["oracle._dense_double_commutator",
                               "spincore.PauliTerms.double_commutator"]
    assert stray == []


def test_every_structured_state_is_one_object_read_through_entries():
    # a Gibbs state keeps its group, u and weights itself; a window is read
    # through entries(); the three dense views are one gather
    assert not hasattr(spincore, "SymmetrySpectrum")
    assert not hasattr(QuantumState, "block")
    for cls in (WindowState, FactoredState, SpectralState):
        assert vars(cls)["mat"].func is spincore._dense_view
    states = {"QuantumState", "WindowState", "FactoredState", "SpectralState"}
    found = []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ClassDef) and node.name == "SymmetrySpectrum")
            assert not (isinstance(node, ast.Attribute) and node.attr == "block")
        if path.stem == "spincore":
            continue
        # outside spincore a state is read through its methods: no class
        # test, and no read of a factored state's columns or weights
        for top in tree.body:
            for node in ast.walk(top):
                name = getattr(getattr(node, "func", None), "id", "")
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                class_test = (name == "isinstance" and states & names) or (
                    isinstance(node, ast.Compare) and "type" in names)
                internals = isinstance(node, ast.Attribute) and node.attr in ("vecs", "weights")
                if class_test or internals:
                    where = getattr(top, "name", "<module>")
                    found.append(f"{path.stem}.{where}: {ast.unparse(node)}")
    assert found == []


def test_factored_state_rejects_invalid_factors():
    cols = np.eye(4, 2, dtype=complex)
    state = FactoredState(cols, np.array([0.75, 0.25]))
    # kept in ascending order of weight
    assert state.weights.tolist() == [0.25, 0.75]
    np.testing.assert_array_equal(state.vecs[:, 1], cols[:, 0])
    assert state.purity == 0.625
    # columns already in order are kept as given, not copied
    assert FactoredState(cols, np.array([0.25, 0.75])).vecs is cols
    with pytest.raises(ContractViolationError, match="orthonormal"):
        FactoredState(cols * 1.001, np.array([0.5, 0.5]))
    with pytest.raises(ContractViolationError, match="orthonormal"):
        FactoredState(np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt([1.0, 2.0]),
                      np.array([0.5, 0.5]))
    with pytest.raises(ContractViolationError, match=">= 0"):
        FactoredState(cols, np.array([1.5, -0.5]))
    with pytest.raises(ContractViolationError, match="sum to 1"):
        FactoredState(cols, np.array([0.5, 0.4]))
    with pytest.raises(ContractViolationError):
        FactoredState(cols, np.array([1.0]))


def test_no_module_builds_a_philox_generator_per_draw():
    # measure draws every Philox output itself, in one vectorized pass;
    # numpy's Philox is only the reference the tests compare it with
    found = []
    for path in sorted(Path(spincore.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "Philox"):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []


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


def test_herm_eigh_keeps_a_real_array_real():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((12, 12))
    mat = g + g.T
    w, v = spincore._herm_eigh(mat, "real input")
    want_w, want_v = np.linalg.eigh(mat)
    assert v.dtype == np.float64
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(v, want_v)
    assert spincore._herm_eigh(mat, "real input", _values_only=True).dtype == np.float64
