"""Independent dense reference implementations for cross-checking.

Everything here is built the slow, obvious way: explicit Kronecker chains,
scipy.linalg.expm for thermal weights, singular values for trace norms.
None of the package's eigendecomposition or matrix-free shortcuts are used,
so agreement between the two is meaningful.

Conventions match the package: z basis in lexicographic order, site 1 is
the most significant bit, a cleared bit means spin up (sigma_z = +1).
"""

from functools import reduce

import numpy as np
import scipy.linalg

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
S1 = np.eye(2, dtype=complex)

_PAULI = {"x": SX, "y": SY, "z": SZ, "i": S1}


def kron_chain(mats):
    return reduce(np.kron, mats)


def site_operator(axis, site, n):
    """Single-site Pauli at 1-indexed ``site`` embedded in n spins."""
    mats = [S1] * n
    mats[site - 1] = _PAULI[axis]
    return kron_chain(mats)


def magnetization(axis, n):
    total = np.zeros((2**n, 2**n), dtype=complex)
    for site in range(1, n + 1):
        total += site_operator(axis, site, n)
    return total


def string_operator(letters):
    """Tensor product of Pauli letters, one per site, leftmost = site 1."""
    return kron_chain([_PAULI[ch] for ch in letters])


def hamiltonian(n, h, j=(0.0, 0.0, 0.0), boundary="periodic"):
    jx, jy, jz = j
    ham = -h * magnetization("x", n)
    bonds = [(s, s + 1) for s in range(1, n)]
    if boundary == "periodic" and n > 2:
        bonds.append((n, 1))
    for a, b in bonds:
        for coeff, axis in ((jx, "x"), (jy, "y"), (jz, "z")):
            if coeff != 0.0:
                ham -= coeff * site_operator(axis, a, n) @ site_operator(axis, b, n)
    return ham


def gibbs(hmat, beta):
    weights = scipy.linalg.expm(-beta * hmat)
    return weights / np.trace(weights).real


def ground(hmat, tol=1e-9):
    """The ground-space projector of hmat, mixed uniformly when degenerate."""
    vals, vecs = np.linalg.eigh(hmat)
    low = vecs[:, vals <= vals[0] + tol * max(1.0, abs(vals[0]))]
    return low @ low.conj().T / low.shape[1]


def mz_eigenvalues(n):
    dim = 2**n
    return np.array([n - 2 * bin(k).count("1") for k in range(dim)], dtype=float)


def sector_projector(n, m_lo, m_hi):
    vals = mz_eigenvalues(n)
    keep = (vals >= m_lo) & (vals <= m_hi)
    return np.diag(keep.astype(complex))


def project(rho, proj):
    """Normalized post-measurement state and outcome probability."""
    unnorm = proj @ rho @ proj
    prob = np.trace(unnorm).real
    return unnorm / prob, prob


def double_commutator(amat, eta):
    return amat @ amat @ eta - 2.0 * amat @ eta @ amat + eta @ amat @ amat


def catness(rho, amat, eta):
    return np.trace(eta @ double_commutator(amat, rho)).real


def trace_norm(mat):
    return float(np.sum(scipy.linalg.svdvals(mat)))


def optimal_catness(rho, amat):
    """Best witness value: sum of positive eigenvalues of [A,[A,rho]]."""
    comm = double_commutator(amat, rho)
    vals = np.linalg.eigvalsh(comm)
    return float(np.sum(vals[vals > 0.0]))


def random_density_matrix(n, rng, rank=None):
    dim = 2**n
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def fixture_dense(kind, n):
    """A catlab reference state as a dense density matrix, from its definition.

    Index 0 is all spins up and 2^n - 1 all down; flipping site s toggles
    the bit 2^(n - s). rho_ex1 mixes (|0_i> + |1_i>)/sqrt(2) over the sites
    i, |0_i> flipping site i and |1_i> its global complement; rho_ex3 mixes
    (|i> + |comp i>)/sqrt(2) for i = 1..n/3, |i> flipping the last i sites;
    psi2 superposes the n + 1 staircase states that flip the last k sites.
    """
    dim = 2**n
    full = dim - 1

    def proj(amps):
        vec = np.zeros(dim, dtype=complex)
        for index, amp in amps:
            vec[index] += amp
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())

    def last(k):
        return sum(2**(n - s) for s in range(n - k + 1, n + 1))

    if kind == "cat_plus":
        return proj([(0, 1.0), (full, 1.0)])
    if kind == "cat_minus":
        return proj([(0, 1.0), (full, -1.0)])
    if kind == "psi1":
        return proj([(0, np.sqrt(1.0 - 1.0 / n)), (full, np.sqrt(1.0 / n))])
    if kind == "psi2":
        return proj([(last(k), 1.0) for k in range(n + 1)])
    if kind == "rho_ex2":
        return 0.5 * (proj([(0, 1.0)]) + proj([(full, 1.0)]))
    if kind == "rho_ex1":
        flips = [2**(n - site) for site in range(1, n + 1)]
    elif kind == "rho_ex3":
        flips = [last(i) for i in range(1, n // 3 + 1)]
    else:
        raise ValueError(kind)
    return sum(proj([(s, 1.0), (full - s, 1.0)]) for s in flips) / len(flips)
