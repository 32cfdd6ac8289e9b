"""Operator algebra for small spin-1/2 registers.

One bit-operation kernel builds every Pauli operator here. A sum of site
terms (x, y, z) and bond terms (xx, yy, zz) is kept as PauliTerms: it sends
a basis state |k> to sum_f amp_f[k] |k ^ f> over a few flip masks f. An x
flips one bit, a y flips it with amplitude i z, a z is the sign z on the
diagonal, and a bond term is the product of two of these. Applying such an
operator to vectors, tracing it against a density matrix and writing its
dense view cost O(2^n) work per term, and composing two of them O(2^n) per
pair of terms, with no Kronecker products and no matrix products. Two
such sums A, E give [A, [A, E]] = A^2 E - 2 A E A + E A^2 as one more,
merged over its flip masks: every z-diagonal witness [Mx, [Mx, P]] is read
from it with no d x d array.

Density matrices and general operators are dense arrays, which is the right
tool up to the dense cap of twelve spins: exact eigendecompositions beat any
sparse scheme at these sizes and keep every downstream quantity
reproducible to machine precision. Every dense eigendecomposition, here
and in the index layer, goes through one helper (_herm_eigh), which
rejects a non-Hermitian input instead of reading one triangle of it; only
the symmetry blocks below and the search forms of the index layer, both
Hermitian by construction, call eigh themselves. The spin Hamiltonians are
real and commute with the global spin flip, and a ring's with its cyclic
translation too, so symmetry_eigh diagonalizes them in one block per
character of that group: two real flip-parity blocks for an open chain, 2n
momentum and parity blocks for a ring, each with one row per orbit of the
group (zero where its character holds no state of that orbit), read from
the bit-operation kernel with no dense matrix. Every entry of a state is
read through QuantumState.entries(rows, cols), and a kernel trace reads only
the rows in support(). A state built from such a spectrum (SpectralState)
keeps its group, eigenvectors and weights. A measurement goes through one
method, QuantumState.project. A SpectralState first narrows its support to
the orbits that the window touches (an orbit mask). A window that the group
leaves invariant (symmetric about 0) keeps that state, whose diagonal,
purity and traces of invariant sums (expect, catness) are read per character
from its factors and the blocks of the sums (_character_blocks). Any other
window keeps the narrowed state's block on it (WindowState); a pure state or
a low-rank mixture (FactoredState) keeps its orthonormal columns and
weights. Other reads of a SpectralState gather entries from a table over the
orbits of its support, the character sum of the same per-character blocks.
All three gather their dense view through entries(), on request only. Every
state gives its factors rho = V diag(w) V^dagger through factors(): a
FactoredState its own columns, any other state an eigensolve of its support
block. A magnetization projector is a PauliTerms with one diagonal term.

Basis convention, shared by all modules: computational z basis, ordered
lexicographically with site 1 as the most significant tensor factor, and
sigma_z |up> = +|up> (a cleared bit means spin up). The convention is
internal; every reported scalar is invariant under the global spin flip.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (CapacityError, ContractViolationError,
                     InvalidOutcomeError)

DENSE_CAP = 12
HERM_TOL = 1e-12
PSD_FLOOR = -1e-10
_EIG_FLOOR = 1e-12  # the floor at or below which a weight or a relative eigenvalue counts as zero
_GATHER_CHUNK = 1 << 21  # entries per gather step when a state's rows are read in chunks

_AXES = ("x", "y", "z")


def _check_axis(axis: str) -> str:
    if axis not in _AXES:
        raise ContractViolationError(f"unknown Pauli axis {axis!r}")
    return axis


def _check_cap(n: int) -> int:
    if n < 1:
        raise ContractViolationError(f"need at least one site, got n={n}")
    if n > DENSE_CAP:
        raise CapacityError(f"n={n} exceeds the dense cap of {DENSE_CAP} spins")
    return n


@lru_cache(maxsize=None)
def _bit_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices k and the signs z[s, k] = +1 when site s+1 of |k> is up."""
    idx = np.arange(1 << n)
    z = 1.0 - 2.0 * ((idx >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    idx.setflags(write=False)
    z.setflags(write=False)
    return idx, z


def _accumulate(flips: dict, mask: int, amp) -> None:
    flips[mask] = flips[mask] + amp if mask in flips else amp


@dataclass(frozen=True, eq=False)
class PauliTerms:
    """A sum of Pauli strings kept as bit flips and signs.

    The operator sends |k> to sum over f of flips[f][k] |k ^ f>; each
    amplitude is a scalar (the same for every k) or a length-2^n array.
    """

    n: int
    flips: dict

    def apply(self, block: np.ndarray) -> np.ndarray:
        """The operator applied to a length-2^n vector or a (2^n, k) block of
        columns; the result has the shape of the input, and is real when the
        block and every amplitude are."""
        idx, _ = _bit_table(self.n)
        block = np.asarray(block)
        block = block.astype(np.result_type(block, self.dtype), copy=False)
        if block.ndim not in (1, 2) or block.shape[0] != idx.size:
            raise ContractViolationError(
                f"apply needs {idx.size} rows at n={self.n}, got shape {block.shape}")
        cols = block.reshape(idx.size, -1)
        out = np.zeros(cols.shape, dtype=block.dtype)
        for mask, amp in self.flips.items():
            src = idx ^ mask
            # scaled in place: one large temporary per term, since fresh
            # temporaries dominated the cost on wide blocks
            flipped = cols[src]
            flipped *= amp[src, None] if np.ndim(amp) else amp
            out += flipped
        return out.reshape(block.shape)

    @property
    def dtype(self) -> type:
        """complex when an amplitude is, else float."""
        return complex if any(np.iscomplexobj(a) for a in self.flips.values()) else float

    def dense(self) -> np.ndarray:
        """Dense matrix, real unless an amplitude is complex; O(terms * 2^n) writes."""
        idx, _ = _bit_table(self.n)
        out = np.zeros((idx.size, idx.size), dtype=self.dtype)
        for mask, amp in self.flips.items():
            out[idx ^ mask, idx] += amp
        return out

    def __matmul__(self, other: "PauliTerms") -> "PauliTerms":
        """The product self @ other, in which other acts first."""
        idx, _ = _bit_table(self.n)
        flips: dict = {}
        for g, b in other.flips.items():
            for f, a in self.flips.items():
                _accumulate(flips, f ^ g, b * (a[idx ^ g] if np.ndim(a) else a))
        return PauliTerms(self.n, flips)

    def double_commutator(self, other: "PauliTerms") -> "PauliTerms":
        """[T, [T, E]] = T^2 E - 2 T E T + E T^2 for E = other, merged into one
        sum over flip masks; no d x d array is formed."""
        te = self @ other
        flips = dict((self @ te).flips)
        for weight, part in ((-2.0, te @ self), (1.0, other @ (self @ self))):
            for mask, amp in part.flips.items():
                _accumulate(flips, mask, weight * amp)
        return PauliTerms(self.n, flips)

    def expect(self, rho: QuantumState) -> complex:
        """Tr[rho T], reading rho only where T has entries and on rho.support()."""
        if rho.dim != 1 << self.n:
            raise ContractViolationError(f"expect at n={self.n} got a state of dim {rho.dim}")
        rows = rho.support()
        total = 0j
        for mask, amp in self.flips.items():
            entries = rho.entries(rows, rows ^ mask)
            total += complex(entries @ amp[rows] if np.ndim(amp) else amp * entries.sum())
        return total


def pauli_terms(n: int, site_coeffs=None, bonds=()) -> PauliTerms:
    """The bit-operation kernel: site and bond terms as flips and signs.

    site_coeffs is an (n, 3) array that adds c_x X_s + c_y Y_s + c_z Z_s on
    every site s; bonds holds (a, b, (j_x, j_y, j_z)) with distinct 1-based
    sites, each adding j_x X_a X_b + j_y Y_a Y_b + j_z Z_a Z_b. Y sends |k>
    to i z_s(k) |k ^ bit_s>, so Y_a Y_b has the entry -z_a z_b on the
    pair-flipped state and every amplitude is real without site y terms.
    """
    _, z = _bit_table(n)
    flips: dict = {}
    if site_coeffs is not None:
        for s, (cx, cy, cz) in enumerate(site_coeffs):
            bit = 1 << (n - 1 - s)
            if cy != 0.0:
                _accumulate(flips, bit, cx + 1j * cy * z[s])
            elif cx != 0.0:
                _accumulate(flips, bit, float(cx))
            if cz != 0.0:
                _accumulate(flips, 0, cz * z[s])
    for a, b, (jx, jy, jz) in bonds:
        if a == b:
            raise ContractViolationError(f"bond ({a}, {b}) needs two distinct sites")
        zz = z[a - 1] * z[b - 1]
        pair = (1 << (n - a)) | (1 << (n - b))
        if jy != 0.0:
            _accumulate(flips, pair, jx - jy * zz)
        elif jx != 0.0:
            _accumulate(flips, pair, float(jx))
        if jz != 0.0:
            _accumulate(flips, 0, jz * zz)
    return PauliTerms(n, flips)


def _herm_eigh(mat: np.ndarray, what: str, _values_only: bool = False):
    """eigh, or eigvalsh with _values_only, of a Hermitian array: the one
    dense eigensolve. Both read one triangle only, so a matrix further than
    HERM_TOL (relative to its largest entry) from Hermitian is rejected."""
    mat = np.asarray(mat, dtype=complex if np.iscomplexobj(mat) else float)
    scale = 1.0 + float(np.abs(mat).max(initial=0.0))
    if float(np.abs(mat - mat.conj().T).max(initial=0.0)) > HERM_TOL * scale:
        raise ContractViolationError(f"{what} must be Hermitian")
    return np.linalg.eigvalsh(mat) if _values_only else np.linalg.eigh(mat)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density matrix, read through entries(); purity is cached on first access."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    @cached_property
    def purity(self) -> float:
        # trace(rho^2) = squared Frobenius norm for a Hermitian matrix
        return float(np.vdot(self.mat, self.mat).real)

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """rho[rows, cols], with the index arrays broadcast as numpy does."""
        return self.mat[rows, cols]

    def support(self) -> np.ndarray:
        """Ascending basis states outside which every row of rho is zero."""
        return np.arange(self.dim)

    def diagonal(self) -> np.ndarray:
        """The diagonal entries <s|rho|s>."""
        idx = np.arange(self.dim)
        return self.entries(idx, idx)

    def project(self, mask: np.ndarray, scale: float = 1.0) -> QuantumState:
        """scale * P rho P for the projector P onto the basis states where
        mask is set; the one place that decides how the result is kept."""
        return WindowState(self, mask, scale)

    def expect(self, *factors: PauliTerms) -> complex:
        """Tr[rho F_1 F_2 ... F_k], the product composed in the kernel."""
        product = factors[0]
        for factor in factors[1:]:
            product = product @ factor
        return product.expect(self)

    def catness(self, a: PauliTerms, eta: PauliTerms) -> complex:
        """Tr[rho [A, [A, eta]]], through the kernel double commutator."""
        return a.double_commutator(eta).expect(self)

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) with rho = V diag(w) V^dagger over the weights above
        _EIG_FLOOR, ascending; V has 2^n rows.

        The support block, read through entries(), is eigensolved where rho
        has a nonzero row or column: exact, as a zero row of a positive
        semidefinite matrix is a kernel vector, and every nonzero entry stays
        in the block checked for hermiticity. V is real when that block is.
        """
        rows = self.support()
        block = self.entries(rows[:, None], rows)
        nonzero = block != 0
        keep = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        if keep.size < rows.size:  # copy only when a zero row is dropped
            block = block[np.ix_(keep, keep)]
        w, v = _herm_eigh(block, "state")
        sel = w > _EIG_FLOOR
        vecs = np.zeros((self.dim, int(sel.sum())), dtype=v.dtype)
        vecs[rows[keep]] = v[:, sel]
        return w[sel], vecs


def _dense_view(rho: QuantumState) -> np.ndarray:
    """The dense rho, gathered through entries() in row chunks."""
    every = np.arange(rho.dim)
    out = np.empty((rho.dim, rho.dim), dtype=complex)
    step = max(1, _GATHER_CHUNK // rho.dim)
    for lo in range(0, rho.dim, step):
        out[lo:lo + step] = rho.entries(every[lo:lo + step, None], every)
    return out


class WindowState(QuantumState):
    """scale * P rho P for the projector P onto the window W of basis states
    where mask is set, kept as its rows (ascending), the D_W x D_W block on
    them (real when rho's entries are) and each state's position in it.
    Every state outside W has position D_W, a zero row and column of the
    block, so entries() returns 0 there; .mat is built on first access only.
    """

    def __init__(self, rho: QuantumState, mask: np.ndarray, scale: float = 1.0):
        rows = np.flatnonzero(mask)
        where = np.full(rho.dim, rows.size)
        where[rows] = np.arange(rows.size)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_where", where)
        block = rho.entries(rows[:, None], rows) * scale
        padded = np.zeros((rows.size + 1, rows.size + 1), dtype=block.dtype)
        padded[:-1, :-1] = block
        object.__setattr__(self, "_block", padded)

    def __repr__(self) -> str:
        return f"WindowState(dim={self.dim}, window={self.rows.size})"

    @property
    def dim(self) -> int:
        return self._where.size

    @cached_property
    def purity(self) -> float:
        # pairwise; a BLAS dot over all d^2 entries was 5e-12 off, relative, at n = 12
        return float(np.sum((self._block.conj() * self._block).real))

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self._block[self._where[rows], self._where[cols]]

    def support(self) -> np.ndarray:
        return self.rows

    mat = cached_property(_dense_view)


class FactoredState(QuantumState):
    """V diag(w) V^dagger, kept as its orthonormal columns V (d x r) and its
    weights w >= 0 (summing to 1), both in ascending order of weight. A read
    of a rows x cols block is one (rows x r)(r x cols) product, purity is the
    sum of w^2, and .mat is built on first access only.
    """

    def __init__(self, vecs: np.ndarray, weights: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        if vecs.ndim != 2 or weights.shape != (vecs.shape[1],):
            raise ContractViolationError("a factored state needs d x r columns and r weights")
        gram = vecs.conj().T @ vecs
        if float(np.abs(gram - np.eye(weights.size)).max(initial=0.0)) > HERM_TOL:
            raise ContractViolationError("factored state columns are not orthonormal")
        if weights.min(initial=0.0) < 0.0 or abs(weights.sum() - 1.0) > 1e-12:
            raise ContractViolationError("factored state weights must be >= 0 and sum to 1")
        if (np.diff(weights) < 0).any():  # reorder, and copy, only when out of order
            order = np.argsort(weights, kind="stable")
            vecs, weights = vecs[:, order], weights[order]
        object.__setattr__(self, "vecs", vecs)
        object.__setattr__(self, "weights", weights)

    def __repr__(self) -> str:
        return f"FactoredState(dim={self.dim}, rank={self.weights.size})"

    @property
    def dim(self) -> int:
        return self.vecs.shape[0]

    @cached_property
    def purity(self) -> float:
        return float((self.weights ** 2).sum())

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows, cols = np.asarray(rows), np.asarray(cols)
        left, right = self.vecs[rows] * self.weights, self.vecs[cols].conj()
        if rows.ndim == 2 and rows.shape[1] == 1 and cols.ndim == 1:
            return left[:, 0] @ right.T
        # any other broadcast sums over the columns without a rows x cols x r array
        return np.einsum("...k,...k->...", left, right)

    def support(self) -> np.ndarray:
        return np.flatnonzero((self.vecs != 0).any(axis=1))

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Its own columns and weights above _EIG_FLOOR, with no eigensolve."""
        sel = self.weights > _EIG_FLOOR
        return self.weights[sel], self.vecs[:, sel]

    mat = cached_property(_dense_view)


def as_state(mat: np.ndarray) -> QuantumState:
    """Wrap a density matrix, verifying trace, hermiticity and PSD.

    The PSD check runs a dense eigenvalue solve, so internal constructions
    that are positive by construction call QuantumState directly.
    """
    mat = np.asarray(mat, dtype=complex)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-12:
        raise ContractViolationError(f"state trace {tr} is not 1")
    evals = _herm_eigh(mat, "state", _values_only=True)
    if float(evals.min()) < PSD_FLOOR:
        raise ContractViolationError(
            f"state has eigenvalue {evals.min():.3e} below the PSD floor")
    return QuantumState(mat)


def pure_state(vec: np.ndarray) -> FactoredState:
    """Density matrix of a normalized state vector, kept as that one column."""
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if not np.isfinite(nrm) or nrm < 1e-300:
        raise ContractViolationError("cannot normalize a null vector")
    return FactoredState((vec / nrm)[:, None], np.ones(1))


@dataclass(frozen=True, eq=False)
class AdditiveObservable:
    """A sum of single-site operators, one (c_x, c_y, c_z) triple per site."""

    site_coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.site_coeffs.shape[0]

    @property
    def uniform(self) -> bool:
        """Every site carries the same triple."""
        return bool(np.all(self.site_coeffs == self.site_coeffs[0]))

    def terms(self) -> PauliTerms:
        """The kernel sum, built once per observable."""
        return self._terms

    @cached_property
    def _terms(self) -> PauliTerms:
        return pauli_terms(self.n, self.site_coeffs)

    def realize(self) -> np.ndarray:
        """Dense matrix sum_i (c_x sigma_x^i + c_y sigma_y^i + c_z sigma_z^i)."""
        _check_cap(self.n)
        return self.terms().dense()


def additive_observable(site_coeffs) -> AdditiveObservable:
    """Build an AdditiveObservable from an (n, 3) coefficient array."""
    coeffs = np.ascontiguousarray(np.asarray(site_coeffs, dtype=float))
    if coeffs.ndim != 2 or coeffs.shape[1] != 3 or coeffs.shape[0] < 1:
        raise ContractViolationError("site_coeffs must have shape (n, 3)")
    coeffs.setflags(write=False)
    return AdditiveObservable(coeffs)


def total_magnetization(axis: str, n: int) -> AdditiveObservable:
    """The uniform additive observable sum_i sigma_axis^i."""
    _check_axis(axis)
    if n < 1:
        raise ContractViolationError(f"need at least one site, got n={n}")
    triple = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis]
    return additive_observable(np.tile(triple, (n, 1)))


def uniform_observable(direction, n: int) -> AdditiveObservable:
    """Uniform additive observable along a unit three-vector."""
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if not np.isfinite(nrm) or nrm < 1e-12:
        raise ContractViolationError("direction must be a nonzero vector")
    return additive_observable(np.tile(d / nrm, (n, 1)))


@lru_cache(maxsize=None)
def pauli_site(axis: str, site: int, n: int) -> np.ndarray:
    """sigma_axis acting on one site of an n-spin register, as a dense matrix.

    Sites are numbered 1..n with site 1 as the most significant factor.
    Every result is cached and read-only; the pipeline itself never calls this.
    """
    _check_axis(axis)
    _check_cap(n)
    if not 1 <= site <= n:
        raise ContractViolationError(f"site {site} out of range 1..{n}")
    coeffs = np.zeros((n, 3))
    coeffs[site - 1, _AXES.index(axis)] = 1.0
    mat = pauli_terms(n, coeffs).dense()
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def mz_values(n: int) -> np.ndarray:
    """Total sigma_z eigenvalue of every computational basis state."""
    vals = _bit_table(n)[1].sum(axis=0).astype(np.int64)
    vals.setflags(write=False)
    return vals


def _window_mask(n: int, m_lo: int, m_hi: int) -> np.ndarray:
    vals = mz_values(n)
    mask = (vals >= m_lo) & (vals <= m_hi)
    if not mask.any():
        raise InvalidOutcomeError(
            f"no parity-valid magnetization in [{m_lo}, {m_hi}] at n={n}")
    return mask


def mz_projector(n: int, m: int) -> PauliTerms:
    """Projector onto the total-magnetization sector M_z = m, as its diagonal."""
    _check_cap(n)
    _check_outcome_parity(n, m)
    return mz_interval_projector(n, m, m)


def mz_interval_projector(n: int, m_lo: int, m_hi: int) -> PauliTerms:
    """Projector onto m_lo <= M_z <= m_hi.

    Equals the sum of mz_projector over the parity-valid magnetizations in
    the window; raises if the window contains none.
    """
    _check_cap(n)
    if m_lo > m_hi:
        raise InvalidOutcomeError(f"empty interval [{m_lo}, {m_hi}]")
    return PauliTerms(n, {0: _window_mask(n, m_lo, m_hi).astype(float)})


def _check_outcome_parity(n: int, m: int) -> None:
    if abs(m) > n or (n + m) % 2:
        raise InvalidOutcomeError(
            f"magnetization {m} is not reachable with {n} spins")


def snap_interval(n: int, m_lo: int, m_hi: int) -> tuple[int, int]:
    """Snap raw interval endpoints inward to the parity-valid lattice."""
    lo = max(int(m_lo), -n)
    hi = min(int(m_hi), n)
    if (n + lo) % 2:
        lo += 1
    if (n + hi) % 2:
        hi -= 1
    if lo > hi:
        raise InvalidOutcomeError(
            f"no parity-valid magnetization in [{m_lo}, {m_hi}] at n={n}")
    return lo, hi


@dataclass(frozen=True, eq=False)
class _SymmetryGroup:
    """The group generated by the global flip F and, on a ring, the cyclic
    translation T, with the tables that its blocks are built from.

    Element g = 2 t + f is T^t F^f for t < length (length = n on a ring, 1
    on an open chain). The character chi_{k,p}(g) = exp(2 pi i k t / length)
    p^f is kept only for k <= length / 2, as row c = 2 k + (p == -1): the
    blocks of k and length - k are complex conjugates, and mult counts both.
    A character has a state of orbit i only when it is trivial on the
    stabilizer of reps[i] (held); every block has one row per orbit, and the
    trivial character holds every orbit.
    """

    n: int
    length: int
    images: np.ndarray     # (G, d): g . s
    reps: np.ndarray       # (N,): the least state of each orbit
    rep_index: np.ndarray  # (d,): the orbit of s, as an index into reps
    to_rep: np.ndarray     # (d,): the g with g . s = rep(s)
    stab: np.ndarray       # (N,): stabilizer sizes
    chars: np.ndarray      # (C, G): chi_c(g)
    mult: np.ndarray       # (C,): 1 for k = 0 or 2 k = length, else 2
    held: np.ndarray       # (C, N): character c has a state of orbit i
    valid: np.ndarray      # (C, N): eigenvector j of block c is a state
    compose: np.ndarray    # (G, G): the index of g h^-1


@lru_cache(maxsize=None)
def _symmetry_group(n: int, translation: bool) -> _SymmetryGroup:
    idx, _ = _bit_table(n)
    length = n if translation else 1
    shifts = [idx]
    for _ in range(length - 1):  # T moves site s to site s + 1, site n to site 1
        s = shifts[-1]
        shifts.append((s >> 1) | ((s & 1) << (n - 1)))
    images = np.stack([image for s in shifts for image in (s, s ^ (idx.size - 1))])
    rep = images.min(axis=0)
    reps = np.flatnonzero(rep == idx)
    lookup = np.zeros(idx.size, dtype=np.intp)
    lookup[reps] = np.arange(reps.size)
    fixes = images[:, reps] == reps
    t, f = np.divmod(np.arange(2 * length), 2)
    k = np.arange(length // 2 + 1)
    chars = (np.exp(2j * np.pi * np.outer(k, t) / length)[:, None, :]
             * np.where(f, [[1.0], [-1.0]], 1.0)).reshape(-1, 2 * length)
    if length == 1:  # the flip alone has the real characters +-1
        chars = np.ascontiguousarray(chars.real)
    trivial = np.abs(chars - 1.0) < 1e-9
    held = ~(fixes.T[None] & ~trivial[:, None, :]).any(axis=2)
    tables = dict(
        images=images, reps=reps, rep_index=lookup[rep],
        to_rep=images.argmin(axis=0), stab=fixes.sum(axis=0), chars=chars,
        mult=np.repeat(np.where((k == 0) | (2 * k == length), 1, 2), 2),
        held=held, valid=np.arange(reps.size) < held.sum(axis=1)[:, None],
        compose=2 * ((t[:, None] - t) % length) + (f[:, None] ^ f))
    for table in tables.values():
        table.setflags(write=False)
    return _SymmetryGroup(n=n, length=length, **tables)


def _symmetry_defect(group: _SymmetryGroup, masks: np.ndarray, amps: np.ndarray) -> str | None:
    """Why a real Pauli sum has no blocks over group's characters: that it is
    not Hermitian, or the generator it does not commute with; None if none."""
    dim = amps.shape[1]
    scale = 1.0 + float(np.abs(amps).max(initial=0.0))
    # <k ^ f| H |k> = amp_f[k] must equal <k| H |k ^ f>* = amp_f[k ^ f]
    swapped = np.take_along_axis(amps, np.arange(dim) ^ masks[:, None], axis=1)
    if np.abs(swapped - amps).max(initial=0.0) > HERM_TOL * scale:
        return "must be Hermitian"
    # F sends k to k ^ (2^n - 1), which reverses the basis order
    if np.abs(amps[:, ::-1] - amps).max(initial=0.0) > HERM_TOL * scale:
        return "does not commute with the global flip"
    if group.length > 1:
        shift = group.images[2]
        where = {int(m): i for i, m in enumerate(masks)}
        partner = [where.get(int(m), -1) for m in shift[masks]]
        # T H T^-1 = H: the term on T f carries amp_f moved along by T
        moved = np.vstack([amps, np.zeros((1, dim))])[partner][:, shift]
        if np.abs(moved - amps).max(initial=0.0) > HERM_TOL * scale:
            return "does not commute with the cyclic translation"
    return None


def _character_blocks(group: _SymmetryGroup, terms: PauliTerms, orbits: np.ndarray) -> np.ndarray:
    """The blocks of a Pauli sum T over group's characters, read from its
    amplitudes with no dense matrix: row i of block c holds
    <chi_c, a_i| T |chi_c, a_j> for the representatives a, in column k for
    orbit j = orbits[k], and the rows and columns of the orbits that c holds
    no state of are zero.

    Raises, saying why, when T has no such blocks: it has a complex
    amplitude, it is not Hermitian, or it breaks a generator of group.
    """
    if terms.n != group.n or terms.dtype is complex:
        raise ContractViolationError(f"symmetry blocks need real amplitudes at n={group.n}")
    masks = np.fromiter(terms.flips, dtype=np.intp, count=len(terms.flips))
    amps = np.empty((masks.size, 1 << terms.n))
    for row, amp in zip(amps, terms.flips.values()):
        row[:] = amp
    defect = _symmetry_defect(group, masks, amps)
    if defect is not None:
        raise ContractViolationError(f"symmetry blocks: the Pauli sum {defect}")
    # <chi, rep(b)| T |chi, a> gains amp_f(a) chi(g_b)* sqrt(|Stab_rep(b)| / |Stab_a|)
    # from b = a ^ f, where g_b . b = rep(b)
    reps = group.reps[orbits]
    target = reps ^ masks[:, None]
    row = group.rep_index[target]
    entries = (group.chars.conj()[:, group.to_rep[target]]
               * (amps[:, reps] * np.sqrt(group.stab[row] / group.stab[orbits])))
    entries *= group.held[:, row] & group.held[:, None, orbits]
    blocks = np.zeros((len(group.chars), group.reps.size, orbits.size), dtype=entries.dtype)
    # summed at flat indices: add.at is fastest over one dimension
    at = np.ravel_multi_index((np.arange(len(blocks))[:, None, None], row,
                               np.arange(orbits.size)), blocks.shape)
    np.add.at(blocks.reshape(-1), at.ravel(), entries.ravel())
    return blocks


def symmetry_eigh(terms: PauliTerms, translation: bool
                  ) -> tuple[_SymmetryGroup, np.ndarray, np.ndarray]:
    """Eigensolve of a real Pauli sum blockwise over its symmetry characters,
    as (group, w, u).

    The group is generated by the global flip and, when translation is set,
    the cyclic translation of a ring: an open chain gets two real flip-parity
    blocks of 2^(n-1) states, a ring 2n complex ones of about 2^n / 2n. The state
    of orbit a in the block of character chi has the coefficient
    chi(g)* sqrt(|Stab_a| / |G|) on s = g . a, and the block entries are
    read from the amplitudes of terms (_character_blocks), with no dense
    matrix. Row c of w and u is the block of character c of group, with one
    row of u per orbit: the rows of the orbits c holds no state of are zero,
    and eigenvector j is a state where group.valid[c, j], padding above the
    spectrum elsewhere. Each row stands for group.mult[c] characters.
    Raises unless every amplitude is real, terms is Hermitian and it
    commutes with each generator.
    """
    n = _check_cap(terms.n)
    group = _symmetry_group(n, bool(translation))
    c, i = np.nonzero(~group.held)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _character_blocks(group, terms, np.arange(group.reps.size))
        # the padding sits above |H| <= sum of the term norms, so it sorts last
        blocks[c, i, i] = 1.0 + np.sum([np.abs(a).max() for a in terms.flips.values()])
    if not np.isfinite(blocks).all():
        raise ContractViolationError(f"symmetry blocks overflow at n={n}")
    w, u = np.linalg.eigh(blocks)
    u[c, i] = 0.0
    return group, w, u


class SpectralState(QuantumState):
    """A density matrix diagonal in the characters of a symmetry_eigh
    spectrum, kept as the group, the eigenvectors u and one weight per
    eigenvector: the sum of weights[c, j] |v><v| over the eigenvectors v,
    each row of u counted group.mult[c] times. The weights are >= 0 and zero
    on the padding. Its support is the orbits where the mask inside is set
    (every orbit unless given). A projection (project) keeps this form on
    the orbits that its window touches: it shares u with the state it was
    projected from, narrows inside to those orbits, whose complement reads
    as zero, and scales the weights, so they are no longer the eigenvalues.

    It commutes with the group. The diagonal, the purity and the traces of
    Pauli sums that commute with the group (expect, catness) are read per
    character, over all characters at once, from the factors
    X_c = u_c sqrt(w_c) on the support orbits and the columns of the blocks
    of those sums at them (_character_blocks), with no table. Every other
    read goes through entries(): rho[s, s'] = rho[rep(s), g_s . s'] where
    g_s . s = rep(s), so the rows at the representatives of the support
    orbits are built once as the character sum of the same window blocks
    G_c = X_c X_c^dagger (_table), and entries() gathers from them; the
    dense .mat is built through it on first access only.
    """

    def __init__(self, group: _SymmetryGroup, u: np.ndarray, weights: np.ndarray,
                 inside: np.ndarray | None = None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "inside", np.ones(group.reps.size, dtype=bool)
                           if inside is None else inside)
        object.__setattr__(self, "_blocks", {})

    def __repr__(self) -> str:
        window = "" if self.inside.all() else f", window={self.support().size}"
        return f"SpectralState(dim={self.dim}{window})"

    @property
    def dim(self) -> int:
        return 1 << self.group.n

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.inside[self.group.rep_index])

    def project(self, mask: np.ndarray, scale: float = 1.0) -> QuantumState:
        """scale * P rho P, first narrowed to the orbits that the window
        touches: that SpectralState when P commutes with the group (mask
        constant on every orbit), else its WindowState on the mask."""
        group, mask = self.group, np.asarray(mask, dtype=bool)
        hull = np.bincount(group.rep_index, weights=mask, minlength=group.reps.size) > 0
        narrowed = SpectralState(group, self.u, self.weights * scale, self.inside & hull)
        kept = np.array_equal(hull[group.rep_index], mask)
        return narrowed if kept else WindowState(narrowed, mask)

    @cached_property
    def _window(self) -> tuple[np.ndarray, np.ndarray]:
        """(orbits, G): the support orbits and G[c] = X_c X_c^dagger, the
        block of character c on them, for X_c the rows of u_c there times
        sqrt(w_c); zero where c holds no state."""
        orbits = np.flatnonzero(self.inside)
        x = self.u[:, orbits]
        x *= np.sqrt(self.weights)[:, None, :]
        return orbits, x @ x.conj().transpose(0, 2, 1)

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """sum_c mult_c |u|^2 w at each representative in the support, times
        |Stab| / |G|, scattered to its orbit. Kept read-only, since every
        outcome of a measurement reads it."""
        group = self.group
        by_orbit = np.stack([(u.real ** 2 + u.imag ** 2) @ w
                             for u, w in zip(self.u, self.weights)])
        by_orbit = (group.mult[:, None] * by_orbit).sum(axis=0) * self.inside
        diag = (by_orbit * (group.stab / len(group.images)))[group.rep_index]
        diag.setflags(write=False)
        return diag

    @cached_property
    def purity(self) -> float:
        if self.inside.all():
            return float((self.group.mult[:, None] * self.weights ** 2).sum())
        # once a projection drops an orbit, the weights are not its eigenvalues:
        # sum_c mult_c ||X_c^dagger X_c||^2, which is ||G_c||^2
        g = self._window[1]
        return float((self.group.mult[:, None, None] * (g.real ** 2 + g.imag ** 2)).sum())

    def _columns(self, terms: PauliTerms):
        """T[:, orbits] for the support orbits, one block per character
        (_character_blocks); built once per sum, and None when T has no
        blocks over the group."""
        if terms not in self._blocks:
            try:
                self._blocks[terms] = _character_blocks(self.group, terms, self._window[0])
            except ContractViolationError:
                self._blocks[terms] = None
        return self._blocks[terms]

    def _orbit_values(self, eta: PauliTerms):
        """The value of a real diagonal sum on each orbit, when it is constant
        on every orbit (so commutes with the group); None for any other sum."""
        if eta.n != self.group.n or set(eta.flips) != {0} or eta.dtype is complex:
            return None
        values = np.broadcast_to(eta.flips[0], (self.dim,))
        at_reps = values[self.group.reps]
        return at_reps if np.array_equal(at_reps[self.group.rep_index], values) else None

    def _sum_characters(self, left: np.ndarray, right: np.ndarray) -> complex:
        """sum_c mult_c Re Tr[left_c^dagger right_c], reusing left; a kept
        character whose conjugate was dropped counts twice its real part."""
        traces = np.einsum("cpj,cpj->c", np.conjugate(left, out=left), right)
        return complex((self.group.mult * traces.real).sum())

    def expect(self, *factors: PauliTerms) -> complex:
        """Tr[rho F_1 ... F_k]: from the blocks when k <= 2 and every factor
        commutes with the group, through the kernel otherwise."""
        if len(factors) > 2 or any(self._columns(f) is None for f in factors):
            return super().expect(*factors)
        columns = [self._columns(f) for f in factors]
        orbits, g = self._window
        if len(columns) == 1:  # Tr[G T_ww] = Tr[G^dagger T_ww]
            return self._sum_characters(g.copy(), columns[0][:, orbits])
        # Tr[G S_w^dagger T_w] = Tr[(S_w G)^dagger T_w], as S and T are Hermitian
        return self._sum_characters(columns[0] @ g, columns[1])

    def catness(self, a: PauliTerms, eta: PauliTerms) -> complex:
        """Tr[rho [A, [A, eta]]] from the blocks of A when A commutes with the
        group and eta is a diagonal sum that does; through the kernel otherwise.

        With e the values of eta, the window block of the double commutator is
        sum_p A_ip A_pj (e_i + e_j - 2 e_p) = (K^dagger A_w + A_w^dagger K)_ij
        for K_pj = A_pj (e_j - e_p), so it is exactly zero where e is constant.
        """
        cols, values = self._columns(a), self._orbit_values(eta)
        if cols is None or values is None:
            return super().catness(a, eta)
        orbits, g = self._window
        k = cols * (values[orbits] - values[:, None])
        # Tr[G (K^dagger A_w + A_w^dagger K)] = 2 Re Tr[(A_w G)^dagger K]
        return 2.0 * self._sum_characters(cols @ g, k)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """(table, slot): table[g, slot(s), slot(s')] = <rep(s)| rho |g . rep(s')>,
        the character sum of the window blocks G_c. slot(s) is the position of
        the orbit of s among the support orbits, or their count outside the
        support, which is one zero row and column of the table."""
        group = self.group
        orbits, g = self._window
        slot = np.full(group.reps.size, orbits.size)
        slot[orbits] = np.arange(orbits.size)
        # a kept row whose conjugate was dropped counts twice its real part
        table = np.zeros((len(group.images), orbits.size + 1, orbits.size + 1))
        root = np.sqrt(group.stab[orbits] / len(group.images))
        np.multiply(np.tensordot(group.mult * group.chars.T, g, axes=1).real,
                    root[:, None] * root, out=table[:, :-1, :-1])
        return table, slot[group.rep_index]

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """rho[rows, cols] read from the table, as real numbers."""
        group, (table, slot) = self.group, self._table
        return table[group.compose[group.to_rep[rows], group.to_rep[cols]], slot[rows], slot[cols]]

    mat = cached_property(_dense_view)


def herm_expm(hmat: np.ndarray, scale: float) -> np.ndarray:
    """exp(scale * H) for Hermitian H, via full eigendecomposition.

    Spectral mapping is exact and the spectrum is reused elsewhere, so no
    scaling-and-squaring is involved.
    """
    w, v = _herm_eigh(hmat, "herm_expm input")
    out = (v * np.exp(scale * w)) @ v.conj().T
    return 0.5 * (out + out.conj().T)
