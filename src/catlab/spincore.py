"""Operator algebra for small spin-1/2 registers.

One bit-operation kernel builds every Pauli operator here. A sum of site
terms (x, y, z) and bond terms (xx, yy, zz) is kept as PauliTerms: it sends
a basis state |k> to sum_f amp_f[k] |k ^ f> over a few flip masks f. An x
flips one bit, a y flips it with amplitude i z, a z is the sign z on the
diagonal, and a bond term is the product of two of these. Applying such an
operator to vectors, tracing it against a density matrix and writing its
dense view cost O(2^n) work per term, and composing two of them O(2^n) per
pair of terms, with no Kronecker products and no matrix products. The
commutator of such an operator with a dense d x d matrix costs O(d^2) per
term, so the double commutator [A, [A, X]] of an additive observable A
is two kernel commutators instead of three d x d matrix products.

Density matrices and general operators are dense arrays, which is the right
tool up to the dense cap of twelve spins: exact eigendecompositions beat any
sparse scheme at these sizes and keep every downstream quantity
reproducible to machine precision. The spin Hamiltonians are real and
commute with the global spin flip, and a ring's with its cyclic translation
too, so symmetry_eigh diagonalizes them in one block per character of that
group: two flip-parity blocks for an open chain, 2n momentum and parity
blocks of about 2^n / 2n states for a ring, read from the bit-operation
kernel with no dense matrix. A state built from such a spectrum
(SpectralState) keeps it and its weights, and gathers its diagonal, a
window or the dense matrix from the rows at the orbit representatives.
Magnetization projectors are z-diagonal and are kept as their diagonal
(ZDiagonal). Both build their dense view only on request.

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
_GATHER_CHUNK = 1 << 21  # entries per gather step when a SpectralState is assembled

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


def _is_hermitian(mat: np.ndarray) -> bool:
    """The one hermiticity test: max |M - M^dagger| within HERM_TOL of scale."""
    scale = 1.0 + float(np.abs(mat).max(initial=0.0))
    return float(np.abs(mat - mat.conj().T).max(initial=0.0)) <= HERM_TOL * scale


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
        """The operator applied to a (2^n, k) block of columns."""
        idx, _ = _bit_table(self.n)
        block = np.asarray(block, dtype=complex)
        out = np.zeros(block.shape, dtype=complex)
        for mask, amp in self.flips.items():
            src = idx ^ mask
            # scaled in place: one large temporary per term, since fresh
            # temporaries dominated the cost on wide blocks
            flipped = block[src]
            flipped *= amp[src, None] if np.ndim(amp) else amp
            out += flipped
        return out

    def dense(self) -> np.ndarray:
        """Dense matrix, real unless an amplitude is complex; O(terms * 2^n) writes."""
        idx, _ = _bit_table(self.n)
        dtype = complex if any(np.iscomplexobj(a) for a in self.flips.values()) else float
        out = np.zeros((idx.size, idx.size), dtype=dtype)
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

    def commutator(self, mat: np.ndarray) -> np.ndarray:
        """[T, mat] = T mat - mat T, as apply(mat) - apply(mat^dagger)^dagger.

        Exact when T is Hermitian, as every sum of Pauli strings with real
        coefficients is; mat may be any d x d matrix.
        """
        out = self.apply(mat)
        # row gathers from a transposed view are strided; copy it once
        out -= self.apply(np.ascontiguousarray(mat.conj().T)).conj().T
        return out

    def expect(self, mat: np.ndarray) -> complex:
        """Tr[mat @ T], reading mat only where T has entries."""
        idx, _ = _bit_table(self.n)
        total = 0j
        for mask, amp in self.flips.items():
            entries = mat[idx, idx ^ mask]
            total += complex(entries @ amp if np.ndim(amp) else amp * entries.sum())
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


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense operator on the full register Hilbert space."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    @cached_property
    def is_hermitian(self) -> bool:
        return _is_hermitian(self.mat)


class ZDiagonal(Operator):
    """A z-diagonal operator, such as a magnetization projector, kept as its
    diagonal. The dense .mat is built on first access only; the pipeline
    reads the diagonal through terms() and the bit-operation kernel."""

    def __init__(self, diag: np.ndarray):
        object.__setattr__(self, "diag", diag)

    def __repr__(self) -> str:
        return f"ZDiagonal(dim={self.dim})"

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    @cached_property
    def mat(self) -> np.ndarray:
        return np.diag(self.diag.astype(complex))

    def terms(self) -> PauliTerms:
        return PauliTerms(self.n, {0: self.diag})


def as_operator(mat: np.ndarray) -> Operator:
    """Wrap a square matrix, validating the power-of-two dimension."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ContractViolationError("operator must be a square matrix")
    dim = mat.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ContractViolationError(f"dimension {dim} is not a power of two")
    return Operator(mat)


def _mat(op) -> np.ndarray:
    return op.mat if isinstance(op, (Operator, QuantumState)) else np.asarray(op, dtype=complex)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A density matrix; purity is cached on first access."""

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

    def diagonal(self) -> np.ndarray:
        """The diagonal entries <s|rho|s>."""
        return np.diagonal(self.mat)

    def block(self, mask: np.ndarray) -> np.ndarray:
        """rho restricted to the basis states where mask is set."""
        return self.mat[np.ix_(mask, mask)]


def as_state(mat: np.ndarray, check: bool = True) -> QuantumState:
    """Wrap a density matrix, optionally verifying trace, hermiticity, PSD.

    The PSD check runs a full eigensolve, so internal constructions that are
    positive by construction pass check=False.
    """
    mat = np.asarray(mat, dtype=complex)
    state = QuantumState(mat)
    if check:
        check_state(state)
    return state


def check_state(state: QuantumState) -> None:
    """Raise unless the matrix is a valid density matrix."""
    mat = state.mat
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-12:
        raise ContractViolationError(f"state trace {tr} is not 1")
    if not _is_hermitian(mat):
        raise ContractViolationError("state is not Hermitian")
    evals = np.linalg.eigvalsh(mat)
    if float(evals.min()) < PSD_FLOOR:
        raise ContractViolationError(
            f"state has eigenvalue {evals.min():.3e} below the PSD floor")


def pure_state(vec: np.ndarray) -> QuantumState:
    """Density matrix of a normalized state vector."""
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if not np.isfinite(nrm) or nrm < 1e-300:
        raise ContractViolationError("cannot normalize a null vector")
    vec = vec / nrm
    return QuantumState(np.outer(vec, vec.conj()))


@dataclass(frozen=True, eq=False)
class AdditiveObservable:
    """A sum of single-site operators, one (c_x, c_y, c_z) triple per site."""

    site_coeffs: np.ndarray
    uniform: bool = False

    @property
    def n(self) -> int:
        return self.site_coeffs.shape[0]

    def terms(self) -> PauliTerms:
        return pauli_terms(self.n, self.site_coeffs)

    def realize(self) -> Operator:
        """Dense matrix sum_i (c_x sigma_x^i + c_y sigma_y^i + c_z sigma_z^i)."""
        _check_cap(self.n)
        return Operator(self.terms().dense())


def additive_observable(site_coeffs, uniform: bool | None = None) -> AdditiveObservable:
    """Build an AdditiveObservable from an (n, 3) coefficient array."""
    coeffs = np.ascontiguousarray(np.asarray(site_coeffs, dtype=float))
    if coeffs.ndim != 2 or coeffs.shape[1] != 3 or coeffs.shape[0] < 1:
        raise ContractViolationError("site_coeffs must have shape (n, 3)")
    coeffs.setflags(write=False)
    if uniform is None:
        uniform = bool(np.all(coeffs == coeffs[0]))
    return AdditiveObservable(coeffs, uniform)


def total_magnetization(axis: str, n: int) -> AdditiveObservable:
    """The uniform additive observable sum_i sigma_axis^i."""
    _check_axis(axis)
    if n < 1:
        raise ContractViolationError(f"need at least one site, got n={n}")
    triple = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}[axis]
    return additive_observable(np.tile(triple, (n, 1)), uniform=True)


def uniform_observable(direction, n: int) -> AdditiveObservable:
    """Uniform additive observable along a unit three-vector."""
    d = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(d)
    if not np.isfinite(nrm) or nrm < 1e-12:
        raise ContractViolationError("direction must be a nonzero vector")
    return additive_observable(np.tile(d / nrm, (n, 1)), uniform=True)


@lru_cache(maxsize=None)
def pauli_site(axis: str, site: int, n: int) -> Operator:
    """sigma_axis acting on one site of an n-spin register, as a dense matrix.

    Sites are numbered 1..n with site 1 as the most significant factor.
    Every result is cached; the pipeline itself never calls this.
    """
    _check_axis(axis)
    _check_cap(n)
    if not 1 <= site <= n:
        raise ContractViolationError(f"site {site} out of range 1..{n}")
    coeffs = np.zeros((n, 3))
    coeffs[site - 1, _AXES.index(axis)] = 1.0
    mat = pauli_terms(n, coeffs).dense()
    mat.setflags(write=False)
    return Operator(mat)


@lru_cache(maxsize=None)
def mz_values(n: int) -> np.ndarray:
    """Total sigma_z eigenvalue of every computational basis state."""
    vals = _bit_table(n)[1].sum(axis=0).astype(np.int64)
    vals.setflags(write=False)
    return vals


def apply_additive(obs: AdditiveObservable, block: np.ndarray) -> np.ndarray:
    """Apply the realized observable to a (dim, k) block of column vectors.

    Matrix-free through the bit-operation kernel, so the cost is
    O(n * dim * k) instead of a dense matmul. Agrees with realize() to
    machine precision.
    """
    block = np.asarray(block)
    squeeze = block.ndim == 1
    if squeeze:
        block = block[:, None]
    if block.shape[0] != 1 << obs.n:
        raise ContractViolationError("block dimension does not match n")
    out = obs.terms().apply(block)
    return out[:, 0] if squeeze else out


def _window_mask(n: int, m_lo: int, m_hi: int) -> np.ndarray:
    vals = mz_values(n)
    mask = (vals >= m_lo) & (vals <= m_hi)
    if not mask.any():
        raise InvalidOutcomeError(
            f"no parity-valid magnetization in [{m_lo}, {m_hi}] at n={n}")
    return mask


def mz_projector(n: int, m: int) -> ZDiagonal:
    """Projector onto the total-magnetization sector M_z = m."""
    _check_cap(n)
    _check_outcome_parity(n, m)
    return ZDiagonal((mz_values(n) == m).astype(float))


def mz_interval_projector(n: int, m_lo: int, m_hi: int) -> ZDiagonal:
    """Projector onto m_lo <= M_z <= m_hi.

    Equals the sum of mz_projector over the parity-valid magnetizations in
    the window; raises if the window contains none.
    """
    _check_cap(n)
    if m_lo > m_hi:
        raise InvalidOutcomeError(f"empty interval [{m_lo}, {m_hi}]")
    return ZDiagonal(_window_mask(n, m_lo, m_hi).astype(float))


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
    stabilizer of reps[i]; pos is that state's position in its block, and
    dmax, one past the largest block, where it has none.
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
    pos: np.ndarray        # (C, N): block position of orbit i, or dmax
    valid: np.ndarray      # (C, dmax): block position j holds a state
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
    trivial = np.abs(chars - 1.0) < 1e-9
    allowed = ~(fixes.T[None] & ~trivial[:, None, :]).any(axis=2)
    sizes = allowed.sum(axis=1)
    dmax = int(sizes.max())
    tables = dict(
        images=images, reps=reps, rep_index=lookup[rep],
        to_rep=images.argmin(axis=0), stab=fixes.sum(axis=0), chars=chars,
        mult=np.repeat(np.where((k == 0) | (2 * k == length), 1, 2), 2),
        pos=np.where(allowed, np.cumsum(allowed, axis=1) - 1, dmax),
        valid=np.arange(dmax) < sizes[:, None],
        compose=2 * ((t[:, None] - t) % length) + (f[:, None] ^ f))
    for table in tables.values():
        table.setflags(write=False)
    return _SymmetryGroup(n=n, length=length, **tables)


@dataclass(frozen=True, eq=False)
class SymmetrySpectrum:
    """Eigenpairs of a symmetric Pauli sum, one block per kept character.

    Row c of w and u is the block of character c of group; position j of a
    row holds an eigenpair where group.valid[c, j] and padding above the
    spectrum elsewhere. Each row stands for multiplicity[c] characters.
    """

    group: _SymmetryGroup
    w: np.ndarray
    u: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        """w with +inf on the padding."""
        return np.where(self.group.valid, self.w, np.inf)

    @property
    def multiplicity(self) -> np.ndarray:
        """(C, 1): how many characters share each row's spectrum."""
        return self.group.mult[:, None]


def symmetry_eigh(terms: PauliTerms, translation: bool) -> SymmetrySpectrum:
    """Eigensolve of a real Pauli sum blockwise over its symmetry characters.

    The group is generated by the global flip and, when translation is set,
    the cyclic translation of a ring: an open chain gets the two flip-parity
    blocks of 2^(n-1) states, a ring 2n blocks of about 2^n / 2n. The state
    of orbit a in the block of character chi has the coefficient
    chi(g)* sqrt(|Stab_a| / |G|) on s = g . a, and the block entries are
    read from the amplitudes of terms, with no dense matrix. Raises unless
    every amplitude is real and terms commutes with each generator.
    """
    n = _check_cap(terms.n)
    group = _symmetry_group(n, bool(translation))
    if any(np.iscomplexobj(a) for a in terms.flips.values()):
        raise ContractViolationError("symmetry_eigh needs real amplitudes")
    dim = 1 << n
    masks = np.fromiter(terms.flips, dtype=np.intp, count=len(terms.flips))
    amps = np.empty((masks.size, dim))
    for row, amp in zip(amps, terms.flips.values()):
        row[:] = amp
    scale = 1.0 + float(np.abs(amps).max(initial=0.0))
    # F sends k to k ^ (2^n - 1), which reverses the basis order
    if np.abs(amps[:, ::-1] - amps).max(initial=0.0) > HERM_TOL * scale:
        raise ContractViolationError(
            "symmetry_eigh input does not commute with the global flip")
    if group.length > 1:
        shift = group.images[2]
        where = {int(m): i for i, m in enumerate(masks)}
        partner = [where.get(int(m), -1) for m in shift[masks]]
        # T H T^-1 = H: the term on T f carries amp_f moved along by T
        moved = np.vstack([amps, np.zeros((1, dim))])[partner][:, shift]
        if np.abs(moved - amps).max(initial=0.0) > HERM_TOL * scale:
            raise ContractViolationError(
                "symmetry_eigh input does not commute with the cyclic translation")
    # <chi, rep(b)| H |chi, a> gains amp_f(a) chi(g_b)* sqrt(|Stab_rep(b)| / |Stab_a|)
    # from b = a ^ f, where g_b . b = rep(b)
    reps = group.reps
    target = reps ^ masks[:, None]
    row = group.rep_index[target]
    entries = (group.chars.conj()[:, group.to_rep[target]]
               * (amps[:, reps] * np.sqrt(group.stab[row] / group.stab)))
    count, dmax = group.valid.shape
    blocks = np.zeros((count, dmax + 1, dmax + 1), dtype=complex)
    np.add.at(blocks, (np.arange(count)[:, None, None], group.pos[:, row],
                       group.pos[:, None, :]), entries)
    blocks = blocks[:, :dmax, :dmax]
    # the padding sits above |H| <= sum of the term norms, so it sorts last
    c, j = np.nonzero(~group.valid)
    blocks[c, j, j] = 1.0 + np.abs(amps).max(axis=1, initial=0.0).sum()
    w, u = np.linalg.eigh(blocks)
    return SymmetrySpectrum(group, w, u)


class SpectralState(QuantumState):
    """A density matrix diagonal in the blocks of a SymmetrySpectrum, kept as
    the spectrum and one weight per eigenvector: the sum of weights[c, j]
    |v><v| over the eigenvectors v, each row of the spectrum counted
    multiplicity times. The weights are >= 0 and zero on the padding.

    It commutes with the group, so rho[s, s'] = rho[rep(s), g_s . s'] where
    g_s . s = rep(s). The rows at the orbit representatives are built once
    from the small blocks; diagonal(), block(mask) and the dense .mat (built
    on first access only) are gathers from them.
    """

    def __init__(self, spectrum: SymmetrySpectrum, weights: np.ndarray):
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "weights", weights)

    def __repr__(self) -> str:
        return f"SpectralState(dim={self.dim})"

    @property
    def dim(self) -> int:
        return 1 << self.spectrum.group.n

    @cached_property
    def purity(self) -> float:
        return float((self.spectrum.multiplicity * self.weights ** 2).sum())

    @cached_property
    def _table(self) -> np.ndarray:
        """table[g, i, r] = <a_i| rho |g . a_r> over the representatives a."""
        group = self.spectrum.group
        scaled = self.spectrum.u * np.sqrt(self.weights)[:, None, :]
        count, dmax = group.valid.shape
        # one zero row and column at dmax, which pos gives orbits with no state
        blocks = np.zeros((count, dmax + 1, dmax + 1), dtype=complex)
        blocks[:, :dmax, :dmax] = scaled @ scaled.conj().transpose(0, 2, 1)
        by_orbit = blocks[np.arange(count)[:, None, None], group.pos[:, :, None],
                          group.pos[:, None, :]]
        # sum over every character of chi(g) times its block: a kept row
        # whose conjugate was dropped counts twice its real part
        table = np.tensordot(group.mult * group.chars.T, by_orbit, axes=1).real
        root = np.sqrt(group.stab / len(group.images))
        return table * root[:, None] * root

    def _gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        group, table = self.spectrum.group, self._table
        out = np.empty((rows.size, cols.size), dtype=complex)
        col_g, col_i = group.to_rep[cols], group.rep_index[cols]
        step = max(1, _GATHER_CHUNK // max(cols.size, 1))
        for lo in range(0, rows.size, step):
            part = rows[lo:lo + step, None]
            out[lo:lo + step] = table[group.compose[group.to_rep[part], col_g],
                                      group.rep_index[part], col_i]
        return out

    def diagonal(self) -> np.ndarray:
        return self._table[0].diagonal()[self.spectrum.group.rep_index]

    def block(self, mask: np.ndarray) -> np.ndarray:
        rows = np.flatnonzero(mask)
        return self._gather(rows, rows)

    @cached_property
    def mat(self) -> np.ndarray:
        every = np.arange(self.dim)
        return self._gather(every, every)


def _require_hermitian(mat: np.ndarray, what: str) -> np.ndarray:
    if not _is_hermitian(mat):
        raise ContractViolationError(f"{what} must be Hermitian")
    return mat


def herm_expm(h_op, scale: float) -> Operator:
    """exp(scale * H) for Hermitian H, via full eigendecomposition.

    Spectral mapping is exact and the spectrum is reused elsewhere, so no
    scaling-and-squaring is involved.
    """
    mat = _require_hermitian(_mat(h_op), "herm_expm input")
    w, v = np.linalg.eigh(mat)
    out = (v * np.exp(scale * w)) @ v.conj().T
    out = 0.5 * (out + out.conj().T)
    return Operator(out)


def unitary_evolution(h_op, t: float) -> Operator:
    """Propagator exp(-i H t) for Hermitian H."""
    mat = _require_hermitian(_mat(h_op), "propagator input")
    w, v = np.linalg.eigh(mat)
    return Operator((v * np.exp(-1j * w * t)) @ v.conj().T)


def double_commutator(a: AdditiveObservable, x) -> Operator:
    """[A, [A, X]] for an additive observable A and any d x d matrix X.

    Two kernel commutators, O(n d^2) work and no matrix product; X need not
    be Hermitian.
    """
    if not isinstance(a, AdditiveObservable):
        raise ContractViolationError("double_commutator needs an AdditiveObservable as A")
    xmat = _mat(x)
    if xmat.shape != (1 << a.n, 1 << a.n):
        raise ContractViolationError("double_commutator dimension mismatch")
    terms = a.terms()
    return Operator(terms.commutator(terms.commutator(xmat)))


def trace_norm(op) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    mat = _require_hermitian(_mat(op), "trace_norm input")
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())
