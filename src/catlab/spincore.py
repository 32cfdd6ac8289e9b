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
commute with the global spin flip, so parity_eigh diagonalizes them as two
real half-size blocks. Magnetization projectors are z-diagonal and are kept
as their diagonal (ZDiagonal); their dense view is built only on request.

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
class ParitySpectrum:
    """Eigenpairs of a real symmetric matrix that commutes with the global flip.

    With A the basis states whose top bit is clear and ~A their complements
    in the same order, the states (|a> +/- |~a>)/sqrt(2) split the matrix
    into the even block H[A, A] + H[A, ~A] and the odd block
    H[A, A] - H[A, ~A]; (w_plus, u_plus) and (w_minus, u_minus) are their
    eigenpairs in that half basis.
    """

    w_plus: np.ndarray
    u_plus: np.ndarray
    w_minus: np.ndarray
    u_minus: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """The whole spectrum: the even block's eigenvalues, then the odd block's."""
        return np.concatenate([self.w_plus, self.w_minus])

    def density(self, p: np.ndarray) -> np.ndarray:
        """sum_k p_k |v_k><v_k| over the eigenvectors in the order of w, as a
        dense complex matrix; needs p >= 0 and builds two half-size blocks."""
        half = self.u_plus.shape[0]
        split = self.w_plus.size
        parts = []
        for u, q in ((self.u_plus, p[:split]), (self.u_minus, p[split:])):
            keep = q > 0.0
            scaled = u[:, keep] * np.sqrt(q[keep])
            parts.append(scaled @ scaled.T)
        even = 0.5 * (parts[0] + parts[1])
        odd = 0.5 * (parts[0] - parts[1])
        out = np.empty((2 * half, 2 * half), dtype=complex)
        out[:half, :half] = even
        out[:half, half:] = odd[:, ::-1]
        out[half:, :half] = odd[::-1, :]
        out[half:, half:] = even[::-1, ::-1]
        return out


def parity_eigh(hmat: np.ndarray) -> ParitySpectrum:
    """Real eigensolve of a flip-symmetric real symmetric matrix, blockwise.

    The two half-size blocks cost a quarter of one full real eigh each;
    raises unless hmat is real and commutes with the global spin flip.
    """
    hmat = np.asarray(hmat)
    if np.iscomplexobj(hmat):
        raise ContractViolationError("parity_eigh needs a real matrix")
    half = hmat.shape[0] // 2
    same = hmat[:half, :half]
    cross = hmat[:half, half:][:, ::-1]
    scale = 1.0 + float(np.abs(hmat).max(initial=0.0))
    defect = max(float(np.abs(hmat[half:, half:] - same[::-1, ::-1]).max()),
                 float(np.abs(hmat[half:, :half] - cross[::-1, :]).max()))
    if defect > HERM_TOL * scale:
        raise ContractViolationError("parity_eigh input does not commute with the global flip")
    w_plus, u_plus = np.linalg.eigh(same + cross)
    w_minus, u_minus = np.linalg.eigh(same - cross)
    return ParitySpectrum(w_plus, u_plus, w_minus, u_minus)


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
