"""Macroscopic-quantumness machinery.

The central quantity is <C_{A,eta}> = Tr[rho [A, [A, eta]]] for an additive
observable A and a projector eta. Its maximum over eta has a closed form
(the positive eigenspace of [A, [A, rho]]), the maximum over uniform A is
found by a golden-spiral direction grid with local refinement, and p-index
candidates for pure states come from the single-site variance-covariance
matrix. Exponents are estimated from finite-size sweeps by extrapolating
local log-log slopes to the large-n limit.

The search evaluates directions through one quadratic form per state:
[A, [A, rho]] is quadratic in the direction of a uniform A, so six
Hermitian forms are built once, in a basis of at most 10 rank(rho) vectors,
and each direction costs one linear combination and one eigvalsh. The
forms hold 6 K^2 complex numbers for a basis of K vectors, 96 MB at
K = 2^10.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .errors import ContractViolationError, DomainError
from .spincore import (AdditiveObservable, Operator, QuantumState, ZDiagonal,
                       _check_cap, _check_outcome_parity, additive_observable,
                       apply_additive, as_state, double_commutator, pure_state,
                       snap_interval, total_magnetization, trace_norm,
                       uniform_observable)
from .thermal import _log_binom

SEARCH_RESOLUTION = 312
PURITY_PURE_TOL = 1e-10
_EIG_FLOOR = 1e-12

FIXTURE_KINDS = ("cat_plus", "cat_minus", "rho_ex1", "rho_ex2", "rho_ex3",
                 "psi1", "psi2")


@dataclass(frozen=True)
class CatnessReport:
    """Best catness value found by a search, with the observable that won."""

    c_value: float
    a_used: AdditiveObservable
    eta_trace: float
    q_fit: tuple[float, float] | None = None
    p_fit: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class VcmMatrix:
    """3n x 3n covariance matrix of single-site Pauli fluctuations.

    Index layout is site-major: row 3*i + a is axis a of site i+1.
    """

    n: int
    entries: np.ndarray

    @cached_property
    def e_max(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[-1])

    def principal_observable(self) -> AdditiveObservable:
        """Per-site-normalized observable along the top eigenvector."""
        w, v = np.linalg.eigh(self.entries)
        vec = v[:, -1]
        # rotate the global phase so the real part carries the most weight
        s = complex((vec * vec).sum())
        if abs(s) > 1e-15:
            vec = vec * np.exp(-0.5j * np.angle(s))
        coeffs = np.real(vec).reshape(self.n, 3)
        norms = np.linalg.norm(coeffs, axis=1)
        big = norms > 1e-9 * (1.0 + norms.max(initial=0.0))
        out = np.zeros_like(coeffs)
        out[big] = coeffs[big] / norms[big, None]
        return additive_observable(out)


def expect_c(rho: QuantumState, a: AdditiveObservable, eta) -> float:
    """Tr[rho [A, [A, eta]]], the catness of rho witnessed by (A, eta).

    A z-diagonal eta (every outcome projector) goes through the
    bit-operation kernel, which reads O(n^2 d) entries of rho and forms no
    d x d product; any other eta goes through the kernel double commutator.
    """
    if isinstance(eta, ZDiagonal):
        if eta.dim != rho.dim or a.n != rho.n:
            raise ContractViolationError("expect_c dimension mismatch")
        at, et = a.terms(), eta.terms()
        ae = at @ et
        val = ((at @ ae).expect(rho.mat) - 2.0 * (ae @ at).expect(rho.mat)
               + (et @ (at @ at)).expect(rho.mat))
    else:
        c_op = double_commutator(a, eta)
        val = complex(np.einsum("ij,ji->", rho.mat, c_op.mat))
    scale = 1.0 + abs(val)
    if abs(val.imag) > 1e-10 * scale:
        raise ContractViolationError(f"catness value has imaginary part {val.imag:.3e}")
    return float(val.real)


def c_closed_form_free(n: int, m: int, betah: float) -> float:
    """<C> for free spins measured at M_z = m: 2n + (n^2 - m^2) tanh^2."""
    _check_outcome_parity(n, m)
    t = math.tanh(betah)
    return 2.0 * n + (n * n - m * m) * t * t


def interval_r_count(n: int, a: int, b: int) -> float:
    """ln of the number of basis states with magnetization in [a, b]."""
    lo, hi = snap_interval(n, a, b)
    ms = np.arange(lo, hi + 1, 2)
    return float(logsumexp(_log_binom(n, (n + ms) // 2)))


def _edge_weights(n: int, lo: int, hi: int) -> tuple[float, float]:
    """Relative weights of the window's top and bottom magnetization rungs."""
    log_r = interval_r_count(n, lo, hi)
    top = math.exp(float(_log_binom(n, (n + hi) // 2)) - log_r)
    bot = math.exp(float(_log_binom(n, (n + lo) // 2)) - log_r)
    return top, bot


def i_function(n: int, m_lo: int, m_hi: int) -> float:
    """Resolution factor of the windowed-outcome catness formula.

    Collapses to 1 - (m/n)^2 for a point window and to 0 for the full
    range; always within [0, 1].
    """
    lo, hi = snap_interval(n, m_lo, m_hi)
    top, bot = _edge_weights(n, lo, hi)
    return 0.5 * (top * (1.0 - (hi / n) ** 2) + bot * (1.0 - (lo / n) ** 2))


def interval_c_closed(n: int, m_lo: int, m_hi: int, betah: float) -> float:
    """Closed-form <C> for a windowed outcome on free spins.

    The n^2 tanh^2 leading term is damped by the resolution factor; the
    additive edge term supplies the boundary contribution, giving back the
    point formula when the window collapses and vanishing (no measurement
    back-action) when the window covers the full range.
    """
    lo, hi = snap_interval(n, m_lo, m_hi)
    t = math.tanh(betah)
    top, bot = _edge_weights(n, lo, hi)
    return n * n * t * t * i_function(n, lo, hi) + top * (n - hi) + bot * (n + lo)


def optimal_witness(rho: QuantumState, a: AdditiveObservable) -> tuple[Operator, float]:
    """Best projector eta for Tr[rho C_{A,eta}] and the value it attains.

    By cyclic invariance the trace equals Tr[eta D] with D = [A, [A, rho]],
    so the exact maximum over projectors is the positive eigenspace of D and
    the value is the sum of D's positive eigenvalues, half the trace norm.
    """
    d_op = double_commutator(a, rho).mat
    w, v = np.linalg.eigh(d_op)
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    sel = w > _EIG_FLOOR * scale
    if not sel.any():
        zero = np.zeros_like(d_op)
        return Operator(zero), 0.0
    vecs = v[:, sel]
    proj = vecs @ vecs.conj().T
    return Operator(proj), float(w[sel].sum())


def q_functional(rho: QuantumState, a: AdditiveObservable) -> float:
    """Trace norm of [A, [A, rho]]; zero exactly when A and rho commute."""
    return trace_norm(double_commutator(a, rho))


def _state_factors(rho: QuantumState) -> tuple[np.ndarray, np.ndarray]:
    """rho = V diag(w) V^dagger over the weights above _EIG_FLOOR.

    The eigensolve runs on the rows and columns of rho that hold a nonzero
    entry. That is exact: a zero row of a positive semidefinite matrix is a
    kernel vector. The eigenvectors are scattered back to length 2^n.
    """
    mat = rho.mat
    support = np.flatnonzero((mat != 0).any(axis=1))
    w, v = np.linalg.eigh(mat[np.ix_(support, support)])
    sel = w > _EIG_FLOOR
    vecs = np.zeros((rho.dim, int(sel.sum())), dtype=complex)
    vecs[support] = v[:, sel]
    return w[sel], vecs


@dataclass(frozen=True, eq=False)
class _CatnessForm:
    """D(c) = [A, [A, rho]] for A = sum_a c_a O_a, as sum_{a<=b} c_a c_b G_ab.

    forms[p] is G_ab for pairs[p] = (a, b), written in an orthonormal basis
    of a space that holds the range of every D(c), so the nonzero spectrum
    of the combination is that of the dense D.
    """

    pairs: np.ndarray
    forms: np.ndarray

    def value(self, coeffs) -> tuple[float, float]:
        """(max-over-eta value, optimal eta trace): the sum and the count of
        the positive eigenvalues of D. D scales as |c|^2, so coeffs are
        scaled to unit length first, as uniform_observable scales a direction.
        """
        c = np.asarray(coeffs, dtype=float)
        nrm = np.linalg.norm(c)
        if not np.isfinite(nrm) or nrm < 1e-12:
            raise ContractViolationError("direction must be a nonzero vector")
        c = c / nrm
        mix = c[self.pairs[:, 0]] * c[self.pairs[:, 1]]
        lam = np.linalg.eigvalsh(np.tensordot(mix, self.forms, axes=1))
        scale = 1.0 + float(np.abs(lam).max(initial=0.0))
        pos = lam[lam > _EIG_FLOOR * scale]
        return float(pos.sum()), float(pos.size)


def _catness_form(weights: np.ndarray, vecs: np.ndarray,
                  observables) -> _CatnessForm:
    """The form of [A, [A, rho]] over A = sum_a c_a O_a, for rho = V diag(w) V^dagger.

    With S_ab = O_a O_b + O_b O_a (S_aa = O_a^2) and T_ab the same
    symmetrization of O_a rho O_b, D(c) = sum_{a<=b} c_a c_b (S_ab rho +
    rho S_ab - 2 T_ab). Its range lies in span{V, O_a V, S_ab V}: 10 rank(rho)
    columns for three observables, 3 rank(rho) for one. The forms are written
    in a basis of that span with its null directions dropped, or in the
    standard basis when the columns outnumber the rows.
    """
    r = len(weights)
    count = len(observables)
    pairs = np.array([(a, b) for a in range(count) for b in range(a, count)])
    ov = [apply_additive(obs, vecs) for obs in observables]
    oov = [apply_additive(obs, np.hstack(ov)) for obs in observables]

    def product(a: int, b: int) -> np.ndarray:  # O_a O_b V
        return oov[a][:, b * r:(b + 1) * r]

    blocks = [vecs, *ov, *(product(a, b) + product(b, a) if a != b else product(a, a)
                           for a, b in pairs)]
    if len(blocks) * r < vecs.shape[0]:
        cols = np.hstack(blocks)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        basis = u[:, s > s[0] * max(cols.shape) * np.finfo(float).eps].conj().T
        blocks = [basis @ block for block in blocks]
    p0, x, y = blocks[0], blocks[1:count + 1], blocks[count + 1:]
    side = p0.shape[0]
    forms = np.empty((len(pairs), side, side), dtype=complex)
    for p, ((a, b), yab) in enumerate(zip(pairs, y)):
        # G_ab = H + H^dagger, so every form is exactly Hermitian
        half = (yab * weights) @ p0.conj().T
        half -= (2.0 if a != b else 1.0) * ((x[a] * weights) @ x[b].conj().T)
        np.add(half, half.conj().T, out=forms[p])
    return _CatnessForm(pairs=pairs, forms=forms)


def _grid_directions(k: int) -> np.ndarray:
    """k near-uniform unit vectors from the golden-angle spiral."""
    j = np.arange(k)
    z = 1.0 - (2.0 * j + 1.0) / k
    phi = j * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def observable_search(rho: QuantumState, resolution: int = SEARCH_RESOLUTION,
                      refine: bool = True) -> CatnessReport:
    """Maximize the eta-optimal catness over additive observables.

    Candidates are uniform observables on a golden-spiral direction grid,
    a Nelder-Mead polish of the best grid direction, and (for pure states)
    the site-dependent observable suggested by the covariance matrix.
    Deterministic for a fixed resolution.

    D(d) = [A, [A, rho]] is quadratic in the direction d of a uniform A, so
    the six forms G_ab over the three total magnetizations are built once per
    state (_catness_form) and each direction costs one linear combination and
    one eigvalsh of side K <= min(10 rank(rho), 2^n). The forms take
    6 * K^2 * 16 bytes: 96 MB for a full-rank state at n = 10.
    """
    if resolution < 2:
        raise DomainError("need at least two grid directions")
    n = rho.n
    weights, vecs = _state_factors(rho)
    value = _catness_form(weights, vecs, [total_magnetization(axis, n)
                                          for axis in ("x", "y", "z")]).value

    best_val, best_eta = -1.0, 0.0
    best_dir = np.array([1.0, 0.0, 0.0])
    for direction in _grid_directions(resolution):
        val, eta_tr = value(direction)
        if val > best_val:
            best_val, best_eta, best_dir = val, eta_tr, direction

    if refine:
        theta0 = math.acos(float(np.clip(best_dir[2], -1.0, 1.0)))
        phi0 = math.atan2(float(best_dir[1]), float(best_dir[0]))

        def negated(angles):
            th, ph = angles
            d = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
            return -value(d)[0]

        res = minimize(negated, np.array([theta0, phi0]), method="Nelder-Mead",
                       options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 200})
        if -res.fun > best_val:
            th, ph = res.x
            best_dir = np.array([math.sin(th) * math.cos(ph),
                                 math.sin(th) * math.sin(ph), math.cos(th)])
            best_val, best_eta = value(best_dir)

    best_obs = uniform_observable(best_dir, n)

    if rho.purity > 1.0 - PURITY_PURE_TOL:
        candidate = _vcm_of(vecs[:, -1], n).principal_observable()
        val, eta_tr = _catness_form(weights, vecs, [candidate]).value((1.0,))
        if val > best_val:
            best_val, best_eta, best_obs = val, eta_tr, candidate

    return CatnessReport(c_value=best_val, a_used=best_obs, eta_trace=best_eta)


def vcm(pure: QuantumState) -> VcmMatrix:
    """Variance-covariance matrix of single-site Paulis for a pure state."""
    if pure.purity <= 1.0 - PURITY_PURE_TOL:
        raise ContractViolationError(
            f"VCM needs a pure state, got purity {pure.purity:.12f}")
    return _vcm_of(_state_factors(pure)[1][:, -1], pure.n)


def _vcm_of(psi: np.ndarray, n: int) -> VcmMatrix:
    cols = []
    for site in range(n):
        for axis in range(3):
            coeffs = np.zeros((n, 3))
            coeffs[site, axis] = 1.0
            cols.append(apply_additive(additive_observable(coeffs), psi))
    s = np.stack(cols, axis=1)
    means = s.conj().T @ psi
    gram = s.conj().T @ s
    entries = gram - np.outer(means.conj(), means)
    entries = 0.5 * (entries + entries.conj().T)
    return VcmMatrix(n=n, entries=entries)


def fit_exponent(points, floor: bool = True) -> tuple[float, float]:
    """Growth exponent of value ~ n^q from a finite-size sweep.

    Local log-log slopes between consecutive points are extrapolated
    linearly in 1/sqrt(n_i n_{i+1}) to the large-n limit by ordinary least
    squares; the intercept is the exponent and its standard error is the
    reported uncertainty. Three points give two slopes and no residual
    degree of freedom, so the error is undefined and comes back as NaN.
    Exact power laws come out exact. With floor=True each value is replaced
    by max(value, n) first, matching how the mixed-state index is defined;
    disable it when fitting quantities that may legitimately stay below n.
    """
    pts = sorted((float(n), float(v)) for n, v in points)
    if len(pts) < 3:
        raise DomainError("exponent fit needs at least three points")
    ns = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if np.any(ns <= 0.0) or len(np.unique(ns)) != len(ns):
        raise DomainError("sweep sizes must be positive and distinct")
    if floor:
        vals = np.maximum(vals, ns)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise DomainError("values must be positive and finite")
    slopes = np.diff(np.log(vals)) / np.diff(np.log(ns))
    u = 1.0 / np.sqrt(ns[:-1] * ns[1:])
    du = u - u.mean()
    ds = slopes - slopes.mean()
    sxx = float((du * du).sum())
    b = float((du * ds).sum()) / sxx
    q = float(slopes.mean() - b * u.mean())
    dof = len(slopes) - 2
    if dof <= 0:
        return q, math.nan
    resid = slopes - (q + b * u)
    sigma2 = float((resid * resid).sum()) / dof
    var_q = sigma2 * (1.0 / len(slopes) + u.mean() ** 2 / sxx)
    return q, math.sqrt(max(var_q, 0.0))


def _flipped_pair(n: int, site: int) -> tuple[int, int]:
    """Basis indices of one-spin-flipped states |0_i> and its complement."""
    dim = 1 << n
    i0 = 1 << (n - site)
    return i0, (dim - 1) ^ i0


def fixture_states(kind: str, n: int) -> QuantumState:
    """Reference states used throughout the index tests.

    cat_plus/cat_minus: (|up..up> +/- |down..down>)/sqrt(2).
    rho_ex1: equal mixture over i of (|0_i> + |1_i>)/sqrt(2), where |0_i>
        flips site i against the aligned background and |1_i> is its global
        complement.
    rho_ex2: the even classical mixture of the two aligned product states.
    rho_ex3: for n divisible by 3, mixture of (|i> + |comp i>)/sqrt(2) over
        i = 1..n/3 with |i> the contiguous block of i flipped spins.
    psi1: sqrt(1 - 1/n)|up..up> + sqrt(1/n)|down..down>.
    psi2: equal superposition of the n+1 staircase states |d^k u^(n-k)>.
    """
    if kind not in FIXTURE_KINDS:
        raise DomainError(f"unknown fixture kind {kind!r}")
    if n < 2:
        raise DomainError("fixtures need n >= 2")
    _check_cap(n)
    dim = 1 << n

    if kind in ("cat_plus", "cat_minus"):
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        vec[dim - 1] = 1.0 if kind == "cat_plus" else -1.0
        return pure_state(vec)

    if kind == "rho_ex1":
        mat = np.zeros((dim, dim), dtype=complex)
        for site in range(1, n + 1):
            i0, i1 = _flipped_pair(n, site)
            vec = np.zeros(dim, dtype=complex)
            vec[i0] = vec[i1] = 1.0 / math.sqrt(2.0)
            mat += np.outer(vec, vec.conj()) / n
        return as_state(mat, check=False)

    if kind == "rho_ex2":
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 0.5
        mat[dim - 1, dim - 1] = 0.5
        return as_state(mat, check=False)

    if kind == "rho_ex3":
        if n % 3:
            raise DomainError("rho_ex3 needs n divisible by 3")
        mat = np.zeros((dim, dim), dtype=complex)
        count = n // 3
        for i in range(1, count + 1):
            block = (1 << i) - 1
            comp = (dim - 1) ^ block
            vec = np.zeros(dim, dtype=complex)
            vec[block] = vec[comp] = 1.0 / math.sqrt(2.0)
            mat += np.outer(vec, vec.conj()) / count
        return as_state(mat, check=False)

    if kind == "psi1":
        vec = np.zeros(dim, dtype=complex)
        vec[0] = math.sqrt(1.0 - 1.0 / n)
        vec[dim - 1] = math.sqrt(1.0 / n)
        return pure_state(vec)

    vec = np.zeros(dim, dtype=complex)
    for k in range(n + 1):
        vec[(1 << k) - 1] = 1.0
    return pure_state(vec)


def witness_w(n: int) -> Operator:
    """Hopping witness between each |0_i> and its global complement.

    Eigenvalues are {0, +1, -1} for n >= 3; at n = 2 the flipped pairs
    coincide and the spectrum degenerates to {0, +2, -2}.
    """
    if n < 2:
        raise DomainError("witness needs n >= 2")
    _check_cap(n)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for site in range(1, n + 1):
        i0, i1 = _flipped_pair(n, site)
        mat[i0, i1] += 1.0
        mat[i1, i0] += 1.0
    return Operator(mat)
