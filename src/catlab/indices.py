"""Macroscopic-quantumness machinery.

The central quantity is <C_{A,eta}> = Tr[rho [A, [A, eta]]] for an additive
observable A and a projector eta. Its maximum over eta has a closed form
(the positive eigenspace of [A, [A, rho]]), the maximum over uniform A is
found on a golden-spiral direction grid refined by an ascent, and p-index
candidates for pure states come from the single-site variance-covariance
matrix. Exponents are estimated from finite-size sweeps by extrapolating
local log-log slopes to the large-n limit.

The search evaluates directions through one quadratic form per state:
[A, [A, rho]] is quadratic in the direction of a uniform A, so six
Hermitian forms are built once, in a basis of at most 10 rank(rho) vectors,
and each direction costs one linear combination and one eigvalsh. Every
other witness (optimal_witness, q_functional, expect_c with a dense eta)
reads the form for one A, in at most 3 rank(rho) vectors. A state that
commutes with M_z, as every single-outcome post-state does, is unchanged
by rotations about z, so its catness depends on the polar angle alone:
three forms over Mx and Mz, real when the state is, and half the grid
suffice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolationError, DomainError
from .spincore import (_EIG_FLOOR, _GATHER_CHUNK, AdditiveObservable,
                       FactoredState, PauliTerms, QuantumState, _check_cap,
                       _check_outcome_parity, _herm_eigh, additive_observable,
                       mz_values, pauli_terms, pure_state, snap_interval,
                       total_magnetization, uniform_observable)
from .thermal import _log_binom, interval_r_count

SEARCH_RESOLUTION = 312
PURITY_PURE_TOL = 1e-10

FIXTURE_KINDS = ("cat_plus", "cat_minus", "rho_ex1", "rho_ex2", "rho_ex3",
                 "psi1", "psi2")


@dataclass(frozen=True)
class CatnessReport:
    """Best catness value found by a search, with the observable that won."""

    c_value: float
    a_used: AdditiveObservable
    eta_trace: float


@dataclass(frozen=True, eq=False)
class VcmMatrix:
    """3n x 3n covariance matrix of single-site Pauli fluctuations.

    Index layout is site-major: row 3*i + a is axis a of site i+1.
    """

    n: int
    entries: np.ndarray

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return _herm_eigh(self.entries, "VCM")

    @property
    def e_max(self) -> float:
        return float(self._eigh[0][-1])

    def principal_observable(self) -> AdditiveObservable:
        """Per-site-normalized observable along the top eigenvector."""
        vec = self._eigh[1][:, -1]
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

    A PauliTerms eta, such as an outcome projector, is read by rho.catness:
    through one kernel PauliTerms.double_commutator, whose expect reads
    O(n^2 d) entries of rho per term of eta and forms no d x d product, or,
    on a SpectralState whose group leaves A and eta invariant, from the
    blocks of A. Any other eta is an array, read
    by cyclic invariance as Tr[D eta] = Tr[F B eta B^dagger], with F the
    form of D = [A, [A, rho]] in its basis B.
    """
    if not isinstance(a, AdditiveObservable):
        raise ContractViolationError(
            f"expect_c needs an AdditiveObservable, got {type(a).__name__}")
    emat = None if isinstance(eta, PauliTerms) else np.asarray(eta)
    shape = (1 << eta.n,) * 2 if emat is None else emat.shape
    if shape != (rho.dim, rho.dim) or a.n != rho.n:
        raise ContractViolationError("expect_c dimension mismatch")
    if emat is None:
        val = rho.catness(a.terms(), eta)
    else:
        form = _catness_form(*rho.factors(), [a])
        side = emat if form.basis is None else form.basis @ emat @ form.basis.conj().T
        val = complex(np.einsum("ij,ji->", form.forms[0], side))
    scale = 1.0 + abs(val)
    if abs(val.imag) > 1e-10 * scale:
        raise ContractViolationError(f"catness value has imaginary part {val.imag:.3e}")
    return float(val.real)


def c_closed_form_free(n: int, m: int, betah: float) -> float:
    """<C> for free spins measured at M_z = m: 2n + (n^2 - m^2) tanh^2."""
    _check_outcome_parity(n, m)
    t = math.tanh(betah)
    return 2.0 * n + (n * n - m * m) * t * t


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


def optimal_witness(rho: QuantumState, a: AdditiveObservable) -> tuple[np.ndarray, float]:
    """Best projector eta for Tr[rho C_{A,eta}] and the value it attains.

    By cyclic invariance the trace equals Tr[eta D] with D = [A, [A, rho]],
    so the exact maximum over projectors is the positive eigenspace of D and
    the value is the sum of D's positive eigenvalues, half the trace norm.
    D is eigensolved as its form F = B D B^dagger (_catness_form), and eta's
    eigenvectors go back through B: eta, a plain array, is the one d x d array.
    """
    form = _catness_form(*rho.factors(), [a])
    w, u = _herm_eigh(form.forms[0], "[A, [A, rho]]")
    sel = _positive(w)
    vecs = u[:, sel] if form.basis is None else form.basis.conj().T @ u[:, sel]
    return vecs @ vecs.conj().T, float(w[sel].sum())


def q_functional(rho: QuantumState, a: AdditiveObservable) -> float:
    """Trace norm of [A, [A, rho]], from its form; zero exactly when A and rho commute."""
    form = _catness_form(*rho.factors(), [a])
    lam = _herm_eigh(form.forms[0], "[A, [A, rho]]", _values_only=True)
    return float(np.abs(lam).sum())


@dataclass(frozen=True, eq=False)
class _CatnessForm:
    """D(c) = [A, [A, rho]] for A = sum_a c_a O_a, as sum_{a<=b} c_a c_b G_ab.

    forms[p] is G_ab for pairs[p] = (a, b), written in an orthonormal basis
    of a space that holds the range of every D(c), so the nonzero spectrum
    of the combination is that of the dense D. basis holds it as K rows B of
    length 2^n, D(c) = B^dagger (sum c_a c_b G_ab) B, or is None for B = 1.
    """

    pairs: np.ndarray
    forms: np.ndarray
    basis: np.ndarray | None

    def _at(self, coeffs) -> tuple[np.ndarray, np.ndarray]:
        """(c, D(c)) for c the unit vector along coeffs: D scales as |c|^2, so
        coeffs are scaled to unit length, as uniform_observable scales a direction."""
        c = np.asarray(coeffs, dtype=float)
        nrm = np.linalg.norm(c)
        if not np.isfinite(nrm) or nrm < 1e-12:
            raise ContractViolationError("direction must be a nonzero vector")
        c = c / nrm
        return c, np.tensordot(c[self.pairs[:, 0]] * c[self.pairs[:, 1]], self.forms, axes=1)

    def value(self, coeffs) -> tuple[float, float]:
        """(max-over-eta value, optimal eta trace): the sum and the count of
        the positive eigenvalues of D(c)."""
        lam = np.linalg.eigvalsh(self._at(coeffs)[1])
        pos = lam[_positive(lam)]
        return float(pos.sum()), float(pos.size)

    def step(self, coeffs) -> np.ndarray:
        """The ascent step from c: Q's top unit eigenvector c', signed to agree
        with c, for P the projector on D(c)'s positive eigenspace and Q the
        symmetric matrix with c'^T Q c' = Tr[P D(c')]. No step lowers the value:
        value(c') >= Tr[P D(c')] >= Tr[P D(c)] = value(c), as value maximizes
        over projectors and c' maximizes the form over unit vectors."""
        c, mat = self._at(coeffs)
        lam, u = _herm_eigh(mat, "[A, [A, rho]]")
        pos = u[:, _positive(lam)]
        half = np.zeros((c.size, c.size))  # Q = half + half^T: Tr[P G_ab] / 2 at a <= b
        half[tuple(self.pairs.T)] = 0.5 * np.tensordot(self.forms, pos @ pos.conj().T,
                                                       axes=([1, 2], [1, 0])).real
        top = _herm_eigh(half + half.T, "catness quadratic form")[1][:, -1]
        return top if top @ c >= 0.0 else -top


def _positive(lam: np.ndarray) -> np.ndarray:
    """The eigenvalues above _EIG_FLOOR relative to the largest magnitude."""
    return lam > _EIG_FLOOR * (1.0 + float(np.abs(lam).max(initial=0.0)))


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
    terms = [obs.terms() for obs in observables]
    ov = [t.apply(vecs) for t in terms]
    oov = [t.apply(np.hstack(ov)) for t in terms]

    def product(a: int, b: int) -> np.ndarray:  # O_a O_b V
        return oov[a][:, b * r:(b + 1) * r]

    blocks = [vecs, *ov, *(product(a, b) + product(b, a) if a != b else product(a, a)
                           for a, b in pairs)]
    basis = None
    if len(blocks) * r < vecs.shape[0]:
        cols = np.hstack(blocks)
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        basis = u[:, s > s[0] * max(cols.shape) * np.finfo(float).eps].conj().T
        blocks = [basis @ block for block in blocks]
    p0, x, y = blocks[0], blocks[1:count + 1], blocks[count + 1:]
    side = p0.shape[0]
    forms = np.empty((len(pairs), side, side), dtype=np.result_type(*blocks))
    for p, ((a, b), yab) in enumerate(zip(pairs, y)):
        # G_ab = H + H^dagger, so every form is exactly Hermitian
        half = (yab * weights) @ p0.conj().T
        half -= (2.0 if a != b else 1.0) * ((x[a] * weights) @ x[b].conj().T)
        np.add(half, half.conj().T, out=forms[p])
    return _CatnessForm(pairs=pairs, forms=forms, basis=basis)


def _grid_directions(k: int, half_plane: bool = False) -> np.ndarray:
    """k near-uniform unit vectors from the golden-angle spiral; with
    half_plane, (sin theta, 0, cos theta) at its ceil(k / 2) distinct polar
    angles theta = arccos|z|, from the pole to the equator."""
    j = np.arange((k + 1) // 2 if half_plane else k)
    z = 1.0 - (2.0 * j + 1.0) / k
    phi = np.zeros(j.size) if half_plane else j * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _commutes_with_mz(rho: QuantumState) -> bool:
    """Whether rho commutes with M_z: whether its support block has no
    nonzero entry between two magnetization sectors, read through entries()
    in row chunks of at most _GATHER_CHUNK entries and stopping at the first
    chunk that has one."""
    rows = rho.support()
    sectors, step = mz_values(rho.n)[rows], max(1, _GATHER_CHUNK // rows.size)
    return not any(((rho.entries(rows[lo:lo + step, None], rows) != 0)
                    & (sectors[lo:lo + step, None] != sectors)).any()
                   for lo in range(0, rows.size, step))


def observable_search(rho: QuantumState,
                      resolution: int = SEARCH_RESOLUTION) -> CatnessReport:
    """Maximize the eta-optimal catness over additive observables.

    Candidates are uniform observables on a golden-spiral direction grid,
    an ascent from the best grid direction, and (for pure states) the
    site-dependent observable suggested by the covariance matrix.
    Deterministic for a fixed resolution.

    D(d) = [A, [A, rho]] is quadratic in the direction d of a uniform A, so
    the six forms G_ab over the three total magnetizations are built once per
    state (_catness_form) and each direction costs one linear combination and
    one eigvalsh of side K <= min(10 rank(rho), 2^n). The forms take
    6 * K^2 * 16 bytes: 96 MB for a full-rank state at n = 10. The grid has
    resolution directions. The ascent takes at most 200 _CatnessForm.step
    moves, each retried at twice its length while the value rises, and stops
    at a fixed point of the step or at a move that does not raise the value.

    A rho that commutes with M_z is unchanged by rotations about z, so D(d)
    depends on the polar angle theta of d alone. Then three forms over Mx and
    Mz (real when rho is) serve the equator, the pole and the
    ceil(resolution / 2) distinct polar angles of the same spiral, all
    evaluated exactly; the ascent runs in the xz plane, where a_used lies.
    """
    if resolution < 2:
        raise DomainError("need at least two grid directions")
    n = rho.n
    weights, vecs = rho.factors()
    commutes = _commutes_with_mz(rho)
    axes = [0, 2] if commutes else [0, 1, 2]
    form = _catness_form(weights, vecs, [total_magnetization("xyz"[a], n) for a in axes])
    best: list = [-1.0, 0.0, None]  # value, eta trace, direction over axes
    seen: set = set()  # the polar grid's z = 0 repeats the equator

    def evaluate(c: np.ndarray) -> bool:
        """Whether c, evaluated once, raises the best value."""
        if c.tobytes() in seen:
            return False
        seen.add(c.tobytes())
        val, eta_tr = form.value(c)
        if val <= best[0]:
            return False
        best[:] = val, eta_tr, c
        return True

    grid = _grid_directions(resolution, half_plane=commutes)
    if commutes:  # the equator and the pole exactly, then the grid
        grid = np.vstack([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], grid])
    for c in grid[:, axes]:
        evaluate(c)
    for _ in range(200):
        start = best[2]
        move = form.step(start) - start
        if np.abs(move).max() <= 1e-12:  # a fixed point: an optimal equator stays exact
            break
        for length in 2.0 ** np.arange(50):  # |move| > 1e-12: 2^50 points along move
            trial = start + length * move
            if not evaluate(trial / np.linalg.norm(trial)):
                break
        if best[2] is start:  # the step did not raise the value
            break
    direction = np.insert(best[2], 1, 0.0) if commutes else best[2]
    best_val, best_eta, best_obs = best[0], best[1], uniform_observable(direction, n)

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
    return _vcm_of(pure.factors()[1][:, -1], pure.n)


def _vcm_of(psi: np.ndarray, n: int) -> VcmMatrix:
    cols = []
    for site in range(n):
        for axis in range(3):
            coeffs = np.zeros((n, 3))
            coeffs[site, axis] = 1.0
            cols.append(pauli_terms(n, coeffs).apply(psi))
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
    if not (np.all(np.isfinite(ns)) and ns[0] > 0.0 and np.all(np.diff(ns) > 0.0)):
        raise DomainError("sweep sizes must be finite, positive and distinct")
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


def fixture_states(kind: str, n: int) -> FactoredState:
    """Reference states used throughout the index tests, each kept as its
    orthonormal columns and weights (a FactoredState of rank <= n).

    cat_plus/cat_minus: (|up..up> +/- |down..down>)/sqrt(2).
    rho_ex1: equal mixture over i of (|0_i> + |1_i>)/sqrt(2), where |0_i>
        flips site i against the aligned background and |1_i> is its global
        complement. At n = 2 the two pairs coincide, so the state is pure.
    rho_ex2: the even classical mixture of the two aligned product states.
    rho_ex3: for n divisible by 3, mixture of (|i> + |comp i>)/sqrt(2) over
        i = 1..n/3 with |i> the contiguous block of the last i spins flipped.
    psi1: sqrt(1 - 1/n)|up..up> + sqrt(1/n)|down..down>.
    psi2: equal superposition of the n+1 staircase states |u^(n-k) d^k>.
    """
    if kind not in FIXTURE_KINDS:
        raise DomainError(f"unknown fixture kind {kind!r}")
    if n < 2:
        raise DomainError("fixtures need n >= 2")
    _check_cap(n)
    if kind == "rho_ex3" and n % 3:
        raise DomainError("rho_ex3 needs n divisible by 3")
    dim = 1 << n
    vec = np.zeros(dim, dtype=complex)
    if kind in ("cat_plus", "cat_minus", "psi1"):
        vec[0], vec[dim - 1] = {"cat_plus": (1.0, 1.0), "cat_minus": (1.0, -1.0),
                                "psi1": (math.sqrt(1.0 - 1.0 / n), math.sqrt(1.0 / n))}[kind]
        return pure_state(vec)
    if kind == "psi2":
        vec[(1 << np.arange(n + 1)) - 1] = 1.0
        return pure_state(vec)

    # an equal mixture, one column per equal superposition of a group of states
    if kind == "rho_ex2":
        groups = [(0,), (dim - 1,)]
    else:
        flips = ([1 << (n - site) for site in range(1, n + 1)] if kind == "rho_ex1"
                 else [(1 << i) - 1 for i in range(1, n // 3 + 1)])
        # (|s> + |comp s>)/sqrt(2) once per pair: rho_ex1's two coincide at n = 2
        groups = sorted({tuple(sorted((s, (dim - 1) ^ s))) for s in flips})
    vecs = np.zeros((dim, len(groups)), dtype=complex)
    for k, group in enumerate(groups):
        vecs[list(group), k] = 1.0 / math.sqrt(len(group))
    return FactoredState(vecs, np.full(len(groups), 1.0 / len(groups)))


def witness_w(n: int) -> np.ndarray:
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
    return mat
