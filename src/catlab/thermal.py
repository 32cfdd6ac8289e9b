"""Hamiltonians, Gibbs states, and closed-form thermal quantities.

The workhorse model is a ring of spins in a transverse field with optional
nearest-neighbor XYZ couplings,

    H = -h * M_x - sum_i sum_alpha J_alpha sigma_alpha^i sigma_alpha^{i+1}.

Free spins (J = 0) admit closed forms for every partition function; the
interacting model gets a second-order expansion of the catness diagnostic,
valid for small beta * J.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import ContractViolationError, DomainError
from .spincore import (Operator, PauliTerms, QuantumState, SpectralState,
                       SymmetrySpectrum, _check_cap, _check_outcome_parity,
                       mz_values, pauli_terms, snap_interval, symmetry_eigh)

BOUNDARIES = ("periodic", "open")


@dataclass(frozen=True)
class SpinHamiltonian:
    """Transverse-field XYZ ring (or open chain) on n spins.

    h multiplies the total x magnetization with a minus sign; j is the
    (Jx, Jy, Jz) coupling triple on nearest-neighbor bonds. On the periodic
    two-site ring there is a single bond, not a doubled one.
    """

    n: int
    h: float
    j: tuple[float, float, float] = (0.0, 0.0, 0.0)
    boundary: str = "periodic"

    def __post_init__(self):
        if self.boundary not in BOUNDARIES:
            raise ContractViolationError(f"unknown boundary {self.boundary!r}")
        if self.n < 1:
            raise ContractViolationError("need at least one site")
        if len(self.j) != 3:
            raise ContractViolationError("j must be a (Jx, Jy, Jz) triple")

    @property
    def is_free(self) -> bool:
        return all(v == 0.0 for v in self.j)

    def bonds(self) -> list[tuple[int, int]]:
        if self.n == 1:
            return []
        pairs = [(i, i + 1) for i in range(1, self.n)]
        if self.boundary == "periodic" and self.n > 2:
            pairs.append((self.n, 1))
        return pairs

    def terms(self) -> PauliTerms:
        """H through the bit-operation kernel: real, and flip-symmetric."""
        coeffs = np.zeros((self.n, 3))
        coeffs[:, 0] = -self.h
        minus_j = tuple(-v for v in self.j)
        return pauli_terms(self.n, coeffs, [(a, b, minus_j) for a, b in self.bonds()])

    def realize(self) -> Operator:
        """Dense real view of H, written entry by entry from terms()."""
        _check_cap(self.n)
        return Operator(self.terms().dense())


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature; the zero-temperature limit is ground_state."""

    beta: float

    def __post_init__(self):
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ContractViolationError(f"beta must be finite and >= 0, got {self.beta}")

    def betah(self, h: float) -> float:
        return self.beta * h


def _spectrum(ham: SpinHamiltonian) -> SymmetrySpectrum:
    _check_cap(ham.n)
    return symmetry_eigh(ham.terms(), translation=ham.boundary == "periodic")


def gibbs_state(ham: SpinHamiltonian, beta: float) -> QuantumState:
    """exp(-beta H) / Z as a density matrix.

    H is diagonalized in its flip and, on the ring, translation blocks
    (symmetry_eigh), and the state keeps that spectrum and its Boltzmann
    weights. Its dense .mat is assembled on first access only; the
    measurement layer reads just its diagonal and the measured window.
    """
    ThermalParams(beta)
    spec = _spectrum(ham)
    # shifted to the ground energy, every weight is at most 1 and the sum at least 1
    weights = np.where(spec.group.valid, np.exp(-beta * (spec.w - spec.w.min())), 0.0)
    return SpectralState(spec, weights / float((spec.multiplicity * weights).sum()))


def ground_state(ham: SpinHamiltonian) -> QuantumState:
    """Projector onto the ground space, mixed uniformly when degenerate.

    Degeneracy is judged over every symmetry block together. Like
    gibbs_state, the state keeps the spectrum and assembles .mat on demand.
    """
    spec = _spectrum(ham)
    w = spec.energies
    tol = 1e-9 * max(1.0, abs(float(w.min())))
    sel = w <= w.min() + tol
    return SpectralState(spec, sel / float((spec.multiplicity * sel).sum()))


def _log_cosh(x: float) -> float:
    # even in x and overflow-free for any magnitude
    ax = abs(float(x))
    return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))


def _log_binom(n: int, k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def log_free_partition_eq(n: int, betah: float) -> float:
    """ln of the free-spin partition function 2^n cosh^n(beta h)."""
    if n < 1:
        raise DomainError("n must be positive")
    return n * math.log(2.0) + n * _log_cosh(betah)


def log_free_partition_post(n: int, m: int, betah: float) -> float:
    """ln of binom(n, (n+m)/2) cosh^n(beta h), the post-measurement weight."""
    _check_outcome_parity(n, m)
    return float(_log_binom(n, (n + m) // 2)) + n * _log_cosh(betah)


def log_interval_partition_post(n: int, m_lo: int, m_hi: int, betah: float) -> float:
    """Log-domain sum of the post weights over a magnetization window."""
    lo, hi = snap_interval(n, m_lo, m_hi)
    ms = np.arange(lo, hi + 1, 2)
    lb = _log_binom(n, (n + ms) // 2)
    return float(logsumexp(lb)) + n * _log_cosh(betah)


def _expansion_domain(n: int, m: int) -> None:
    if n < 3:
        raise DomainError("the coupling expansion needs n >= 3 (n-1, n-2 denominators)")
    _check_outcome_parity(n, m)


def xyz_c_expansion(n: int, m: int, beta: float, h: float, j) -> float:
    """Second-order small-beta expansion of <C> for the XYZ ring.

    The coupling-linear coefficient enters with a plus sign; the dense
    pipeline pins it down unambiguously (the beta-halving residual test
    below only passes this way), and the quadratic cross term in Jz(Jx+Jy)
    is unaffected because the slip enters it squared.
    """
    _expansion_domain(n, m)
    jx, jy, jz = (float(v) for v in j)
    n2m2 = float(n * n - m * m)
    lin = 2.0 * beta * (jx + jy) * n2m2 / (n - 1)
    quad = 2.0 * beta * beta * n2m2 * (
        h * h / 2.0
        + (jx * jx + jy * jy) / (n - 1)
        + jz * (jx + jy) * (m * m - n * n + 4 * n - 4) / ((n - 1) ** 2 * (n - 2))
    )
    return 2.0 * n + lin + quad


def xyz_c_expansion_jperp(n: int, m: int, beta: float, h: float,
                          j_x: float, j_perp: float) -> float:
    """Variant of the expansion for Jy = Jz, exact in beta*h.

    The field part is resummed into tanh^2, so only the couplings are
    perturbative; at strong fields this tracks the dense value much closer
    than the symmetric expansion.
    """
    _expansion_domain(n, m)
    jx, jp = float(j_x), float(j_perp)
    n2m2 = float(n * n - m * m)
    t = math.tanh(beta * h)
    lin = 2.0 * beta * (jx + jp) * n2m2 / (n - 1)
    quad = 2.0 * beta * beta * n2m2 * (
        jx * jx / (n - 1)
        + jx * jp * (m * m - n * n + 4 * n - 4) / ((n - 1) ** 2 * (n - 2))
        + jp * (m * m + n - 2) / ((n - 1) ** 2 * (n - 2))
    )
    return 2.0 * n + n2m2 * t * t + lin + quad


def sector_zz_mean(n: int, m: int) -> float:
    """Average of sum_i sz_i sz_{i+1} (periodic) over the M_z = m sector."""
    _check_outcome_parity(n, m)
    if n < 2:
        return 0.0
    return (m * m - n) / (n - 1)


def sector_zz_sq_mean(n: int, m: int) -> float:
    """Average of (sum_i sz_i sz_{i+1})^2 over the M_z = m sector, exact."""
    _check_outcome_parity(n, m)
    vals = mz_values(n)
    idx = np.where(vals == m)[0]
    total = 0.0
    for k in idx:
        z = [1 - 2 * ((int(k) >> (n - 1 - s)) & 1) for s in range(n)]
        e = sum(z[i] * z[(i + 1) % n] for i in range(n))
        total += float(e * e)
    return total / len(idx)


def zpost_xyz_expansion(n: int, m: int, beta: float, h: float, j) -> float:
    """Second-order expansion of the post-measurement partition weight.

    Tr[P exp(-beta H) P] for the periodic XYZ ring, with the quadratic
    zz term evaluated through the exact sector average rather than a
    transcribed rational; used by the expansion-quality oracle.
    """
    _expansion_domain(n, m)
    jx, jy, jz = (float(v) for v in j)
    b = math.exp(float(_log_binom(n, (n + m) // 2)))
    s1 = sector_zz_mean(n, m)
    s2 = sector_zz_sq_mean(n, m)
    return b * (
        1.0
        + beta * jz * s1
        + beta * beta * (n * (jx * jx + jy * jy + h * h) / 2.0
                         - jx * jy * s1
                         + jz * jz * s2 / 2.0)
    )
