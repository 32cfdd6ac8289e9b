"""Projective measurement of the total z magnetization.

Covers the outcome distribution, the post-measurement state for exact and
windowed outcomes, seeded single-shot sampling, and the closed form for the
two-step scenario where an x measurement precedes the z measurement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ContractViolationError, DomainError, ImpossibleOutcomeError
from .spincore import (QuantumState, ZDiagonal, _check_cap, _check_outcome_parity,
                       _window_mask, double_commutator,
                       mz_interval_projector, mz_projector, mz_values,
                       total_magnetization)

PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class OutcomeSpec:
    """An exact outcome m or a window [m_lo, m_hi] on the z magnetization.

    Raw integers are stored as given; parity snapping happens when the
    projector is realized, so user-facing windows read exactly like the
    physical resolution statement they model.
    """

    kind: str
    m_lo: int
    m_hi: int

    @classmethod
    def exact(cls, m: int) -> "OutcomeSpec":
        return cls("exact", int(m), int(m))

    @classmethod
    def interval(cls, m_lo: int, m_hi: int) -> "OutcomeSpec":
        return cls("interval", int(m_lo), int(m_hi))

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def projector(self, n: int) -> ZDiagonal:
        """The outcome's projector, kept as its diagonal (no d x d matrix)."""
        if self.is_exact:
            return mz_projector(n, self.m_lo)
        return mz_interval_projector(n, self.m_lo, self.m_hi)

    def mask(self, n: int) -> np.ndarray:
        """Boolean basis-state mask of the projected subspace."""
        if self.is_exact:
            _check_outcome_parity(n, self.m_lo)
        return _window_mask(n, self.m_lo, self.m_hi)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Support (valid m values, ascending) and their probabilities."""

    support: np.ndarray
    probs: np.ndarray


def outcome_distribution(rho: QuantumState) -> OutcomeDistribution:
    """Probabilities of every parity-valid magnetization outcome."""
    n = rho.n
    vals = mz_values(n)
    diag = np.clip(np.real(rho.diagonal()), 0.0, None)
    support = np.arange(-n, n + 1, 2)
    probs = np.zeros(support.size)
    for k, m in enumerate(support):
        probs[k] = diag[vals == m].sum()
    return OutcomeDistribution(support, probs)


def outcome_probability(rho: QuantumState, spec: OutcomeSpec) -> float:
    """Probability of the given outcome for the given state."""
    mask = spec.mask(rho.n)
    return float(np.clip(np.real(rho.diagonal())[mask].sum(), 0.0, None))


def post_state(rho: QuantumState, spec: OutcomeSpec) -> QuantumState:
    """P rho P / Tr[P rho P] for the outcome's projector."""
    mask = spec.mask(rho.n)
    prob = outcome_probability(rho, spec)
    if prob <= PROB_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome {spec.kind}[{spec.m_lo}, {spec.m_hi}] has probability {prob:.3e}")
    mat = np.zeros((rho.dim, rho.dim), dtype=complex)
    mat[np.ix_(mask, mask)] = rho.block(mask) / prob
    return QuantumState(mat)


def sample_outcome(dist: OutcomeDistribution, seed: int) -> int:
    """Draw one outcome; same seed, same draw, on any host."""
    probs = np.asarray(dist.probs, dtype=float)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ContractViolationError("distribution has no probability mass")
    gen = Generator(Philox(key=int(seed) & ((1 << 64) - 1)))
    u = gen.random() * total
    k = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    k = min(k, len(probs) - 1)
    return int(dist.support[k])


def double_projection_c(n: int, m_x: int, m_z: int) -> float:
    """Closed-form <C> after measuring M_x = m_x and then M_z = m_z.

    Starting from the maximally mixed state the two projections leave
    2n + (n^2 - m_z^2)(m_x^2 - n) / (n (n - 1)).
    """
    if n < 2:
        raise DomainError("two projections need at least two spins")
    _check_outcome_parity(n, m_x)
    _check_outcome_parity(n, m_z)
    return 2.0 * n + (n * n - m_z * m_z) * (m_x * m_x - n) / (n * (n - 1.0))


def double_projection_dense(n: int, m_x: int, m_z: int) -> float:
    """Dense companion of double_projection_c, evaluated end to end."""
    _check_cap(n)
    _check_outcome_parity(n, m_x)
    _check_outcome_parity(n, m_z)
    # Hadamard-rotate the z-sector projector to get the x-sector one
    had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    rot = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        rot = np.kron(rot, had)
    px = rot @ mz_projector(n, m_x).mat @ rot.conj().T
    rho = px / np.trace(px).real
    post = post_state(QuantumState(rho), OutcomeSpec.exact(m_z))
    c_op = double_commutator(total_magnetization("x", n), mz_projector(n, m_z))
    return float(np.einsum("ij,ji->", post.mat, c_op.mat).real)
