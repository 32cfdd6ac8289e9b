"""Projective measurement of the total z magnetization.

Covers the outcome distribution, the post-measurement state for exact and
windowed outcomes, seeded sampling of shots, and the closed form for the
two-step scenario where an x measurement precedes the z measurement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError, ImpossibleOutcomeError
from .indices import _window_c, expect_c
from .spincore import (FactoredState, PauliTerms, QuantumState,
                       _check_cap, _check_outcome_parity, _window_mask,
                       mz_projector, mz_values, total_magnetization)

PROB_FLOOR = 1e-14

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
# Philox-4x64 round multipliers and key increments (Salmon et al., "Parallel
# random numbers: as easy as 1, 2, 3", SC'11)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


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

    def projector(self, n: int) -> PauliTerms:
        """The outcome's projector: a PauliTerms whose one term is mask()."""
        return PauliTerms(_check_cap(n), {0: self.mask(n).astype(float)})

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
    """Probabilities of every parity-valid magnetization outcome, the
    clipped diagonal binned by (M_z + n) / 2 in one pass."""
    n = rho.n
    diag = np.clip(np.real(rho.diagonal()), 0.0, None)
    probs = np.bincount((mz_values(n) + n) // 2, weights=diag, minlength=n + 1)
    return OutcomeDistribution(np.arange(-n, n + 1, 2), probs)


def outcome_probability(rho: QuantumState, spec: OutcomeSpec) -> float:
    """Probability of the given outcome for the given state."""
    mask = spec.mask(rho.n)
    return float(np.clip(np.real(rho.diagonal())[mask].sum(), 0.0, None))


def post_state(rho: QuantumState, spec: OutcomeSpec) -> QuantumState:
    """P rho P / Tr[P rho P] for the outcome's projector, kept as rho.project
    decides. A SpectralState narrows to the orbits that the window touches,
    and stays one when its group leaves the window invariant (symmetric
    about 0); every other result is a WindowState."""
    mask = spec.mask(rho.n)
    prob = outcome_probability(rho, spec)
    if prob <= PROB_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome {spec.kind}[{spec.m_lo}, {spec.m_hi}] has probability {prob:.3e}")
    # times the reciprocal, which is how numpy divides a complex block
    return rho.project(mask, 1.0 / prob)


def _mulhilo(a, b):
    """Low and high 64-bit words of a * b, from 32-bit halves, so that one
    body runs on ints and on uint64 arrays without overflow."""
    a_lo, a_hi, b_lo, b_hi = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> 32) + (lh & _MASK32) + (hl & _MASK32)
    return (((mid & _MASK32) << 32) | (ll & _MASK32),
            a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32))


def _philox_uniform(keys):
    """Generator(Philox(key=k)).random() for each key, bit for bit.

    That draw is word 0 of Philox-4x64-10 keyed (k, 0) at counter
    (1, 0, 0, 0), keeping its top 53 bits. keys is an int in [0, 2**64) or
    a uint64 array; a counter-based generator carries no state from one key
    to the next, so an array is drawn in one vectorized pass.
    """
    x0, x1, x2, x3 = 1, 0, 0, 0
    k0, k1 = keys, 0
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + _PHILOX_BUMP[0]) & _MASK64, (k1 + _PHILOX_BUMP[1]) & _MASK64
        lo0, hi0 = _mulhilo(x0, _PHILOX_MUL[0])
        lo1, hi1 = _mulhilo(x2, _PHILOX_MUL[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return (x0 >> 11) * 2.0**-53


def sample_outcomes(dist: OutcomeDistribution, seeds: int | np.ndarray):
    """Draw one outcome per seed; same seed, same draw, on any host.

    A seed's draw is u = Generator(Philox(key=seed mod 2**64)).random(), and
    its outcome the first whose cumulative probability exceeds u times the
    total. seeds is one int, giving one outcome, or an integer array, giving
    an array of outcomes drawn in one pass.
    """
    probs = np.asarray(dist.probs, dtype=float)
    total = probs.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise ContractViolationError("distribution has no probability mass")
    keys = (int(seeds) & _MASK64 if np.ndim(seeds) == 0
            else np.asarray(seeds).astype(np.uint64, copy=False))
    k = np.searchsorted(np.cumsum(probs), _philox_uniform(keys) * total, side="right")
    return dist.support[np.minimum(k, len(probs) - 1)]


def double_projection_c(n: int, m_x: int, m_z: int) -> float:
    """Closed-form <C> after measuring M_x = m_x and then M_z = m_z.

    The maximally mixed state projected to M_x = m_x is diagonal in the x
    basis with <Mx^2> = m_x^2, so this is the point window [m_z, m_z] of
    _window_c: 2n + (n^2 - m_z^2)(m_x^2 - n) / (n (n - 1)).
    """
    if n < 2:
        raise DomainError("two projections need at least two spins")
    _check_outcome_parity(n, m_x)
    _check_outcome_parity(n, m_z)
    return _window_c(n, m_z, m_z, (m_x * m_x - n) / (n * (n - 1.0)))


def double_projection_dense(n: int, m_x: int, m_z: int) -> float:
    """Dense companion of double_projection_c, evaluated end to end.

    The normalized x-sector projector is a FactoredState of the rotated
    states H^n |k> for M_z(k) = m_x, whose entry on |s> is (-1)^|s & k| / 2^(n/2).
    Its M_z = m_z window is read by expect_c, through the kernel witness.
    """
    _check_cap(n)
    _check_outcome_parity(n, m_x)
    _check_outcome_parity(n, m_z)
    idx, ks = np.arange(1 << n), np.flatnonzero(mz_values(n) == m_x)
    cols = (1.0 - 2.0 * (np.bitwise_count(idx[:, None] & ks) & 1)) / np.sqrt(idx.size)
    post = post_state(FactoredState(cols, np.full(ks.size, 1.0 / ks.size)),
                      OutcomeSpec.exact(m_z))
    return expect_c(post, total_magnetization("x", n), mz_projector(n, m_z))
