"""Cross-checks and side calculations around the measurement pipeline.

Everything here is diagnostic: closed-form moments to compare against the
dense pipeline, symmetry and sufficiency checks that validate the closed
forms' assumptions, a Pauli-string decomposition of the catness witness
with a measurement-setting count, and the magnetometer feasibility
arithmetic for the proposed readout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError
from .indices import expect_c, fit_exponent, optimal_witness
from .measure import (OutcomeSpec, outcome_distribution, outcome_probability,
                      post_state)
from .spincore import (QuantumState, _bit_table, double_commutator,
                       mz_projector, mz_values, total_magnetization,
                       unitary_evolution)
from .thermal import SpinHamiltonian, gibbs_state, log_free_partition_post

SECTOR_TOL = 1e-9
PROB_SKIP = 1e-14

MU_BOHR_PRECISE = 9.274e-24
MU_ZERO_PRECISE = 1.2566e-6
MU_BOHR_ROUNDED = 9.3e-24
MU_ZERO_ROUNDED = 1.2e-6


def purity_bound_free(n: int, m: int, betah: float) -> float:
    """Upper bound on the post-measurement purity for free spins.

    The bound is the ratio of the doubled-field to squared sector partition
    functions; it is saturated exactly at infinite temperature.
    """
    return math.exp(log_free_partition_post(n, m, 2.0 * betah)
                    - 2.0 * log_free_partition_post(n, m, betah))


@dataclass(frozen=True)
class EnergyMoments:
    mean: float
    variance: float


def energy_moments_free_closed(n: int, m: int, betah: float, h: float) -> EnergyMoments:
    """Energy mean and variance of the measured free-spin thermal state.

    The mean vanishes identically because the transverse magnetization has
    no matrix elements inside a longitudinal sector; the variance is the
    field-squared times the post-measurement second transverse moment.
    """
    t = math.tanh(betah)
    mx2 = n + 0.5 * (n * n - m * m) * t * t
    return EnergyMoments(mean=0.0, variance=h * h * mx2)


def energy_moments_dense(rho: QuantumState, ham: SpinHamiltonian) -> EnergyMoments:
    """<H> and <H^2> - <H>^2 of a dense state, through the bit-operation kernel."""
    hterms = ham.terms()
    mean = hterms.expect(rho.mat).real
    second = (hterms @ hterms).expect(rho.mat).real
    return EnergyMoments(mean=mean, variance=second - mean * mean)


def transverse_moments(rho_post: QuantumState) -> tuple[float, float, float]:
    """(<Mx>, <My>, <Mx^2>) of a dense state, through the bit-operation kernel."""
    n = rho_post.n
    mx = total_magnetization("x", n).terms()
    my = total_magnetization("y", n).terms()
    return (mx.expect(rho_post.mat).real, my.expect(rho_post.mat).real,
            (mx @ mx).expect(rho_post.mat).real)


def matching_equilibrium_beta(e_mean: float, n: int, h: float) -> float:
    """Inverse temperature whose free equilibrium energy equals e_mean.

    Inverts -n h tanh(beta h); raises when the energy is outside the open
    caloric range (-n|h|, n|h|) or the field vanishes.
    """
    if h == 0.0:
        raise DomainError("cannot match a temperature at zero field")
    x = -e_mean / (n * h)
    if abs(x) >= 1.0:
        raise DomainError(
            f"energy {e_mean} outside the reachable range (-{n * abs(h)}, {n * abs(h)})")
    return math.atanh(x) / h


@dataclass(frozen=True)
class SymmetryReport:
    """Evenness of the measured-catness pipeline under field reversal."""

    betah: tuple[float, ...]
    z_residual: tuple[float, ...]
    c_residual: tuple[float, ...]
    rz_residual: float


def symmetry_even_in_h(build_ham, betah_grid, m: int = 0) -> SymmetryReport:
    """Compare the pipeline at +h and -h on a grid of field strengths.

    build_ham maps a signed field to a SpinHamiltonian; the inverse
    temperature is held at one so the grid directly sweeps beta*h. Reports
    relative evenness residuals of the sector weight and the catness value,
    plus the worst-case defect of the exact pi-rotation identity
    H(-h) = R_z H(h) R_z^dagger. R_z is prod sigma_z up to a global phase
    that cancels, so the conjugation multiplies entry (k, l) by the z
    parities of k and l. Nothing is asserted: a symmetry-breaking control
    term is expected to show up here.
    """
    grid = tuple(float(g) for g in betah_grid)
    z_res, c_res = [], []
    rz_defect = 0.0
    for g in grid:
        ham_p = build_ham(g)
        ham_m = build_ham(-g)
        n = ham_p.n
        parity = _bit_table(n)[1].prod(axis=0)
        hp = ham_p.realize().mat
        hm = ham_m.realize().mat
        scale = 1.0 + float(np.abs(hp).max())
        flipped = parity[:, None] * hp * parity[None, :]
        rz_defect = max(rz_defect, float(np.abs(hm - flipped).max()) / scale)

        spec = OutcomeSpec.exact(m)
        pair = []
        for ham in (ham_p, ham_m):
            rho = gibbs_state(ham, 1.0)
            prob = outcome_probability(rho, spec)
            rho_m = post_state(rho, spec)
            c = expect_c(rho_m, total_magnetization("x", n), spec.projector(n))
            pair.append((prob, c))
        (zp, cp), (zm, cm) = pair
        z_res.append(abs(zp - zm) / max(abs(zp), abs(zm), 1e-300))
        c_res.append(abs(cp - cm) / max(abs(cp), abs(cm), 1e-300))
    return SymmetryReport(betah=grid, z_residual=tuple(z_res),
                          c_residual=tuple(c_res), rz_residual=rz_defect)


@dataclass(frozen=True)
class SufficiencyReport:
    """Per-outcome check of the second-moment shortcut for the catness.

    condition_residual is the worst norm of A mapping a measurement sector
    into itself; when it vanishes the catness equals twice
    second_moment_ratio = Tr[P rho P A^2] / Tr[rho P]. Outcomes whose
    probability falls below the floor are listed in skipped and carry NaN
    entries.
    """

    outcomes: tuple[float, ...]
    probabilities: tuple[float, ...]
    condition_residuals: tuple[float, ...]
    second_moment_ratios: tuple[float, ...]
    skipped: tuple[float, ...]


def sufficient_conditions_check(a, b, rho_pre: QuantumState, outcomes) -> SufficiencyReport:
    """Validate the sector-escape condition behind the closed catness forms.

    a is the witnessed additive observable, b the measured one, which must
    be z-diagonal (such as M_z) so that its eigensectors are sets of basis
    states. For each requested eigenvalue of b the check reports how
    strongly a maps that eigensector back into itself (zero means the
    closed form is exact) and the second moment of a in the projected state.
    """
    b_terms = b.terms()
    if set(b_terms.flips) - {0}:
        raise ContractViolationError("the measured observable must be z-diagonal")
    w = np.zeros(1 << b.n) + b_terms.flips.get(0, 0.0)
    a_terms = a.terms()
    amat = a_terms.dense()
    a2 = (a_terms @ a_terms).dense()
    outs, probs, resids, ratios, skipped = [], [], [], [], []
    for target in outcomes:
        target = float(target)
        sel = np.abs(w - target) < SECTOR_TOL
        if not sel.any():
            raise DomainError(f"{target} is not an eigenvalue of the measured observable")
        block = np.ix_(sel, sel)
        prob = float(np.diagonal(rho_pre.mat)[sel].real.sum())
        outs.append(target)
        probs.append(prob)
        if prob < PROB_SKIP:
            skipped.append(target)
            resids.append(math.nan)
            ratios.append(math.nan)
            continue
        resids.append(float(np.linalg.norm(amat[block], axis=0).max()))
        ratios.append(float(np.einsum("ij,ji->", rho_pre.mat[block], a2[block]).real) / prob)
    return SufficiencyReport(outcomes=tuple(outs), probabilities=tuple(probs),
                             condition_residuals=tuple(resids),
                             second_moment_ratios=tuple(ratios),
                             skipped=tuple(skipped))


def sufficiency_ratio_exponent(n_list, betah: float, m: int = 0) -> tuple[float, float]:
    """Growth exponent of the post-measurement second transverse moment."""
    points = []
    for n in n_list:
        n = int(n)
        ham = SpinHamiltonian(n=n, h=1.0)
        rho = gibbs_state(ham, betah)
        rho_m = post_state(rho, OutcomeSpec.exact(m))
        points.append((n, transverse_moments(rho_m)[2]))
    return fit_exponent(points, floor=False)


@dataclass(frozen=True)
class AveragedIdentityReport:
    """Outcome-averaged catness against its pinched-state shortcut."""

    averaged_c: float
    pinched_value: float
    residual: float
    skipped: tuple[int, ...]


def averaged_identity_check(rho_pre: QuantumState) -> AveragedIdentityReport:
    """Check sum_m p_m <C>_m = 2 Tr[Phi(rho) Mx^2] with Phi the sector pinch.

    The identity holds because the transverse magnetization has no matrix
    elements inside any longitudinal sector, so the cross term of the
    double commutator drops out of the average.
    """
    n = rho_pre.n
    a_obs = total_magnetization("x", n)
    dist = outcome_distribution(rho_pre)
    lhs = 0.0
    skipped = []
    for m, p in zip(dist.support, dist.probs):
        if p < PROB_SKIP:
            skipped.append(int(m))
            continue
        spec = OutcomeSpec.exact(int(m))
        rho_m = post_state(rho_pre, spec)
        lhs += p * expect_c(rho_m, a_obs, spec.projector(n))
    sectors = mz_values(n)
    pinched = np.where(sectors[:, None] == sectors[None, :], rho_pre.mat, 0.0)
    mx = a_obs.terms()
    rhs = 2.0 * (mx @ mx).expect(pinched).real
    return AveragedIdentityReport(averaged_c=lhs, pinched_value=rhs,
                                  residual=abs(lhs - rhs), skipped=tuple(skipped))


@dataclass(frozen=True)
class EvolutionReport:
    """Best attainable catness of an evolved measured state over time.

    outcome_window is the magnetization window inferred from the input
    state's support, recording which measurement record it came from.
    """

    applicable: bool
    notice: str
    outcome_window: tuple[int, int]
    times: tuple[float, ...]
    values: tuple[float, ...]
    residuals: tuple[float, ...]


def time_evolution_invariance(rho_post: QuantumState, ham: SpinHamiltonian,
                              t_grid) -> EvolutionReport:
    """Evolve a measured state and track the best attainable catness.

    When the Hamiltonian commutes with the transverse magnetization, the
    double commutator [Mx, [Mx, rho_t]] evolves by pure conjugation, so
    its positive part, the projector-optimal catness, is a constant of
    motion. Any fixed projector's value is not conserved (the optimal
    witness co-rotates with the state), which is why the report tracks
    the optimum. A non-commuting Hamiltonian is flagged inapplicable and
    the drift is tabulated anyway.
    """
    n = rho_post.n
    hmat = ham.realize().mat
    a_obs = total_magnetization("x", n)
    # the largest entry of the realized Mx is 1, so the scale is that of H
    comm = a_obs.terms().commutator(hmat)
    scale = 1.0 + float(np.abs(hmat).max())
    commutes = float(np.abs(comm).max()) <= 1e-10 * scale
    notice = "" if commutes else "hamiltonian does not commute with Mx; no invariance expected"

    sectors = mz_values(n)
    mass = np.clip(np.diag(rho_post.mat).real, 0.0, None)
    occupied = sorted(int(m) for m, p in zip(sectors, mass) if p > 1e-12)
    if not occupied:
        raise ContractViolationError("state has no support on any sector")
    window = (occupied[0], occupied[-1])

    base = optimal_witness(rho_post, a_obs)[1]
    times, values, resids = [], [], []
    for t in t_grid:
        t = float(t)
        u = unitary_evolution(ham.realize(), t).mat
        rho_t = QuantumState(u @ rho_post.mat @ u.conj().T)
        val = optimal_witness(rho_t, a_obs)[1]
        times.append(t)
        values.append(val)
        resids.append(abs(val - base))
    return EvolutionReport(applicable=commutes, notice=notice,
                           outcome_window=window, times=tuple(times),
                           values=tuple(values), residuals=tuple(resids))


@dataclass(frozen=True)
class PauliDecomposition:
    """Pauli-string expansion of the catness witness with grouped settings.

    terms pairs a length-n axis string over {i, x, y, z} with its real
    coefficient. Strings sharing a setting agree on every site where both
    are non-identity; settings holds the merged axis string of each group
    and assignments maps term index to group index.
    """

    n: int
    terms: tuple[tuple[str, float], ...]
    settings: tuple[str, ...]
    assignments: tuple[int, ...]

    @property
    def settings_count(self) -> int:
        return len(self.settings)

    def settings_bound(self) -> int:
        return (self.n * self.n - self.n) // 2 + 1


def _extract_strings(mat: np.ndarray, scale: float) -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []

    def walk(block: np.ndarray, prefix: str) -> None:
        if float(np.abs(block).max()) <= 1e-12 * scale:
            return
        if block.shape[0] == 1:
            out.append((prefix, float(block[0, 0].real)))
            return
        half = block.shape[0] // 2
        b00 = block[:half, :half]
        b01 = block[:half, half:]
        b10 = block[half:, :half]
        b11 = block[half:, half:]
        walk(0.5 * (b00 + b11), prefix + "i")
        walk(0.5 * (b01 + b10), prefix + "x")
        walk(0.5j * (b01 - b10), prefix + "y")
        walk(0.5 * (b00 - b11), prefix + "z")

    walk(mat, "")
    return out


def _merge_setting(setting: str, string: str) -> str | None:
    merged = []
    for s, c in zip(setting, string):
        if c == "i" or s == c:
            merged.append(s)
        elif s == "i":
            merged.append(c)
        else:
            return None
    return "".join(merged)


def pauli_decomposition_c(n: int, m: int) -> PauliDecomposition:
    """Decompose [Mx, [Mx, P_m]] into Pauli strings and group them.

    Grouping is greedy first-fit over strings sorted by decreasing weight,
    which lands on (n^2 - n)/2 + 1 settings or fewer: one joint setting per
    site pair plus the all-longitudinal one.
    """
    c_op = double_commutator(total_magnetization("x", n), mz_projector(n, m)).mat
    scale = max(float(np.abs(c_op).max()), 1e-300)
    raw = _extract_strings(c_op, scale)
    order = sorted(range(len(raw)),
                   key=lambda k: (-sum(ch != "i" for ch in raw[k][0]), raw[k][0]))
    terms = tuple(raw[k] for k in order)
    settings: list[str] = []
    assignments = [0] * len(terms)
    for idx, (string, _) in enumerate(terms):
        for g, setting in enumerate(settings):
            merged = _merge_setting(setting, string)
            if merged is not None:
                settings[g] = merged
                assignments[idx] = g
                break
        else:
            assignments[idx] = len(settings)
            settings.append(string)
    return PauliDecomposition(n=n, terms=terms, settings=tuple(settings),
                              assignments=tuple(assignments))


@dataclass(frozen=True)
class FeasibilityInput:
    """Inputs of the magnetometer readout estimate.

    tau_single is the bare single-spin coherence time in seconds, n_spins
    the ensemble size, distance_r the sensor standoff in meters,
    sensitivity the field noise floor in T per sqrt(Hz), and duty_fraction
    the usable share of the collective coherence window.
    """

    tau_single: float = 470e-6
    n_spins: int = 100
    distance_r: float = 3e-6
    sensitivity: float = 160e-18
    duty_fraction: float = 0.75


@dataclass(frozen=True)
class FeasibilityReport:
    coherence_time: float
    readout_window: float
    resolvable_field: float
    single_spin_field: float
    feasible: bool
    constants_used: str


def feasibility_calc(inp: FeasibilityInput,
                     rounded_constants: bool = False) -> FeasibilityReport:
    """Can one magnetometer shot resolve a single flipped spin?

    The collective superposition decoheres n times faster than one spin,
    the usable readout window is a duty fraction of that, the resolvable
    field follows from the noise floor over the window bandwidth, and the
    signal is the dipole field of one Bohr magneton at the standoff.
    """
    if min(inp.tau_single, inp.distance_r, inp.sensitivity, inp.duty_fraction) <= 0:
        raise DomainError("feasibility inputs must be positive")
    if inp.n_spins < 1:
        raise DomainError("need at least one spin")
    mu_b = MU_BOHR_ROUNDED if rounded_constants else MU_BOHR_PRECISE
    mu_0 = MU_ZERO_ROUNDED if rounded_constants else MU_ZERO_PRECISE
    coherence = inp.tau_single / inp.n_spins
    window = inp.duty_fraction * coherence
    resolvable = inp.sensitivity * math.sqrt(1.0 / (2.0 * window))
    single = mu_b * mu_0 / (2.0 * math.pi * inp.distance_r ** 3)
    return FeasibilityReport(coherence_time=coherence, readout_window=window,
                             resolvable_field=resolvable, single_spin_field=single,
                             feasible=single > resolvable,
                             constants_used="rounded" if rounded_constants else "precise")
