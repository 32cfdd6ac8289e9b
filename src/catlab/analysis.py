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
from .indices import (_catness_form, expect_c, fit_exponent,
                      interval_c_closed)
from .measure import (OutcomeSpec, outcome_distribution, outcome_probability,
                      post_state)
from .spincore import (QuantumState, _bit_table, _herm_eigh,
                       mz_projector, mz_values, total_magnetization)
from .thermal import SpinHamiltonian, _log_cosh, gibbs_state, interval_r_count

SECTOR_TOL = 1e-9
PROB_SKIP = 1e-14

MU_BOHR_PRECISE = 9.274e-24
MU_ZERO_PRECISE = 1.2566e-6
MU_BOHR_ROUNDED = 9.3e-24
MU_ZERO_ROUNDED = 1.2e-6


def purity_bound_free(n: int, m_lo: int, m_hi: int, betah: float) -> float:
    """Upper bound on the post-measurement purity for free spins.

    The bound is the ratio Z_W(2 beta h) / Z_W(beta h)^2 of the window's
    doubled-field to squared partition functions (m_lo = m_hi for a point
    outcome); it is saturated exactly at infinite temperature. With
    ln Z_W(x) = r + n ln cosh x for r the log count of the window's states,
    it is exp(-r + n (ln cosh 2 beta h - 2 ln cosh beta h)).
    """
    return math.exp(-interval_r_count(n, m_lo, m_hi)
                    + n * (_log_cosh(2.0 * betah) - 2.0 * _log_cosh(betah)))


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
    mx2 = interval_c_closed(n, m, m, betah) / 2
    return EnergyMoments(mean=0.0, variance=h * h * mx2)


def energy_moments_dense(rho: QuantumState, ham: SpinHamiltonian) -> EnergyMoments:
    """<H> and <H^2> - <H>^2 of a state, read by its expect."""
    hterms = ham.terms()
    mean = rho.expect(hterms).real
    second = rho.expect(hterms, hterms).real
    return EnergyMoments(mean=mean, variance=second - mean * mean)


def transverse_moments(rho_post: QuantumState) -> tuple[float, float, float]:
    """(<Mx>, <My>, <Mx^2>) of a state, read by its expect."""
    n = rho_post.n
    mx = total_magnetization("x", n).terms()
    my = total_magnetization("y", n).terms()
    return (rho_post.expect(mx).real, rho_post.expect(my).real,
            rho_post.expect(mx, mx).real)


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
    that cancels, so the conjugation multiplies the kernel term of H on flip
    mask f by (-1)^|f|. Nothing is asserted: a symmetry-breaking control
    term is expected to show up here.
    """
    grid = tuple(float(g) for g in betah_grid)
    z_res, c_res = [], []
    rz_defect = 0.0
    for g in grid:
        ham_p, ham_m = build_ham(g), build_ham(-g)
        n = ham_p.n
        plus, minus = ham_p.terms().flips, ham_m.terms().flips
        scale = 1.0 + max((float(np.abs(amp).max()) for amp in plus.values()), default=0.0)
        for f in plus.keys() | minus.keys():
            diff = minus.get(f, 0.0) - (-1) ** f.bit_count() * plus.get(f, 0.0)
            rz_defect = max(rz_defect, float(np.abs(diff).max()) / scale)

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
    idx, _ = _bit_table(b.n)
    a_terms = a.terms()
    outs, probs, resids, ratios, skipped = [], [], [], [], []
    for target in outcomes:
        target = float(target)
        sel = np.abs(w - target) < SECTOR_TOL
        if not sel.any():
            raise DomainError(f"{target} is not an eigenvalue of the measured observable")
        prob = float(rho_pre.diagonal()[sel].real.sum())
        outs.append(target)
        probs.append(prob)
        if prob < PROB_SKIP:
            skipped.append(target)
            resids.append(math.nan)
            ratios.append(math.nan)
            continue
        # column j of P A P holds amp_f[j] at row j ^ f for each flip f
        col_norms = sum((np.abs(amp) ** 2 * sel[idx ^ f] for f, amp in a_terms.flips.items()),
                        np.zeros(idx.size))
        resids.append(math.sqrt(float(col_norms[sel].max())))
        ratios.append(rho_pre.project(sel).expect(a_terms, a_terms).real / prob)
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
    # the pinched state is the sum over every sector of P_m rho P_m
    sectors = mz_values(n)
    mx = a_obs.terms()
    rhs = 2.0 * sum(rho_pre.project(sectors == m).expect(mx, mx).real
                    for m in dist.support)
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
    the drift is tabulated anyway. rho_post = V diag(w) V^dagger is factored
    once and H solved once; each value is read from the witness form of the
    evolved columns U_t V, with no d x d state.
    """
    n = rho_post.n
    hmat = ham.realize()
    a_obs = total_magnetization("x", n)
    # H and Mx are real symmetric, so H Mx = (Mx H)^T; Mx's largest entry is 1
    mx_h = a_obs.terms().apply(hmat)
    scale = 1.0 + float(np.abs(hmat).max())
    commutes = float(np.abs(mx_h - mx_h.T).max()) <= 1e-10 * scale
    notice = "" if commutes else "hamiltonian does not commute with Mx; no invariance expected"

    occupied = mz_values(n)[rho_post.diagonal().real > 1e-12]
    if not occupied.size:
        raise ContractViolationError("state has no support on any sector")
    window = (int(occupied.min()), int(occupied.max()))

    weights, vecs = rho_post.factors()

    def witness(cols: np.ndarray) -> float:
        return _catness_form(weights, cols, [a_obs]).value((1.0,))[0]

    # U_t V = v (exp(-i w t) * v^dagger V), from one solve of H
    w, v = _herm_eigh(hmat, "propagator input")
    overlap = v.conj().T @ vecs
    base, times = witness(vecs), tuple(float(t) for t in t_grid)
    values = tuple(witness(v @ (np.exp(-1j * w * t)[:, None] * overlap)) for t in times)
    return EvolutionReport(applicable=commutes, notice=notice, outcome_window=window,
                           times=times, values=values,
                           residuals=tuple(abs(val - base) for val in values))


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


def pauli_decomposition_c(n: int, m: int) -> PauliDecomposition:
    """Decompose [Mx, [Mx, P_m]] into Pauli strings and group them.

    The kernel witness is sum_f X^f diag(amp_f). The string with X bits f
    and Z bits z (y where both are set, site 1 the most significant bit) has
    the coefficient (-i)^|f & z| 2^-n sum_k amp_f[k] (-1)^|k & z|, a fast
    Walsh-Hadamard transform, kept above 1e-12 times the witness's largest
    entry. Greedy first-fit grouping, by decreasing weight, lands on at most
    (n^2 - n)/2 + 1 settings: one per site pair plus the all-longitudinal one.
    """
    flips = total_magnetization("x", n).terms().double_commutator(mz_projector(n, m)).flips
    amps = np.array([np.broadcast_to(amp, 1 << n) for amp in flips.values()])
    scale = max(float(np.abs(amps).max(initial=0.0)), 1e-300)
    walsh = amps.reshape(-1, *(2,) * n)
    for axis in range(1, n + 1):  # one butterfly per site: O(n d) for every z at once
        lo, hi = np.split(walsh, 2, axis=axis)
        walsh = np.concatenate((lo + hi, lo - hi), axis=axis)
    walsh = walsh.reshape(len(flips), -1) / (1 << n)
    row, z = np.nonzero(np.abs(walsh) > 1e-12 * scale)
    f = np.array(list(flips), dtype=np.int64)[row]
    coef = (walsh[row, z] * np.array([1, -1j, -1, 1j])[np.bitwise_count(f & z) % 4]).real
    bits = np.arange(n - 1, -1, -1)

    def render(xs, zs):  # site 1 is the most significant bit
        codes = ((xs[:, None] >> bits) & 1) + 2 * ((zs[:, None] >> bits) & 1)
        return ["".join(chars) for chars in np.array(list("ixzy"))[codes]]

    raw = list(zip(render(f, z), coef.tolist()))
    order = sorted(range(len(raw)),
                   key=lambda k: (-sum(ch != "i" for ch in raw[k][0]), raw[k][0]))
    terms = tuple(raw[k] for k in order)
    # greedy first fit on the masks: t fits setting s when they agree on
    # every site where both act, and merging ORs the masks
    masks: list[tuple[int, int]] = []
    assignments = []
    for tx, tz in zip(f[order].tolist(), z[order].tolist()):
        for g, (sx, sz) in enumerate(masks):
            if not ((sx ^ tx) | (sz ^ tz)) & (sx | sz) & (tx | tz):
                masks[g] = (sx | tx, sz | tz)
                break
        else:
            g = len(masks)
            masks.append((tx, tz))
        assignments.append(g)
    settings = render(*np.array(masks, dtype=np.int64).reshape(-1, 2).T)
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
