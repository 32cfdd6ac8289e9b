"""Self-check families: fast, deterministic invariants of the whole stack.

Each family bundles related identities (algebra, closed forms, pipelines)
and reports pass/fail with a detail line per violated check. The runner is
what `catlab oracle` executes; a fault can be injected deliberately to
prove the harness actually fails when something breaks.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (FeasibilityInput, averaged_identity_check,
                       energy_moments_dense, energy_moments_free_closed,
                       feasibility_calc, matching_equilibrium_beta,
                       pauli_decomposition_c, purity_bound_free,
                       sufficiency_ratio_exponent, sufficient_conditions_check,
                       time_evolution_invariance, transverse_moments)
from .errors import (CatlabError, ContractViolationError, DomainError,
                     ImpossibleOutcomeError, InvalidOutcomeError, UsageError)
from .indices import (expect_c, fit_exponent, fixture_states, i_function,
                      interval_c_closed, optimal_witness, q_functional, vcm,
                      witness_w)
from .measure import (OutcomeSpec, double_projection_c, double_projection_dense,
                      outcome_distribution, outcome_probability, post_state,
                      sample_outcomes)
from .records import mix_seed
from .spincore import (QuantumState, additive_observable, herm_expm,
                       mz_interval_projector, mz_projector, mz_values,
                       pauli_site, pure_state, snap_interval,
                       total_magnetization, uniform_observable)
from .thermal import (SpinHamiltonian, _logsumexp, gibbs_state,
                      log_free_partition_eq, log_interval_partition_post,
                      xyz_c_expansion, xyz_c_expansion_jperp,
                      zpost_xyz_expansion)


@dataclass(frozen=True)
class FamilyResult:
    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...]
    elapsed_ms: float


class _Collector:
    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def ok(self, label: str, cond: bool) -> None:
        self.count += 1
        if not cond:
            self.failures.append(label)

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want) / max(abs(want), 1.0)
        self.ok(f"{label}: got {got!r}, want {want!r} (rel {err:.2e})", err <= tol)

    def raises(self, label: str, exc, fn, *args, **kwargs) -> None:
        self.count += 1
        try:
            fn(*args, **kwargs)
        except exc:
            return
        except CatlabError as other:
            self.failures.append(f"{label}: raised {type(other).__name__} instead")
            return
        self.failures.append(f"{label}: did not raise")


def _random_state(rng, n: int):
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return QuantumState(mat / np.trace(mat).real)


def _random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _dense_point_c(n: int, m: int, betah: float) -> float:
    ham = SpinHamiltonian(n=n, h=1.0)
    rho = gibbs_state(ham, betah)
    spec = OutcomeSpec.exact(m)
    rho_m = post_state(rho, spec)
    return expect_c(rho_m, total_magnetization("x", n), spec.projector(n))


def _fam_pauli_algebra(max_n: int, rng, ck: _Collector) -> None:
    n = min(4, max_n)
    dim = 1 << n
    eye = np.eye(dim)
    for site in (1, n):
        x = pauli_site("x", site, n)
        y = pauli_site("y", site, n)
        z = pauli_site("z", site, n)
        ck.ok(f"x^2=I at site {site}", np.abs(x @ x - eye).max() < 1e-14)
        ck.ok(f"xy=iz at site {site}", np.abs(x @ y - 1j * z).max() < 1e-14)
        ck.ok(f"{{x,y}}=0 at site {site}", np.abs(x @ y + y @ x).max() < 1e-14)
    mz = total_magnetization("z", n).realize()
    ck.ok("Mz diagonal equals the sector table",
          np.abs(np.diag(mz).real - mz_values(n)).max() < 1e-14)
    coeffs = rng.normal(size=(n, 3))
    obs = additive_observable(coeffs)
    block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    ck.ok("matrix-free application matches the dense realization",
          np.abs(obs.terms().apply(block) - obs.realize() @ block).max() < 1e-12)


def _fam_projector_algebra(max_n: int, rng, ck: _Collector) -> None:
    n = min(6, max_n)
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for m in range(-n, n + 1, 2):
        p = mz_projector(n, m).dense()
        ck.ok(f"projector m={m} idempotent", np.abs(p @ p - p).max() <= 1e-12)
        total += p
    ck.ok("sector projectors resolve the identity",
          np.abs(total - np.eye(dim)).max() <= 1e-12)
    p0 = mz_projector(n, -n + 2).dense()
    p1 = mz_projector(n, n - 2).dense()
    ck.ok("distinct sectors are orthogonal", np.abs(p0 @ p1).max() <= 1e-14)
    window = mz_interval_projector(n, -2, 4).dense()
    manual = sum(mz_projector(n, m).dense() for m in range(-2, 5, 2))
    ck.ok("interval projector is exactly the sector sum",
          np.array_equal(window, manual))
    ck.ok("collapsed interval equals the point projector bitwise",
          np.array_equal(mz_interval_projector(n, 0, 0).dense(), mz_projector(n, 0).dense()))
    ck.ok("snap clamps to the physical range", snap_interval(n, -99, 99) == (-n, n))
    ck.ok("snap moves odd bounds inward", snap_interval(n, -3, 3) == (-2, 2))
    ck.raises("empty window rejected", InvalidOutcomeError, snap_interval, n, 1, 1)


def _fam_herm_expm_roundtrip(max_n: int, rng, ck: _Collector) -> None:
    n = min(3, max_n)
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    spectral = float(np.abs(np.linalg.eigvalsh(h)).max())
    fwd = herm_expm(h, 5.0 / spectral)
    bwd = herm_expm(h, -5.0 / spectral)
    ck.ok("exp(sH) exp(-sH) = I absolutely at moderate ||sH||",
          np.abs(fwd @ bwd - np.eye(dim)).max() <= 1e-10)
    fwd = herm_expm(h, 20.0 / spectral)
    bwd = herm_expm(h, -20.0 / spectral)
    cond = float(np.abs(fwd).max()) * float(np.abs(bwd).max())
    ck.ok("roundtrip defect stays at the conditioning floor at ||sH|| = 20",
          np.abs(fwd @ bwd - np.eye(dim)).max() <= 1e-10 * cond)
    eps = 1e-5 / max(np.abs(h).max(), 1.0)
    series = np.eye(dim) + eps * h + 0.5 * eps * eps * (h @ h)
    ck.ok("short-time expansion matches to second order",
          np.abs(herm_expm(h, eps) - series).max() <= 1e-12)


def _dense_double_commutator(amat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[A, [A, X]] from three plain products, independent of the kernel."""
    return amat @ amat @ x - 2.0 * amat @ x @ amat + x @ amat @ amat


def _fam_cyclic_trace(max_n: int, rng, ck: _Collector) -> None:
    n = min(5, max_n)
    dim = 1 << n
    for trial in range(3):
        rho = _random_state(rng, n)
        a = uniform_observable(_random_direction(rng), n)
        eta = np.diag((rng.random(dim) < 0.5).astype(complex))
        lhs = expect_c(rho, a, eta)
        rhs = float(np.einsum("ij,ji->", eta,
                              _dense_double_commutator(a.realize(), rho.mat)).real)
        ck.ok(f"trace can cycle through the double commutator (trial {trial})",
              abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs)))


def _fam_partition_free(max_n: int, rng, ck: _Collector) -> None:
    beta, h = 0.7, 1.3
    for n in dict.fromkeys((2, min(5, max_n), min(8, max_n))):
        ham = SpinHamiltonian(n=n, h=h)
        ebh = herm_expm(ham.realize(), -beta)
        ck.close(f"free partition n={n}", float(np.trace(ebh).real),
                 math.exp(log_free_partition_eq(n, beta * h)), 1e-10)
        for m in (n, n - 2):
            p = mz_projector(n, m).dense()
            ck.close(f"sector weight n={n} m={m}", float(np.trace(p @ ebh).real),
                     math.exp(log_interval_partition_post(n, m, m, beta * h)), 1e-10)
        win = mz_interval_projector(n, -n, 0).dense()
        ck.close(f"window weight n={n}", float(np.trace(win @ ebh).real),
                 math.exp(log_interval_partition_post(n, -n, 0, beta * h)), 1e-10)
    big = 1000
    logs = [log_interval_partition_post(big, m, m, beta * h)
            - log_free_partition_eq(big, beta * h) for m in range(-big, big + 1, 2)]
    ck.ok("outcome probabilities sum to one at n=1000",
          abs(_logsumexp(logs)) <= 1e-12)


def _fam_closed_form_c(max_n: int, rng, ck: _Collector) -> None:
    for n in (2, 4, min(6, max_n)):
        for betah in (0.0, 0.8):
            for m in range(-n, n + 1, 2):
                ck.close(f"point catness n={n} m={m} betah={betah}",
                         _dense_point_c(n, m, betah),
                         interval_c_closed(n, m, m, betah), 1e-10)


def _fam_post_state_props(max_n: int, rng, ck: _Collector) -> None:
    n = min(5, max_n)
    rho = _random_state(rng, n)
    dist = outcome_distribution(rho)
    ck.ok("outcome probabilities sum to one",
          abs(float(dist.probs.sum()) - 1.0) <= 1e-12)
    sectors = mz_values(n)
    for m, p in zip(dist.support, dist.probs):
        if p < 1e-12:
            continue
        spec = OutcomeSpec.exact(int(m))
        out = post_state(rho, spec)
        ck.ok(f"post trace one at m={m}",
              abs(complex(np.trace(out.mat)) - 1.0) <= 1e-12)
        off = out.mat[np.ix_(sectors != m, sectors == m)]
        ck.ok(f"post state confined to its sector at m={m}",
              off.size == 0 or np.abs(off).max() <= 1e-12)
        ck.ok(f"post state PSD at m={m}",
              float(np.linalg.eigvalsh(out.mat).min()) >= -1e-10)
    aligned = np.zeros(1 << n, dtype=complex)
    aligned[0] = 1.0
    ck.raises("zero-probability outcome rejected", ImpossibleOutcomeError,
              post_state, pure_state(aligned), OutcomeSpec.exact(n - 2))


def _fam_purity_energy(max_n: int, rng, ck: _Collector) -> None:
    n = 6 if max_n >= 6 else 4
    h = 1.0
    for betah in (0.0, 1.0):
        ham = SpinHamiltonian(n=n, h=h)
        rho = gibbs_state(ham, betah / h)
        out = post_state(rho, OutcomeSpec.exact(0))
        bound = purity_bound_free(n, 0, 0, betah)
        ck.ok(f"purity bounded at betah={betah}", out.purity <= bound + 1e-12)
        if betah == 0.0:
            ck.ok("bound saturated at infinite temperature",
                  abs(out.purity - bound) <= 1e-12)
        dense = energy_moments_dense(out, ham)
        closed = energy_moments_free_closed(n, 0, betah, h)
        ck.ok(f"projected energy mean vanishes at betah={betah}",
              abs(dense.mean) <= 1e-11)
        ck.close(f"energy variance at betah={betah}",
                 dense.variance, closed.variance, 1e-10)
        mx2 = transverse_moments(out)[2]
        ck.close(f"second transverse moment at betah={betah}",
                 dense.variance, h * h * mx2, 1e-10)
    beta = 0.6
    e_eq = -n * h * math.tanh(beta * h)
    ck.close("caloric inversion recovers beta",
             matching_equilibrium_beta(e_eq, n, h), beta, 1e-12)
    ck.raises("caloric inversion rejects unreachable energies", DomainError,
              matching_equilibrium_beta, -2.0 * n * h, n, h)


def _fam_interval_machinery(max_n: int, rng, ck: _Collector) -> None:
    n = 8 if max_n >= 8 else (6 if max_n >= 6 else 4)
    betah = 0.9
    ham = SpinHamiltonian(n=n, h=1.0)
    rho = gibbs_state(ham, betah)
    a_obs = total_magnetization("x", n)
    for lo, hi in ((0, 0), (-2, 2), (2, 6), (-n, n)):
        ival = i_function(n, lo, hi)
        ck.ok(f"resolution factor in [0,1] for [{lo},{hi}]", 0.0 <= ival <= 1.0)
        spec = OutcomeSpec.interval(lo, hi)
        out = post_state(rho, spec)
        dense = expect_c(out, a_obs, spec.projector(n))
        ck.close(f"windowed catness [{lo},{hi}]", dense,
                 interval_c_closed(n, lo, hi, betah), 1e-10)
        prob = outcome_probability(rho, spec)
        ck.close(f"window probability [{lo},{hi}]", prob,
                 math.exp(log_interval_partition_post(n, lo, hi, betah)
                          - log_free_partition_eq(n, betah)), 1e-10)
    ck.ok("full window has zero resolution factor", i_function(n, -n, n) == 0.0)
    ck.close("collapsed window equals the point closed form",
             interval_c_closed(n, 0, 0, betah), 2 * n + n * n * math.tanh(betah) ** 2, 1e-12)


def _fam_xyz_expansion(max_n: int, rng, ck: _Collector) -> None:
    n = min(6, max_n) & ~1
    m, h = 0, 1.0
    betas = (0.05, 0.025)

    def dense_c(j, beta):
        ham = SpinHamiltonian(n=n, h=h, j=j)
        spec = OutcomeSpec.exact(m)
        out = post_state(gibbs_state(ham, beta), spec)
        return expect_c(out, total_magnetization("x", n), spec.projector(n))

    def dense_zpost(j, beta):
        ham = SpinHamiltonian(n=n, h=h, j=j)
        p = mz_projector(n, m).dense()
        return float(np.trace(p @ herm_expm(ham.realize(), -beta)).real)

    j = (0.3, 0.2, 0.4)
    r = [abs(dense_c(j, b) - xyz_c_expansion(n, m, b, h, j)) for b in betas]
    ck.ok(f"xyz residual shrinks as beta^3 (ratio {r[0] / r[1]:.2f})",
          6.0 <= r[0] / r[1] <= 10.0)
    r = [abs(dense_c((0.3, 1.0, 1.0), b) - xyz_c_expansion_jperp(n, m, b, h, 0.3, 1.0))
         for b in betas]
    ck.ok(f"jperp residual shrinks as beta^3 at unit coupling (ratio {r[0] / r[1]:.2f})",
          6.0 <= r[0] / r[1] <= 10.0)
    small = abs(dense_c((0.3, 0.2, 0.2), 0.05)
                - xyz_c_expansion_jperp(n, m, 0.05, h, 0.3, 0.2))
    ck.ok(f"jperp expansion tracks the dense value off unit coupling ({small:.2e})",
          small <= 1e-2)
    r = [abs(dense_zpost(j, b) - zpost_xyz_expansion(n, m, b, h, j)) for b in betas]
    ck.ok(f"sector-weight residual shrinks as beta^3 (ratio {r[0] / r[1]:.2f})",
          6.0 <= r[0] / r[1] <= 14.0)


def _fam_witness_machinery(max_n: int, rng, ck: _Collector) -> None:
    n = 4
    for trial in range(5):
        rho = _random_state(rng, n)
        a = uniform_observable(_random_direction(rng), n)
        eta, val = optimal_witness(rho, a)
        ck.ok(f"optimal value is half the trace norm (trial {trial})",
              abs(val - 0.5 * q_functional(rho, a)) <= 1e-10 * (1.0 + abs(val)))
        ck.ok(f"optimal projector attains its value (trial {trial})",
              abs(expect_c(rho, a, eta) - val) <= 1e-10 * (1.0 + abs(val)))
        ck.ok(f"optimal eta idempotent (trial {trial})",
              np.abs(eta @ eta - eta).max() <= 1e-12)
    mz = total_magnetization("z", n)
    ck.ok("classical mixture has zero q functional",
          q_functional(fixture_states("rho_ex2", n), mz) <= 1e-12)
    _, cat_val = optimal_witness(fixture_states("cat_plus", n), mz)
    ck.close("cat state attains 2 n^2", cat_val, 2.0 * n * n, 1e-10)
    ck.close("one-flip mixture q functional", q_functional(fixture_states("rho_ex1", n), mz),
             4.0 * (n - 2) ** 2, 1e-10)
    w5 = np.linalg.eigvalsh(witness_w(5))
    ck.ok("hopping witness spectrum is {-1, 0, 1}",
          np.abs(w5 - np.round(w5)).max() <= 1e-12 and set(np.round(w5)) <= {-1.0, 0.0, 1.0})
    overlap = float(np.trace(fixture_states("rho_ex1", n).mat @ witness_w(n)).real)
    ck.close("one-flip mixture saturates the hopping witness", overlap, 1.0, 1e-12)


def _fam_vcm_pfit(max_n: int, rng, ck: _Collector) -> None:
    for n in (2, 4):
        v = vcm(fixture_states("cat_plus", n))
        ck.close(f"cat covariance tops out at n={n}", v.e_max, float(n), 1e-10)
        ck.ok(f"covariance matrix hermitian at n={n}",
              np.abs(v.entries - v.entries.conj().T).max() <= 1e-12)
        ck.ok(f"covariance matrix PSD at n={n}",
              float(np.linalg.eigvalsh(v.entries).min()) >= -1e-10)
    ck.raises("mixed states rejected by the covariance builder",
              ContractViolationError, vcm, fixture_states("rho_ex2", 4))
    q, err = fit_exponent([(n, float(n * n)) for n in (4, 6, 8, 10)])
    ck.ok(f"exact square law fits exactly (got {q}, {err})",
          abs(q - 2.0) <= 1e-12 and err <= 1e-12)
    q, err = fit_exponent([(n, 2.0 * n) for n in (4, 6, 8, 10)], floor=False)
    ck.ok(f"exact linear law fits exactly (got {q})", abs(q - 1.0) <= 1e-12)
    q, _ = fit_exponent([(n, 1.0) for n in (4, 6, 8)])
    ck.ok("floor lifts sub-linear values to the linear law", abs(q - 1.0) <= 1e-12)
    ck.raises("two points are not a sweep", DomainError,
              fit_exponent, [(4, 1.0), (6, 2.0)])


def _fam_fixtures(max_n: int, rng, ck: _Collector) -> None:
    cases = (("cat_plus", 4), ("cat_minus", 4), ("rho_ex1", 4), ("rho_ex2", 4),
             ("rho_ex3", 6), ("psi1", 4), ("psi2", 4))
    for kind, n in cases:
        rho = fixture_states(kind, n)
        ck.ok(f"{kind} has unit trace", abs(complex(np.trace(rho.mat)) - 1.0) <= 1e-12)
        ck.ok(f"{kind} PSD", float(np.linalg.eigvalsh(rho.mat).min()) >= -1e-12)
    ck.ok("cat state is pure", fixture_states("cat_plus", 4).purity > 1.0 - 1e-10)
    ck.close("aligned mixture purity", fixture_states("rho_ex2", 4).purity, 0.5, 1e-12)
    ck.raises("unknown fixture kind rejected", DomainError, fixture_states, "bogus", 4)
    ck.raises("rho_ex3 needs n divisible by 3", DomainError, fixture_states, "rho_ex3", 4)


def _fam_double_projection(max_n: int, rng, ck: _Collector) -> None:
    for n in (4, min(6, max_n)):
        for m_x in range(-n, n + 1, 2):
            for m_z in (0, n - 2):
                ck.close(f"double projection n={n} mx={m_x} mz={m_z}",
                         double_projection_dense(n, m_x, m_z),
                         double_projection_c(n, m_x, m_z), 1e-10)


def _fam_averaged_identity(max_n: int, rng, ck: _Collector) -> None:
    n = 4
    for trial in range(5):
        rep = averaged_identity_check(_random_state(rng, n))
        ck.ok(f"outcome-averaged identity (trial {trial})",
              rep.residual <= 1e-10 * (1.0 + abs(rep.averaged_c)))
    plus = pure_state(np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex))
    rep = averaged_identity_check(plus)
    ck.close("transverse product state averages to n^2 + n",
             rep.averaged_c, float(n * n + n), 1e-10)


def _fam_time_evolution(max_n: int, rng, ck: _Collector) -> None:
    n = min(6, max_n) & ~1
    ham = SpinHamiltonian(n=n, h=1.0, j=(0.4, 0.0, 0.0))
    rho = gibbs_state(ham, 0.8)
    out = post_state(rho, OutcomeSpec.exact(0))
    rep = time_evolution_invariance(out, ham, (0.3, 1.1))
    ck.ok("commuting evolution is recognized", rep.applicable)
    ck.ok(f"catness invariant under commuting evolution (max drift "
          f"{max(rep.residuals):.2e})", max(rep.residuals) <= 1e-9)
    noisy = SpinHamiltonian(n=n, h=1.0, j=(0.0, 0.0, 0.4))
    rep = time_evolution_invariance(out, noisy, (0.5,))
    ck.ok("non-commuting evolution flagged inapplicable", not rep.applicable)


_PAULI_MATS = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _string_matrix(string: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in string:
        out = np.kron(out, _PAULI_MATS[ch])
    return out


def _fam_pauli_decomposition(max_n: int, rng, ck: _Collector) -> None:
    n, m = 4, 0
    dec = pauli_decomposition_c(n, m)
    rebuilt = sum(c * _string_matrix(s) for s, c in dec.terms)
    target = _dense_double_commutator(total_magnetization("x", n).realize(),
                                      mz_projector(n, m).dense())
    ck.ok("pauli strings rebuild the witness operator",
          np.abs(rebuilt - target).max() <= 1e-10)
    ck.ok(f"grouping stays within the pairwise bound ({dec.settings_count})",
          dec.settings_count <= dec.settings_bound())
    compat = all(
        all(a == "i" or b == "i" or a == b for a, b in zip(s, dec.settings[g]))
        for (s, _), g in zip(dec.terms, dec.assignments))
    ck.ok("every string is measurable in its assigned setting", compat)
    small = pauli_decomposition_c(2, 0)
    ck.ok("two-site decomposition fits in its bound",
          small.settings_count <= small.settings_bound())


def _fam_sampling(max_n: int, rng, ck: _Collector) -> None:
    seeds = set(mix_seed(7, np.arange(1000, dtype=np.uint64)).tolist())
    ck.ok("record seeds do not collide over 1000 indices", len(seeds) == 1000)
    ck.ok("record seeds are 64-bit", all(0 <= s < (1 << 64) for s in seeds))
    ck.ok("seed mixing is reproducible", mix_seed(7, 3) == mix_seed(7, 3))
    n = 4
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), 0.5)
    dist = outcome_distribution(rho)
    ck.ok("one seed gives one outcome",
          sample_outcomes(dist, 12345) == sample_outcomes(dist, 12345))
    draws = 20000
    outcomes = sample_outcomes(dist, mix_seed(99, np.arange(draws, dtype=np.uint64)))
    worst = max(abs(np.count_nonzero(outcomes == m) / draws - p)
                for m, p in zip(dist.support, dist.probs))
    ck.ok(f"empirical frequencies track the distribution (max dev {worst:.4f})",
          worst <= 0.02)


def _fam_feasibility(max_n: int, rng, ck: _Collector) -> None:
    rounded = feasibility_calc(FeasibilityInput(), rounded_constants=True)
    precise = feasibility_calc(FeasibilityInput(), rounded_constants=False)
    ck.close("collective coherence window", rounded.coherence_time, 4.7e-6, 1e-12)
    ck.close("readout window", rounded.readout_window, 3.525e-6, 1e-12)
    want = 160e-18 * math.sqrt(1.0 / (2.0 * 3.525e-6))
    ck.close("resolvable field from the noise floor", rounded.resolvable_field,
             want, 1e-12)
    ck.ok(f"rounded dipole field near 65.8 fT ({rounded.single_spin_field:.3e})",
          64e-15 < rounded.single_spin_field < 67e-15)
    ck.ok(f"precise dipole field near 68.7 fT ({precise.single_spin_field:.3e})",
          67e-15 < precise.single_spin_field < 70e-15)
    ck.ok("single spin resolvable under both constant sets",
          rounded.feasible and precise.feasible)
    ck.raises("negative standoff rejected", DomainError, feasibility_calc,
              FeasibilityInput(distance_r=-1.0))


def _fam_sufficiency(max_n: int, rng, ck: _Collector) -> None:
    n = min(6, max_n) & ~1
    betah = 1.0
    rho = gibbs_state(SpinHamiltonian(n=n, h=1.0), betah)
    rep = sufficient_conditions_check(total_magnetization("x", n),
                                      total_magnetization("z", n), rho, (0, 2, n))
    ck.ok("transverse witness escapes every longitudinal sector",
          max(rep.condition_residuals) <= 1e-10)
    for m, ratio in zip(rep.outcomes, rep.second_moment_ratios):
        ck.close(f"projected second moment at m={m:g}", ratio,
                 interval_c_closed(n, m, m, betah) / 2, 1e-10)
    aligned = np.zeros(1 << n, dtype=complex)
    aligned[-1] = 1.0
    rep = sufficient_conditions_check(total_magnetization("x", n),
                                      total_magnetization("z", n),
                                      pure_state(aligned), (0,))
    ck.ok("zero-probability outcome is skipped, not crashed", rep.skipped == (0.0,))
    if max_n >= 8:
        q, _ = sufficiency_ratio_exponent((4, 6, 8), betah)
        ck.ok(f"second-moment growth extrapolates near the square law ({q:.4f})",
              1.75 <= q <= 2.0)


def _fam_injected_fault(max_n: int, rng, ck: _Collector) -> None:
    ck.ok("deliberate failure (inject_fault=true)", False)


FAMILIES: dict[str, object] = {
    "pauli_algebra": _fam_pauli_algebra,
    "projector_algebra": _fam_projector_algebra,
    "herm_expm_roundtrip": _fam_herm_expm_roundtrip,
    "cyclic_trace": _fam_cyclic_trace,
    "partition_free": _fam_partition_free,
    "closed_form_c": _fam_closed_form_c,
    "post_state_props": _fam_post_state_props,
    "purity_energy": _fam_purity_energy,
    "interval_machinery": _fam_interval_machinery,
    "xyz_expansion": _fam_xyz_expansion,
    "witness_machinery": _fam_witness_machinery,
    "vcm_pfit": _fam_vcm_pfit,
    "fixtures": _fam_fixtures,
    "double_projection": _fam_double_projection,
    "averaged_identity": _fam_averaged_identity,
    "time_evolution": _fam_time_evolution,
    "pauli_decomposition": _fam_pauli_decomposition,
    "sampling": _fam_sampling,
    "feasibility": _fam_feasibility,
    "sufficiency": _fam_sufficiency,
}


def run_families(names=None, max_n: int = 8, seed: int = 0,
                 inject_fault: bool = False) -> list[FamilyResult]:
    """Run the selected invariant families and collect their results."""
    if max_n < 4:
        raise UsageError("the oracle needs max_n >= 4")
    table = dict(FAMILIES)
    if inject_fault:
        table["injected_fault"] = _fam_injected_fault
    if names is None:
        selected = list(table)
    else:
        unknown = sorted(set(names) - set(table))
        if unknown:
            raise UsageError(f"unknown oracle families: {', '.join(unknown)}")
        selected = list(names)
        if inject_fault and "injected_fault" not in selected:
            selected.append("injected_fault")
    results = []
    for index, name in enumerate(selected):
        rng = np.random.default_rng([seed & ((1 << 63) - 1), index])
        ck = _Collector()
        start = time.perf_counter()
        try:
            table[name](max_n, rng, ck)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed family
            ck.count += 1
            ck.failures.append(f"crashed: {type(exc).__name__}: {exc}")
        elapsed = (time.perf_counter() - start) * 1e3
        results.append(FamilyResult(name=name, passed=not ck.failures,
                                    checks=ck.count, failures=tuple(ck.failures),
                                    elapsed_ms=elapsed))
    return results
