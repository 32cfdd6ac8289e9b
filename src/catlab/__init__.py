"""catlab: thermal spin ensembles into measured generalized cat states.

Dense exact-diagonalization pipeline for small transverse-field ensembles:
prepare a thermal or ground state, measure the total longitudinal
magnetization (exactly, over a window, or by sampling), and quantify how
cat-like the conditional state is through double-commutator witnesses,
closed-form predictions, and finite-size exponent fits.
"""
from types import ModuleType as _ModuleType

from .analysis import (AveragedIdentityReport, EnergyMoments, EvolutionReport,
                       FeasibilityInput, FeasibilityReport, PauliDecomposition,
                       SufficiencyReport, SymmetryReport,
                       averaged_identity_check, energy_moments_dense,
                       energy_moments_free_closed, feasibility_calc,
                       matching_equilibrium_beta, pauli_decomposition_c,
                       purity_bound_free, sufficiency_ratio_exponent,
                       sufficient_conditions_check, symmetry_even_in_h,
                       time_evolution_invariance, transverse_moments)
from .config import MODES, ExperimentConfig, load_config
from .errors import (CapacityError, CatlabError, ContractViolationError,
                     DomainError, ImpossibleOutcomeError, InvalidOutcomeError,
                     UsageError)
from .indices import (CatnessReport, VcmMatrix, expect_c, fit_exponent,
                      fixture_states, i_function, interval_c_closed,
                      interval_r_count, observable_search, optimal_witness,
                      q_functional, vcm, witness_w)
from .measure import (OutcomeDistribution, OutcomeSpec, double_projection_c,
                      double_projection_dense, outcome_distribution,
                      outcome_probability, post_state, sample_outcomes)
from .oracle import FAMILIES, FamilyResult, run_families
from .records import (CSV_COLUMNS, append_jsonl, mix_seed, read_csv,
                      splitmix64, write_csv)
from .spincore import (DENSE_CAP, AdditiveObservable, FactoredState,
                       PauliTerms, QuantumState, SpectralState,
                       additive_observable, as_state, herm_expm,
                       mz_interval_projector, mz_projector, mz_values,
                       pauli_site, pauli_terms, pure_state, snap_interval,
                       symmetry_eigh, total_magnetization, uniform_observable)
from .thermal import (BOUNDARIES, SpinHamiltonian, gibbs_state, ground_state,
                      log_free_partition_eq, log_interval_partition_post,
                      sector_zz_mean, sector_zz_sq_mean, xyz_c_expansion,
                      xyz_c_expansion_jperp, zpost_xyz_expansion)

__version__ = "0.1.0"

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
