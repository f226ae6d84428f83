"""Simulation and optimization of layered bond-alternation circuits on
the free-fermion chain, with entanglement and scheduling diagnostics
and a brute-force occupation-basis oracle for cross-checks."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DimensionMismatch,
    DqapError,
    LinearSolveError,
    NoConvergence,
    OpenShellError,
    SingularOverlapError,
    SizeLimitExceeded,
)
from .lattice import (
    LatticeSpec,
    bond_pairs,
    build_hamiltonian,
    exact_ground_energy,
    exact_ground_state,
    initial_state,
)
from .slater import (
    SlaterState,
    apply_bond_layer,
    energy_expectation,
    overlap,
    transition_density,
)
from .ansatz import (
    DqapParams,
    block_energy,
    build_dqap_state,
    build_imag_state,
    orbital_extents,
    state_and_derivatives,
)
from .optimizer import (
    OptResult,
    OptimizerConfig,
    assemble_metric_and_force,
    ladder,
    linear_schedule_params,
    optimize,
    optimize_imaginary,
    warm_start,
)
from .entanglement import (
    SpectrumDiagnostic,
    Subsystem,
    boundary_rank_diagnostic,
    correlation_spectrum,
    entanglement_entropy,
    entropy_from_levels,
    entropy_mode_form,
    mutual_information,
    one_particle_dm,
    scaling_exponents,
)
from .adiabatic import (
    EvolutionPlan,
    evolve_linear_schedule,
    find_T_epsilon,
    magnus_step,
    maximize_overlap,
    qab_gap,
    qab_schedule,
    scheduling_overlap,
)
from .fock import (
    FockBasis,
    FockVector,
    fock_entropy,
    fock_evolve,
    fock_expectation,
    fock_reduced_dm,
    many_body_matrix,
    slater_to_fock,
)
from .experiments import (
    ExperimentConfig,
    fit_power_law,
    run_experiment,
)
