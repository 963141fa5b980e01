"""Spectral laboratory for finite-depth dispersive flows on the circle.

The package models the finite-depth internal-wave equation as a
perturbation of its deep-water limit: periodic grids and Sobolev norms
(`spectral`), the dispersive and smoothing multipliers (`symbols`),
exponential time integration with conserved-quantity monitors
(`evolution`), the periodized traveling waves and their degenerate limits
(`waves`), the truncated Hardy-space Lax matrix with its resolvent
functionals (`lax`), and deterministic batch experiments behind the
``ilw-lab`` command (`experiments`, `cli`).

The package holds what the commands run.  Closed forms that only the tests
compare against, such as the line soliton, the derivation identities of the
periodized wave and the bare Hilbert and coth symbols, live with the tests.
"""

from .errors import BlowUpError, ContractError, KappaTooSmallError, NumericalError
from .evolution import (
    MAX_STEPS,
    EvolutionProblem,
    Trajectory,
    default_dt,
    default_step,
    etdrk4_samples,
    evolve,
    galilean,
    hamiltonian_bo,
    hamiltonian_ilw,
    make_bo,
    make_bo_two_speed,
    make_ilw,
    make_two_depth,
    mass,
    relative_drift,
    rhs,
    step_count,
)
from .experiments import (
    ExperimentConfig,
    RunReport,
    load_config,
    random_field,
    read_snapshot,
    run,
    write_snapshot,
)
from .lax import (
    AprioriBound,
    FlowDerivative,
    GrowthReport,
    KappaCheck,
    KappaRule,
    LaxSpectrum,
    LaxTruncation,
    SpectralMeasures,
    WeightedFormProfile,
    WeightedFormRule,
    apriori_bound,
    build_lax,
    build_weighted_rule,
    check_kappa,
    form_flow_derivative,
    gronwall_ensemble,
    gronwall_experiment,
    lanczos_measures,
    modes_to_xi_max,
    resolvent_form,
    resolvent_form_gradient,
    resolvent_solve,
    resolvent_state,
    weighted_resolvent_form,
)
from .spectral import (
    RealField,
    SobolevIndex,
    SpectralGrid,
    forward_transform,
    hardy_embed,
    hardy_project,
    multiplier_apply,
    sobolev_norm,
    sobolev_norms,
    synthesize,
)
from .symbols import (
    SmoothingScan,
    apply_smoothing_dx,
    depth_dispersion_symbol,
    smoothing_operator_scan,
    smoothing_symbol,
)
from .waves import (
    IllposedObservables,
    PeriodicWaveConstants,
    distance_to_dirac,
    illposed_observables,
    lattice_profile,
    periodic_profile,
    periodic_speed,
    periodic_wave_constants,
    traveling_residual,
)

__version__ = "0.1.0"
