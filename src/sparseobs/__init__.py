"""sparseobs: certificates and solvers for recovering sparse initial states
of ODE systems from a few noisy measurements taken at a single time."""

from .errors import (
    BudgetError,
    ConfigError,
    DomainError,
    InfeasibleCertificate,
    InfeasibleError,
    NumericalError,
    ShapeError,
)
from .model import (
    DynamicalSystem,
    MeasurementModel,
    RecoveryOutcome,
    SparseProblem,
    best_s_term,
    problem_from_dict,
    system_from_dict,
    weight_condition_number,
    weighted_l1_norm,
)
from .ode import (
    IntegrationConfig,
    Trajectory,
    flow_jacobian,
    flow_with_jacobian,
    gronwall_envelope,
    integrate,
)
from .rip import (
    RipReport,
    disjoint_inner_product_margin,
    operator_norm,
    rip_constant_bounds,
    rip_constant_exact,
)
from .certify import (
    Certificate,
    distinguishability_gap,
    observability_horizon,
    recovery_constants,
    recovery_error_bound,
    recovery_horizon,
)
from .recover import (
    SolverConfig,
    l0_oracle,
    recover_initial_state,
    solve_weighted_bpdn,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    emit_report,
    gen_gaussian_matrix,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Certificate",
    "ConfigError",
    "DomainError",
    "DynamicalSystem",
    "ExperimentConfig",
    "InfeasibleCertificate",
    "InfeasibleError",
    "IntegrationConfig",
    "MeasurementModel",
    "NumericalError",
    "RecoveryOutcome",
    "RipReport",
    "ShapeError",
    "SolverConfig",
    "SparseProblem",
    "Trajectory",
    "TrialRecord",
    "best_s_term",
    "disjoint_inner_product_margin",
    "distinguishability_gap",
    "emit_report",
    "flow_jacobian",
    "flow_with_jacobian",
    "gen_gaussian_matrix",
    "gronwall_envelope",
    "integrate",
    "l0_oracle",
    "observability_horizon",
    "operator_norm",
    "problem_from_dict",
    "recover_initial_state",
    "recovery_constants",
    "recovery_error_bound",
    "recovery_horizon",
    "rip_constant_bounds",
    "rip_constant_exact",
    "run_experiment",
    "solve_weighted_bpdn",
    "system_from_dict",
    "weight_condition_number",
    "weighted_l1_norm",
]
