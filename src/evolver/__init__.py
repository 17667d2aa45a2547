"""Nonautonomous evolution systems, product formulas, averaging, and
periodic orbits of damped wave sections.

Layers, bottom up:

    linop      matrix/vector validation, exponentials, resolvents, the
               damped-Newton kernel
    semigroup  contraction semigroups and product-formula limits
    evolsys    frozen-coefficient evolution systems R(t, s)
    mild       variation-of-constants solver, the period map Phi_T^lam with
               its Jacobian from one solve, and its fixed points
    degree     Brouwer degree, winding oracle
    averaging  averaged pairs, branching sweeps, degree equality
    wave       damped wave Galerkin sections, eta metrics, energy law
    exprlang   arithmetic expressions for config-supplied coefficients,
               and their derivatives
    catalog    shipped example models
    cli        experiment runner (the `evolver` entry point)
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFixedPointError,
    DegenerateZeroError,
    EvolverError,
    InadmissibleRegionError,
    InvalidInputError,
    InvalidMetricError,
    OracleFailureError,
    PreconditionError,
    ResourceLimitError,
    SingularResolventError,
)
from .linop import as_matrix, as_vector, mat_exp, mat_power, operator_norm, resolvent
from .semigroup import (
    ChernoffScheme,
    ChernoffSequence,
    ConvergenceTable,
    chernoff_defect,
    chernoff_power_limit,
    chernoff_sum_limit,
    dissipativity_rate,
    metric_cholesky,
    metric_norm,
    metric_operator_norm,
    resolvent_scheme,
)
from .evolsys import (
    EvolutionSystem,
    GeneratorFamily,
    affine_family,
    build_evolution,
    cocycle_defect,
    contraction_check,
    family_continuity_gap,
)
from .mild import (
    FixedPointResult,
    NonlinearField,
    Trajectory,
    fixed_point,
    mild_solve,
    period_map,
)
from .degree import (
    DegreeReport,
    Region,
    brouwer_degree,
    winding_number_2d,
)
from .averaging import (
    AveragedField,
    AveragingDegreeReport,
    AveragingRow,
    BranchingReport,
    BranchingRow,
    average_generator,
    averaged_pair,
    averaging_degree_check,
    branching_experiment,
    monodromy,
    unit_eigenvalue_gap,
)
from .wave import (
    EnergyReport,
    EtaSelection,
    NondegeneracyReport,
    NondegeneracyRow,
    WaveModel,
    WavePeriodicResult,
    build_wave_model,
    energy_residual,
    eta_metric_matrix,
    find_periodic_wave,
    linear_nondegeneracy,
    nonlinear_field,
    project_nonlinearity,
    select_eta,
    spectral_invariance_gap,
)
from .exprlang import (
    ExprError,
    compile_expr,
    diff_expr,
    eval_expr,
    parse_expr,
)
from .catalog import CatalogModel, get_model, model_from_config

__version__ = "0.1.0"

__all__ = [
    "AveragedField",
    "AveragingDegreeReport",
    "AveragingRow",
    "BranchingReport",
    "BranchingRow",
    "CatalogModel",
    "ChernoffScheme",
    "ChernoffSequence",
    "ConfigError",
    "ConvergenceError",
    "ConvergenceTable",
    "DegenerateFixedPointError",
    "DegenerateZeroError",
    "DegreeReport",
    "EnergyReport",
    "EtaSelection",
    "EvolutionSystem",
    "EvolverError",
    "ExprError",
    "FixedPointResult",
    "GeneratorFamily",
    "InadmissibleRegionError",
    "InvalidInputError",
    "InvalidMetricError",
    "NondegeneracyReport",
    "NondegeneracyRow",
    "NonlinearField",
    "OracleFailureError",
    "PreconditionError",
    "Region",
    "ResourceLimitError",
    "SingularResolventError",
    "Trajectory",
    "WaveModel",
    "WavePeriodicResult",
    "affine_family",
    "as_matrix",
    "as_vector",
    "average_generator",
    "averaged_pair",
    "averaging_degree_check",
    "branching_experiment",
    "brouwer_degree",
    "build_evolution",
    "build_wave_model",
    "chernoff_defect",
    "chernoff_power_limit",
    "chernoff_sum_limit",
    "cocycle_defect",
    "compile_expr",
    "contraction_check",
    "diff_expr",
    "dissipativity_rate",
    "energy_residual",
    "eta_metric_matrix",
    "eval_expr",
    "family_continuity_gap",
    "find_periodic_wave",
    "fixed_point",
    "get_model",
    "linear_nondegeneracy",
    "mat_exp",
    "mat_power",
    "metric_cholesky",
    "metric_norm",
    "metric_operator_norm",
    "mild_solve",
    "model_from_config",
    "monodromy",
    "nonlinear_field",
    "operator_norm",
    "parse_expr",
    "period_map",
    "project_nonlinearity",
    "resolvent",
    "resolvent_scheme",
    "select_eta",
    "spectral_invariance_gap",
    "unit_eigenvalue_gap",
    "winding_number_2d",
]
