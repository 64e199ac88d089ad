"""Simulator and analysis toolkit for active attack-defense dynamics on
networks: a seeded stochastic node-flip process, its deterministic mean-field
companion, occupation-threshold analytics, a one-dimensional binomial
approximation of threshold drift, agreement metrics, and a config-driven
experiment runner.
"""

__version__ = "0.1.0"

from .graphgen import (
    ExpectedDegreeSequence,
    Graph,
    dmin_for_fixed_variance,
    gen_chung_lu,
    gen_clustered,
    gen_er,
    largest_component,
    load_graph,
    min_node_expansion,
    powerlaw_degree_sequence,
    save_graph,
)
from .combat import (
    CombatFunction,
    TabulatedCombat,
    TypeICombat,
    TypeIICombat,
    TypeIIICombat,
    TypeIVCombat,
    validate_shape,
)
from .meanfield import (
    MeanFieldTrajectory,
    classify_equilibrium,
    empirical_convergence_rate,
    integrate,
    monotonicity_probe,
    predicted_convergence_rate,
)
from .markov import (
    MarkovEnsemble,
    sample_initial,
    simulate_ensemble,
    simulate_run,
    split_seed,
)
from .thresholds import (
    alpha_threshold,
    beta_threshold,
    estimate_sigma_markov,
    h,
    phi,
    strategic_init,
    strategic_thresholds,
    strategic_outcome_diagnostics,
)
from .binom_approx import ApproxModel, critical_nu, theta_sigma
from .metrics import jensen_gap_probe, relative_error, relative_error_report

__all__ = [
    "__version__",
    "ExpectedDegreeSequence",
    "Graph",
    "dmin_for_fixed_variance",
    "gen_chung_lu",
    "gen_clustered",
    "gen_er",
    "largest_component",
    "load_graph",
    "min_node_expansion",
    "powerlaw_degree_sequence",
    "save_graph",
    "CombatFunction",
    "TabulatedCombat",
    "TypeICombat",
    "TypeIICombat",
    "TypeIIICombat",
    "TypeIVCombat",
    "validate_shape",
    "MeanFieldTrajectory",
    "classify_equilibrium",
    "empirical_convergence_rate",
    "integrate",
    "monotonicity_probe",
    "predicted_convergence_rate",
    "MarkovEnsemble",
    "sample_initial",
    "simulate_ensemble",
    "simulate_run",
    "split_seed",
    "alpha_threshold",
    "beta_threshold",
    "estimate_sigma_markov",
    "h",
    "phi",
    "strategic_init",
    "strategic_thresholds",
    "strategic_outcome_diagnostics",
    "ApproxModel",
    "critical_nu",
    "theta_sigma",
    "jensen_gap_probe",
    "relative_error",
    "relative_error_report",
]
