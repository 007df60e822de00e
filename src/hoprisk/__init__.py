"""Joint cyber-risk distributions for heterogeneous networks under L-hop propagation."""

from .network import (
    NetworkModel,
    assign_types_by_degree,
    build_network,
    complete_bipartite_network,
    complete_network,
    generate_ba,
    induced_subnetwork,
    load_json,
    save_json,
    star_network,
    with_type_probabilities,
)
from .pmf import JointPmf
from .exact import (
    ExactEngineCapError,
    event_prob,
    joint_pmf,
    joint_pmfs,
    one_hop_prob,
    r_prob,
)
from .closedform import (
    CompleteHomogParams,
    TwoClassParams,
    bipartite_pmf,
    complete_homog_pmf,
    r_complete,
    star_pmf,
)
from .simulate import (
    CompromiseTrace,
    SampleMatrix,
    empirical_pmf,
    simulate_runs,
    single_run,
)
from .stats import (
    DependenceSummary,
    MomentSummary,
    OrderReport,
    check_orthant_monotone,
    correlations,
    lower_orthant_cdf,
    marginal_moments,
    pairwise_correlations,
    upper_orthant_survival,
)
from .scoring import (
    ScoreRuleSet,
    parse_rules,
    score_distribution,
    score_vector,
)

__version__ = "0.1.0"

__all__ = [
    "NetworkModel",
    "JointPmf",
    "build_network",
    "induced_subnetwork",
    "generate_ba",
    "assign_types_by_degree",
    "with_type_probabilities",
    "complete_network",
    "star_network",
    "complete_bipartite_network",
    "load_json",
    "save_json",
    "one_hop_prob",
    "r_prob",
    "event_prob",
    "joint_pmf",
    "joint_pmfs",
    "ExactEngineCapError",
    "CompleteHomogParams",
    "TwoClassParams",
    "r_complete",
    "complete_homog_pmf",
    "star_pmf",
    "bipartite_pmf",
    "CompromiseTrace",
    "SampleMatrix",
    "single_run",
    "simulate_runs",
    "empirical_pmf",
    "MomentSummary",
    "DependenceSummary",
    "OrderReport",
    "marginal_moments",
    "correlations",
    "pairwise_correlations",
    "upper_orthant_survival",
    "lower_orthant_cdf",
    "check_orthant_monotone",
    "ScoreRuleSet",
    "parse_rules",
    "score_vector",
    "score_distribution",
    "__version__",
]
