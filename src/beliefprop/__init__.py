"""Exact inference on discrete Bayesian networks via cluster trees.

The package compiles a network and an evidence set onto a junction
tree, propagates messages over it, and answers marginal, evidence
probability, most-probable-assignment, and posterior sampling queries.
A brute-force enumeration oracle and a hidden Markov chain adapter are
included for cross-checking.
"""

from .factor import Factor, FactorSizeError, product
from .jtree import (
    InvalidJunctionTreeError,
    JunctionTree,
    JunctionTreeError,
    assign_clusters,
    build_junction_tree,
    edge_context,
    min_fill_cliques,
    moral_graph,
    validate_junction_tree,
)
from .model import (
    Cpd,
    DiscreteNetwork,
    EvidenceSet,
    InvalidNetworkError,
    ValidationReport,
    Variable,
    Violation,
    build_potentials,
    validate_network,
)
from .oracle import (
    joint_table,
    oracle_log_probability,
    oracle_map,
    oracle_marginal,
    oracle_message,
    oracle_posterior,
)
from .propagation import (
    CompiledQuery,
    ImpossibleEvidenceError,
    SchedulingError,
    compile_query,
    joint_score,
)
from .sampling import (
    PosteriorSampler,
    SamplingConsistencyError,
    cluster_conditional,
    sample_hmm_path,
    sample_posterior,
)

__all__ = [
    "Cpd",
    "CompiledQuery",
    "DiscreteNetwork",
    "EvidenceSet",
    "Factor",
    "FactorSizeError",
    "ImpossibleEvidenceError",
    "InvalidJunctionTreeError",
    "InvalidNetworkError",
    "JunctionTree",
    "JunctionTreeError",
    "PosteriorSampler",
    "SamplingConsistencyError",
    "SchedulingError",
    "ValidationReport",
    "Variable",
    "Violation",
    "assign_clusters",
    "build_junction_tree",
    "build_potentials",
    "cluster_conditional",
    "compile_query",
    "edge_context",
    "joint_score",
    "joint_table",
    "min_fill_cliques",
    "moral_graph",
    "oracle_log_probability",
    "oracle_map",
    "oracle_marginal",
    "oracle_message",
    "oracle_posterior",
    "product",
    "sample_hmm_path",
    "sample_posterior",
    "validate_junction_tree",
    "validate_network",
]

__version__ = "0.1.0"
