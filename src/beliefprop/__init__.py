"""Exact inference on discrete Bayesian networks via cluster trees.

The package compiles a network and an evidence set onto a junction
tree, propagates messages over it, and answers marginal, evidence
probability, most-probable-assignment, and posterior sampling queries.
A brute-force enumeration oracle and a hidden Markov chain adapter are
included for cross-checking.

Importing the package loads none of its modules: each public name and
each module is imported on first access (PEP 562).
"""

import importlib

# each public name under the module that defines it
_HOMES = {
    "factor": ("Factor", "FactorSizeError", "product"),
    "jtree": ("InvalidJunctionTreeError", "JunctionTree", "JunctionTreeError", "assign_clusters",
              "build_junction_tree", "edge_context", "min_fill_cliques", "moral_graph",
              "validate_junction_tree"),
    "model": ("Cpd", "DiscreteNetwork", "EvidenceSet", "InvalidNetworkError", "ValidationReport",
              "Variable", "Violation", "build_potentials", "validate_network"),
    "oracle": ("joint_table", "oracle_log_probability", "oracle_map", "oracle_marginal",
               "oracle_message", "oracle_posterior"),
    "propagation": ("CompiledQuery", "ImpossibleEvidenceError", "SchedulingError",
                    "compile_query", "joint_score"),
    "sampling": ("PosteriorSampler", "SamplingConsistencyError", "cluster_conditional",
                 "sample_hmm_path", "sample_posterior"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_MODULES = frozenset(_HOMES) | {"cli", "hmm"}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _MODULES)
