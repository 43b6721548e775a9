"""Centrality measures and numerical verification of the friendship
paradox on sparse graphs.

The package builds immutable CSR graphs, computes degree, walk-count,
eigenvector, Katz and PageRank centralities with explicit residual-based
stopping, and checks that the neighbour-averaged mean of each measure
dominates its plain mean, together with the identities and inequalities
that explain why.  All randomness flows through a seeded, portable
64-bit generator, so every experiment is reproducible bit for bit.
"""

from .centrality import (CentralityParams, CentralityVector, SpectralResult,
                         closeness_harmonic, compute, degree_centrality,
                         eigenvector_centrality, katz_centrality,
                         pagerank_centrality, perron_bounds, solve_lambda1,
                         walk_count)
from .errors import (ConvergenceError, GenerationError, InputError,
                     NumericalError, ParadoxLabError, ParameterError,
                     PreconditionError, RangeError, UsageError)
from .formats import (ReportDocument, emit_edge_list, emit_matrix_market,
                      emit_report, parse_edge_list, parse_edge_list_with_map,
                      parse_matrix_market, parse_report)
from .generators import MODELS, RandomGraphSpec, generate
from .graph import (Graph, adjacency_matvec, apply_transition,
                    apply_transition_transpose, build_directed,
                    build_undirected, connected_component_labels,
                    extract_lcc, is_connected, is_strongly_connected)
from .oracle import (dense_from_graph, dense_hop_distances, dense_perron,
                     dense_solve, enumerate_walks)
from .paradox import (EQUALITY_TOL, BiasDistribution, ComparisonDecomposition,
                      FiedlerInstance, ParadoxReport, bias_distribution,
                      compare_averages, eaves_check, exact_degree_stats,
                      fiedler_check, harmonic_mean_check, neighbor_average,
                      pagerank_paradox_check, paradox_report,
                      symmetrization_identity)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"

__all__ = [
    "BiasDistribution", "CentralityParams", "CentralityVector",
    "ComparisonDecomposition", "ConvergenceError", "EQUALITY_TOL",
    "FiedlerInstance", "GenerationError", "Graph", "InputError", "MODELS",
    "NumericalError", "ParadoxLabError", "ParadoxReport", "ParameterError",
    "PreconditionError", "RandomGraphSpec", "RangeError", "ReportDocument",
    "SpectralResult", "SplitMix64", "UsageError", "adjacency_matvec",
    "apply_transition", "apply_transition_transpose", "bias_distribution",
    "build_directed", "build_undirected", "closeness_harmonic",
    "compare_averages", "compute", "connected_component_labels",
    "degree_centrality", "dense_from_graph", "dense_hop_distances",
    "dense_perron", "dense_solve", "derive_seed", "eaves_check",
    "eigenvector_centrality",
    "emit_edge_list", "emit_matrix_market", "emit_report", "enumerate_walks",
    "exact_degree_stats", "extract_lcc", "fiedler_check", "generate",
    "harmonic_mean_check", "is_connected", "is_strongly_connected",
    "katz_centrality", "neighbor_average", "pagerank_centrality",
    "pagerank_paradox_check", "paradox_report", "parse_edge_list",
    "perron_bounds",
    "parse_edge_list_with_map", "parse_matrix_market", "parse_report",
    "solve_lambda1", "symmetrization_identity", "walk_count",
]
