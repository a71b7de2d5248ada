"""Szegedy-style quantum walks on regular uniform hypergraphs.

The pipeline: a hypergraph's incident (vertex, hyperedge) pairs define a
two-step classical walk (vertex -> hyperedge -> vertex); quantizing it on
those pairs gives a two-reflection walk operator whose eigensystem is
fully determined by the singular value decomposition of the discriminant
matrix sqrt(p_ve * p_ev). This package builds every piece and verifies the
predicted eigensystem against the walk's eigenvalues, found without the
discriminant's SVD from one or two small triangular factors per connected
component (the derivation is in spectral.brute_force_spectrum).
"""

from .classical import (
    Distribution,
    TransitionSystem,
    build_transitions,
    classical_step,
    sample_trajectory,
    stationary_distribution,
)
from .errors import HgSyntaxError, HyperwalkError
from .hypergraph import (
    Hypergraph,
    degree_profile,
    from_edge_lists,
    is_connected,
    parse,
    random_feasible_parameters,
    random_regular_uniform,
    serialize,
)
from .operators import (
    StateVector,
    WalkOperator,
    apply_walk,
    basis_pair_state,
    build_walk,
    evolve,
    vertex_distribution,
    vertex_superposition,
    walk_action,
)
from .spectral import (
    CLASSIFY_TOL_DEFAULT,
    DENSE_CAP_ENV,
    SpectralReport,
    VERIFY_TOL_DEFAULT,
    analyze,
    brute_force_spectrum,
    classify_singular_values,
    dense_cap,
    discriminant,
    full_svd,
    predict_spectrum,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSIFY_TOL_DEFAULT",
    "DENSE_CAP_ENV",
    "Distribution",
    "HgSyntaxError",
    "Hypergraph",
    "HyperwalkError",
    "SpectralReport",
    "StateVector",
    "TransitionSystem",
    "VERIFY_TOL_DEFAULT",
    "WalkOperator",
    "analyze",
    "apply_walk",
    "basis_pair_state",
    "brute_force_spectrum",
    "build_transitions",
    "build_walk",
    "classical_step",
    "classify_singular_values",
    "degree_profile",
    "dense_cap",
    "discriminant",
    "evolve",
    "from_edge_lists",
    "full_svd",
    "is_connected",
    "parse",
    "predict_spectrum",
    "random_feasible_parameters",
    "random_regular_uniform",
    "sample_trajectory",
    "serialize",
    "stationary_distribution",
    "verify",
    "vertex_distribution",
    "vertex_superposition",
    "walk_action",
]
