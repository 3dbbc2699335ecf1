"""Solvers, reductions and oracles for min-max star partitioning.

A star partition colors every edge with one of its endpoints so that the
color classes form stars; the objective is the largest number of distinct
colors any node sees, optionally bounded per node by a capacity.  The
package ships two exact solvers (depth-first recoloring and a max-flow
binary search), the bridge to the min-max indegree problem, node-weighted
variants with their hardness reductions and LP-rounding approximations,
brute-force oracles, generators, and a command line front end.
"""

from .coloring import (
    INFEASIBLE,
    Orientation,
    PartialColoring,
    SolveResult,
    StarDecomposition,
    extract_stars,
    is_valid,
    lower_demand,
    node_loads,
    orientation_to_owner,
    owner_to_orientation,
    star_partition_value,
)
from .dfs_solver import (
    SearchState,
    color_one_edge,
    ensure_feasibility,
    minimum_star_coloring,
    solve_with_state,
)
from .flow_solver import (
    FlowNetwork,
    IntegralFlow,
    build_flow_network,
    max_flow_unit,
    minimum_star_coloring_flow,
    slackness,
    test_x,
)
from .graph import (
    Graph,
    GraphKind,
    build_graph,
    degree,
    extract_self_loops,
    max_degree,
    max_edge_size,
    merge_parallel_edges,
)
from .oracle import (
    GeneratorSpec,
    brute_force_kstar,
    brute_force_xstar,
    closed_form,
    generate,
)
from .reductions import (
    PendantReduction,
    ind_to_star,
    max_indegree,
    preprocess_and_solve,
    recover_ind_solution,
    simultaneous_optimum,
    solve,
    solve_min_max_ind,
)
from .weighted import (
    BinPackingInstance,
    FractionalOrientation,
    GadgetReduction,
    approx2_wind,
    approx4_wstar,
    binpacking_to_wind,
    brute_force_weighted,
    extract_packing,
    gadget_orientation,
    gadget_transform,
    lp_feasible,
    packing_to_orientation,
    round_fractional,
)

# The solving surface.  Helpers such as test_x, slackness, max_flow_unit,
# lower_demand and preprocess_and_solve stay importable from here but are
# not exported.
__all__ = [
    # graph construction
    "Graph",
    "GraphKind",
    "build_graph",
    # exact solvers
    "solve",
    "minimum_star_coloring",
    "minimum_star_coloring_flow",
    "solve_min_max_ind",
    "simultaneous_optimum",
    # reductions
    "ind_to_star",
    "recover_ind_solution",
    "gadget_transform",
    "binpacking_to_wind",
    "extract_packing",
    # approximations
    "approx2_wind",
    "approx4_wstar",
    # oracles and generators
    "brute_force_xstar",
    "brute_force_kstar",
    "brute_force_weighted",
    "closed_form",
    "GeneratorSpec",
    "generate",
    # evaluation
    "star_partition_value",
    "is_valid",
    "max_indegree",
    "node_loads",
    "owner_to_orientation",
    "orientation_to_owner",
    # result types
    "INFEASIBLE",
    "SolveResult",
    "PartialColoring",
    "Orientation",
    "PendantReduction",
    "GadgetReduction",
    "BinPackingInstance",
]

__version__ = "0.1.0"
