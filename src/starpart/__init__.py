"""Solvers, reductions and oracles for min-max star partitioning.

A star partition colors every edge with one of its endpoints so that the
color classes form stars; the objective is the largest number of distinct
colors any node sees, optionally bounded per node by a capacity.  The
package ships two exact solvers (depth-first recoloring and a max-flow
binary search), the bridge to the min-max indegree problem, node-weighted
variants with their hardness reductions and LP-rounding approximations,
brute-force oracles, generators, and a command line front end.
"""

# Each public name and the submodule that defines it.  The package imports
# a submodule on first access to one of its names (PEP 562), so a command
# loads only the modules it runs.
_HOME = {
    name: module
    for module, names in {
        "coloring": "INFEASIBLE Orientation PartialColoring SolveResult StarDecomposition "
        "extract_stars is_valid lower_demand node_loads orientation_to_owner "
        "owner_to_orientation star_partition_value",
        "dfs_solver": "SearchState color_one_edge ensure_feasibility minimum_star_coloring "
        "solve_with_state",
        "flow_solver": "FlowNetwork IntegralFlow build_flow_network max_flow_unit "
        "minimum_star_coloring_flow slackness test_x",
        "graph": "Graph GraphKind build_graph degree extract_self_loops max_degree "
        "max_edge_size merge_parallel_edges",
        "oracle": "GeneratorSpec brute_force_kstar brute_force_weighted brute_force_xstar "
        "closed_form generate",
        "reductions": "PendantReduction ind_to_star max_indegree preprocess_and_solve "
        "recover_ind_solution simultaneous_optimum solve solve_min_max_ind",
        "weighted": "BinPackingInstance FractionalOrientation GadgetReduction approx2_wind "
        "approx4_wstar binpacking_to_wind extract_packing gadget_orientation "
        "gadget_transform lp_feasible packing_to_orientation round_fractional",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    from importlib import import_module

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


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
