"""The exact-solve policy, and the bridges between indegree and star partitioning.

:func:`solve` picks the exact solver for the graph kind, the objective and
the node weights; :func:`preprocess_and_solve` reduces multigraphs and
self-loop graphs to simple ones.  A capacity-1 pendant node attached to v
keeps a star of v's own color available, exactly as a self-loop does, so
v's star count is its indegree plus one.  One pendant per original node
turns the indegree problem into a star partitioning instance, and one per
looped node replaces the loops.  Without capacities, an
orientation optimal for both objectives at once always exists and is
picked from the two single-objective optima.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    INFEASIBLE,
    Orientation,
    PartialColoring,
    SolveResult,
    is_valid,
    node_loads,
    orientation_to_owner,
    owner_to_orientation,
)
from .dfs_solver import minimum_star_coloring
from .errors import CapacitiesPresent, InvalidColoring, UnsupportedKind
from .flow_solver import minimum_star_coloring_flow, solve_flow_seeded
from .graph import Graph, GraphKind, build_graph, capacities_bind, extract_self_loops, merge_parallel_edges
from .oracle import brute_force_kstar, brute_force_xstar
from .weighted import brute_force_weighted

#: An indegree instance is just a capacitated graph.
IndInstance = Graph


@dataclass(frozen=True)
class PendantReduction:
    """Original graph plus its pendant-extended star instance.

    Node v of the original keeps its id; its pendant copy is node
    ``original.n + v``.  Pendant edges follow the original edges in id
    order, and capacities become cap+1 at originals and 1 at pendants.
    """

    original: Graph
    reduced: Graph

    def pendant_of(self, v: int) -> int:
        return self.original.n + v


def _attach_pendants(g: Graph, nodes, caps) -> Graph:
    # Pendant g.n + i hangs off nodes[i]; the pendant edges follow g's edges,
    # pendants get capacity 1 and weight 1, and g's nodes the given caps.
    k = len(nodes)
    edges = list(g.edges) + [(v, g.n + i) for i, v in enumerate(nodes)]
    weights = list(g.weights) + [1] * k
    return build_graph(g.n + k, edges, GraphKind.SIMPLE, list(caps) + [1] * k, weights)


def ind_to_star(inst: IndInstance) -> PendantReduction:
    """Linear-time reduction; the star optimum is the indegree optimum plus one."""
    caps = [c + 1 for c in inst.capacities]
    return PendantReduction(original=inst, reduced=_attach_pendants(inst, range(inst.n), caps))


def recover_ind_solution(red: PendantReduction, coloring: PartialColoring) -> Orientation:
    """Read an orientation of the original graph off a reduced coloring.

    The coloring must be complete, give every edge to one of its endpoints
    and meet every capacity of the reduced graph.  Each original edge's
    owner is then its tail: a node's pendant edge brings one color that no
    incoming edge carries, so its incoming edges fit its original capacity.
    """
    g2 = red.reduced
    if len(coloring.owner) != g2.m or not coloring.is_complete():
        raise InvalidColoring("coloring of the reduced graph must be complete")
    for e, o in enumerate(coloring.owner):
        if o not in g2.edges[e]:
            raise InvalidColoring(f"owner {o} of edge {e} is not an endpoint")
    if not is_valid(g2, coloring):
        raise InvalidColoring("coloring violates a capacity in the reduced graph")

    return owner_to_orientation(red.original, PartialColoring(coloring.owner[: red.original.m]))


def max_indegree(g: Graph, orientation: Orientation) -> int:
    return max(node_loads(g, orientation_to_owner(g, orientation).owner, "ind"), default=0)


def _solve_ind(g: Graph, algo: str) -> SolveResult:
    # Min-max indegree with the tails as owners.  The dfs owners are read
    # off the pendant coloring once recover_ind_solution has checked it.
    if algo == "flow":
        return solve_flow_seeded(g, "ind")
    if algo != "dfs":
        raise ValueError(f"unknown algo {algo!r}")
    red = ind_to_star(g)
    res = minimum_star_coloring(red.reduced)
    if not res.feasible:
        return res
    recover_ind_solution(red, res.coloring)
    return SolveResult(res.value - 1, PartialColoring(res.coloring.owner[: g.m]))


def solve_min_max_ind(
    inst: IndInstance, algo: str = "flow"
) -> tuple[int | float, Orientation | None]:
    """Optimal capacity-feasible orientation minimizing the max indegree.

    ``algo="flow"`` runs the flow search on the graph itself; ``"dfs"``
    solves the pendant star instance by depth-first recoloring.  Node
    weights are ignored.
    """
    res = _solve_ind(inst, algo)
    if not res.feasible:
        return INFEASIBLE, None
    return res.value, owner_to_orientation(inst, res.coloring)


def preprocess_and_solve(g: Graph, algo: str = "dfs") -> SolveResult:
    """Solve a multigraph or self-loop graph and map the witness back.

    Multigraphs are solved on the parallel-merged simple graph and every
    edge copies its representative's owner.  Self-loop graphs are solved
    on their plain edges plus one capacity-1 pendant per looped node, the
    gadget of :func:`ind_to_star`; every loop goes to its node and the
    pendant edges are dropped.  ``algo`` picks the solver for the simple
    graph ("dfs" or "flow").
    """
    if algo not in ("dfs", "flow"):
        raise ValueError(f"unknown algo {algo!r}")
    if g.kind is GraphKind.MULTI:
        simple, emap = merge_parallel_edges(g)
    elif g.kind is GraphKind.WITH_SELF_LOOPS:
        plain, loops = extract_self_loops(g)
        # A looped node always sees its own color, as it would with a
        # pendant it owns; several loops at one node count as one.
        simple = _attach_pendants(plain, sorted({v for v, _ in loops}), plain.capacities)
    else:
        raise UnsupportedKind("preprocess_and_solve expects kind multi or selfloop")
    res = minimum_star_coloring_flow(simple) if algo == "flow" else minimum_star_coloring(simple)
    if not res.feasible:
        return res
    if g.kind is GraphKind.MULTI:
        return SolveResult(res.value, PartialColoring(tuple(res.coloring.owner[i] for i in emap)))
    # a loop (v,) is owned by v; the plain edges keep their relative order
    owners = iter(res.coloring.owner)
    owner = tuple(nodes[0] if len(nodes) == 1 else next(owners) for nodes in g.edges)
    return SolveResult(res.value, PartialColoring(owner))


def _require_ind_kind(g: Graph) -> None:
    if g.kind is not GraphKind.SIMPLE:
        raise UnsupportedKind("the indegree objective needs a simple graph")


def solve(g: Graph, objective: str = "star", algo: str = "auto") -> SolveResult:
    """Exact optimum and witness of ``objective`` ("star" or "ind") on g.

    ``algo="auto"`` runs the DFS on linear hypergraphs and the flow search
    otherwise; "dfs" and "flow" force one exact solver and "oracle"
    enumerates.  Multigraphs and self-loop graphs go through
    :func:`preprocess_and_solve`.  The indegree objective needs a simple
    graph, and its witness lets every tail own its edge, as in solution
    files.  Node-weighted graphs are solved only by the oracle.
    """
    if objective not in ("star", "ind") or algo not in ("auto", "dfs", "flow", "oracle"):
        raise ValueError(f"unknown objective {objective!r} or algo {algo!r}")
    if algo == "auto":
        algo = "dfs" if g.kind is GraphKind.LINEAR_HYPER else "flow"
    if objective == "ind":
        _require_ind_kind(g)
    weighted = any(w != 1 for w in g.weights)
    if weighted and algo != "oracle":
        raise UnsupportedKind(
            "weighted instances are only solved exactly by --algo oracle; "
            "see the approx command for the polynomial route"
        )
    if algo == "oracle":
        if weighted:
            value, orientation = brute_force_weighted(g, g.weights, objective)
        elif objective == "ind":
            value, orientation = brute_force_kstar(g)
        else:
            return brute_force_xstar(g)
        return SolveResult(value, None if orientation is None else orientation_to_owner(g, orientation))
    if objective == "ind":
        return _solve_ind(g, algo)
    if g.kind in (GraphKind.MULTI, GraphKind.WITH_SELF_LOOPS):
        return preprocess_and_solve(g, algo)
    return minimum_star_coloring(g) if algo == "dfs" else minimum_star_coloring_flow(g)


def simultaneous_optimum(g: Graph) -> tuple[Orientation, int, int]:
    """Orientation optimal for the star and the indegree objective at once.

    Only defined without effective capacities.  When both optima agree
    the star witness already has small indegrees; otherwise the indegree
    witness is one off the star optimum and therefore star-optimal too.
    """
    if capacities_bind(g):
        raise CapacitiesPresent("simultaneous optimum needs capacity-free input")
    star = minimum_star_coloring_flow(g)
    ind = _solve_ind(g, "flow")
    witness = star if star.value == ind.value else ind
    return owner_to_orientation(g, witness.coloring), int(star.value), int(ind.value)
