"""Bridges between min-max indegree and star partitioning.

Attaching a capacity-1 pendant node to every original node turns the
indegree problem into a star partitioning instance: the pendant edge
keeps a star of v's own color available, so v's star count is exactly its
indegree plus one.  Without capacities, an orientation optimal for both
objectives at once always exists and is picked from the two single-
objective optima.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    INFEASIBLE,
    Orientation,
    PartialColoring,
    is_valid,
    owner_to_orientation,
)
from .errors import CapacitiesPresent, InvalidColoring
from .dfs_solver import minimum_star_coloring
from .flow_solver import minimum_star_coloring_flow, solve_flow_seeded
from .graph import Graph, GraphKind, build_graph

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


def ind_to_star(inst: IndInstance) -> PendantReduction:
    """Linear-time reduction; the star optimum is the indegree optimum plus one."""
    g = inst
    n = g.n
    edges = list(g.edges) + [(v, n + v) for v in range(n)]
    caps = [g.capacities[v] + 1 for v in range(n)] + [1] * n
    weights = list(g.weights) + [1] * n
    reduced = build_graph(2 * n, edges, GraphKind.SIMPLE, caps, weights)
    return PendantReduction(original=g, reduced=reduced)


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
    indeg = [0] * g.n
    for h in orientation.head:
        indeg[h] += 1
    return max(indeg) if indeg else 0


def solve_min_max_ind(
    inst: IndInstance, algo: str = "flow"
) -> tuple[int | float, Orientation | None]:
    """Optimal capacity-feasible orientation minimizing the max indegree.

    ``algo="flow"`` runs the flow search on the graph itself; ``"dfs"``
    solves the pendant star instance by depth-first recoloring.
    """
    if algo == "flow":
        res = solve_flow_seeded(inst, None, "ind")
        if not res.feasible:
            return INFEASIBLE, None
        return res.value, owner_to_orientation(inst, res.coloring)
    if algo != "dfs":
        raise ValueError(f"unknown algo {algo!r}")
    red = ind_to_star(inst)
    res = minimum_star_coloring(red.reduced)
    if not res.feasible:
        return INFEASIBLE, None
    return res.value - 1, recover_ind_solution(red, res.coloring)


def simultaneous_optimum(g: Graph) -> tuple[Orientation, int, int]:
    """Orientation optimal for the star and the indegree objective at once.

    Only defined without effective capacities.  When both optima agree
    the star witness already has small indegrees; otherwise the indegree
    witness is one off the star optimum and therefore star-optimal too.
    """
    if any(g.capacities[v] < len(g.incidence[v]) for v in range(g.n)):
        raise CapacitiesPresent("simultaneous optimum needs capacity-free input")
    star = minimum_star_coloring_flow(g)
    k_value, k_orientation = solve_min_max_ind(g)
    x_value = star.value
    if x_value == k_value:
        if g.m == 0:
            return Orientation(()), int(x_value), int(k_value)
        return owner_to_orientation(g, star.coloring), int(x_value), int(k_value)
    return k_orientation, int(x_value), int(k_value)
