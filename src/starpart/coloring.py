"""Colorings, orientations, their conversions, and objective evaluation.

An edge's color is identified with the node that owns it, so a complete
coloring is one owner per edge and the stars of a partition are the
groups of edges sharing an owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteColoring, NotPseudoforest, UnsupportedKind
from .graph import Graph, other_end

#: Objective value used when no valid coloring or orientation exists.
INFEASIBLE: float = math.inf


@dataclass(frozen=True)
class PartialColoring:
    """Per-edge optional owner; ``owner[e] is None`` means e is uncolored."""

    owner: tuple[int | None, ...]

    def is_complete(self) -> bool:
        return all(o is not None for o in self.owner)


@dataclass(frozen=True)
class Orientation:
    """Per-edge head node; defined only for graphs whose edges are pairs."""

    head: tuple[int, ...]


@dataclass(frozen=True)
class StarDecomposition:
    """List of (internal node, edge ids of its star), internal nodes ascending."""

    stars: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class SolveResult:
    """Objective value plus a witness coloring (None iff infeasible)."""

    value: int | float
    coloring: PartialColoring | None

    @property
    def feasible(self) -> bool:
        return self.value != INFEASIBLE


def _require_complete(g: Graph, coloring: PartialColoring) -> None:
    if len(coloring.owner) != g.m:
        raise IncompleteColoring(
            f"coloring covers {len(coloring.owner)} edges, graph has {g.m}"
        )
    for e, o in enumerate(coloring.owner):
        if o is None:
            raise IncompleteColoring(f"edge {e} is uncolored")


def _flip_ends(g: Graph, ends, role: str) -> tuple[int, ...]:
    # The one loop behind both converters: each edge's other endpoint.
    flipped = []
    for e, nodes in enumerate(g.edges):
        if len(nodes) != 2:
            raise UnsupportedKind("orientations are defined only for two-endpoint edges")
        u = ends[e]
        if u not in nodes:
            raise ValueError(f"{role} {u} of edge {e} is not an endpoint")
        flipped.append(other_end(nodes, u))
    return tuple(flipped)


def pseudoforest_heads(edges: dict[int, tuple[int, int]]) -> dict[int, int]:
    """A head for every given edge such that each node receives at most one.

    Such heads exist iff no component has more edges than nodes.  Each
    cycle is walked from its least node toward its smaller neighbor; every
    other edge points away from the cycle, or in a tree component away
    from the least node.  Raises ``NotPseudoforest`` on denser input.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for e, (a, b) in edges.items():
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    # Peel leaves off; the nodes left, those of degree >= 2, lie on cycles
    # and must have degree exactly 2.
    deg = {v: len(nbrs) for v, nbrs in adj.items()}
    leaves = [v for v, d in deg.items() if d == 1]
    for v in leaves:
        for w, _ in adj[v]:
            deg[w] -= 1
            if deg[w] == 1:
                leaves.append(w)
    core = sorted(v for v, d in deg.items() if d >= 2)
    for v in core:
        if deg[v] > 2:
            raise NotPseudoforest(f"the component of node {v} has more edges than nodes")
    heads: dict[int, int] = {}
    for start in core:
        if any(e in heads for _, e in adj[start]):
            continue  # its cycle was walked from a smaller node
        w, e = min((w, e) for w, e in adj[start] if deg[w] == 2)
        heads[e] = w
        while w != start:
            w, e = next((x, f) for x, f in adj[w] if deg[x] == 2 and f not in heads)
            heads[e] = w
    seen = set(core)

    def grow(queue: list[int]) -> None:
        for v in queue:
            for w, e in adj[v]:
                if w not in seen:
                    seen.add(w)
                    heads[e] = w
                    queue.append(w)

    grow(core)
    for root in sorted(adj):  # a tree component is first met at its least node
        if root not in seen:
            seen.add(root)
            grow([root])
    return heads


def owner_to_orientation(g: Graph, coloring: PartialColoring) -> Orientation:
    """Direct every edge away from its owner (the head is the non-owner)."""
    _require_complete(g, coloring)
    return Orientation(_flip_ends(g, coloring.owner, "owner"))


def orientation_to_owner(g: Graph, orientation: Orientation) -> PartialColoring:
    """Inverse of :func:`owner_to_orientation`: the tail owns each edge."""
    return PartialColoring(_flip_ends(g, orientation.head, "head"))


def node_loads(g: Graph, owner, objective: str, weights=None) -> list[int]:
    """Per-node objective terms of complete owners indexed by edge id.

    ``star``: the weight sum of the distinct owners a node sees.  ``ind``:
    the weight sum of the owners of its in-edges, whose heads are the
    non-owner ends.  With ``weights=None`` every owner counts 1.
    """
    if objective == "ind":
        loads = [0] * g.n
        for e, nodes in enumerate(g.edges):
            o = owner[e]
            loads[other_end(nodes, o)] += 1 if weights is None else weights[o]
        return loads
    if weights is None:
        return [len({owner[e] for e in inc}) for inc in g.incidence]
    return [sum(weights[u] for u in {owner[e] for e in inc}) for inc in g.incidence]


def star_partition_value(g: Graph, coloring: PartialColoring) -> int:
    """Maximum over nodes of the distinct incident owner count."""
    _require_complete(g, coloring)
    return max(node_loads(g, coloring.owner, "star"))


def is_valid(g: Graph, coloring: PartialColoring) -> bool:
    """True iff every node sees at most its capacity many distinct colors."""
    _require_complete(g, coloring)
    loads = node_loads(g, coloring.owner, "star")
    return all(load <= cap for load, cap in zip(loads, g.capacities))


def _demand(deg: int, cap: int, x: int, objective: str) -> int:
    """Edges a node of degree deg must own at target x.

    deg counts the node's edges in a simple graph or linear hypergraph;
    a self-loop reaches the solvers as a capacity-1 pendant edge instead
    (``reductions.preprocess_and_solve``).

    ind: indegree deg - out <= min(cap, x).  star: the node also sees its
    own star, like one more incident edge, so it owns the ind demand at
    deg + 1 edges or, if that is 1, none.
    """
    if objective == "ind":
        return max(0, deg - min(cap, x))
    need = _demand(deg + 1, cap, x, "ind")
    return need if need >= 2 else 0


def lower_demand(g: Graph, v: int, x: int) -> int:
    """Minimum number of incident edges v must own for the target x.

    With degree d and capacity k this is max(0, d - min(k, x) + 1); a node
    whose degree already fits under min(k, x) demands nothing.
    """
    return _demand(len(g.incidence[v]) + 1, g.capacities[v], x, "ind")


def extract_stars(g: Graph, coloring: PartialColoring) -> StarDecomposition:
    """Group edges by owner. Every edge lands in exactly one star."""
    _require_complete(g, coloring)
    groups: dict[int, list[int]] = {}
    for e, o in enumerate(coloring.owner):
        groups.setdefault(o, []).append(e)
    stars = tuple((v, tuple(groups[v])) for v in sorted(groups))
    return StarDecomposition(stars)
