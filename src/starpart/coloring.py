"""Colorings, orientations, their conversions, and objective evaluation.

An edge's color is identified with the node that owns it, so a complete
coloring is one owner per edge and the stars of a partition are the
groups of edges sharing an owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IncompleteColoring, UnsupportedKind
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


def owner_to_orientation(g: Graph, coloring: PartialColoring) -> Orientation:
    """Direct every edge away from its owner (the head is the non-owner)."""
    _require_complete(g, coloring)
    return Orientation(_flip_ends(g, coloring.owner, "owner"))


def orientation_to_owner(g: Graph, orientation: Orientation) -> PartialColoring:
    """Inverse of :func:`owner_to_orientation`: the tail owns each edge."""
    return PartialColoring(_flip_ends(g, orientation.head, "head"))


def color_count(g: Graph, coloring: PartialColoring, v: int) -> int:
    """Number of distinct owners among the edges incident to v."""
    _require_complete(g, coloring)
    return len({coloring.owner[e] for e in g.incidence[v]})


def star_partition_value(g: Graph, coloring: PartialColoring) -> int:
    """Maximum over nodes of the distinct incident owner count."""
    _require_complete(g, coloring)
    return max(len({coloring.owner[e] for e in g.incidence[v]}) for v in range(g.n))


def is_valid(g: Graph, coloring: PartialColoring) -> bool:
    """True iff every node sees at most its capacity many distinct colors."""
    _require_complete(g, coloring)
    return all(
        len({coloring.owner[e] for e in g.incidence[v]}) <= g.capacities[v]
        for v in range(g.n)
    )


def _demand(deg: int, cap: int, x: int, objective: str) -> int:
    """Edges a node must own at target x (self-loop seeds count in deg).

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
