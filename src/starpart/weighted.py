"""Node-weighted variants: objectives, reductions, and approximations.

With node weights the indegree objective charges each node the weight sum
of its in-neighbors, and the star objective additionally charges a node
its own weight once it colors any edge.  Both decision problems are hard,
so this module provides the two hardness reductions (weighted indegree
-> weighted star via a forcing gadget, bin packing -> weighted indegree
via a complete bipartite graph) and LP-rounding approximations with
factors 2 and 4; the exact brute force is ``oracle.brute_force_weighted``.
Every function reads the weights w of (G, w) from ``g.weights``, which
``build_graph`` has checked to be one positive int per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coloring import Orientation, PartialColoring, node_loads, orientation_to_owner, pseudoforest_heads
from .errors import CapacitiesPresent, NoOutgoingEdge, UnsupportedKind
from .graph import Graph, GraphKind, build_graph, capacities_bind
from .lp import find_basic_feasible

#: Largest edge count that ``oracle.brute_force_weighted`` enumerates.
_WEIGHTED_GUARD = 24


def _check_pairs(g: Graph) -> None:
    # distinct in-neighbors mean distinct stars only on simple graphs
    if g.kind is not GraphKind.SIMPLE or any(len(nodes) != 2 for nodes in g.edges):
        raise UnsupportedKind("weighted objectives are defined on simple graphs")
    if capacities_bind(g):
        raise CapacitiesPresent("weighted objectives carry no node capacities")


# --- gadget reduction: weighted indegree -> weighted star ------------------

_GADGET_ROLES = 9  # four ring nodes plus five heavy pendant anchors


@dataclass(frozen=True)
class GadgetReduction:
    """Per-node forcing gadget attached to every original node.

    Each original node v gains nine companions: a 4-node ring v1..v4 and
    heavy anchor pendants on v and each ring node.  The anchors are so
    heavy that their edges must point at them, which in turn forces
    {v,v1} toward v in every partition within the threshold; v therefore
    pays exactly M for its gadget, leaving k for its original in-edges.
    """

    original: Graph
    bound: int
    big: int  # the constant M = bound + 2 * max weight
    reduced: Graph
    gadget_nodes: tuple[tuple[int, ...], ...]  # per node: v1..v4, anchors of v, v1..v4

    @property
    def threshold(self) -> int:
        return self.big + self.bound


def gadget_transform(g: Graph, k: int) -> GadgetReduction:
    """Reduce the weighted indegree decision at bound k to weighted star.

    YES at bound k on the original is equivalent to YES at bound M + k on
    the reduced graph, with M = k + 2 max weight.
    """
    _check_pairs(g)
    if k < 1:
        raise ValueError("the bound k must be at least 1")
    weights = g.weights
    big = k + 2 * max(weights)
    n = g.n
    new_weights = list(weights)
    edges = list(g.edges)
    gadget_nodes = []
    next_id = n
    for v in range(n):
        v1, v2, v3, v4 = next_id, next_id + 1, next_id + 2, next_id + 3
        anchors = tuple(range(next_id + 4, next_id + 9))  # for v, v1, v2, v3, v4
        next_id += _GADGET_ROLES
        gadget_nodes.append((v1, v2, v3, v4) + anchors)
        new_weights += [
            big - weights[v],
            k + weights[v],
            k + weights[v],
            big - weights[v],
        ]
        new_weights += [big + k + 1] * 5
        ring = [v, v1, v2, v3, v4]
        edges += [(v, v1), (v1, v2), (v2, v3), (v2, v4), (v3, v4)]
        edges += [(ring[i], anchors[i]) for i in range(5)]
    reduced = build_graph(next_id, edges, GraphKind.SIMPLE, weights=new_weights)
    return GadgetReduction(
        original=g,
        bound=k,
        big=big,
        reduced=reduced,
        gadget_nodes=tuple(gadget_nodes),
    )


def gadget_orientation(red: GadgetReduction, orientation: Orientation) -> Orientation:
    """Extend an orientation of the original edges across every gadget.

    Uses the canonical gadget pattern, which achieves the threshold
    whenever the original orientation meets its bound.
    """
    g = red.original
    heads = list(orientation.head)
    for v in range(g.n):
        v1, v2, v3, v4, av, a1, a2, a3, a4 = red.gadget_nodes[v]
        # ring edges: v1->v, v2->v1, v2->v3, v4->v2, v3->v4; anchors absorb
        heads += [v, v1, v3, v2, v4]
        heads += [av, a1, a2, a3, a4]
    return Orientation(tuple(heads))


# --- bin packing -> weighted indegree ---------------------------------------


@dataclass(frozen=True)
class BinPackingInstance:
    sizes: tuple[int, ...]
    bins: int
    capacity: int

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("need at least two bins")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("item sizes must be positive")
        if self.capacity < 1:
            raise ValueError("bin capacity must be positive")


def binpacking_to_wind(bp: BinPackingInstance) -> tuple[Graph, int]:
    """Complete bipartite weighted-indegree instance deciding the packing.

    All weights are scaled by (bins - 1) so the per-bin weight stays an
    integer: item i gets size * (bins - 1), every bin node gets the
    capacity, and the decision threshold is capacity * (bins - 1).
    """
    n, kbins, c = len(bp.sizes), bp.bins, bp.capacity
    scale = kbins - 1
    weights = [s * scale for s in bp.sizes] + [c] * kbins
    edges = [(j, n + l) for j in range(n) for l in range(kbins)]
    graph = build_graph(n + kbins, edges, GraphKind.SIMPLE, weights=weights)
    return graph, c * scale


def packing_to_orientation(bp: BinPackingInstance, assignment) -> Orientation:
    """Orient the reduced graph from a packing: each item points at its bin."""
    n, kbins = len(bp.sizes), bp.bins
    heads = []
    for j in range(n):
        for l in range(kbins):
            heads.append(n + l if assignment[j] == l else j)
    return Orientation(tuple(heads))


def extract_packing(bp: BinPackingInstance, orientation: Orientation) -> tuple[int, ...]:
    """Read a packing off a threshold-feasible orientation.

    Each item goes to the smallest-index bin its node points at; a
    threshold-feasible orientation always has such a bin because an item
    with only in-edges would already exceed the threshold.
    """
    n, kbins = len(bp.sizes), bp.bins
    assignment = []
    for j in range(n):
        for l in range(kbins):
            if orientation.head[j * kbins + l] == n + l:
                assignment.append(l)
                break
        else:
            raise NoOutgoingEdge(f"item node {j} keeps all its edges")
    return tuple(assignment)


# --- LP relaxation and rounding ---------------------------------------------


@dataclass(frozen=True)
class FractionalOrientation:
    """Per-edge assignment fractions, exact rationals summing to one.

    ``fractions[e][i]`` is the share of edge e assigned to its i-th
    endpoint (sorted order); assigning a share to an endpoint loads it
    with the other endpoint's weight in ``graph.weights``.  ``limit`` is
    the load bound the LP was solved at.
    """

    graph: Graph
    limit: int
    fractions: tuple[tuple[Fraction, Fraction], ...]

    def load(self, v: int) -> Fraction:
        total = Fraction(0)
        for e in self.graph.incidence[v]:
            lo, hi = self.graph.edges[e]
            i, other = (0, hi) if v == lo else (1, lo)
            total += self.fractions[e][i] * self.graph.weights[other]
        return total


def lp_feasible(g: Graph, limit: int) -> FractionalOrientation | None:
    """Basic feasible point of the load LP at the given limit, if any.

    Each edge's two shares are non-negative and sum to one, a share is
    forbidden outright when its cost alone exceeds the limit, and every
    node's load stays within the limit.  A free edge (lo, hi) with share x
    at lo loads lo by w[hi] x and hi by w[lo] (1 - x).  Scaling node r's
    row by w[r] makes both terms multiples of W = w[lo] w[hi], so the edge
    is an arc lo -> hi of capacity W carrying y = W x, and the LP is a max
    flow (``lp.find_basic_feasible``).  The share at lo is the exact
    y / W, and the strictly fractional edges form a forest.
    """
    _check_pairs(g)
    weights = g.weights
    room = [w * limit for w in weights]  # each node's scaled room for the edges it must take
    free, caps, carried = [], [], [0] * g.n
    for e, (lo, hi) in enumerate(g.edges):
        ok_lo, ok_hi = weights[hi] <= limit, weights[lo] <= limit  # cost of assigning to lo / hi
        both = weights[lo] * weights[hi]
        if ok_lo and ok_hi:
            free.append(e)
            caps.append(both)
            carried[hi] += both  # hi's scaled row carries W (1 - x)
        elif ok_lo or ok_hi:
            room[lo if ok_lo else hi] -= both
        else:
            return None
    if any(b < 0 for b in room):  # forced costs alone exceed the limit
        return None
    arcs = [g.edges[e] for e in free]  # free edge (lo, hi) is the arc lo -> hi
    shares = find_basic_feasible(arcs, caps, [b - c for b, c in zip(room, carried)])
    if shares is None:
        return None
    to_lo, to_hi = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    fractions = [to_lo if weights[hi] <= limit else to_hi for lo, hi in g.edges]
    for e, x in zip(free, shares):
        fractions[e] = (x, 1 - x)
    return FractionalOrientation(g, limit, tuple(fractions))


def round_fractional(frac: FractionalOrientation) -> Orientation:
    """Integral orientation from a basic fractional one.

    Integral edges keep their endpoint.  The strictly fractional edges form
    a pseudoforest, and ``pseudoforest_heads`` orients them so that every
    node picks up at most one rounded edge.
    """
    heads, loose = [], {}
    for e, (lo, hi) in enumerate(frac.graph.edges):
        f_lo, f_hi = frac.fractions[e]
        heads.append(lo if f_lo == 1 else hi)
        if f_lo != 1 and f_hi != 1:
            loose[e] = (lo, hi)
    for e, head in pseudoforest_heads(loose).items():
        heads[e] = head
    return Orientation(tuple(heads))


# --- approximation algorithms ------------------------------------------------


def approx2_wind(g: Graph) -> tuple[Orientation, int]:
    """2-approximation of the optimal weighted max indegree.

    Binary search for the smallest LP-feasible load limit, then round the
    basic solution; rounding adds at most one admissible edge per node,
    so the result stays within twice the limit and the limit never
    exceeds the optimum.
    """
    _check_pairs(g)
    w = g.weights
    if g.m == 0:
        return Orientation(()), 0
    lo = max(min(w[a], w[b]) for a, b in g.edges)
    # Greedy integral orientation: each edge goes to the endpoint whose load
    # plus cost is smaller; every cost is then at most its value.
    load = [0] * g.n
    for a, b in g.edges:
        if load[a] + w[b] <= load[b] + w[a]:
            load[a] += w[b]
        else:
            load[b] += w[a]
    hi = max(load)
    frac = lp_feasible(g, hi)
    assert frac is not None, "the load LP is feasible at an integral orientation's value"
    while lo < hi:
        mid = (lo + hi) // 2
        cand = lp_feasible(g, mid)
        if cand is None:
            lo = mid + 1
        else:
            hi, frac = mid, cand
    orientation = round_fractional(frac)
    return orientation, max(node_loads(g, orientation_to_owner(g, orientation).owner, "ind", w))


def approx4_wstar(g: Graph) -> tuple[PartialColoring, int]:
    """4-approximation of the optimal weighted star value.

    Reads the 2-approximate indegree orientation as a coloring: a node
    with any outgoing edge weighs no more than the heaviest load, so the
    star value is at most twice the indegree value pointwise.
    """
    orientation, _ = approx2_wind(g)
    if g.m == 0:
        return PartialColoring(()), 0
    coloring = orientation_to_owner(g, orientation)
    return coloring, max(node_loads(g, coloring.owner, "star", g.weights))
