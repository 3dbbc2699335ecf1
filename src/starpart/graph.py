"""Graph data model: construction, validation, and per-kind preprocessing."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import (
    Disconnected,
    DuplicateEdgeInSimple,
    EmptyGraph,
    NonLinearHypergraph,
    SelfLoopInSimple,
    UnsupportedKind,
)


class GraphKind(Enum):
    SIMPLE = "simple"
    MULTI = "multi"
    WITH_SELF_LOOPS = "selfloop"
    LINEAR_HYPER = "hyper"


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with per-node capacities and weights.

    Nodes are the dense integers ``0..n-1``.  Every edge is a sorted tuple
    of distinct node ids: a pair for simple and multi graphs, a singleton
    for a self-loop, and a tuple of size >= 2 for linear hypergraphs.
    ``incidence[v]`` lists the ids of edges containing ``v`` in ascending
    order; a self-loop appears there exactly once, so ``len(incidence[v])``
    is the degree of ``v``.
    """

    kind: GraphKind
    n: int
    edges: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    weights: tuple[int, ...]
    incidence: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def degree(g: Graph, v: int) -> int:
    """Number of edges incident to v; a self-loop contributes exactly 1."""
    return len(g.incidence[v])


def max_degree(g: Graph) -> int:
    return max(len(inc) for inc in g.incidence)


def capacities_bind(g: Graph) -> bool:
    """True iff some node's capacity is below its degree."""
    return any(cap < len(inc) for cap, inc in zip(g.capacities, g.incidence))


def other_end(edge: tuple[int, ...], v: int) -> int:
    """The endpoint of a two-endpoint edge that is not v: owner <-> head."""
    return edge[1] if v == edge[0] else edge[0]


def _require_ind_kind(g: Graph) -> None:
    if g.kind is not GraphKind.SIMPLE:
        raise UnsupportedKind("the indegree objective needs a simple graph")


def max_edge_size(g: Graph) -> int:
    """Largest edge cardinality (2 for simple graphs, 0 if edgeless)."""
    return max((len(e) for e in g.edges), default=0)


def _normalize_edge(edge, n: int) -> tuple[int, ...]:
    nodes = sorted(set(edge))
    if not nodes:
        raise ValueError("edge with no endpoints")
    for v in nodes:
        if not isinstance(v, int) or not 0 <= v < n:
            raise ValueError(f"edge {tuple(edge)} references unknown node {v}")
    return tuple(nodes)


def _check_shapes(kind: GraphKind, edges: list[tuple[int, ...]]) -> None:
    for e in edges:
        if len(e) == 1 and kind is not GraphKind.WITH_SELF_LOOPS:
            raise SelfLoopInSimple(f"loop at node {e[0]} not allowed for kind {kind.value}")
        if len(e) > 2 and kind is not GraphKind.LINEAR_HYPER:
            raise ValueError(f"edge {e} has more than two endpoints for kind {kind.value}")

    if kind in (GraphKind.SIMPLE, GraphKind.WITH_SELF_LOOPS):
        seen: set[tuple[int, ...]] = set()
        for e in edges:
            if len(e) != 2:
                continue
            if e in seen:
                raise DuplicateEdgeInSimple(f"edge {e} appears more than once")
            seen.add(e)
    elif kind is GraphKind.LINEAR_HYPER:
        # Index every node pair by the first edge containing it.  The least
        # violating (i, j) shares some pair whose first edge is i itself,
        # else (first, i) would be a smaller violation, so it is the least
        # (first[pair], j) found here.
        first: dict[tuple[int, ...], int] = {}
        least = None
        for j, e in enumerate(edges):
            for pair in combinations(e, 2):
                i = first.setdefault(pair, j)
                if i != j and (least is None or (i, j) < least):
                    least = (i, j)
        if least is not None:
            i, j = least
            shared = set(edges[i]).intersection(edges[j])
            raise NonLinearHypergraph(i, j, tuple(sorted(shared)))


def _check_connected(n: int, edges: list[tuple[int, ...]]) -> None:
    # Union-find with path halving, each set rooted at its least node; an
    # edge joins all its members, so hypergraphs use the node-edge incidence.
    parent = list(range(n))
    components = n
    for e in edges:
        a = e[0]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        for b in e:
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                parent[max(a, b)] = a = min(a, b)
                components -= 1
    if components != 1:
        # the least node outside node 0's set is the root of its own set
        missing = next(v for v in range(1, n) if parent[v] == v)
        raise Disconnected(f"node {missing} is not reachable from node 0")


def build_graph(
    n: int,
    edges,
    kind: GraphKind = GraphKind.SIMPLE,
    capacities=None,
    weights=None,
) -> Graph:
    """Validate and build a graph.

    Capacities default to the maximum degree of the built graph and
    weights default to 1.  Repeated node ids inside one edge are
    collapsed, so a loop may be written as ``(v, v)`` or ``(v,)``.
    """
    if n < 1:
        raise EmptyGraph("a graph needs at least one node")
    # Pairs of in-range ints that are already ordered skip normalization;
    # every other edge takes the general path and its checks.
    norm: list[tuple[int, ...]] = []
    incidence: list[list[int]] = [[] for _ in range(n)]
    pairs_only = True
    for i, e in enumerate(edges):
        if type(e) is tuple and len(e) == 2:
            a, b = e
            if type(a) is int and type(b) is int and 0 <= a < b < n:
                incidence[a].append(i)
                incidence[b].append(i)
                norm.append(e)
                continue
        e = _normalize_edge(e, n)
        for v in e:
            incidence[v].append(i)
        pairs_only = pairs_only and len(e) == 2
        norm.append(e)
    # Distinct pairs pass every shape check of every kind: a pair is its
    # own only node pair, so linearity reduces to distinctness.
    if not (pairs_only and (kind is GraphKind.MULTI or len(set(norm)) == len(norm))):
        _check_shapes(kind, norm)
    _check_connected(n, norm)

    delta = max(map(len, incidence))
    if capacities is None:
        caps = (delta,) * n
    else:
        caps = tuple(int(c) for c in capacities)
        if len(caps) != n or any(c < 0 for c in caps):
            raise ValueError("capacities must be n non-negative integers")
    if weights is None:
        w = (1,) * n
    else:
        w = tuple(int(x) for x in weights)
        if len(w) != n or any(x < 1 for x in w):
            raise ValueError("weights must be n positive integers")

    return Graph(
        kind=kind,
        n=n,
        edges=tuple(norm),
        capacities=caps,
        weights=w,
        incidence=tuple(tuple(inc) for inc in incidence),
    )


def merge_parallel_edges(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Collapse each parallel class of a multigraph to one representative.

    Returns the resulting simple graph and a total map sending every
    original edge id to its representative's id in the new graph.
    Capacities and weights carry over unchanged.
    """
    if g.kind is not GraphKind.MULTI:
        raise UnsupportedKind("merge_parallel_edges expects a multigraph")
    new_edges: list[tuple[int, ...]] = []
    rep_of: dict[tuple[int, ...], int] = {}
    mapping = []
    for e in g.edges:
        if e not in rep_of:
            rep_of[e] = len(new_edges)
            new_edges.append(e)
        mapping.append(rep_of[e])
    simple = build_graph(g.n, new_edges, GraphKind.SIMPLE, g.capacities, g.weights)
    return simple, tuple(mapping)


def extract_self_loops(g: Graph) -> tuple[Graph, tuple[tuple[int, int], ...]]:
    """Split a graph with self-loops into its simple part and its loops.

    Every loop is reported as ``(node, original edge id)``; multiple loops
    at one node are listed separately.
    """
    if g.kind is not GraphKind.WITH_SELF_LOOPS:
        raise UnsupportedKind("extract_self_loops expects kind selfloop")
    plain = [e for e in g.edges if len(e) == 2]
    loops = tuple((e[0], i) for i, e in enumerate(g.edges) if len(e) == 1)
    simple = build_graph(g.n, plain, GraphKind.SIMPLE, g.capacities, g.weights)
    return simple, loops
