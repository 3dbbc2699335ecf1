"""Faster exact solver: feasibility probes via unit-capacity maximum flow.

For a fixed target x, every node has a slackness: its outdegree headroom
over the number of edges it must own.  Nodes with negative slackness need
edges flipped toward them as tails; a flow network with one unit arc per
graph edge (in its current direction), source arcs into surplus nodes and
sink arcs out of deficient nodes decides in one max-flow computation
whether the deficits can all be repaired simultaneously.  Reversing the
graph edges that carry flow yields an orientation whose induced coloring
meets the target.  The search probes the counting bound ceil((m+1)/n)
first, which proves optimality when it succeeds; otherwise a binary
search over x finds the optimum in O(log(max degree)) probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import (
    INFEASIBLE,
    Orientation,
    PartialColoring,
    SolveResult,
    lower_demand,
    orientation_to_owner,
)
from .errors import UnsupportedKind
from .graph import Graph, GraphKind


@dataclass(frozen=True)
class FlowNetwork:
    """Unit-capacity s-t network over the graph nodes.

    ``arcs[e]`` is the (tail, head) of graph edge e in its current
    orientation, capacity 1.  Parallel source and sink arcs are stored as
    multiplicities instead of materialized duplicates; the flow on a
    bundle is an integer up to its multiplicity.  The total arc count
    (bundles expanded) never exceeds 3 |E| when every per-node demand is
    at most its degree.
    """

    n: int
    arcs: tuple[tuple[int, int], ...]
    source_mult: tuple[int, ...]
    sink_mult: tuple[int, ...]

    @property
    def arc_count(self) -> int:
        return len(self.arcs) + sum(self.source_mult) + sum(self.sink_mult)


@dataclass(frozen=True)
class IntegralFlow:
    """A maximum s-t flow: 0/1 per graph arc, bundle totals per node."""

    edge_flow: tuple[int, ...]
    source_flow: tuple[int, ...]
    sink_flow: tuple[int, ...]
    value: int


def _out_degrees(g: Graph, head: tuple[int, ...]) -> list[int]:
    out = [0] * g.n
    for e, nodes in enumerate(g.edges):
        tail = nodes[1] if head[e] == nodes[0] else nodes[0]
        out[tail] += 1
    return out


def slackness(g: Graph, orientation: Orientation, v: int, x: int) -> int:
    """Outdegree headroom of v against its demand at target x.

    Equals the outdegree itself when the demand is at most 1, otherwise
    outdegree minus demand; negative values count the edge flips v needs.
    """
    out = 0
    for e in g.incidence[v]:
        if orientation.head[e] != v:
            out += 1
    need = lower_demand(g, v, x)
    return out if need <= 1 else out - need


def _slacks(g: Graph, head: tuple[int, ...], x: int, loop_counts) -> list[int]:
    out = _out_degrees(g, head)
    slacks = []
    for v in range(g.n):
        extra = loop_counts.get(v, 0) if loop_counts else 0
        deg = len(g.incidence[v]) + extra
        need = max(0, deg - min(g.capacities[v], x) + 1)
        total_out = out[v] + extra
        slacks.append(total_out if need <= 1 else total_out - need)
    return slacks


def build_flow_network(g: Graph, orientation: Orientation, x: int) -> FlowNetwork:
    """Network whose max flow decides whether target x is achievable."""
    slacks = _slacks(g, orientation.head, x, None)
    return _network_from_slacks(g, orientation.head, slacks)


def _network_from_slacks(g: Graph, head: tuple[int, ...], slacks: list[int]) -> FlowNetwork:
    arcs = []
    for e, nodes in enumerate(g.edges):
        tail = nodes[1] if head[e] == nodes[0] else nodes[0]
        arcs.append((tail, head[e]))
    source = tuple(max(0, s) for s in slacks)
    sink = tuple(max(0, -s) for s in slacks)
    return FlowNetwork(g.n, tuple(arcs), source, sink)


def max_flow_unit(net: FlowNetwork) -> IntegralFlow:
    """Maximum integral s-t flow, computed by scipy's Dinic on a CSR copy.

    scipy is imported here, not at module level, so that parsing and
    verifying never pay for it.  Capacities are integers, so the flow is
    exact.
    """
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    n = net.n
    s, t = n, n + 1
    sources = [v for v, mult in enumerate(net.source_mult) if mult]
    sinks = [v for v, mult in enumerate(net.sink_mult) if mult]
    tails = [u for u, _ in net.arcs] + [s] * len(sources) + sinks
    heads = [v for _, v in net.arcs] + sources + [t] * len(sinks)
    caps = [1] * len(net.arcs)
    caps += [net.source_mult[v] for v in sources] + [net.sink_mult[v] for v in sinks]
    rows = np.asarray(tails, dtype=np.int32)
    cols = np.asarray(heads, dtype=np.int32)
    graph = csr_array((np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(n + 2, n + 2))
    # A simple graph has at most one arc per node pair, so the flow matrix
    # entry of each arc is that arc's flow alone.
    assert graph.nnz == len(tails), "parallel arcs in the flow network"
    result = maximum_flow(graph, s, t, method="dinic")
    flow = result.flow[rows, cols].tolist()

    m = len(net.arcs)
    source_flow = [0] * n
    sink_flow = [0] * n
    for i, v in enumerate(sources, start=m):
        source_flow[v] = flow[i]
    for i, v in enumerate(sinks, start=m + len(sources)):
        sink_flow[v] = flow[i]
    value = int(result.flow_value)
    return IntegralFlow(tuple(flow[:m]), tuple(source_flow), tuple(sink_flow), value)


def _test_x(
    g: Graph,
    x: int,
    start: Orientation,
    loop_counts: dict[int, int] | None,
) -> Orientation | None:
    for v in range(g.n):
        extra = loop_counts.get(v, 0) if loop_counts else 0
        deg = len(g.incidence[v]) + extra
        if max(0, deg - min(g.capacities[v], x) + 1) > deg:
            # v cannot own enough edges even if it owns all of them.
            return None
    slacks = _slacks(g, start.head, x, loop_counts)
    required = sum(-s for s in slacks if s < 0)
    if required == 0:
        return start
    net = _network_from_slacks(g, start.head, slacks)
    flow = max_flow_unit(net)
    if flow.value < required:
        return None
    heads = list(start.head)
    for e, f in enumerate(flow.edge_flow):
        if f:
            nodes = g.edges[e]
            heads[e] = nodes[1] if heads[e] == nodes[0] else nodes[0]
    return Orientation(tuple(heads))


def test_x(g: Graph, x: int, start: Orientation) -> Orientation | None:
    """Exact feasibility probe for one target.

    Returns an orientation with non-negative slackness everywhere iff the
    max flow saturates every sink arc; the result does not depend on the
    starting orientation, only possibly on which witness is returned.
    """
    return _test_x(g, x, start, None)


test_x.__test__ = False  # not a pytest case despite the name


def _default_orientation(g: Graph) -> Orientation:
    # Deterministic start: every edge points at its higher endpoint.
    return Orientation(tuple(nodes[1] for nodes in g.edges))


def solve_flow_seeded(g: Graph, loop_counts: dict[int, int] | None) -> SolveResult:
    """Solve a simple graph, optionally with loop seeds.

    Probes the counting bound first, then the maximum degree, then
    bisects between them.
    """
    if g.kind is not GraphKind.SIMPLE:
        raise UnsupportedKind(
            "the flow solver handles simple graphs only; linear hypergraphs "
            "have no flow formulation and multigraphs/self-loops go through "
            "preprocess_and_solve"
        )
    delta = max(
        len(g.incidence[v]) + (loop_counts.get(v, 0) if loop_counts else 0)
        for v in range(g.n)
    )
    if delta == 0:
        return SolveResult(0, PartialColoring(()))
    # Counting bound: node v sees indeg(v) + [v owns an edge] colors, so
    # the sum over all nodes is m + #owners >= m + 1 and some node sees at
    # least ceil((m+1)/n).  Capacities can only raise x*.
    lo = max(1, -(-(g.m + 1) // g.n))
    start = _default_orientation(g)
    best = _test_x(g, lo, start, loop_counts)
    if best is not None:
        return SolveResult(lo, orientation_to_owner(g, best))
    best = _test_x(g, delta, start, loop_counts) if lo < delta else None
    if best is None:
        return SolveResult(INFEASIBLE, None)
    lo, hi = lo + 1, delta
    while lo < hi:
        mid = (lo + hi) // 2
        # Warm start from the last successful witness; purely an optimization.
        cand = _test_x(g, mid, best, loop_counts)
        if cand is None:
            lo = mid + 1
        else:
            hi, best = mid, cand
    return SolveResult(hi, orientation_to_owner(g, best))


def minimum_star_coloring_flow(g: Graph) -> SolveResult:
    """Compute the optimal star partition of a simple connected graph.

    Probes the counting bound, then binary-searches above it; each probe
    costs one unit-capacity max flow.  Infeasibility surfaces as a failed
    probe at the loosest target.
    """
    return solve_flow_seeded(g, None)
