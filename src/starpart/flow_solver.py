"""Faster exact solver: feasibility probes via unit-capacity maximum flow.

For a fixed target x, every node has a slackness: its outdegree headroom
over the number of edges it must own.  Nodes with negative slackness need
edges flipped toward them as tails; a flow network with one unit arc per
graph edge (in its current direction), source arcs into surplus nodes and
sink arcs out of deficient nodes decides in one max-flow computation
whether the deficits can all be repaired simultaneously.  Reversing the
graph edges that carry flow yields an orientation whose induced coloring
meets the target.

The same network decides min-max indegree with the demand deg - min(cap, k)
(Hakimi 1965).  A failed probe leaves a Hall set S, the nodes the residual
network does not reach from the source, whose demand exceeds the edges
meeting it; the next probe is the least target at which S is satisfiable,
so the first success is optimal.  After ceil(log2 Δ) + 1 such probes the
search bisects instead, keeping O(log Δ) probes.  Self-loops reach this
module as capacity-1 pendants (``reductions.preprocess_and_solve``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .coloring import (
    INFEASIBLE,
    Orientation,
    PartialColoring,
    SolveResult,
    _demand,
    orientation_to_owner,
)
from .errors import UnsupportedKind
from .graph import Graph, GraphKind, other_end


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


def slackness(g: Graph, orientation: Orientation, v: int, x: int) -> int:
    """Outdegree headroom of v against its demand at target x.

    Equals the outdegree itself when the demand is at most 1, otherwise
    outdegree minus demand; negative values count the edge flips v needs.
    """
    out = sum(1 for e in g.incidence[v] if orientation.head[e] != v)
    return out - _demand(len(g.incidence[v]), g.capacities[v], x, "star")


def _slacks(g: Graph, head: tuple[int, ...], x: int, objective: str) -> list[int]:
    # A node owns every edge at it that does not enter it.
    indeg = [0] * g.n
    for h in head:
        indeg[h] += 1
    return [
        len(inc) - indeg[v] - _demand(len(inc), cap, x, objective)
        for v, (inc, cap) in enumerate(zip(g.incidence, g.capacities))
    ]


def build_flow_network(g: Graph, orientation: Orientation, x: int) -> FlowNetwork:
    """Network whose max flow decides whether target x is achievable."""
    slacks = _slacks(g, orientation.head, x, "star")
    return _network_from_slacks(g, orientation.head, slacks)


def _network_from_slacks(g: Graph, head: tuple[int, ...], slacks: list[int]) -> FlowNetwork:
    arcs = [(other_end(nodes, h), h) for nodes, h in zip(g.edges, head)]
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
    g: Graph, x: int, start: Orientation, objective: str, hall: list[int]
) -> Orientation | None:
    """Probe target x; on failure fill ``hall`` with a violated node set."""
    for v, (inc, cap) in enumerate(zip(g.incidence, g.capacities)):
        if _demand(len(inc), cap, x, objective) > len(inc):
            # v cannot own enough edges even if it owns all of them.
            hall[:] = [v]
            return None
    slacks = _slacks(g, start.head, x, objective)
    required = sum(-s for s in slacks if s < 0)
    if required == 0:
        return start
    net = _network_from_slacks(g, start.head, slacks)
    flow = max_flow_unit(net)
    if flow.value < required:
        hall[:] = _hall_set(net, flow)
        return None
    heads = list(start.head)
    for e, f in enumerate(flow.edge_flow):
        if f:
            heads[e] = other_end(g.edges[e], heads[e])
    return Orientation(tuple(heads))


def _hall_set(net: FlowNetwork, flow: IntegralFlow) -> list[int]:
    """Nodes the source does not reach in the residual network of a max flow.

    Residual graph arcs run tail to head in the repaired orientation, so
    every edge meeting the unreached set S is owned inside S; no node of S
    keeps a surplus and an unsaturated sink lies in S, so S's demand
    exceeds its edges.
    """
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    n = net.n
    arcs = np.asarray(net.arcs, dtype=np.int32).reshape(-1, 2)
    flipped = np.asarray(flow.edge_flow, dtype=bool)
    surplus = np.flatnonzero(np.asarray(flow.source_flow) < np.asarray(net.source_mult))
    tails = np.concatenate([np.where(flipped, arcs[:, 1], arcs[:, 0]), np.full(len(surplus), n)])
    heads = np.concatenate([np.where(flipped, arcs[:, 0], arcs[:, 1]), surplus])
    ones = np.ones(len(tails), dtype=np.int8)
    residual = csr_array((ones, (tails, heads)), shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(residual, n, return_predecessors=False)] = True
    return np.flatnonzero(~reached[:n]).tolist()


def _next_target(g: Graph, hall: list[int], x: int, delta: int, objective: str) -> int | None:
    """Least target in (x, delta] at which the Hall set is satisfiable.

    Its nodes own at most the edges meeting it, and their demand only
    falls as the target grows.  None means the set is violated at delta,
    where every demand has settled: INFEASIBLE.
    """
    supply = len({e for v in hall for e in g.incidence[v]})

    def satisfiable(t: int) -> bool:
        need = sum(_demand(len(g.incidence[v]), g.capacities[v], t, objective) for v in hall)
        return need <= supply

    targets = range(x + 1, delta + 1)
    i = bisect_left(targets, True, key=satisfiable)
    return targets[i] if i < len(targets) else None


def test_x(g: Graph, x: int, start: Orientation) -> Orientation | None:
    """Exact feasibility probe for one target.

    Returns an orientation with non-negative slackness everywhere iff the
    max flow saturates every sink arc; the result does not depend on the
    starting orientation, only possibly on which witness is returned.
    """
    return _test_x(g, x, start, "star", [])


test_x.__test__ = False  # not a pytest case despite the name


def _default_orientation(g: Graph) -> Orientation:
    # Deterministic start: every edge points at its higher endpoint.
    return Orientation(tuple(nodes[1] for nodes in g.edges))


def solve_flow_seeded(g: Graph, objective: str = "star") -> SolveResult:
    """Exact optimum of ``objective`` on a simple graph.

    ``objective="ind"`` minimizes the max indegree instead of the star
    count; its witness coloring lets every tail own its edge.  It takes no
    seeds; the name stays because ``perfbench/tracer.py`` hooks it.
    """
    if g.kind is not GraphKind.SIMPLE:
        raise UnsupportedKind(
            "the flow solver handles simple graphs only; its hypergraph form is "
            "not implemented here, and multigraphs/self-loops go through "
            "preprocess_and_solve"
        )
    delta = max(len(inc) for inc in g.incidence)
    if delta == 0:
        return SolveResult(0, PartialColoring(()))
    # Counting bounds: the indegrees sum to m; node v sees indeg(v) + [v owns
    # an edge] colors, which sum to at least m + 1.
    lo = -(-g.m // g.n) if objective == "ind" else max(1, -(-(g.m + 1) // g.n))
    hi = delta + 1
    best = _default_orientation(g)
    hall: list[int] = []
    cuts = (delta - 1).bit_length() + 1
    while lo < hi:
        # Probe the bound of the last failed Hall set while cuts remain; once
        # they raised it too slowly, bisect, still raising lo past every
        # failed probe's bound.
        x = lo if cuts > 0 else (lo + hi) // 2
        cuts -= 1
        # Warm start from the last successful witness; purely an optimization.
        cand = _test_x(g, x, best, objective, hall)
        if cand is None:
            lo = _next_target(g, hall, x, delta, objective)
            if lo is None:
                return SolveResult(INFEASIBLE, None)
        else:
            hi, best = x, cand
    return SolveResult(hi, orientation_to_owner(g, best))


def minimum_star_coloring_flow(g: Graph) -> SolveResult:
    """Compute the optimal star partition of a simple connected graph.

    Probes the counting bound, then the bounds of failed probes' Hall
    sets; each probe costs one unit-capacity max flow.  Infeasibility
    surfaces as a Hall set violated at every target.
    """
    return solve_flow_seeded(g)
