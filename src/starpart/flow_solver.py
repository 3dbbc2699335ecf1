"""Faster exact solver: feasibility probes via unit-capacity maximum flow.

For a fixed target x, every node has a slackness: its outdegree headroom
over the number of edges it must own.  Nodes with negative slackness need
edges flipped toward them as tails; a flow network with one unit arc per
graph edge (in its current direction), source arcs into surplus nodes and
sink arcs out of deficient nodes decides in one max-flow computation
whether the deficits can all be repaired simultaneously.  Reversing the
graph edges that carry flow yields an orientation whose induced coloring
meets the target.  That network's residual graph is the orientation with
the saturated edges flipped, so ``_repair`` runs Dinic's algorithm on the
head array itself, with no network built, in O(|E| · min{|V|^(2/3),
|E|^(1/2)}) (Even–Tarjan 1975).

The same network decides min-max indegree with the demand deg - min(cap, k)
(Hakimi 1965).  A failed probe leaves a Hall set S, the nodes the surplus
nodes cannot reach along the repaired orientation, whose demand exceeds
the edges meeting it; the next probe is the least target at which S is
satisfiable, so the first success is optimal.  After ceil(log2 Δ) + 1 such probes the
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
    unreached: tuple[int, ...]
    """When the flow falls short, the nodes the surplus nodes cannot reach along tail→tip.

    Tips are heads with the flow's edges flipped; surplus nodes have a
    source bundle not full.  This S is the sink side of a minimum cut: every
    edge meeting S is owned inside S, no node of S keeps a surplus, and an
    unsaturated sink in S makes it a violated Hall set.  Empty if all sinks fill.
    """


def slackness(g: Graph, orientation: Orientation, v: int, x: int) -> int:
    """Outdegree headroom of v against its demand at target x.

    Equals the outdegree itself when the demand is at most 1, otherwise
    outdegree minus demand; negative values count the edge flips v needs.
    """
    out = sum(1 for e in g.incidence[v] if orientation.head[e] != v)
    return out - _demand(len(g.incidence[v]), g.capacities[v], x, "star")


def _slacks(g: Graph, head: tuple[int, ...], x: int, objective: str) -> tuple[list[int], list[int]]:
    """Each node's slack at target x and its indegree; it owns its edges that do not enter it."""
    indeg = [0] * g.n
    for h in head:
        indeg[h] += 1
    return [
        len(inc) - indeg[v] - _demand(len(inc), cap, x, objective)
        for v, (inc, cap) in enumerate(zip(g.incidence, g.capacities))
    ], indeg


def build_flow_network(g: Graph, orientation: Orientation, x: int) -> FlowNetwork:
    """Network whose max flow decides whether target x is achievable."""
    slacks, _ = _slacks(g, orientation.head, x, "star")
    return _network_from_slacks(g, orientation.head, slacks)


def _network_from_slacks(g: Graph, head: tuple[int, ...], slacks: list[int]) -> FlowNetwork:
    arcs = [(other_end(nodes, h), h) for nodes, h in zip(g.edges, head)]
    source = tuple(max(0, s) for s in slacks)
    sink = tuple(max(0, -s) for s in slacks)
    return FlowNetwork(g.n, tuple(arcs), source, sink)


def _repair(ends: list[int], incidence, tip: list[int], excess: list[int]) -> list[int] | None:
    """Unit-capacity Dinic on an orientation: flip ``tip`` until no deficit is left.

    Edge e joins the nodes whose xor is ``ends[e]`` and points from its tail
    to ``tip[e]``; ``incidence[v]`` lists the edges at v, and node v has
    surplus ``excess[v] > 0`` or deficit ``-excess[v]``.  Each phase levels
    the nodes by their distance along tail→tip to a deficit; each augmenting
    path steps one level closer, flips its edges and moves one unit of
    ``excess``.  Returns None once every deficit is filled, else the nodes
    the surplus nodes cannot reach along tail→tip.  The weighted LP's
    capacities are not unit, so it keeps ``lp._max_flow``.
    """
    n = len(incidence)
    while True:
        # Backwards from the deficits until a level holds a surplus.
        level = [0 if r < 0 else -1 for r in excess]
        frontier = [v for v in range(n) if not level[v]]
        if not frontier:
            return None
        roots, depth = [], 0
        while frontier and not roots:
            depth += 1
            below, frontier = frontier, []
            for u in below:
                for e in incidence[u]:
                    if tip[e] == u:
                        w = ends[e] ^ u
                        if level[w] < 0:
                            level[w] = depth
                            frontier.append(w)
            roots = [w for w in frontier if excess[w] > 0]
        if not roots:
            break
        # Blocking flow: a node that is full or a dead end leaves the levels.
        ptr = [0] * n
        for root in roots:
            path, u = [], root
            while excess[root] > 0:
                inc, k, want = incidence[u], ptr[u], level[u] - 1
                end = len(inc)
                while k < end and not ((w := tip[inc[k]]) != u and level[w] == want):
                    k += 1
                ptr[u] = k
                if k == end:
                    level[u] = -1
                    if not path:
                        break
                    u = ends[path.pop()] ^ u
                elif want:
                    path.append(inc[k])
                    u = w
                else:  # w is a deficit
                    for e in path + [inc[k]]:
                        tip[e] ^= ends[e]
                    excess[root] -= 1
                    excess[w] += 1
                    if not excess[w]:
                        level[w] = -1
                    path, u = [], root
    reached = [r > 0 for r in excess]
    queue = [v for v in range(n) if reached[v]]
    for u in queue:
        for e in incidence[u]:
            w = tip[e]
            if not reached[w]:
                reached[w] = True
                queue.append(w)
    return [v for v in range(n) if not reached[v]]


def max_flow_unit(net: FlowNetwork) -> IntegralFlow:
    """Maximum integral s-t flow from the unit kernel ``_repair`` on the arcs as an orientation.

    A node's excess is its source minus its sink multiplicity; a bundle's
    flow is its multiplicity minus what the kernel leaves of that excess,
    and an arc carries flow when the kernel flipped it.
    """
    incidence = [[] for _ in range(net.n)]
    for e, (u, v) in enumerate(net.arcs):
        incidence[u].append(e)
        incidence[v].append(e)
    tip = [v for _, v in net.arcs]
    excess = [a - b for a, b in zip(net.source_mult, net.sink_mult)]
    unreached = _repair([u ^ v for u, v in net.arcs], incidence, tip, excess)
    source_flow = tuple(a - max(0, r) for a, r in zip(net.source_mult, excess))
    sink_flow = tuple(b - max(0, -r) for b, r in zip(net.sink_mult, excess))
    edge_flow = tuple(int(t != v) for t, (_, v) in zip(tip, net.arcs))
    return IntegralFlow(edge_flow, source_flow, sink_flow, sum(sink_flow), tuple(unreached or ()))


def _test_x(
    g: Graph, x: int, start: Orientation, objective: str, hall: list[int]
) -> Orientation | None:
    """Probe target x; on failure fill ``hall`` with a violated node set.

    Two Hall sets need no max flow: one node whose demand exceeds its
    degree, and the counting case V itself, whose demand exceeds the m
    edges exactly when the slacks, which sum to m - Σ demand, sum below 0.
    """
    slacks, indeg = _slacks(g, start.head, x, objective)
    for v, (s, d) in enumerate(zip(slacks, indeg)):
        if s < -d:
            # demand > degree: v cannot own enough edges even if it owns all of them
            hall[:] = [v]
            return None
    if sum(slacks) < 0:
        hall[:] = range(g.n)
        return None
    if all(s >= 0 for s in slacks):
        return start
    tip = list(start.head)
    unreached = _repair([a ^ b for a, b in g.edges], g.incidence, tip, slacks)
    if unreached is not None:
        hall[:] = unreached
        return None
    return Orientation(tuple(tip))


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
    # Each edge enters the endpoint with fewer heads so far: few nodes start in deficit.
    indeg, heads = [0] * g.n, []
    for a, b in g.edges:
        heads.append(a if indeg[a] < indeg[b] else b)
        indeg[heads[-1]] += 1
    return Orientation(tuple(heads))


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
