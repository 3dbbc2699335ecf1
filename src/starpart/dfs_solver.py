"""Exact star-partition solver based on depth-first recoloring searches.

The solver maintains a partial coloring and, for a descending sequence of
targets x, hands each demanding node one incident edge at a time.  A
single search either colors a fresh edge directly or walks through nodes
that own an edge shared with the current node; on success the new edge is
pulled back along the walk so that only the root's owned-edge count
grows.  When a search fails, no target below the current one is
achievable and the previous target is optimal.

Runs in O(|E|^2) time on simple graphs and O(eta * |E|^2) on linear
hypergraphs with maximum edge size eta.  This module holds only the
search; multigraphs and self-loop graphs reach it through
``reductions.preprocess_and_solve``, which seeds the loop counts.
"""

from __future__ import annotations

from .coloring import INFEASIBLE, PartialColoring, SolveResult, _demand
from .errors import UnsupportedKind
from .graph import Graph, GraphKind


class SearchState:
    """Mutable state shared by the coloring passes of one solve.

    ``owner[e]`` is the partial coloring.  ``n_eq[v]`` counts the edges
    currently owned by v and ``n_none[v]`` the uncolored edges incident
    to v; both are kept exact at all times.  ``deg`` may exceed the plain
    incidence count when self-loop seeds are present, in which case
    ``n_eq`` starts at the per-node loop count.  ``edge_visits`` counts
    every edge touch made by the searches; ``dfs_edge_visits`` is filled
    per search when instrumentation is on.
    """

    __slots__ = (
        "graph",
        "owner",
        "n_eq",
        "n_none",
        "deg",
        "visited",
        "target_x",
        "edge_visits",
        "dfs_edge_visits",
    )

    def __init__(self, g: Graph, loop_counts: dict[int, int] | None = None):
        self.graph = g
        self.owner: list[int | None] = [None] * g.m
        self.deg = [len(inc) for inc in g.incidence]
        self.n_eq = [0] * g.n
        self.n_none = [len(inc) for inc in g.incidence]
        if loop_counts:
            for v, count in loop_counts.items():
                self.deg[v] += count
                self.n_eq[v] += count
        self.visited: set[int] = set()
        self.target_x = max(self.deg)
        self.edge_visits = 0
        self.dfs_edge_visits: dict[int, int] | None = None

    def demand(self, v: int, x: int) -> int:
        """Edges v must own at target x; 0 where owning none also fits."""
        return _demand(self.deg[v], self.graph.capacities[v], x, "star")


def _touch(state: SearchState, e: int) -> None:
    state.edge_visits += 1
    if state.dfs_edge_visits is not None:
        state.dfs_edge_visits[e] = state.dfs_edge_visits.get(e, 0) + 1


def _color_first_uncolored(state: SearchState, v: int) -> None:
    # Caller guarantees n_none[v] > 0; takes the lowest uncolored edge id.
    for e in state.graph.incidence[v]:
        _touch(state, e)
        if state.owner[e] is None:
            state.owner[e] = v
            state.n_eq[v] += 1
            for w in state.graph.edges[e]:
                state.n_none[w] -= 1
            return
    raise AssertionError("n_none count out of sync")


def color_one_edge(state: SearchState, v: int) -> bool:
    """Try to hand node v one more edge of its own color.

    Returns True iff exactly one previously uncolored edge got colored,
    with ``n_eq[v]`` up by one and ``n_eq[w]`` unchanged for every other
    node: each hop of the successful search path first gains an edge and
    then loses the edge it shares with its predecessor.  The caller seeds
    ``state.visited`` with the root before the top-level call.
    """
    if state.n_none[v]:
        _color_first_uncolored(state, v)
        return True
    g = state.graph
    # Explicit stack instead of recursion: frames are
    # [node, next incidence position, edge shared with the parent].
    stack: list[list[int]] = [[v, 0, -1]]
    while stack:
        frame = stack[-1]
        u = frame[0]
        inc = g.incidence[u]
        pushed = False
        while frame[1] < len(inc):
            e = inc[frame[1]]
            frame[1] += 1
            _touch(state, e)
            w = state.owner[e]
            if w is None or w == u or w in state.visited:
                continue
            state.visited.add(w)
            if state.n_none[w]:
                _color_first_uncolored(state, w)
                # Pull the new edge back: every node on the path hands the
                # edge it shares with its predecessor up the chain.
                child, shared = w, e
                for fr in reversed(stack):
                    state.owner[shared] = fr[0]
                    state.n_eq[child] -= 1
                    state.n_eq[fr[0]] += 1
                    child, shared = fr[0], fr[2]
                return True
            stack.append([w, 0, e])
            pushed = True
            break
        if not pushed:
            stack.pop()
    return False


def _run_search(state: SearchState, v: int, instrument: bool) -> bool:
    state.visited = {v}
    if instrument:
        state.dfs_edge_visits = {}
        before = list(state.n_eq)
    ok = color_one_edge(state, v)
    if instrument:
        after = state.n_eq
        for w in range(state.graph.n):
            expected = before[w] + (1 if (ok and w == v) else 0)
            assert after[w] == expected, (
                f"search rooted at {v} changed n_eq[{w}] from {before[w]} to {after[w]}"
            )
        for e, count in state.dfs_edge_visits.items():
            size = len(state.graph.edges[e])
            assert count <= size, f"edge {e} visited {count} > {size} times in one search"
        state.dfs_edge_visits = None
    return ok


def _meet_demands(state: SearchState, instrument: bool) -> bool:
    # Search from every node until it owns its demand at state.target_x;
    # False as soon as one search fails.
    x = state.target_x
    for v in range(state.graph.n):
        need = state.demand(v, x)
        while state.n_eq[v] < need:
            if not _run_search(state, v, instrument):
                return False
    return True


def ensure_feasibility(state: SearchState, instrument: bool = False) -> bool:
    """Meet the demands at the loosest target x = max degree.

    Afterwards every node whose capacity is below its degree owns at
    least degree - capacity + 1 incident edges; if that is impossible no
    valid coloring exists at all.
    """
    return _meet_demands(state, instrument)


def _finish(state: SearchState, value: int) -> SolveResult:
    # Any completion of the final partial coloring stays optimal; take the
    # lowest-id endpoint so output is deterministic.
    owner = list(state.owner)
    for e, o in enumerate(owner):
        if o is None:
            owner[e] = state.graph.edges[e][0]
    return SolveResult(value, PartialColoring(tuple(owner)))


def solve_with_state(
    g: Graph,
    loop_counts: dict[int, int] | None = None,
    instrument: bool = False,
) -> tuple[SolveResult, SearchState]:
    """Like :func:`minimum_star_coloring` but also returns the final state.

    Useful for inspecting the visit counters.  ``loop_counts`` seeds
    per-node self-loop degrees for the preprocessing path.
    """
    if g.kind not in (GraphKind.SIMPLE, GraphKind.LINEAR_HYPER):
        raise UnsupportedKind(
            f"kind {g.kind.value} needs preprocess_and_solve, not the core solver"
        )
    state = SearchState(g, loop_counts)
    delta = state.target_x
    if delta == 0:
        return SolveResult(0, PartialColoring(())), state
    if not ensure_feasibility(state, instrument):
        return SolveResult(INFEASIBLE, None), state
    for x in range(delta - 1, 0, -1):
        state.target_x = x
        if not _meet_demands(state, instrument):
            return _finish(state, x + 1), state
    return _finish(state, 1), state


def minimum_star_coloring(g: Graph, instrument: bool = False) -> SolveResult:
    """Compute the optimal star partition value and a witness coloring.

    Accepts simple graphs and linear hypergraphs; multigraphs and graphs
    with self-loops go through ``reductions.preprocess_and_solve``.  The
    witness is complete and achieves the returned value exactly.
    """
    result, _ = solve_with_state(g, instrument=instrument)
    return result
