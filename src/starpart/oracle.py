"""Ground-truth brute force, closed-form optima, and instance generators.

The three brute-force oracles share one numpy enumerator, ``_least_owner``,
that walks every owner tuple (one owner per edge) in mixed-radix counter
order: edge 0 is the fastest digit and digit d of edge e makes
``g.edges[e][d]`` its owner, so a pair's digit 1 is its higher endpoint
and a self-loop has one digit.  Each tuple is scored from the objective
definition, the distinct owners a node sees (star) or the owners of its
in-edges (ind), each charged its weight, and the first tuple in counter
order with the least max load that fits the capacities is the witness.
Loads are float32 when the weights sum below 2**24 and float64 otherwise,
so they are exact.  Guards: 22 edges for ``brute_force_xstar`` and
``brute_force_kstar``, 2**24 owner tuples for hypergraphs, 24 edges for
``brute_force_weighted``.  The oracles share no code with the solvers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import prod

from .coloring import INFEASIBLE, Orientation, PartialColoring, SolveResult, pseudoforest_heads
from .errors import InvalidSpec, TooLarge, UnsupportedKind
from .graph import Graph, GraphKind, build_graph, capacities_bind, max_degree, other_end
from .weighted import _WEIGHTED_GUARD, _check_pairs

_EDGE_GUARD = 22
_ASSIGNMENT_GUARD = 1 << 24
_BLOCK = 1 << 16

#: Fixed 7-node, 11-edge benchmark graph (optimum 3).
FIG2_EDGES = ((0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4), (4, 5))

#: Fixed 7-node, 10-edge benchmark graph on which target 2 is infeasible.
FIG6D_EDGES = ((0, 2), (2, 3), (0, 4), (2, 4), (3, 4), (2, 5), (2, 6), (5, 6), (0, 1), (1, 3))


def _least_owner(g: Graph, objective: str, weights=None, capacities=None):
    """First owner tuple in counter order with the least max node load.

    Digit d of edge e makes ``g.edges[e][d]`` its owner, and edge 0 is the
    fastest digit.  A node's load is the weight sum of the distinct owners
    it sees (star) or of the owners of its in-edges (ind); ``weights=None``
    counts each owner 1.  Returns ``(value, owners)``, or None when no
    tuple keeps every load within ``capacities``.
    """
    radices = [len(nodes) for nodes in g.edges]
    total = prod(radices)
    if total > _ASSIGNMENT_GUARD:
        raise TooLarge(f"{total} owner assignments exceed the enumeration guard")
    import numpy as np
    w = [1] * g.n if weights is None else weights
    dtype = np.float32 if sum(w) < 1 << 24 else np.float64
    # Column c is one (edge, owner) choice.  A term (v, u) charges v the
    # weight of u once any of its columns is set: for star, v sees owner u;
    # for ind, v heads an edge that u owns, one term per such column.
    star = objective == "star"
    choices = [(nodes, u) for nodes in g.edges for u in nodes]
    terms: dict[tuple[int, ...], int] = {}
    cells = [(c, terms.setdefault((v, u) if star else (v, u, c), len(terms)))
             for c, (nodes, u) in enumerate(choices) for v in nodes if star or v != u]
    hit = np.zeros((len(choices), len(terms)), dtype=np.uint8)
    hit[tuple(zip(*cells))] = 1
    gain = np.zeros((g.n, len(terms)), dtype=dtype)
    for (v, u, *_), t in terms.items():
        gain[v, t] = w[u]
    start = list(accumulate(radices, initial=0))

    def stack(first: int, last: int):
        # Hit counts of every digit tuple of edges first..last-1, counter order.
        table = np.zeros((1, len(terms)), dtype=np.uint8)
        for e in range(first, last):
            table = (hit[start[e]:start[e + 1], None] + table).reshape(-1, len(terms))
        return table

    split = 0
    while split < g.m and prod(radices[:split + 1]) <= _BLOCK:
        split += 1
    low = stack(0, split)  # one block of tuples; each row of stack(split, m) shifts it
    caps = None if capacities is None else np.asarray(capacities, dtype=dtype)[:, None]
    best = None
    for b, row in enumerate(stack(split, g.m)):
        loads = gain @ ((low + row) > 0).astype(dtype).T  # node x tuple
        peak = loads.max(axis=0, initial=0)
        if caps is not None:
            peak[(loads > caps).any(axis=0)] = np.inf
        i = int(np.argmin(peak))
        if peak[i] < np.inf and (best is None or peak[i] < best[0]):
            best = (peak[i], b * len(low) + i)
    if best is None:
        return None
    digits = np.unravel_index(best[1], radices, order="F")  # edge 0 fastest
    return int(best[0]), tuple(nodes[d] for nodes, d in zip(g.edges, digits))


def brute_force_xstar(g: Graph) -> SolveResult:
    """Exact optimum by enumerating all complete colorings.

    Works for every supported graph kind; the witness is the first
    minimal coloring in counter order.
    """
    if g.m > _EDGE_GUARD:
        raise TooLarge(f"{g.m} edges exceed the enumeration guard {_EDGE_GUARD}")
    found = _least_owner(g, "star", capacities=g.capacities)
    if found is None:
        return SolveResult(INFEASIBLE, None)
    return SolveResult(found[0], PartialColoring(found[1]))


def brute_force_kstar(g: Graph) -> tuple[int | float, Orientation | None]:
    """Exact minimum over capacity-feasible orientations of the max indegree."""
    if g.m > _EDGE_GUARD:
        raise TooLarge(f"{g.m} edges exceed the enumeration guard {_EDGE_GUARD}")
    if any(len(nodes) != 2 for nodes in g.edges):
        raise UnsupportedKind("orientations need two-endpoint edges")
    found = _least_owner(g, "ind", capacities=g.capacities)
    if found is None:
        return INFEASIBLE, None
    return found[0], Orientation(tuple(map(other_end, g.edges, found[1])))


def brute_force_weighted(g: Graph, objective: str) -> tuple[int, Orientation]:
    """Exact minimum of the chosen objective over all orientations.

    ``objective`` is "ind" or "star", and nodes weigh ``g.weights``.  The
    weighted problems carry no capacities, so every orientation is
    admissible.
    """
    _check_pairs(g)
    if objective not in ("ind", "star"):
        raise ValueError(f"unknown objective {objective!r}")
    if g.m > _WEIGHTED_GUARD:
        raise TooLarge(f"{g.m} edges exceed the enumeration guard {_WEIGHTED_GUARD}")
    value, owners = _least_owner(g, objective, g.weights)
    return value, Orientation(tuple(map(other_end, g.edges, owners)))


def _bipartition(g: Graph) -> tuple[list[int], list[int]] | None:
    side = [-1] * g.n
    side[0] = 0
    queue = [0]
    for v in queue:
        for e in g.incidence[v]:
            for w in g.edges[e]:
                if w == v:
                    continue
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return [v for v in range(g.n) if side[v] == 0], [v for v in range(g.n) if side[v] == 1]


def _knn_witness(g: Graph, left: list[int], right: list[int]) -> PartialColoring:
    # Half of each side points into the opposite half; the mix keeps every
    # node at ceil(n/2) + 1 distinct colors.
    n = len(left)
    half = n // 2
    rank_l = {v: i for i, v in enumerate(sorted(left), start=1)}
    rank_r = {v: i for i, v in enumerate(sorted(right), start=1)}
    in_left = set(left)
    owner: list[int | None] = [None] * g.m
    for e, (a, b) in enumerate(g.edges):
        l, r = (a, b) if a in in_left else (b, a)
        i, j = rank_l[l], rank_r[r]
        if i <= half:
            to_right = j <= half
        else:
            to_right = j > half
        owner[e] = l if to_right else r
    return PartialColoring(tuple(owner))


def closed_form(g: Graph) -> tuple[int, PartialColoring] | None:
    """Optimum plus constructive witness for the recognized graph families.

    Covers edgeless graphs, cycle-free graphs of diameter at most two
    (value 1), pseudoforests (value 2 when the previous case does not
    apply), and balanced complete bipartite graphs K_{n,n} (value
    ceil(n/2) + 1).  Only applies when no capacity binds; returns None
    for everything else.
    """
    if g.kind is not GraphKind.SIMPLE:
        return None
    if capacities_bind(g):
        return None
    if g.m == 0:
        return 0, PartialColoring(())
    if g.m == g.n - 1 and max_degree(g) == g.n - 1:  # a tree of diameter at most 2
        centers = [v for v in range(g.n) if len(g.incidence[v]) >= 2]
        c = centers[0] if centers else g.edges[0][0]
        return 1, PartialColoring(tuple(c for _ in range(g.m)))
    if g.m <= g.n:
        heads = pseudoforest_heads(dict(enumerate(g.edges)))
        owner = tuple(other_end(edge, heads[e]) for e, edge in enumerate(g.edges))
        return 2, PartialColoring(owner)
    parts = _bipartition(g)
    if parts is not None:
        left, right = parts
        n = len(left)
        if n == len(right) and n > 1 and g.m == n * n:
            return -(-n // 2) + 1, _knn_witness(g, left, right)
    return None


@dataclass(frozen=True)
class GeneratorSpec:
    """Description of one generated instance; deterministic per seed."""

    family: str
    n: int | None = None
    m: int | None = None
    max_edge_size: int = 3
    seed: int = 0
    cap_rule: str | None = None  # None (defaults) or "random"


def _random_connected_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    if m < n - 1 or m > n * (n - 1) // 2:
        raise InvalidSpec(f"no connected simple graph with n={n}, m={m}")
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges = {tuple(sorted(e)) for e in edges}
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add(tuple(sorted((a, b))))
    return sorted(edges)


def _random_linear_hyper(n: int, m: int, max_size: int, rng: random.Random):
    if max_size < 2:
        raise InvalidSpec("max_edge_size must be at least 2")
    # A random spanning hypertree: each edge joins one covered node to s new
    # ones, widest first.  Narrowing an edge (s -> s-1, plus a pair) frees
    # s-1 node pairs for the m - tree further edges, which are unused pairs.
    q, r = divmod(n - 1, min(max_size, n) - 1)
    sizes = [min(max_size, n) - 1] * q + [r] * (r > 0)
    free = n * (n - 1) // 2 - sum(s * (s + 1) // 2 for s in sizes)
    i = 0
    while m - len(sizes) > free and sizes[i] > 1:
        free += sizes[i] - 1
        sizes[i] -= 1
        sizes.append(1)
        i += sizes[i] == 1
    if not len(sizes) <= m <= len(sizes) + free:
        raise InvalidSpec(f"no connected linear hypergraph with n={n}, m={m}, "
                          f"max_edge_size={max_size}")
    order = list(range(n))
    rng.shuffle(order)
    edges, covered = [], 1
    for s in sizes:
        edges.append(tuple(sorted([order[rng.randrange(covered)]] + order[covered:covered + s])))
        covered += s
    used = {pair for e in edges for pair in combinations(e, 2)}
    while len(edges) < m:
        pair = tuple(sorted(rng.sample(range(n), 2)))
        if pair not in used:
            used.add(pair)
            edges.append(pair)
    rng.shuffle(edges)
    return edges


def generate(spec: GeneratorSpec) -> Graph:
    """Build the instance a spec describes; family invariants are re-checked."""
    rng = random.Random(spec.seed)
    family = spec.family.lower()
    kind = GraphKind.SIMPLE
    if family == "knn":
        n = _require_n(spec, 1)
        edges = [(i, n + j) for i in range(n) for j in range(n)]
        nodes = 2 * n
    elif family == "path":
        nodes = _require_n(spec, 1)
        edges = [(i, i + 1) for i in range(nodes - 1)]
    elif family == "cycle":
        nodes = _require_n(spec, 3)
        edges = [(i, (i + 1) % nodes) for i in range(nodes)]
    elif family == "star":
        n = _require_n(spec, 1)
        nodes = n + 1
        edges = [(0, i) for i in range(1, nodes)]
    elif family == "pseudoforest":
        nodes = _require_n(spec, 2)
        edges = _random_connected_edges(nodes, nodes - 1, rng)
        if nodes >= 3 and rng.random() < 0.7:
            extra = None
            present = set(edges)
            for _ in range(100):
                a, b = rng.randrange(nodes), rng.randrange(nodes)
                cand = tuple(sorted((a, b)))
                if a != b and cand not in present:
                    extra = cand
                    break
            if extra:
                edges.append(extra)
    elif family == "random":
        nodes = _require_n(spec, 1)
        m = spec.m if spec.m is not None else max(nodes - 1, 1)
        edges = _random_connected_edges(nodes, m, rng) if nodes > 1 else []
    elif family == "hyper":
        nodes = _require_n(spec, 2)
        m = spec.m if spec.m is not None else nodes - 1
        edges = _random_linear_hyper(nodes, m, spec.max_edge_size, rng)
        kind = GraphKind.LINEAR_HYPER
    elif family == "fig2":
        nodes, edges = 7, list(FIG2_EDGES)
    elif family == "fig6d":
        nodes, edges = 7, list(FIG6D_EDGES)
    else:
        raise InvalidSpec(f"unknown family {spec.family!r}")

    g = build_graph(nodes, edges, kind)
    if spec.cap_rule is None:
        return g
    if spec.cap_rule == "random":
        caps = [rng.randint(0, len(g.incidence[v])) for v in range(g.n)]
        return build_graph(nodes, edges, kind, capacities=caps)
    raise InvalidSpec(f"unknown capacity rule {spec.cap_rule!r}")


def _require_n(spec: GeneratorSpec, minimum: int) -> int:
    if spec.n is None or spec.n < minimum:
        raise InvalidSpec(f"family {spec.family!r} needs n >= {minimum}")
    return spec.n
