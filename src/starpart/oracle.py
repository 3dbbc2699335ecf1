"""Ground-truth brute force, closed-form optima, and instance generators.

The brute-force routines enumerate every complete coloring (equivalently,
every orientation for two-endpoint graphs) with numpy, so they stay exact
and usable up to the enumeration guard.  They are deliberately
independent of the solvers: values come from evaluating the objective
definition directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .coloring import INFEASIBLE, Orientation, PartialColoring, SolveResult, pseudoforest_heads
from .errors import InvalidSpec, TooLarge, UnsupportedKind
from .graph import Graph, GraphKind, build_graph, max_degree, other_end

_EDGE_GUARD = 22
_ASSIGNMENT_GUARD = 1 << 24
_CHUNK = 1 << 16

#: Fixed 7-node, 11-edge benchmark graph (optimum 3).
FIG2_EDGES = ((0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4), (4, 5))

#: Fixed 7-node, 10-edge benchmark graph on which target 2 is infeasible.
FIG6D_EDGES = ((0, 2), (2, 3), (0, 4), (2, 4), (3, 4), (2, 5), (2, 6), (5, 6), (0, 1), (1, 3))


def _bit_chunks(m: int):
    import numpy as np
    total = 1 << m
    shifts = np.arange(m, dtype=np.uint32)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.uint32)
        # bit j of the counter decides edge j: 0 = lower endpoint is the tail
        bits = ((idx[:, None] >> shifts) & 1).astype(np.float32)
        yield lo, bits


def _two_endpoint_tables(g: Graph, choice: list[int]):
    import numpy as np
    # T0[j, v] = 1 if bit 0 of choice edge j sends an in-edge to v; T1 likewise.
    n = g.n
    t0 = np.zeros((len(choice), n), dtype=np.float32)
    t1 = np.zeros((len(choice), n), dtype=np.float32)
    for j, e in enumerate(choice):
        lo, hi = g.edges[e]
        t0[j, hi] = 1.0
        t1[j, lo] = 1.0
    return t0, t1


def _scan_min(values, valid, offset, best):
    import numpy as np
    # Keep the first minimal index in counter order across chunks.
    if not valid.any():
        return best
    masked = np.where(valid, values, np.inf)
    pos = int(np.argmin(masked))
    val = float(masked[pos])
    if best is None or val < best[0]:
        return (val, offset + pos)
    return best


def _decode_two_endpoint(g: Graph, choice: list[int], counter: int) -> list[int | None]:
    owner: list[int | None] = [None] * g.m
    for j, e in enumerate(choice):
        lo, hi = g.edges[e]
        owner[e] = hi if (counter >> j) & 1 else lo
    for e, nodes in enumerate(g.edges):
        if len(nodes) == 1:
            owner[e] = nodes[0]
    return owner


def brute_force_xstar(g: Graph) -> SolveResult:
    """Exact optimum by enumerating all complete colorings.

    Works for every supported graph kind; the witness is the first
    minimal coloring in counter order.
    """
    if g.m > _EDGE_GUARD:
        raise TooLarge(f"{g.m} edges exceed the enumeration guard {_EDGE_GUARD}")
    if g.m == 0:
        return SolveResult(0, PartialColoring(()))
    if g.kind is GraphKind.LINEAR_HYPER:
        return _xstar_general(g)
    return _xstar_two_endpoint(g)


def _xstar_two_endpoint(g: Graph) -> SolveResult:
    import numpy as np
    n = g.n
    choice = [e for e, nodes in enumerate(g.edges) if len(nodes) == 2]
    has_loop = np.zeros(n, dtype=bool)
    for nodes in g.edges:
        if len(nodes) == 1:
            has_loop[nodes[0]] = True

    deg2 = np.zeros(n, dtype=np.float32)
    for e in choice:
        for v in g.edges[e]:
            deg2[v] += 1
    caps = np.asarray(g.capacities, dtype=np.float32)

    classes: list[tuple[int, int, list[int]]] = []
    if g.kind is GraphKind.MULTI:
        grouped: dict[tuple[int, int], list[int]] = {}
        for j, e in enumerate(choice):
            grouped.setdefault(g.edges[e], []).append(j)
        classes = [(pair[0], pair[1], js) for pair, js in grouped.items()]

    t0, t1 = _two_endpoint_tables(g, choice)
    best = None
    for offset, bits in _bit_chunks(len(choice)):
        in_cnt = bits @ t1 + (1.0 - bits) @ t0
        out_cnt = deg2 - in_cnt
        if g.kind is GraphKind.MULTI:
            xc = np.zeros_like(in_cnt)
            for a, b, js in classes:
                sub = bits[:, js]
                xc[:, a] += sub.max(axis=1)        # some copy owned by b, seen at a
                xc[:, b] += 1.0 - sub.min(axis=1)  # some copy owned by a, seen at b
            xc += out_cnt > 0
        else:
            owns = out_cnt > 0
            if has_loop.any():
                owns = owns | has_loop
            xc = in_cnt + owns
        valid = (xc <= caps).all(axis=1)
        best = _scan_min(xc.max(axis=1), valid, offset, best)
    if best is None:
        return SolveResult(INFEASIBLE, None)
    owner = _decode_two_endpoint(g, choice, best[1])
    return SolveResult(int(best[0]), PartialColoring(tuple(owner)))


def _xstar_general(g: Graph) -> SolveResult:
    import numpy as np
    radices = [len(nodes) for nodes in g.edges]
    total = 1
    for r in radices:
        total *= r
    if total > _ASSIGNMENT_GUARD:
        raise TooLarge(f"{total} owner assignments exceed the enumeration guard")
    strides = []
    acc = 1
    for r in radices:
        strides.append(acc)
        acc *= r
    caps = np.asarray(g.capacities, dtype=np.int32)

    # For each node v and potential owner u, the incident edges containing
    # both; v sees color u iff some of them is owned by u.
    indicators: list[tuple[int, list[tuple[int, int]]]] = []
    for v in range(g.n):
        owners: dict[int, list[tuple[int, int]]] = {}
        for e in g.incidence[v]:
            for pos, u in enumerate(g.edges[e]):
                owners.setdefault(u, []).append((e, pos))
        for u in sorted(owners):
            indicators.append((v, owners[u]))

    best = None
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = np.empty((hi - lo, g.m), dtype=np.int8)
        for e in range(g.m):
            digits[:, e] = (idx // strides[e]) % radices[e]
        xc = np.zeros((hi - lo, g.n), dtype=np.int32)
        for v, hits in indicators:
            ind = np.zeros(hi - lo, dtype=bool)
            for e, pos in hits:
                ind |= digits[:, e] == pos
            xc[:, v] += ind
        valid = (xc <= caps).all(axis=1)
        best = _scan_min(xc.max(axis=1).astype(np.float32), valid, lo, best)
    if best is None:
        return SolveResult(INFEASIBLE, None)
    counter = best[1]
    owner = []
    for e in range(g.m):
        owner.append(g.edges[e][(counter // strides[e]) % radices[e]])
    return SolveResult(int(best[0]), PartialColoring(tuple(owner)))


def brute_force_kstar(g: Graph) -> tuple[int | float, Orientation | None]:
    """Exact minimum over capacity-feasible orientations of the max indegree."""
    if g.m > _EDGE_GUARD:
        raise TooLarge(f"{g.m} edges exceed the enumeration guard {_EDGE_GUARD}")
    if any(len(nodes) != 2 for nodes in g.edges):
        raise UnsupportedKind("orientations need two-endpoint edges")
    if g.m == 0:
        return 0, Orientation(())
    import numpy as np
    caps = np.asarray(g.capacities, dtype=np.float32)
    t0, t1 = _two_endpoint_tables(g, list(range(g.m)))
    best = None
    for offset, bits in _bit_chunks(g.m):
        in_cnt = bits @ t1 + (1.0 - bits) @ t0
        valid = (in_cnt <= caps).all(axis=1)
        best = _scan_min(in_cnt.max(axis=1), valid, offset, best)
    if best is None:
        return INFEASIBLE, None
    counter = best[1]
    heads = []
    for e, (lo, hi) in enumerate(g.edges):
        heads.append(lo if (counter >> e) & 1 else hi)
    return int(best[0]), Orientation(tuple(heads))


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
    if any(g.capacities[v] < len(g.incidence[v]) for v in range(g.n)):
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
