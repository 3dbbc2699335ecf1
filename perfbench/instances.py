"""Seeded instance generators for the benchmark, independent of starpart.

Every generator takes a ``random.Random`` and returns plain Python data,
so a change to the program's own generators can never change a workload.
Node ``i`` is written to the instance file as ``v<i>``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass
class Instance:
    """One generated input: its edges plus optional capacities and weights."""

    kind: str  # "simple" or "hyper"
    n: int
    edges: list[tuple[int, ...]]
    caps: list[int] | None = None
    weights: list[int] | None = None
    # Known by construction (planted_max) or computed by the checks (optimum).
    planted_max: int | None = None
    optimum: int | None = None

    @property
    def m(self) -> int:
        return len(self.edges)


def name(v: int) -> str:
    return f"v{v}"


def format_instance(inst: Instance) -> str:
    lines = [f"kind {inst.kind}"]
    for v in range(inst.n):
        attrs = ""
        if inst.caps is not None:
            attrs += f" cap={inst.caps[v]}"
        if inst.weights is not None:
            attrs += f" w={inst.weights[v]}"
        lines.append(f"node {name(v)}{attrs}")
    for e in inst.edges:
        lines.append("edge " + " ".join(name(v) for v in e))
    return "\n".join(lines) + "\n"


def random_connected_simple(
    rng: random.Random, n: int, m: int, max_degree: int
) -> list[tuple[int, int]]:
    """Random connected simple graph whose maximum degree is exactly max_degree.

    A random spanning tree over a shuffled order, then the first node of
    the order is filled up to max_degree, then random pairs are added; no
    edge may take a node past max_degree.  The flow solver's binary search
    runs over 1..max degree, so a fixed maximum degree gives every seed
    the same sequence of probes.
    """
    if not n - 1 <= m <= n * max_degree // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}, max degree {max_degree}")
    degree = [0] * n
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> bool:
        e = (min(a, b), max(a, b))
        if a == b or e in edges or degree[a] >= max_degree or degree[b] >= max_degree:
            return False
        edges.add(e)
        degree[a] += 1
        degree[b] += 1
        return True

    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        while not add(order[i], order[rng.randrange(i)]):
            pass
    while degree[order[0]] < max_degree:
        add(order[0], rng.randrange(n))
    while len(edges) < m:
        add(rng.randrange(n), rng.randrange(n))
    out = sorted(edges)
    rng.shuffle(out)
    return out


def planted_capacities(rng: random.Random, n: int, edges, max_slack: int) -> tuple[list[int], int]:
    """Capacities that a random orientation meets: its indegree plus a small slack.

    Returns the capacities and the planted orientation's maximum indegree,
    which bounds the optimum from above.
    """
    indeg = [0] * n
    for a, b in edges:
        indeg[a if rng.random() < 0.5 else b] += 1
    caps = [d + rng.randint(0, max_slack) for d in indeg]
    return caps, max(indeg)


def random_regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """Connected simple d-regular graph from the configuration model, by rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(edges) == n * d // 2 and all(a != b for a, b in edges) and _connected(n, edges):
            out = sorted(edges)
            rng.shuffle(out)
            return out


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def random_linear_hypergraph(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """Connected linear hypergraph with edges of size 2 or 3.

    A random spanning tree of pairs makes it connected; further edges are
    drawn at random and kept only when none of their node pairs is used
    yet, which is exactly linearity.
    """
    order = list(range(n))
    rng.shuffle(order)
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, ...]] = []
    for i in range(1, n):
        a, b = sorted((order[i], order[rng.randrange(i)]))
        used.add((a, b))
        edges.append((a, b))
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > 200 * m:
            raise ValueError(f"could not place {m} linear edges on {n} nodes")
        e = tuple(sorted(rng.sample(range(n), rng.choice((2, 3)))))
        pairs = list(combinations(e, 2))
        if any(p in used for p in pairs):
            continue
        used.update(pairs)
        edges.append(e)
    rng.shuffle(edges)
    return edges


def _rng(seed: int, salt: str) -> random.Random:
    # One stream per workload, so workloads on the same seed are unrelated.
    return random.Random(f"{salt}:{seed}")


def star_sparse(seed: int) -> list[Instance]:
    rng = _rng(seed, "star-sparse")
    return [Instance("simple", 20000, random_connected_simple(rng, 20000, 60000, max_degree=16))]


def ind_dense_cap(seed: int) -> list[Instance]:
    rng = _rng(seed, "ind-dense-cap")
    edges = random_connected_simple(rng, 2000, 60000, max_degree=80)
    caps, planted = planted_capacities(rng, 2000, edges, max_slack=2)
    return [Instance("simple", 2000, edges, caps=caps, planted_max=planted)]


def hyper_dfs(seed: int) -> list[Instance]:
    rng = _rng(seed, "hyper-dfs")
    return [Instance("hyper", 300, random_linear_hypergraph(rng, 300, 3000))]


def approx_wind(seed: int) -> list[Instance]:
    # Regular graphs with weights 1..2 keep the simplex work close to equal
    # across seeds (pivot counts vary by about 3%), so the workload's time
    # does not hinge on which five graphs a seed draws.
    rng = _rng(seed, "approx-wind")
    out = []
    for _ in range(5):
        edges = random_regular(rng, 20, 4)
        weights = [rng.randint(1, 2) for _ in range(20)]
        out.append(Instance("simple", 20, edges, weights=weights))
    return out


GENERATORS = {
    "star-sparse": star_sparse,
    "ind-dense-cap": ind_dense_cap,
    "hyper-dfs": hyper_dfs,
    "approx-wind": approx_wind,
}
