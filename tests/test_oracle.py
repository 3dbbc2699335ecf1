import itertools
import random
import sys
import time

import pytest

from starpart import (
    GeneratorSpec,
    GraphKind,
    INFEASIBLE,
    Orientation,
    brute_force_kstar,
    brute_force_weighted,
    brute_force_xstar,
    build_graph,
    closed_form,
    generate,
    is_valid,
    max_edge_size,
    node_loads,
    star_partition_value,
)
from starpart.errors import Disconnected, InvalidSpec, TooLarge, UnsupportedKind
from starpart.graph import Graph, capacities_bind, other_end
from starpart.oracle import _least_owner
from conftest import connected_edge_sets


def test_brute_force_fig2(fig2):
    assert brute_force_xstar(fig2).value == 3


def test_brute_force_triangle(triangle):
    res = brute_force_xstar(triangle)
    assert res.value == 2
    assert is_valid(triangle, res.coloring)
    assert star_partition_value(triangle, res.coloring) == 2


def test_brute_force_infeasible_edge():
    g = build_graph(2, [(0, 1)], capacities=[0, 0])
    assert brute_force_xstar(g).value == INFEASIBLE


def test_brute_force_guard():
    path = build_graph(24, [(i, i + 1) for i in range(23)])
    with pytest.raises(TooLarge):
        brute_force_xstar(path)
    with pytest.raises(TooLarge):
        brute_force_kstar(path)


def test_brute_force_hypergraph_tuple_guard(monkeypatch):
    g = generate(GeneratorSpec("hyper", n=33, m=16, max_edge_size=3, seed=1))
    assert [len(nodes) for nodes in g.edges] == [3] * 16  # 3**16 owner tuples
    monkeypatch.setitem(sys.modules, "numpy", None)  # enumerating would import numpy
    with pytest.raises(TooLarge, match="43046721 owner assignments"):
        brute_force_xstar(g)


def _first_least(g, objective, weights=None, capacities=None):
    # The definitions, enumerated in counter order: edge 0 is the fastest
    # digit and digit d makes g.edges[e][d] the owner.
    best = None
    for digits in itertools.product(*(range(len(nodes)) for nodes in reversed(g.edges))):
        owners = tuple(nodes[d] for nodes, d in zip(g.edges, reversed(digits)))
        loads = node_loads(g, owners, objective, weights)
        if capacities is not None and any(x > c for x, c in zip(loads, capacities)):
            continue
        value = max(loads, default=0)
        if best is None or value < best[0]:
            best = (value, owners)
    return best


def _small_graph(rng, kind):
    n = rng.randint(2, 6)
    while kind is GraphKind.LINEAR_HYPER:
        try:
            return generate(GeneratorSpec("hyper", n=n + 1, m=rng.randint(1, 5), max_edge_size=3,
                                          seed=rng.randrange(10**6), cap_rule=rng.choice([None, "random"])))
        except InvalidSpec:
            continue
    edges = [(rng.randrange(i), i) for i in range(1, n)]  # a spanning tree
    for _ in range(rng.randint(0, 7 - len(edges))):
        a, b = sorted(rng.sample(range(n), 2))
        if kind is GraphKind.WITH_SELF_LOOPS:
            edges.append((a, a))  # repeated loops included
        elif kind is GraphKind.MULTI or (a, b) not in edges:
            edges.append((a, b))
    g = build_graph(n, edges, kind)
    if rng.random() < 0.5:
        g = build_graph(n, edges, kind, capacities=[rng.randint(0, len(inc)) for inc in g.incidence])
    return g


def test_oracles_match_the_definitions_in_counter_order():
    rng = random.Random(2024)
    seen = set()
    for trial in range(160):
        kind = list(GraphKind)[trial % 4]
        g = _small_graph(rng, kind)
        assert g.m <= 7
        capped = capacities_bind(g)
        seen.add((kind, capped))
        expected = _first_least(g, "star", capacities=g.capacities)
        res = brute_force_xstar(g)
        if expected is None:
            assert res.value == INFEASIBLE and res.coloring is None
        else:
            assert (res.value, res.coloring.owner) == expected
        if kind in (GraphKind.SIMPLE, GraphKind.MULTI):
            expected = _first_least(g, "ind", capacities=g.capacities)
            value, orientation = brute_force_kstar(g)
            if expected is None:
                assert value == INFEASIBLE and orientation is None
            else:
                assert (value, orientation.head) == (expected[0], tuple(map(other_end, g.edges, expected[1])))
        if kind is GraphKind.SIMPLE and not capped:
            for weights in ([1] * g.n, [rng.randint(0, 9) for _ in range(g.n)]):
                for objective in ("ind", "star"):
                    value, owners = _first_least(g, objective, weights)
                    assert _least_owner(g, objective, weights) == (value, owners)
                    if min(weights) > 0:  # a graph's weights are positive
                        weighted = build_graph(g.n, g.edges, weights=weights)
                        heads = tuple(map(other_end, g.edges, owners))
                        assert brute_force_weighted(weighted, objective) == (value, Orientation(heads))
    assert len(seen) == 8  # every kind, with and without binding capacities


def test_brute_force_hypergraph_witnesses():
    rng = random.Random(139)
    solved = 0
    for trial in range(40):
        try:
            g = generate(GeneratorSpec("hyper", n=rng.randint(3, 7), m=rng.randint(2, 5),
                                       max_edge_size=3, seed=500 + trial))
        except Exception:
            continue
        res = brute_force_xstar(g)
        assert res.feasible
        assert is_valid(g, res.coloring)
        assert star_partition_value(g, res.coloring) == res.value
        solved += 1
    assert solved >= 20


def test_brute_force_hypergraph_infeasible():
    g = build_graph(
        4,
        [(0, 1, 2), (2, 3)],
        GraphKind.LINEAR_HYPER,
        capacities=[1, 1, 0, 1],
    )
    assert brute_force_xstar(g).value == INFEASIBLE


def test_kstar_examples(triangle):
    assert brute_force_kstar(triangle)[0] == 1
    k33 = generate(GeneratorSpec("knn", n=3))
    assert brute_force_kstar(k33)[0] == 2
    p3 = build_graph(3, [(0, 1), (1, 2)], capacities=[0, 0, 0])
    value, orientation = brute_force_kstar(p3)
    assert value == INFEASIBLE and orientation is None


def test_kstar_witness_respects_capacities():
    rng = random.Random(61)
    for trial in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=trial, cap_rule="random"))
        value, orientation = brute_force_kstar(g)
        if value == INFEASIBLE:
            continue
        indeg = [0] * n
        for h in orientation.head:
            indeg[h] += 1
        assert max(indeg) == value
        assert all(indeg[v] <= g.capacities[v] for v in range(n))


def test_kstar_rejects_loops():
    g = build_graph(2, [(0, 1), (0, 0)], GraphKind.WITH_SELF_LOOPS)
    with pytest.raises(UnsupportedKind):
        brute_force_kstar(g)


def test_closed_form_complete_bipartite():
    for n, expected in [(2, 2), (3, 3), (4, 3), (5, 4)]:
        g = generate(GeneratorSpec("knn", n=n))
        value, witness = closed_form(g)
        assert value == expected
        assert is_valid(g, witness)
        assert star_partition_value(g, witness) == expected


def test_closed_form_star_is_one():
    for leaves in (1, 2, 5, 9):
        g = generate(GeneratorSpec("star", n=leaves))
        value, witness = closed_form(g)
        assert value == 1
        assert star_partition_value(g, witness) == 1


def test_closed_form_unicyclic():
    rng = random.Random(67)
    seen_cycle = 0
    for trial in range(30):
        g = generate(GeneratorSpec("pseudoforest", n=rng.randint(3, 8), seed=trial))
        got = closed_form(g)
        assert got is not None
        value, witness = got
        assert star_partition_value(g, witness) == value
        assert is_valid(g, witness)
        if g.m <= 18:
            assert brute_force_xstar(g).value == value
        if g.m == g.n:
            seen_cycle += 1
            assert value == 2
    assert seen_cycle > 3


def test_closed_form_linear_on_large_trees():
    rng = random.Random(8000)
    tree = build_graph(8000, [(rng.randrange(i), i) for i in range(1, 8000)])
    star = generate(GeneratorSpec("star", n=7999))
    for g, expected in ((tree, 2), (star, 1)):
        t0 = time.perf_counter()
        value, witness = closed_form(g)
        assert time.perf_counter() - t0 < 2.0
        assert value == expected
        assert is_valid(g, witness)


def test_closed_form_assumes_connectivity():
    # the path 1-0-2 plus an isolated node 3, built past build_graph's check
    edges = ((0, 1), (0, 2))
    with pytest.raises(Disconnected):
        build_graph(4, edges)
    g = Graph(GraphKind.SIMPLE, 4, edges, (4,) * 4, (1,) * 4, ((0, 1), (0,), (1,), ()))
    value, witness = closed_form(g)
    assert value == 2 and is_valid(g, witness)
    assert brute_force_xstar(g).value == 1


def test_closed_form_declines_hard_cases(triangle, fig2):
    assert closed_form(fig2) is None  # not in any covered family
    capped = build_graph(3, triangle.edges, capacities=[1, 2, 2])
    assert closed_form(capped) is None


def test_closed_form_matches_oracle_when_present():
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            g = build_graph(n, edges)
            got = closed_form(g)
            if got is None:
                continue
            value, witness = got
            assert value == brute_force_xstar(g).value
            if g.m:
                assert is_valid(g, witness)
                assert star_partition_value(g, witness) == value


def test_value_one_iff_acyclic_diameter_two():
    # both directions of the characterization, exhaustively on small graphs
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            g = build_graph(n, edges)
            acyclic = g.m == n - 1
            diam2 = _diameter(g) <= 2
            assert (brute_force_xstar(g).value <= 1) == (acyclic and diam2)


def _diameter(g):
    worst = 0
    for src in range(g.n):
        dist = {src: 0}
        queue = [src]
        for v in queue:
            for e in g.incidence[v]:
                for w in g.edges[e]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
        worst = max(worst, max(dist.values()))
    return worst


def test_generate_families():
    k33 = generate(GeneratorSpec("knn", n=3))
    assert k33.n == 6 and k33.m == 9
    fig2 = generate(GeneratorSpec("fig2"))
    assert (fig2.n, fig2.m) == (7, 11)
    fig6d = generate(GeneratorSpec("fig6d"))
    assert (fig6d.n, fig6d.m) == (7, 10)
    path = generate(GeneratorSpec("path", n=5))
    assert path.m == 4
    cycle = generate(GeneratorSpec("cycle", n=5))
    assert cycle.m == 5


def test_generate_deterministic_and_random_families():
    a = generate(GeneratorSpec("random", n=7, m=10, seed=3))
    b = generate(GeneratorSpec("random", n=7, m=10, seed=3))
    assert a.edges == b.edges

    for seed in range(8):
        pf = generate(GeneratorSpec("pseudoforest", n=6, seed=seed))
        assert pf.m <= pf.n

    for seed in range(8):
        hyper = generate(GeneratorSpec("hyper", n=6, m=4, seed=seed))
        assert hyper.kind is GraphKind.LINEAR_HYPER
        assert max_edge_size(hyper) <= 3


def test_generate_random_capacities_bounded_by_degree():
    g = generate(GeneratorSpec("random", n=8, m=12, seed=9, cap_rule="random"))
    assert all(0 <= g.capacities[v] <= len(g.incidence[v]) for v in range(g.n))


def test_generate_large_linear_hypergraph_quickly():
    start = time.perf_counter()
    g = generate(GeneratorSpec("hyper", n=500, m=500, seed=1))
    assert time.perf_counter() - start < 2.0
    assert g.n == 500 and g.m == 500 and max_edge_size(g) <= 3
    pairs = [p for e in g.edges for p in itertools.combinations(e, 2)]
    assert len(pairs) == len(set(pairs))  # linear: no node pair in two edges
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [w for v in frontier for e in g.incidence[v] for w in g.edges[e] if w not in seen]
        seen.update(frontier)
    assert len(seen) == g.n


def test_generate_invalid_specs():
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("nope"))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("knn"))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("random", n=4, m=99))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("cycle", n=2))
