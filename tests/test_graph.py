import itertools
import random

import pytest

from starpart import (
    GraphKind,
    build_graph,
    degree,
    extract_self_loops,
    max_degree,
    max_edge_size,
    merge_parallel_edges,
)
from starpart.errors import (
    Disconnected,
    DuplicateEdgeInSimple,
    EmptyGraph,
    NonLinearHypergraph,
    SelfLoopInSimple,
    UnsupportedKind,
)


def test_triangle_build(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert max_degree(triangle) == 2
    assert triangle.capacities == (2, 2, 2)
    assert triangle.weights == (1, 1, 1)


def test_nonlinear_hypergraph_rejected():
    # two of the three overlapping triples share two nodes
    with pytest.raises(NonLinearHypergraph) as err:
        build_graph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], GraphKind.LINEAR_HYPER)
    assert err.value.edge_a == 0
    assert err.value.edge_b == 1
    assert err.value.shared == (1, 2)


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeInSimple):
        build_graph(2, [(0, 1), (1, 0)])


def test_self_loop_rejected_in_simple_and_multi():
    with pytest.raises(SelfLoopInSimple):
        build_graph(2, [(0, 1), (0, 0)])
    with pytest.raises(SelfLoopInSimple):
        build_graph(2, [(0, 1), (1, 1)], GraphKind.MULTI)


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        build_graph(4, [(0, 1, 2)], GraphKind.LINEAR_HYPER)


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        build_graph(0, [])


def test_single_node_edgeless_allowed():
    g = build_graph(1, [])
    assert g.m == 0 and max_degree(g) == 0


def test_degree_counts_loops_once():
    g = build_graph(2, [(0, 1), (0, 0)], GraphKind.WITH_SELF_LOOPS)
    assert degree(g, 0) == 2
    assert degree(g, 1) == 1


def test_degree_examples(triangle):
    assert all(degree(triangle, v) == 2 for v in range(3))
    leafy = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert degree(leafy, 1) == 1


def test_max_degree_examples(fig2):
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert max_degree(k33) == 3
    assert max_degree(fig2) == 4
    assert max_degree(build_graph(2, [(0, 1)])) == 1
    assert max_edge_size(fig2) == 2


def test_merge_parallel_basic():
    g = build_graph(2, [(0, 1), (0, 1), (0, 1)], GraphKind.MULTI)
    simple, emap = merge_parallel_edges(g)
    assert simple.m == 1
    assert emap == (0, 0, 0)


def test_merge_parallel_triangle_with_double():
    g = build_graph(3, [(0, 1), (0, 1), (1, 2), (0, 2)], GraphKind.MULTI)
    simple, emap = merge_parallel_edges(g)
    assert simple.m == 3
    assert emap == (0, 0, 1, 2)
    assert simple.capacities == g.capacities


def test_merge_parallel_identity():
    g = build_graph(3, [(0, 1), (1, 2)], GraphKind.MULTI)
    simple, emap = merge_parallel_edges(g)
    assert simple.edges == g.edges
    assert emap == (0, 1)


def test_merge_roundtrip_reproduces_multiset():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        base = [(a, b) for a, b in itertools.combinations(range(n), 2)]
        rng.shuffle(base)
        spanning = [(i - 1, i) for i in range(1, n)]
        extra = [e for e in base[:4] for _ in range(rng.randint(1, 3))]
        edges = spanning + extra
        g = build_graph(n, edges, GraphKind.MULTI)
        simple, emap = merge_parallel_edges(g)
        rebuilt = sorted(simple.edges[emap[e]] for e in range(g.m))
        assert rebuilt == sorted(g.edges)


def test_merge_requires_multi(triangle):
    with pytest.raises(UnsupportedKind):
        merge_parallel_edges(triangle)


def test_extract_self_loops():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2), (0, 0)], GraphKind.WITH_SELF_LOOPS)
    simple, loops = extract_self_loops(g)
    assert simple.kind is GraphKind.SIMPLE
    assert simple.m == 3
    assert loops == ((0, 3),)

    plain = build_graph(2, [(0, 1)], GraphKind.WITH_SELF_LOOPS)
    simple, loops = extract_self_loops(plain)
    assert simple.edges == plain.edges
    assert loops == ()

    lonely = build_graph(1, [(0, 0)], GraphKind.WITH_SELF_LOOPS)
    simple, loops = extract_self_loops(lonely)
    assert simple.m == 0 and simple.n == 1
    assert loops == ((0, 0),)


def test_degree_sum_equals_total_membership():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 7)
        spanning = [(i - 1, i) for i in range(1, n)]
        loops = [(rng.randrange(n),) for _ in range(rng.randint(0, 3))]
        g = build_graph(n, spanning + loops, GraphKind.WITH_SELF_LOOPS)
        assert sum(degree(g, v) for v in range(n)) == sum(len(e) for e in g.edges)


def test_linearity_matches_pair_scan():
    rng = random.Random(13)
    accepted = rejected = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        edges = [tuple(sorted(rng.sample(range(n), rng.randint(2, 3)))) for _ in range(rng.randint(2, 5))]
        linear = all(
            len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(edges, 2)
        )
        try:
            build_graph(n, edges, GraphKind.LINEAR_HYPER)
            built = True
        except NonLinearHypergraph:
            built = False
        except Disconnected:
            continue
        assert built == linear
        accepted += built
        rejected += not built
    assert accepted and rejected


def test_bad_capacity_and_weight_vectors(triangle):
    with pytest.raises(ValueError):
        build_graph(3, triangle.edges, capacities=[1, 1])
    with pytest.raises(ValueError):
        build_graph(3, triangle.edges, capacities=[-1, 0, 0])
    with pytest.raises(ValueError):
        build_graph(3, triangle.edges, weights=[0, 1, 1])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 5)])


def test_nonlinear_hypergraph_reports_least_edge_pair():
    # edges 1 and 2 share (2, 3), edges 0 and 3 share (0, 1): a scan that
    # stops at the first j would report (1, 2), the pairwise order (0, 3)
    edges = [(0, 1, 5), (2, 3, 6), (2, 3, 7), (0, 1, 8), (5, 6)]
    with pytest.raises(NonLinearHypergraph) as err:
        build_graph(9, edges, GraphKind.LINEAR_HYPER)
    assert (err.value.edge_a, err.value.edge_b) == (0, 3)
    assert err.value.shared == (0, 1)
