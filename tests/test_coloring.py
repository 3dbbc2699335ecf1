import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from starpart import (
    GraphKind,
    Orientation,
    PartialColoring,
    build_graph,
    extract_stars,
    is_valid,
    lower_demand,
    node_loads,
    orientation_to_owner,
    owner_to_orientation,
    star_partition_value,
)
from starpart.coloring import pseudoforest_heads
from starpart.errors import IncompleteColoring, NotPseudoforest, UnsupportedKind
from conftest import connected_edge_sets

# the optimal triangle coloring: v1 colors v1v2, v3 colors the other two
FIG1A = PartialColoring((0, 2, 2))


def test_fig1a_color_counts(triangle):
    counts = node_loads(triangle, FIG1A.owner, "star")
    assert counts[1] == 2
    assert counts[0] == 2
    assert counts[2] == 1
    assert star_partition_value(triangle, FIG1A) == 2


def test_fig1a_stars(triangle):
    stars = extract_stars(triangle, FIG1A).stars
    assert stars == ((0, (0,)), (2, (1, 2)))


def test_owner_orientation_single_edge():
    g = build_graph(2, [(0, 1)])
    orientation = owner_to_orientation(g, PartialColoring((0,)))
    assert orientation.head == (1,)
    back = orientation_to_owner(g, orientation)
    assert back.owner == (0,)


def test_cyclic_triangle_orientation(triangle):
    coloring = PartialColoring((1, 2, 0))
    orientation = owner_to_orientation(triangle, coloring)
    # each edge leaves its owner
    assert orientation.head == (0, 1, 2)
    assert orientation_to_owner(triangle, orientation) == coloring


def test_roundtrip_exhaustive_small_graphs():
    seen = 0
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            if len(edges) > 4:
                continue
            g = build_graph(n, edges)
            for owners in itertools.product(*[e for e in g.edges]):
                coloring = PartialColoring(owners)
                orientation = owner_to_orientation(g, coloring)
                assert orientation_to_owner(g, orientation) == coloring
                assert owner_to_orientation(g, orientation_to_owner(g, orientation)) == orientation
                seen += 1
    assert seen > 1000


def test_color_count_own_star_only():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    all_center = PartialColoring((0, 0, 0))
    assert node_loads(star, all_center.owner, "star")[0] == 1


def test_color_count_center_owns_nothing():
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    leaves = PartialColoring(tuple(range(1, 6)))
    assert node_loads(star, leaves.owner, "star")[0] == 5


def test_star_value_path_middle():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert star_partition_value(p3, PartialColoring((1, 1))) == 1


def test_star_value_k22_optimum():
    k22 = build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    coloring = PartialColoring((0, 3, 2, 1))
    assert star_partition_value(k22, coloring) == 2


def test_is_valid_default_capacities_never_bind():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = [(i - 1, i) for i in range(1, n)]
        g = build_graph(n, edges)
        owners = tuple(rng.choice(e) for e in g.edges)
        assert is_valid(g, PartialColoring(owners))


def test_is_valid_capacity_violation():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], capacities=[2, 1, 2])
    assert not is_valid(g, FIG1A)


def test_is_valid_single_edge_tight():
    g = build_graph(2, [(0, 1)], capacities=[1, 1])
    assert is_valid(g, PartialColoring((0,)))
    assert is_valid(g, PartialColoring((1,)))


def test_lower_demand_examples():
    g = build_graph(6, [(0, i) for i in range(1, 6)], capacities=[3, 5, 5, 5, 5, 5])
    assert lower_demand(g, 0, 4) == 3  # degree 5, capacity 3
    p3 = build_graph(3, [(0, 1), (1, 2)], capacities=[5, 5, 5])
    assert lower_demand(p3, 1, 2) == 1
    assert lower_demand(p3, 0, 3) == 0


@given(deg=st.integers(1, 8), cap=st.integers(0, 10), x=st.integers(0, 9))
def test_lower_demand_monotone(deg, cap, x):
    g = build_graph(deg + 1, [(0, i) for i in range(1, deg + 1)],
                    capacities=[cap] + [10] * deg)
    assert lower_demand(g, 0, x) >= lower_demand(g, 0, x + 1)
    looser = build_graph(deg + 1, [(0, i) for i in range(1, deg + 1)],
                         capacities=[cap + 1] + [10] * deg)
    assert lower_demand(g, 0, x) >= lower_demand(looser, 0, x)


def test_extract_stars_cover_and_touch():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = sorted(set([(i - 1, i) for i in range(1, n)] + pairs[:m]))
        g = build_graph(n, edges)
        coloring = PartialColoring(tuple(rng.choice(e) for e in g.edges))
        stars = extract_stars(g, coloring).stars
        covered = sorted(e for _, es in stars for e in es)
        assert covered == list(range(g.m))
        for owner, es in stars:
            assert all(owner in g.edges[e] for e in es)
        # the objective equals the most stars any node touches
        touch = [0] * n
        for owner, es in stars:
            nodes = set()
            for e in es:
                nodes.update(g.edges[e])
            for v in nodes:
                touch[v] += 1
        assert max(touch) == star_partition_value(g, coloring)


def test_single_edge_star_keeps_recorded_owner():
    g = build_graph(2, [(0, 1)])
    assert extract_stars(g, PartialColoring((1,))).stars == ((1, (0,)),)


def test_color_count_equals_indegree_plus_flag():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = sorted(set([(i - 1, i) for i in range(1, n)] + pairs[: rng.randint(0, 6)]))
        g = build_graph(n, edges)
        coloring = PartialColoring(tuple(rng.choice(e) for e in g.edges))
        orientation = owner_to_orientation(g, coloring)
        indeg = [0] * n
        outdeg = [0] * n
        for e, h in enumerate(orientation.head):
            indeg[h] += 1
            tail = g.edges[e][0] if g.edges[e][1] == h else g.edges[e][1]
            outdeg[tail] += 1
        counts = node_loads(g, coloring.owner, "star")
        for v in range(n):
            assert counts[v] == indeg[v] + (1 if outdeg[v] else 0)


def test_incomplete_coloring_raises(triangle):
    partial = PartialColoring((0, None, 2))
    with pytest.raises(IncompleteColoring):
        is_valid(triangle, partial)
    with pytest.raises(IncompleteColoring):
        star_partition_value(triangle, partial)
    with pytest.raises(IncompleteColoring):
        owner_to_orientation(triangle, partial)
    with pytest.raises(IncompleteColoring):
        extract_stars(triangle, partial)


def test_converters_reject_non_endpoints(triangle):
    with pytest.raises(ValueError, match="owner 2 of edge 0 is not an endpoint"):
        owner_to_orientation(triangle, PartialColoring((2, 2, 2)))
    with pytest.raises(ValueError, match="head 2 of edge 0 is not an endpoint"):
        orientation_to_owner(triangle, Orientation((2, 2, 2)))


@pytest.mark.parametrize("kind, edges", [
    (GraphKind.WITH_SELF_LOOPS, [(0, 1), (1, 1)]),
    (GraphKind.LINEAR_HYPER, [(0, 1, 2)]),
])
def test_converters_reject_non_pair_edges(kind, edges):
    g = build_graph(3 if kind is GraphKind.LINEAR_HYPER else 2, edges, kind)
    owners = tuple(e[0] for e in edges)
    with pytest.raises(UnsupportedKind):
        owner_to_orientation(g, PartialColoring(owners))
    with pytest.raises(UnsupportedKind):
        orientation_to_owner(g, Orientation(owners))


def _component_sizes(edges: dict) -> list[tuple[int, int]]:
    """(nodes, edges) of every component, counted with a union-find."""
    parent: dict[int, int] = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for a, b in edges.values():
        parent[find(a)] = find(b)
    nodes = Counter(find(v) for v in parent)
    arcs = Counter(find(a) for a, _ in edges.values())
    return [(nodes[r], arcs[r]) for r in nodes]


def test_pseudoforest_heads_random_graphs():
    rng = random.Random(1311)
    seen = Counter()
    for _ in range(2500):
        n = rng.randint(2, 12)
        ids = rng.sample(range(5 * n), rng.randint(1, n + 2))  # sparse, unordered ids
        # edges stay inside blocks of consecutive nodes, so components abound
        cuts = [0, *sorted(rng.sample(range(1, n), min(2, n - 1))), n]
        blocks = [range(a, b) for a, b in zip(cuts, cuts[1:]) if b - a >= 2] or [range(n)]
        edges = {e: tuple(rng.sample(rng.choice(blocks), 2)) for e in ids}
        sizes = _component_sizes(edges)
        if any(m > k for k, m in sizes):
            seen["dense"] += 1
            with pytest.raises(NotPseudoforest):
                pseudoforest_heads(edges)
            continue
        heads = pseudoforest_heads(edges)
        assert heads.keys() == edges.keys()
        assert all(heads[e] in edges[e] for e in edges)
        assert len(set(heads.values())) == len(heads)  # no node receives two edges
        cycles = sum(m == k for k, m in sizes)
        seen["forest" if cycles == 0 else "one cycle" if cycles == 1 else "cycles"] += 1
        seen["isolated edge"] += (2, 1) in sizes
    assert min(seen[k] for k in ("dense", "forest", "one cycle", "cycles", "isolated edge")) >= 50


@pytest.mark.parametrize(
    "pairs",
    [
        [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)],  # theta graph
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],  # two triangles and a path
        list(itertools.combinations(range(4), 2)),  # K4
        [(5, 6), (6, 7), (7, 5), (0, 1), (1, 2), (0, 2), (0, 1)],  # a triangle, and one with a doubled edge
    ],
)
def test_pseudoforest_heads_rejects_dense_components(pairs):
    edges = {7 * i + 3: pair for i, pair in enumerate(pairs)}
    edges[999] = (20, 21)  # an isolated edge elsewhere changes nothing
    with pytest.raises(NotPseudoforest):
        pseudoforest_heads(edges)


def test_pseudoforest_heads_tie_break():
    # the cycle on 2, 3, 4 runs from node 2 toward 3; the pendant edge to 5
    # points away from the cycle, the tree edge 0-1 away from node 0
    edges = {10: (2, 4), 11: (3, 4), 12: (2, 3), 13: (3, 5), 14: (0, 1)}
    assert pseudoforest_heads(edges) == {12: 3, 11: 4, 10: 2, 13: 5, 14: 1}
