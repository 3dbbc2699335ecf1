import itertools
import random
from fractions import Fraction

import pytest

from starpart import brute_force_weighted, build_graph, generate, GeneratorSpec, lp_feasible
from starpart import lp
from starpart.lp import find_basic_feasible

F = Fraction


def test_equalities_only():
    # arcs 0 -> 1 of capacity 3 and 2 -> 1 of capacity 4: nodes 0 and 2 send at
    # most 1 each and node 1 must take 2, so both flows are 1, on a tree of arcs
    solution = find_basic_feasible([(0, 1), (2, 1)], [3, 4], [1, -2, 1])
    assert solution == [F(1, 3), F(1, 4)]
    assert all(type(x) is Fraction for x in solution)


def test_infeasible_system():
    # node 1 must take 1 over the arc 0 -> 1, but node 0 may send nothing
    assert find_basic_feasible([(0, 1)], [1], [0, -1]) is None


def test_negative_rhs_inequality():
    # node 0's net outflow at most -1 fills its one in-arc of capacity 1
    assert find_basic_feasible([(1, 0)], [1], [-1, 1]) == [F(1)]


def test_flow_cycle_is_pivoted_to_a_forest(monkeypatch):
    # nodes 2 and 3 supply 2 and 3, nodes 0 and 1 demand 3 and 1; the max flow
    # sends 1 along 3 -> 0, 2 along 2 -> 0 and 1 along 3 -> 2, open arcs on the
    # cycle 0-3-2, and one push of 1 round it closes 3 -> 0 and 3 -> 2
    cycles = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: cycles.append(args[-1]) or pivot(*args))
    point = find_basic_feasible([(3, 0), (2, 0), (3, 2), (2, 1)], [3, 4, 2, 1], [-3, -1, 2, 3])
    assert point == [F(0), F(3, 4), F(1), F(1)]
    assert cycles == [[0, 2, 1]]
    assert [j for j, x in enumerate(point) if 0 < x < 1] == [1]


def test_no_rows_returns_origin():
    assert find_basic_feasible([], [], []) == []
    assert find_basic_feasible([], [], [0, 2]) == []
    assert find_basic_feasible([], [], [1, -1]) is None


@pytest.mark.parametrize("n, weights, limit", [(4, (2, 2, 1, 1), 2), (6, (7, 9, 7, 3, 7, 9), 17)])
def test_infeasible_complete_graphs(n, weights, limit):
    # infeasible although no node's forced costs alone exceed the limit
    g = build_graph(n, list(itertools.combinations(range(n), 2)), weights=list(weights))
    assert lp_feasible(g, limit) is None


def test_forced_costs_over_the_limit_skip_the_max_flow(monkeypatch):
    # edges 01 and 02 must go to node 0 (w0 = 9 > 5), which then carries 3 + 3 > 5;
    # edge 12 stays free, so the LP has an arc
    calls = []
    max_flow = lp._max_flow

    def recorded(*args):
        calls.append(args)
        return max_flow(*args)

    monkeypatch.setattr(lp, "_max_flow", recorded)
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)], weights=[9, 3, 3])
    assert lp_feasible(g, 5) is None
    assert calls == []


def test_pivot_rules_agree_on_feasibility():
    rng = random.Random(79)
    for trial in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 9))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=trial))
        w = [rng.randint(1, 9) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)
        limit = rng.randint(1, sum(w))
        frac = lp_feasible(g, limit)
        if frac is None:
            continue
        for v in range(n):
            assert frac.load(v) <= limit
        for e in range(g.m):
            f_lo, f_hi = frac.fractions[e]
            assert f_lo >= 0 and f_hi >= 0 and f_lo + f_hi == 1


def test_basic_solutions_have_pseudoforest_support():
    rng = random.Random(83)
    for trial in range(40):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 12))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=100 + trial))
        w = [rng.randint(1, 9) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)
        limit = rng.randint(max(min(w[a], w[b]) for a, b in g.edges), sum(w))
        frac = lp_feasible(g, limit)
        if frac is None:
            continue
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        fractional = [e for e in range(g.m) if 0 < frac.fractions[e][0] < 1]
        for e in fractional:
            a, b = g.edges[e]
            parent[find(a)] = find(b)
        comp_edges: dict[int, int] = {}
        comp_nodes: dict[int, set] = {}
        for e in fractional:
            root = find(g.edges[e][0])
            comp_edges[root] = comp_edges.get(root, 0) + 1
            for v in g.edges[e]:
                comp_nodes.setdefault(root, set()).add(v)
        for root, count in comp_edges.items():
            assert count <= len(comp_nodes[root])


def test_lp_monotone_in_limit():
    rng = random.Random(89)
    for trial in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 9))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=200 + trial))
        w = [rng.randint(1, 9) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)
        flags = [lp_feasible(g, t) is not None for t in range(0, sum(w) + 1)]
        assert flags == sorted(flags)
        assert flags[-1]


def _pseudoforest(g, frac):
    """Whether the strictly fractional edges have at most one cycle per component."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    fractional = [e for e in range(g.m) if 0 < frac.fractions[e][0] < 1]
    for e in fractional:
        a, b = g.edges[e]
        parent[find(a)] = find(b)
    edges_in: dict[int, int] = {}
    nodes_in: dict[int, set] = {}
    for e in fractional:
        root = find(g.edges[e][0])
        edges_in[root] = edges_in.get(root, 0) + 1
        nodes_in.setdefault(root, set()).update(g.edges[e])
    return all(count <= len(nodes_in[root]) for root, count in edges_in.items())


def test_exact_vertex_on_heavy_weights():
    rng = random.Random(97)
    for trial in range(210):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=300 + trial))
        w = [rng.randint(1, 1000) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)

        def feasible(limit):
            frac = lp_feasible(g, limit)
            if frac is None:
                return False
            assert all(frac.load(v) <= limit for v in range(n))
            assert all(type(f) is Fraction and f >= 0 for pair in frac.fractions for f in pair)
            assert all(f_lo + f_hi == 1 for f_lo, f_hi in frac.fractions)
            assert _pseudoforest(g, frac)
            return True

        lo, hi = 0, sum(w)
        assert feasible(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
        least = hi
        limits = sorted({least - 1, least, *(rng.randint(0, sum(w)) for _ in range(4))})
        flags = [feasible(t) for t in limits if t >= 0]
        assert flags == sorted(flags)
        assert feasible(least) and (least == 0 or not feasible(least - 1))
        if m <= 12:
            assert least <= brute_force_weighted(g, "ind")[0]


def test_identical_columns_give_a_vertex():
    # two unit arcs 0 -> 1 carry 1 in all: the midpoint is feasible, but not a vertex
    assert find_basic_feasible([(0, 1), (0, 1)], [1, 1], [1, -1]) in ([F(1), F(0)], [F(0), F(1)])


def _highs_feasible(g, w, limit):
    """The unscaled load LP at limit by HiGHS's dual simplex, x_e being edge e's share at lo."""
    from scipy.optimize import linprog

    rows, rhs, bounds = [[0] * g.m for _ in range(g.n)], [limit] * g.n, []
    for e, (lo, hi) in enumerate(g.edges):
        rows[lo][e] += w[hi]
        rows[hi][e] -= w[lo]
        rhs[hi] -= w[lo]
        bounds.append((1 if w[lo] > limit else 0, 0 if w[hi] > limit else 1))
    if any(a > b for a, b in bounds):
        return False
    res = linprog([0] * g.m, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs-ds")
    assert res.status in (0, 2), res.message
    return res.status == 0


@pytest.mark.parametrize("wmax", [2, 9, 1000, 10**6])
def test_least_limit_matches_highs(wmax):
    rng = random.Random(wmax)
    for trial in range(130):
        n = rng.randint(2, 20)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=500 + trial))
        w = [rng.randint(1, wmax) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)

        def feasible(limit):
            frac = lp_feasible(g, limit)
            if frac is None:
                return False
            assert all(type(f) is Fraction and f >= 0 for pair in frac.fractions for f in pair)
            assert all(f_lo + f_hi == 1 for f_lo, f_hi in frac.fractions)
            assert all(frac.load(v) <= limit for v in range(n))
            parent = list(range(n))  # the open edges form a forest

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for e, (a, b) in enumerate(g.edges):
                if 0 < frac.fractions[e][0] < 1:
                    assert find(a) != find(b)
                    parent[find(a)] = find(b)
            return True

        lo, hi = max(min(w[a], w[b]) for a, b in g.edges), sum(w)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if feasible(mid) else (mid + 1, hi)
        # both LPs grow with the limit, so they agree on the least one
        assert feasible(lo) and _highs_feasible(g, w, lo) and not _highs_feasible(g, w, lo - 1)
        if m <= 12:
            assert lo <= brute_force_weighted(g, "ind")[0]


def test_approx_at_scale_rounds_at_the_least_feasible_limit(monkeypatch):
    # 400 nodes, 2000 edges, weights 1..1000: the max flows leave cycles of open
    # arcs, so the pivots run, and approx2_wind rounds the point at the least limit
    from starpart import approx2_wind, node_loads, orientation_to_owner, weighted

    points, pivots = [], []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot", lambda *args: pivots.append(args[-1]) or pivot(*args))
    monkeypatch.setattr(weighted, "lp_feasible", lambda *args: points.append(lp_feasible(*args)) or points[-1])
    rng = random.Random(131)
    g0 = generate(GeneratorSpec("random", n=400, m=2000, seed=11))
    w = [rng.randint(1, 1000) for _ in range(400)]
    g = build_graph(400, g0.edges, weights=w)
    orientation, value = approx2_wind(g)
    final = [frac for frac in points if frac is not None][-1]
    least = final.limit
    assert value == max(node_loads(g, orientation_to_owner(g, orientation).owner, "ind", w))
    assert value <= 2 * least
    assert lp_feasible(g, least - 1) is None
    assert _highs_feasible(g, w, least) and not _highs_feasible(g, w, least - 1)
    assert pivots
    parent = list(range(g.n))  # the open edges form a forest

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, (a, b) in enumerate(g.edges):
        if 0 < final.fractions[e][0] < 1:
            assert find(a) != find(b)
            parent[find(a)] = find(b)
