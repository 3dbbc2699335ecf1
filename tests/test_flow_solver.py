import itertools
import random

import pytest

from starpart import (
    FlowNetwork,
    GraphKind,
    INFEASIBLE,
    Orientation,
    brute_force_xstar,
    build_flow_network,
    build_graph,
    generate,
    GeneratorSpec,
    is_valid,
    max_flow_unit,
    minimum_star_coloring,
    minimum_star_coloring_flow,
    orientation_to_owner,
    slackness,
    star_partition_value,
    test_x,
)
from starpart.errors import UnsupportedKind
from starpart.lp import _max_flow


def test_slackness_formula_cases():
    star4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    # three edges leave the center, one enters: slack 0 at demand 3
    orient = Orientation((1, 2, 3, 0))
    assert slackness(star4, orient, 0, 2) == 0

    p3 = build_graph(3, [(0, 1), (1, 2)], capacities=[2, 2, 2])
    inward = Orientation((1, 1))
    assert slackness(p3, inward, 1, 2) == 0  # demand 1, so slack = outdegree = 0


def test_slackness_fig6a(fig6a):
    g, start = fig6a
    assert [slackness(g, start, v, 2) for v in range(5)] == [0, 2, -1, 1, -2]


def test_network_without_imbalance_has_only_graph_arcs():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    outward = Orientation((0, 2))
    net = build_flow_network(p3, outward, 1)
    assert net.source_mult == (0, 0, 0)
    assert net.sink_mult == (0, 0, 0)
    assert net.arc_count == 2
    assert max_flow_unit(net).value == 0


def test_network_fig6a(fig6a):
    g, start = fig6a
    net = build_flow_network(g, start, 2)
    assert net.source_mult == (0, 2, 0, 1, 0)
    assert net.sink_mult == (0, 0, 1, 0, 2)
    assert net.arc_count <= 3 * g.m
    assert max_flow_unit(net).value == 3


def test_network_fig6d(fig6d):
    g, start = fig6d
    net = build_flow_network(g, start, 2)
    assert net.source_mult == (0, 1, 0, 0, 1, 1, 0)
    assert net.sink_mult == (0, 0, 1, 2, 0, 0, 0)
    flow = max_flow_unit(net)
    assert flow.value == 2 < sum(net.sink_mult)


def test_test_x_fig6a_succeeds(fig6a):
    g, start = fig6a
    repaired = test_x(g, 2, start)
    assert repaired is not None
    assert all(slackness(g, repaired, v, 2) >= 0 for v in range(g.n))
    coloring = orientation_to_owner(g, repaired)
    assert is_valid(g, coloring)
    assert star_partition_value(g, coloring) == 2


def test_test_x_fig6d_fails(fig6d):
    g, start = fig6d
    assert test_x(g, 2, start) is None
    assert minimum_star_coloring(g).value == 3
    assert minimum_star_coloring_flow(g).value == 3
    assert brute_force_xstar(g).value == 3


def test_test_x_at_max_degree_always_succeeds():
    rng = random.Random(41)
    for trial in range(30):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=trial))
        delta = max(len(inc) for inc in g.incidence)
        start = Orientation(tuple(e[1] for e in g.edges))
        assert test_x(g, delta, start) is not None


def test_feasibility_monotone_in_x():
    rng = random.Random(43)
    for trial in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 12))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=500 + trial, cap_rule="random"))
        delta = max(len(inc) for inc in g.incidence)
        start = Orientation(tuple(e[1] for e in g.edges))
        feasible = [test_x(g, x, start) is not None for x in range(1, delta + 1)]
        assert feasible == sorted(feasible)


def test_flow_conservation_and_capacity():
    rng = random.Random(47)
    for trial in range(40):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=900 + trial))
        start = Orientation(tuple(rng.choice(e) for e in g.edges))
        x = rng.randint(1, max(len(inc) for inc in g.incidence))
        net = build_flow_network(g, start, x)
        flow = max_flow_unit(net)
        assert all(f in (0, 1) for f in flow.edge_flow)
        assert all(flow.source_flow[v] <= net.source_mult[v] for v in range(n))
        assert all(flow.sink_flow[v] <= net.sink_mult[v] for v in range(n))
        into = [0] * n
        out = [0] * n
        for e, (tail, head) in enumerate(net.arcs):
            out[tail] += flow.edge_flow[e]
            into[head] += flow.edge_flow[e]
        for v in range(n):
            assert into[v] + flow.source_flow[v] == out[v] + flow.sink_flow[v]
        assert flow.value == sum(flow.sink_flow)


def test_flip_balance_identity():
    # flipping the flow-1 arcs shifts outdegree by sink minus source flow
    rng = random.Random(53)
    for trial in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=1300 + trial))
        start = Orientation(tuple(rng.choice(e) for e in g.edges))
        x = rng.randint(1, 3)
        net = build_flow_network(g, start, x)
        flow = max_flow_unit(net)
        out_graph = [0] * n
        in_graph = [0] * n
        for e, (tail, head) in enumerate(net.arcs):
            out_graph[tail] += flow.edge_flow[e]
            in_graph[head] += flow.edge_flow[e]
        for v in range(n):
            # flipping the flow arcs raises v's outdegree by exactly this much
            assert in_graph[v] - out_graph[v] == flow.sink_flow[v] - flow.source_flow[v]


def test_solver_fig2_and_knn(fig2):
    assert minimum_star_coloring_flow(fig2).value == 3
    k44 = generate(GeneratorSpec("knn", n=4))
    assert minimum_star_coloring_flow(k44).value == 3


def test_solver_infeasible_matches_oracle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], capacities=[0, 2, 2])
    res = minimum_star_coloring_flow(g)
    assert res.value == INFEASIBLE == brute_force_xstar(g).value
    assert res.coloring is None


def test_solver_rejects_hypergraphs():
    g = build_graph(4, [(0, 1, 2), (2, 3)], GraphKind.LINEAR_HYPER)
    with pytest.raises(UnsupportedKind):
        minimum_star_coloring_flow(g)


def test_solvers_agree_randomly():
    rng = random.Random(59)
    for trial in range(60):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 16))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=1700 + trial,
                                   cap_rule="random" if trial % 2 else None))
        a = minimum_star_coloring(g)
        b = minimum_star_coloring_flow(g)
        assert a.value == b.value
        if b.feasible:
            assert is_valid(g, b.coloring)
            assert star_partition_value(g, b.coloring) == b.value


def _random_small_graph(rng, kind, capped):
    """A seeded connected simple, multi or self-loop graph with few edges."""
    n = rng.randint(2, 6)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 2))
    edges = list(generate(GeneratorSpec("random", n=n, m=m, seed=rng.randrange(10**6))).edges)
    if kind is GraphKind.MULTI:
        edges += rng.choices(edges, k=rng.randint(1, 3))
    elif kind is GraphKind.WITH_SELF_LOOPS:
        edges += [(v, v) for v in rng.choices(range(n), k=rng.randint(1, 3))]
    caps = None
    if capped:
        caps = [rng.randint(0, len(inc)) for inc in build_graph(n, edges, kind).incidence]
    return build_graph(n, edges, kind, capacities=caps)


def test_flow_matches_brute_force_on_all_kinds():
    from starpart import preprocess_and_solve

    rng = random.Random(61)
    infeasible = 0
    for trial in range(240):
        kind = (GraphKind.SIMPLE, GraphKind.MULTI, GraphKind.WITH_SELF_LOOPS)[trial % 3]
        g = _random_small_graph(rng, kind, capped=trial % 2 == 1)
        if g.kind is GraphKind.SIMPLE:
            res = minimum_star_coloring_flow(g)
        else:
            res = preprocess_and_solve(g, "flow")
        assert res.value == brute_force_xstar(g).value, (g.kind, g.edges, g.capacities)
        if res.feasible:
            assert is_valid(g, res.coloring)
            assert star_partition_value(g, res.coloring) == res.value
        else:
            infeasible += 1
    assert infeasible


def test_counting_bound_proves_optimality_in_one_probe(monkeypatch):
    import starpart.flow_solver as flow_solver

    g = generate(GeneratorSpec("random", n=40, m=80, seed=0))
    bound = -(-(g.m + 1) // g.n)
    assert minimum_star_coloring(g).value == bound
    calls = []
    probe = flow_solver._test_x

    def counted(*args):
        calls.append(args[1])
        return probe(*args)

    monkeypatch.setattr(flow_solver, "_test_x", counted)
    assert minimum_star_coloring_flow(g).value == bound
    assert calls == [bound]


def _need(g, v, x, objective):
    """Edges v must own at target x, from the graph alone."""
    deg = len(g.incidence[v])
    reach = min(g.capacities[v], x)
    if objective == "ind":
        return max(0, deg - reach)
    return deg - reach + 1 if deg - reach + 1 >= 2 else 0


def _hall_violation(g, x, hall, objective):
    """need(S) - |edges meeting S|, from the graph alone."""
    need = sum(_need(g, v, x, objective) for v in hall)
    inside = set(hall)
    meeting = sum(1 for a, b in g.edges if a in inside or b in inside)
    return need - meeting


def _ind_suite():
    rng = random.Random(67)
    for trial in range(320):
        yield _random_small_graph(rng, GraphKind.SIMPLE, capped=trial % 2 == 1)


def test_ind_flow_matches_brute_force():
    from starpart import brute_force_kstar, max_indegree, solve_min_max_ind

    infeasible = 0
    for g in _ind_suite():
        value, orientation = solve_min_max_ind(g)
        assert value == brute_force_kstar(g)[0], (g.edges, g.capacities)
        if orientation is None:
            infeasible += 1
            continue
        indeg = [0] * g.n
        for h in orientation.head:
            indeg[h] += 1
        assert max_indegree(g, orientation) == value
        assert all(indeg[v] <= g.capacities[v] for v in range(g.n))
    assert infeasible


def test_failed_probes_leave_violated_hall_sets(monkeypatch):
    import starpart.flow_solver as flow_solver
    from starpart import preprocess_and_solve, solve_min_max_ind

    failures = []
    probe = flow_solver._test_x
    looped = []  # the self-loop graph being solved, if any

    def recorded(*args):
        result = probe(*args)
        if result is None:
            g, x, _, objective, hall = args
            failures.append((g, x, list(hall), objective, looped[-1] if looped else None))
        return result

    monkeypatch.setattr(flow_solver, "_test_x", recorded)
    for g in _ind_suite():
        solve_min_max_ind(g)
    rng = random.Random(71)
    for trial in range(150):
        g = _random_small_graph(rng, GraphKind.WITH_SELF_LOOPS, capped=trial % 2 == 1)
        looped.append(g)
        preprocess_and_solve(g, "flow")
    objectives = {objective for _, _, _, objective, _ in failures}
    assert objectives == {"ind", "star"}
    assert any(source is not None for *_, source in failures)
    for g, x, hall, objective, source in failures:
        assert hall
        if source is not None:
            # the probe saw the pendant graph: one pendant per looped node
            assert g.n == source.n + len({e[0] for e in source.edges if len(e) == 1})
        assert _hall_violation(g, x, hall, objective) > 0, (g.edges, x, hall)


def _owned_minus_need(g, head, x, objective):
    """Each node's owned edges under ``head`` minus its need at target x."""
    owned = [len(inc) for inc in g.incidence]
    for h in head:
        owned[h] -= 1
    return [owned[v] - _need(g, v, x, objective) for v in range(g.n)]


def _large_graph(rng, n, m, planted):
    """A seeded connected simple graph; planted capacities sit 0-2 above a random indegree."""
    g = generate(GeneratorSpec("random", n=n, m=m, seed=rng.randrange(10**6)))
    if not planted:
        return g
    indeg = [0] * n
    for edge in g.edges:
        indeg[rng.choice(edge)] += 1
    return build_graph(n, g.edges, capacities=[d + rng.randint(0, 2) for d in indeg])


def test_every_probe_is_exact_at_scale(monkeypatch):
    import starpart.flow_solver as flow_solver

    probes = []
    probe = flow_solver._test_x

    def recorded(g, x, start, objective, hall):
        result = probe(g, x, start, objective, hall)
        probes.append((g, x, start, objective, list(hall), result))
        return result

    monkeypatch.setattr(flow_solver, "_test_x", recorded)
    rng = random.Random(103)
    for objective, planted, (n, m) in itertools.product(
        ("star", "ind"), (False, True), ((1000, 5000), (500, 10000), (4000, 20000))
    ):
        flow_solver.solve_flow_seeded(_large_graph(rng, n, m, planted), objective)
    verdicts = set()
    for g, x, start, objective, hall, result in probes:
        # scipy decides the probe on the network built from the graph alone
        slack = _owned_minus_need(g, start.head, x, objective)
        s, t = g.n, g.n + 1
        arcs = [((a ^ b ^ h, h), 1) for (a, b), h in zip(g.edges, start.head)]
        arcs += [((s, v), c) for v, c in enumerate(slack) if c > 0]
        arcs += [((v, t), -c) for v, c in enumerate(slack) if c < 0]
        required = sum(-c for c in slack if c < 0)
        feasible = _scipy_flow_value(g.n + 2, arcs, s, t) == required
        assert (result is not None) == feasible, (objective, g.m, x)
        if feasible:
            assert min(_owned_minus_need(g, result.head, x, objective)) >= 0
        else:
            assert _hall_violation(g, x, hall, objective) > 0, (objective, g.m, x)
        verdicts.add((objective, feasible))
    assert len(verdicts) == 4, verdicts


def _nested_cliques():
    """Cliques on 4, 8, 16 and 32 nodes chained by bridges, then a 540-node path.

    The path holds the counting bound at 2 while x* is 17 and k* is 16, so
    single steps from the bound would take more probes than the guard allows.
    """
    edges, base = [], 0
    for size in (4, 8, 16, 32):
        nodes = range(base, base + size)
        edges += [(a, b) for a in nodes for b in nodes if a < b]
        if base:
            edges.append((base - 1, base))
        base += size
    edges += [(v, v + 1) for v in range(base - 1, base + 539)]
    return build_graph(base + 540, edges)


def test_slowest_cut_steps_keep_logarithmic_probes(monkeypatch):
    import starpart.flow_solver as flow_solver
    from starpart import solve_min_max_ind

    g = _nested_cliques()
    delta = max(len(inc) for inc in g.incidence)
    expected_x = minimum_star_coloring(g).value
    expected_k = solve_min_max_ind(g, "dfs")[0]
    calls = []
    probe = flow_solver._test_x

    def counted(*args):
        calls.append(args[1])
        return probe(*args)

    monkeypatch.setattr(flow_solver, "_test_x", counted)
    monkeypatch.setattr(flow_solver, "_next_target", lambda g, hall, x, *rest: x + 1)
    limit = 2 * (delta - 1).bit_length() + 3
    assert minimum_star_coloring_flow(g).value == expected_x
    assert len(calls) <= limit
    calls.clear()
    assert solve_min_max_ind(g)[0] == expected_k
    assert len(calls) <= limit


def test_ind_cli_solves_planted_capacities_on_the_original_graph(monkeypatch, tmp_path, capsys):
    import starpart.cli as cli
    import starpart.flow_solver as flow_solver
    import starpart.reductions as reductions
    from starpart.instance_io import Instance, format_instance

    rng = random.Random(73)
    base = generate(GeneratorSpec("random", n=200, m=1600, seed=73))
    indeg = [0] * base.n
    for edge in base.edges:
        indeg[rng.choice(edge)] += 1
    caps = [indeg[v] + rng.randint(0, 2) for v in range(base.n)]
    g = build_graph(base.n, base.edges, capacities=caps)
    path = tmp_path / "planted.graph"
    names = tuple(f"v{v}" for v in range(g.n))
    path.write_text(format_instance(Instance(graph=g, node_names=names)))

    def forbidden(*args):
        raise AssertionError("the flow path must not build the pendant graph")

    monkeypatch.setattr(reductions, "ind_to_star", forbidden)
    calls = []
    probe = flow_solver._test_x

    def counted(*args):
        calls.append(args[1])
        return probe(*args)

    monkeypatch.setattr(flow_solver, "_test_x", counted)
    sol = tmp_path / "planted.sol"
    assert cli.main(["solve", str(path), "--objective", "ind", "--out", str(sol)]) == 0
    value = capsys.readouterr().out.split()[1]
    assert 1 <= len(calls) <= 3
    assert cli.main(
        ["verify", str(path), str(sol), "--objective", "ind", "--bound", value]
    ) == 0


def _scipy_flow_value(n, arcs, s, t):
    """Reference max-flow value from scipy's Dinic; parallel arcs sum into one entry."""
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow

    tails = np.asarray([u for (u, _), _ in arcs], dtype=np.int32)
    heads = np.asarray([v for (_, v), _ in arcs], dtype=np.int32)
    caps = np.asarray([c for _, c in arcs], dtype=np.int32)
    graph = csr_array((caps, (tails, heads)), shape=(n, n))
    return int(maximum_flow(graph, s, t, method="dinic").flow_value)


def _flow_value(n, arcs, s, t, flow):
    """Value of a flow that keeps every capacity and conserves flow outside s and t."""
    net = [0] * n
    for ((u, v), c), f in zip(arcs, flow):
        assert 0 <= f <= c
        net[u] -= f
        net[v] += f
    assert [x for w, x in enumerate(net) if w not in (s, t)] == [0] * (n - 2)
    assert net[s] == -net[t]
    return net[t]


def _cut_capacity(arcs, reached):
    """Capacity of the arcs from ``reached`` to the other nodes."""
    return sum(c for (u, v), c in arcs if reached[u] and not reached[v])


def _min_cut(n, arcs, s, t):
    """Least capacity of an s-t cut, over every source side."""
    others = [v for v in range(n) if v not in (s, t)]
    caps = []
    for side in itertools.product((False, True), repeat=len(others)):
        caps.append(_cut_capacity(arcs, dict(zip(others, side)) | {s: True, t: False}))
    return min(caps)


def _random_pairs(rng, n, count):
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(count)]
    return pairs + rng.choices(pairs, k=min(len(pairs), rng.randint(0, 3)))


def test_kernel_matches_scipy_on_random_networks():
    rng = random.Random(97)
    zero = parallel = 0
    for trial in range(150):
        n = rng.randint(2, 9)
        arcs = [(pair, rng.randint(1, 5)) for pair in _random_pairs(rng, n, rng.randint(0, 3 * n))]
        value = _flow_value(n, arcs, 0, n - 1, _max_flow(n, arcs, 0, n - 1))
        assert value == _min_cut(n, arcs, 0, n - 1), arcs
        assert value == _scipy_flow_value(n, arcs, 0, n - 1), arcs
        zero += value == 0
        parallel += len({pair for pair, _ in arcs}) < len(arcs)
    assert zero and parallel


def test_max_flow_unit_matches_scipy_on_bundled_networks():
    rng = random.Random(101)
    zero = parallel = 0
    for trial in range(200):
        n = rng.randint(2, 8)
        pairs = _random_pairs(rng, n, rng.randint(0, 3 * n))
        source = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        sink = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
        flow = max_flow_unit(FlowNetwork(n, tuple(pairs), source, sink))
        assert all(f == 0 for f, c in zip(flow.source_flow + flow.sink_flow, source + sink) if not c)
        s, t = n, n + 1
        arcs = [(pair, 1) for pair in pairs]
        arcs += [((s, v), c) for v, c in enumerate(source) if c]
        arcs += [((v, t), c) for v, c in enumerate(sink) if c]
        flows = list(flow.edge_flow)
        flows += [f for f, c in zip(flow.source_flow, source) if c]
        flows += [f for f, c in zip(flow.sink_flow, sink) if c]
        reached = [v not in flow.unreached for v in range(n)] + [True, False]
        value = _flow_value(n + 2, arcs, s, t, flows)
        assert _cut_capacity(arcs, reached) == value
        assert value == flow.value == _scipy_flow_value(n + 2, arcs, s, t), (pairs, source, sink)
        zero += value == 0
        parallel += len(set(pairs)) < len(pairs)
    assert zero and parallel


def test_kernel_cut_certifies_capacities_past_int32():
    # scipy's kernel is int32-only; the least cut alone shows this flow is maximum
    big = 3 * 10**9
    arcs = [((0, 1), big), ((0, 2), 2 * big), ((1, 2), big), ((1, 3), big), ((2, 3), big + 1)]
    value = _flow_value(4, arcs, 0, 3, _max_flow(4, arcs, 0, 3))
    assert value == _min_cut(4, arcs, 0, 3) == 2 * big + 1
