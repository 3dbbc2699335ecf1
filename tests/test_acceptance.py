"""Acceptance suite: one test per criterion, printing one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The shared suites are
session fixtures: every labeled connected simple graph on up to six
nodes, plus seeded random graphs with random capacities.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from starpart import (
    INFEASIBLE,
    BinPackingInstance,
    GeneratorSpec,
    Orientation,
    PartialColoring,
    binpacking_to_wind,
    brute_force_kstar,
    brute_force_weighted,
    brute_force_xstar,
    build_flow_network,
    build_graph,
    closed_form,
    extract_packing,
    gadget_transform,
    generate,
    ind_to_star,
    is_valid,
    max_degree,
    max_edge_size,
    max_flow_unit,
    max_indegree,
    minimum_star_coloring,
    minimum_star_coloring_flow,
    orientation_to_owner,
    owner_to_orientation,
    preprocess_and_solve,
    approx2_wind,
    approx4_wstar,
    simultaneous_optimum,
    solve_min_max_ind,
    solve_with_state,
    test_x,
)
from starpart.cli import main as cli_main
from starpart.graph import GraphKind
from conftest import connected_edge_sets
from gadget_check import gadget_reduced_yes

test_x.__test__ = False


def _report(number, text):
    print(f"\nACCEPTANCE {number:>2} PASS - {text}")


@dataclass
class GraphRecord:
    n: int
    edges: tuple
    dfs: float
    flow: float
    oracle_x: float
    oracle_k: float
    dfs_witness_ok: bool
    flow_witness_ok: bool
    sim_x: int | None
    sim_k: int | None
    sim_witness_ok: bool
    solver_k: float | None
    diameter: int
    closed: tuple | None
    closed_ok: bool


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


def _witness_ok(g, res):
    if not res.feasible:
        return res.coloring is None
    return (
        res.coloring.is_complete()
        and is_valid(g, res.coloring)
        and _value_of(g, res.coloring) == res.value
    )


def _value_of(g, coloring):
    return max(len({coloring.owner[e] for e in g.incidence[v]}) for v in range(g.n))


@pytest.fixture(scope="session")
def exhaustive_suite():
    """All labeled connected simple graphs on 1..6 nodes, default capacities."""
    records = []
    core_seconds = 0.0
    for n in range(1, 7):
        for edges in connected_edge_sets(n):
            g = build_graph(n, edges)
            t0 = time.perf_counter()
            dfs = minimum_star_coloring(g)
            flow = minimum_star_coloring_flow(g)
            oracle = brute_force_xstar(g)
            core_seconds += time.perf_counter() - t0
            oracle_k, _ = brute_force_kstar(g)
            orientation, sim_x, sim_k = simultaneous_optimum(g)
            if g.m:
                sim_col = orientation_to_owner(g, orientation)
                sim_ok = (
                    _value_of(g, sim_col) == sim_x
                    and max_indegree(g, orientation) == sim_k
                )
            else:
                sim_ok = sim_x == 0 and sim_k == 0
            closed = closed_form(g)
            closed_ok = True
            if closed is not None:
                value, witness = closed
                closed_ok = value == oracle.value and (
                    g.m == 0
                    or (is_valid(g, witness) and _value_of(g, witness) == value)
                )
            records.append(
                GraphRecord(
                    n=n,
                    edges=edges,
                    dfs=dfs.value,
                    flow=flow.value,
                    oracle_x=oracle.value,
                    oracle_k=oracle_k,
                    dfs_witness_ok=_witness_ok(g, dfs),
                    flow_witness_ok=_witness_ok(g, flow),
                    sim_x=sim_x,
                    sim_k=sim_k,
                    sim_witness_ok=sim_ok,
                    solver_k=sim_k,
                    diameter=_diameter(g),
                    closed=closed,
                    closed_ok=closed_ok,
                )
            )
    return records, core_seconds


@dataclass
class RandomRecord:
    n: int
    edges: tuple
    caps: tuple
    dfs: float
    flow: float
    oracle_x: float
    dfs_witness_ok: bool
    flow_witness_ok: bool
    oracle_k: float
    solver_k: float
    recover_ok: bool
    pendant_oracle_x: float | None
    edge_visits: int


@pytest.fixture(scope="session")
def random_suite():
    """220 seeded random graphs, up to 9 nodes, random capacities."""
    rng = random.Random(20260809)
    records = []
    core_seconds = 0.0
    for trial in range(220):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 16))
        base = generate(GeneratorSpec("random", n=n, m=m, seed=trial))
        # alternate the capacity floor so feasible and infeasible instances
        # both show up in force
        floor = 0 if trial % 2 else 1
        caps = tuple(
            rng.randint(min(floor, len(base.incidence[v])), len(base.incidence[v]))
            for v in range(n)
        )
        g = build_graph(n, base.edges, capacities=caps)
        t0 = time.perf_counter()
        dfs, state = solve_with_state(g, instrument=True)
        flow = minimum_star_coloring_flow(g)
        oracle = brute_force_xstar(g)
        core_seconds += time.perf_counter() - t0
        oracle_k, _ = brute_force_kstar(g)
        solver_k, orientation = solve_min_max_ind(g)
        recover_ok = True
        if solver_k != INFEASIBLE:
            indeg = [0] * n
            for h in orientation.head:
                indeg[h] += 1
            recover_ok = max(indeg) == solver_k and all(
                indeg[v] <= caps[v] for v in range(n)
            )
        pendant = None
        if m + n <= 20:
            pendant = brute_force_xstar(ind_to_star(g).reduced).value
        records.append(
            RandomRecord(
                n=n,
                edges=base.edges,
                caps=caps,
                dfs=dfs.value,
                flow=flow.value,
                oracle_x=oracle.value,
                dfs_witness_ok=_witness_ok(g, dfs),
                flow_witness_ok=_witness_ok(g, flow),
                oracle_k=oracle_k,
                solver_k=solver_k,
                recover_ok=recover_ok,
                pendant_oracle_x=pendant,
                edge_visits=state.edge_visits,
            )
        )
    return records, core_seconds


@pytest.fixture(scope="session")
def capacity_suite():
    """Sampled capacity vectors over the exhaustive graphs for the pendant check.

    Both sides are brute-forced whenever the pendant-extended enumeration
    is tractable: always for up to five nodes, on a deterministic stride
    for the six-node graphs.
    """
    rng = random.Random(424242)
    records = []
    for n in range(2, 7):
        stride = 25 if n == 6 else 1
        for index, edges in enumerate(connected_edge_sets(n)):
            if index % stride:
                continue
            g_default = build_graph(n, edges)
            vectors = [None]
            for _ in range(2):
                vectors.append(
                    tuple(
                        rng.choice([0, 1, len(g_default.incidence[v])])
                        for v in range(n)
                    )
                )
            for caps in vectors:
                g = build_graph(n, edges, capacities=caps)
                oracle_k, _ = brute_force_kstar(g)
                pendant_x = brute_force_xstar(ind_to_star(g).reduced).value
                solver_k, orientation = solve_min_max_ind(g)
                recover_ok = True
                if solver_k != INFEASIBLE:
                    indeg = [0] * n
                    for h in orientation.head:
                        indeg[h] += 1
                    recover_ok = max(indeg) == solver_k and all(
                        indeg[v] <= g.capacities[v] for v in range(n)
                    )
                records.append((n, edges, caps, oracle_k, pendant_x, solver_k, recover_ok))
    return records


# --- criterion 1 ---------------------------------------------------------------


def test_criterion_1_complete_bipartite_formula():
    expected = {2: 2, 3: 3, 4: 3, 5: 4, 6: 4}
    for n, want in expected.items():
        g = generate(GeneratorSpec("knn", n=n))
        t0 = time.perf_counter()
        dfs = minimum_star_coloring(g).value
        t_dfs = time.perf_counter() - t0
        t0 = time.perf_counter()
        flow = minimum_star_coloring_flow(g).value
        t_flow = time.perf_counter() - t0
        assert dfs == flow == want == -(-n // 2) + 1
        assert t_dfs < 1.0 and t_flow < 1.0
    _report(1, "x*(K_{n,n}) = ceil(n/2)+1 for n=2..6 on both solvers, each < 1 s")


# --- criterion 2 ---------------------------------------------------------------


def test_criterion_2_fig2_fixture(tmp_path, capsys):
    fig2 = generate(GeneratorSpec("fig2"))
    assert minimum_star_coloring(fig2).value == 3
    assert minimum_star_coloring_flow(fig2).value == 3

    inst = tmp_path / "fig2.graph"
    cli_main(["gen", "--family", "fig2", "--out", str(inst)])
    sol = tmp_path / "fig2.sol"
    assert cli_main(["solve", str(inst), "--algo", "dfs", "--out", str(sol)]) == 0
    assert cli_main(["verify", str(inst), str(sol), "--bound", "3"]) == 0
    assert cli_main(["verify", str(inst), str(sol), "--bound", "2"]) == 1
    capsys.readouterr()
    _report(2, "both solvers give 3 on the 7-node fixture; verify passes at 3, fails at 2")


# --- criterion 3 ---------------------------------------------------------------


def test_criterion_3_flow_probe_fixtures(fig6a, fig6d):
    g_a, start_a = fig6a
    repaired = test_x(g_a, 2, start_a)
    assert repaired is not None
    coloring = orientation_to_owner(g_a, repaired)
    assert is_valid(g_a, coloring) and _value_of(g_a, coloring) == 2

    g_d, start_d = fig6d
    assert test_x(g_d, 2, start_d) is None
    assert minimum_star_coloring(g_d).value == 3
    assert minimum_star_coloring_flow(g_d).value == 3
    assert brute_force_xstar(g_d).value == 3
    _report(3, "probe at 2 repairs the 5-node fixture and refutes the 7-node one (x*=3)")


# --- criterion 4 ---------------------------------------------------------------


def test_criterion_4_oracle_equivalence(exhaustive_suite, random_suite):
    records, t_exhaustive = exhaustive_suite
    assert len(records) == 27476
    for r in records:
        assert r.dfs == r.flow == r.oracle_x, (r.n, r.edges, r.dfs, r.flow, r.oracle_x)
        assert r.dfs_witness_ok and r.flow_witness_ok, (r.n, r.edges)

    randoms, t_random = random_suite
    assert len(randoms) >= 200
    infeasible = 0
    for r in randoms:
        assert r.dfs == r.flow == r.oracle_x, (r.n, r.edges, r.caps)
        assert r.dfs_witness_ok and r.flow_witness_ok
        infeasible += r.oracle_x == INFEASIBLE
    assert infeasible > 0
    total = t_exhaustive + t_random
    assert total < 300.0, f"core suite took {total:.1f}s"
    _report(
        4,
        f"dfs = flow = brute force on {len(records)} exhaustive + {len(randoms)} random "
        f"graphs ({infeasible} infeasible) in {total:.1f}s core time",
    )


def test_closed_forms_and_characterization_exhaustive(exhaustive_suite):
    # companion check on the shared suite: closed forms agree with the oracle
    # wherever they apply, and value 1 characterizes acyclic diameter-2 graphs
    records, _ = exhaustive_suite
    closed_hits = 0
    for r in records:
        assert r.closed_ok, (r.n, r.edges)
        closed_hits += r.closed is not None
        acyclic = len(r.edges) == r.n - 1
        assert (r.oracle_x <= 1) == (acyclic and r.diameter <= 2), (r.n, r.edges)
    assert closed_hits > 1000


# --- criterion 5 ---------------------------------------------------------------


def test_criterion_5_pendant_reduction(exhaustive_suite, random_suite, capacity_suite):
    records, _ = exhaustive_suite
    # default capacities: solver-side equality on every suite member
    for r in records:
        assert r.solver_k == r.oracle_k, (r.n, r.edges)

    randoms, _ = random_suite
    both_sides = 0
    for r in randoms:
        assert r.solver_k == r.oracle_k, (r.n, r.edges, r.caps)
        assert r.recover_ok
        if r.pendant_oracle_x is not None:
            assert r.pendant_oracle_x - 1 == r.oracle_k
            both_sides += 1
    assert both_sides >= 50

    infeasible = 0
    for n, edges, caps, oracle_k, pendant_x, solver_k, recover_ok in capacity_suite:
        assert pendant_x - 1 == oracle_k, (n, edges, caps)
        assert solver_k == oracle_k
        assert recover_ok
        infeasible += oracle_k == INFEASIBLE
    assert infeasible > 0
    _report(
        5,
        f"k*(g) = x*(g')-1 incl. the infinite case on {len(capacity_suite)} "
        f"capacity-sampled + {both_sides} random both-sides-brute-forced instances",
    )


# --- criterion 6 ---------------------------------------------------------------


def test_criterion_6_simultaneous_optimum(exhaustive_suite):
    records, _ = exhaustive_suite
    for r in records:
        assert r.sim_x == r.oracle_x, (r.n, r.edges)
        assert r.sim_k == r.oracle_k, (r.n, r.edges)
        assert r.sim_witness_ok, (r.n, r.edges)
        assert r.oracle_k <= r.oracle_x <= r.oracle_k + 1
    _report(
        6,
        f"one orientation attains oracle x* and k* simultaneously on all "
        f"{len(records)} capacity-free instances; k* <= x* <= k*+1 throughout",
    )


# --- criterion 7 ---------------------------------------------------------------


def test_criterion_7_gadget_reduction():
    # exhaustive single-gadget check: existence plus both forced directions
    checked = 0
    for w_v in (1, 2, 3):
        for k in (1, 2, 3, 4):
            g = build_graph(1, [], weights=[w_v])
            red = gadget_transform(g, k)
            anchor = red.gadget_nodes[0][4]
            weights = red.reduced.weights
            feasible = 0
            for mask in range(1 << red.reduced.m):
                heads = tuple(
                    nodes[1] if mask >> e & 1 else nodes[0]
                    for e, nodes in enumerate(red.reduced.edges)
                )
                orientation = Orientation(heads)
                value = max(
                    _weighted_star(red.reduced, weights, orientation, v)
                    for v in range(red.reduced.n)
                )
                if value <= red.threshold:
                    feasible += 1
                    assert orientation.head[5] == anchor
                    assert orientation.head[0] == 0
            assert feasible > 0
            checked += 1
    assert checked == 12

    # decision equivalence on every connected shape with at most three edges
    shapes = [
        (2, ((0, 1),)),
        (3, ((0, 1), (1, 2))),
        (4, ((0, 1), (1, 2), (2, 3))),
        (3, ((0, 1), (1, 2), (0, 2))),
        (4, ((0, 1), (0, 2), (0, 3))),
    ]
    cases = 0
    for n, edges in shapes:
        for weights in itertools.product((1, 2, 3), repeat=n):
            g = build_graph(n, edges, weights=weights)
            optimum, _ = brute_force_weighted(g, "ind")
            for k in range(1, 7):
                assert (optimum <= k) == gadget_reduced_yes(g, weights, k), (
                    edges,
                    weights,
                    k,
                )
                cases += 1
    _report(
        7,
        f"gadget forces both edge directions in all 12 single-node settings; "
        f"decision equivalence holds on {cases} small weighted instances",
    )


def _weighted_star(g, weights, orientation, v):
    total = 0
    outgoing = False
    for e in g.incidence[v]:
        nodes = g.edges[e]
        if orientation.head[e] == v:
            total += weights[nodes[0] if nodes[1] == v else nodes[1]]
        else:
            outgoing = True
    return total + (weights[v] if outgoing else 0)


# --- criterion 8 ---------------------------------------------------------------


def _packing_feasible(sizes, bins, capacity):
    loads = [0] * bins
    n = len(sizes)

    def place(j):
        if j == n:
            return True
        seen = set()
        for l in range(bins):
            if loads[l] in seen:
                continue
            seen.add(loads[l])
            if loads[l] + sizes[j] <= capacity:
                loads[l] += sizes[j]
                if place(j + 1):
                    return True
                loads[l] -= sizes[j]
        return False

    return place(0)


def test_criterion_8_binpacking_reduction():
    bp = BinPackingInstance(sizes=(1, 1, 3, 6, 8, 9), bins=3, capacity=10)
    g, threshold = binpacking_to_wind(bp)
    assert g.weights == (2, 2, 6, 12, 16, 18, 10, 10, 10) and threshold == 20
    value, orientation = brute_force_weighted(g, "ind")
    assert value <= threshold
    packing = extract_packing(bp, orientation)
    loads = [0, 0, 0]
    for j, l in enumerate(packing):
        loads[l] += bp.sizes[j]
    assert all(load <= 10 for load in loads)

    cases = yes = 0
    for kbins in (2, 3):
        for capacity in range(1, 11):
            for n_items in range(1, 6):
                for sizes in itertools.combinations_with_replacement(
                    range(1, 7), n_items
                ):
                    packable = _packing_feasible(sizes, kbins, capacity)
                    gb, thr = binpacking_to_wind(
                        BinPackingInstance(sizes=sizes, bins=kbins, capacity=capacity)
                    )
                    best, _ = brute_force_weighted(gb, "ind")
                    assert (best <= thr) == packable, (sizes, kbins, capacity)
                    cases += 1
                    yes += packable
    assert yes and cases - yes
    _report(
        8,
        f"packing feasibility matches the weighted-indegree decision on all "
        f"{cases} instances (n<=5, sizes<=6, K in 2..3, c<=10); fixture loads {loads}",
    )


# --- criterion 9 ---------------------------------------------------------------


def test_criterion_9_approximation_bounds():
    rng = random.Random(77)
    count = 0
    worst_ind = worst_star = 1.0
    while count < 110:
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
        base = generate(GeneratorSpec("random", n=n, m=m, seed=5000 + count))
        weights = tuple(rng.randint(1, 9) for _ in range(n))
        g = build_graph(n, base.edges, weights=weights)
        k_opt, _ = brute_force_weighted(g, "ind")
        x_opt, _ = brute_force_weighted(g, "star")
        _, value = approx2_wind(g)
        _, star_value = approx4_wstar(g)
        assert k_opt <= value <= 2 * k_opt, (base.edges, weights)
        assert x_opt <= star_value <= 4 * x_opt, (base.edges, weights)
        worst_ind = max(worst_ind, value / k_opt)
        worst_star = max(worst_star, star_value / x_opt)
        count += 1
    _report(
        9,
        f"approx2 <= 2 k* and approx4 <= 4 x* with zero violations on {count} "
        f"weighted graphs (worst ratios {worst_ind:.2f}, {worst_star:.2f})",
    )


# --- criterion 10 --------------------------------------------------------------


def test_criterion_10_property_suites(random_suite):
    # coloring <-> orientation round trip, exhaustive on graphs with <= 4 edges
    roundtrips = 0
    for n in range(2, 6):
        for edges in connected_edge_sets(n):
            if len(edges) > 4:
                continue
            g = build_graph(n, edges)
            for owners in itertools.product(*g.edges):
                coloring = PartialColoring(owners)
                orientation = owner_to_orientation(g, coloring)
                assert orientation_to_owner(g, orientation) == coloring
                roundtrips += 1

    # flip-invariance ran as instrumented assertions inside the random suite;
    # re-run a fresh slice here so the criterion fails if instrumentation is off
    records, _ = random_suite
    rng = random.Random(88)
    for trial in range(25):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=8000 + trial, cap_rule="random"))
        solve_with_state(g, instrument=True)

    # flow conservation and slack non-negativity of every probe witness
    probes = 0
    for trial in range(40):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 14))
        g = generate(GeneratorSpec("random", n=n, m=m, seed=9000 + trial))
        start = Orientation(tuple(rng.choice(e) for e in g.edges))
        delta = max_degree(g)
        for x in sorted({1, (1 + delta) // 2, delta}):
            net = build_flow_network(g, start, x)
            assert net.arc_count <= 3 * g.m
            flow = max_flow_unit(net)
            into = [0] * n
            out = [0] * n
            for e, (tail, head) in enumerate(net.arcs):
                assert flow.edge_flow[e] in (0, 1)
                out[tail] += flow.edge_flow[e]
                into[head] += flow.edge_flow[e]
            for v in range(n):
                assert flow.source_flow[v] <= net.source_mult[v]
                assert flow.sink_flow[v] <= net.sink_mult[v]
                assert into[v] + flow.source_flow[v] == out[v] + flow.sink_flow[v]
            repaired = test_x(g, x, start)
            if repaired is not None:
                from starpart import slackness

                assert all(slackness(g, repaired, v, x) >= 0 for v in range(n))
                probes += 1

    # visit counters: quadratic on the random suite, eta-linear per search on
    # hypergraphs (the per-search bound is asserted inside instrumentation)
    for r in records:
        m = len(r.edges)
        assert r.edge_visits <= 4 * m * m
    hyper_checked = 0
    for trial in range(40):
        n = rng.randint(3, 7)
        m = rng.randint(2, 6)
        try:
            g = generate(GeneratorSpec("hyper", n=n, m=m, max_edge_size=3, seed=trial))
        except Exception:
            continue
        result, state = solve_with_state(g, instrument=True)
        eta = max_edge_size(g)
        assert state.edge_visits <= 4 * eta * g.m * g.m
        hyper_checked += 1
    assert hyper_checked >= 20
    _report(
        10,
        f"{roundtrips} exhaustive round trips; instrumented flip-invariance; "
        f"{probes} probe witnesses slack-clean; visit counters within bounds",
    )


# --- criterion 11 --------------------------------------------------------------


def test_criterion_11_multigraphs():
    rng = random.Random(99)
    cases = 0
    for trial in range(150):
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 7))
        base = generate(GeneratorSpec("random", n=n, m=m, seed=6000 + trial))
        edges = []
        for e in base.edges:
            edges.extend([e] * rng.randint(1, 3))
        if len(edges) > 16:
            edges = edges[:16]
            present = {tuple(e) for e in edges}
            for e in base.edges:
                if e not in present:
                    edges.append(e)
        g = build_graph(n, edges, GraphKind.MULTI)
        if g.m > 20:
            continue
        res_dfs = preprocess_and_solve(g, "dfs")
        res_flow = preprocess_and_solve(g, "flow")
        oracle = brute_force_xstar(g)
        assert res_dfs.value == res_flow.value == oracle.value, (edges,)
        for res in (res_dfs, res_flow):
            owners = {}
            for e, nodes in enumerate(g.edges):
                owners.setdefault(nodes, set()).add(res.coloring.owner[e])
            assert all(len(s) == 1 for s in owners.values())
            assert _value_of(g, res.coloring) == res.value
        cases += 1
    assert cases >= 100
    _report(
        11,
        f"preprocess+solve equals the multigraph brute force on {cases} random "
        f"multigraphs; parallel classes share owners in every witness",
    )


# --- criterion 12 --------------------------------------------------------------


def test_criterion_12_linear_hypergraphs():
    from starpart.errors import NonLinearHypergraph

    with pytest.raises(NonLinearHypergraph) as err:
        build_graph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], GraphKind.LINEAR_HYPER)
    assert err.value.shared == (1, 2)

    rng = random.Random(111)
    solved = 0
    trial = 0
    while solved < 100:
        trial += 1
        n = rng.randint(3, 7)
        m = rng.randint(2, 7)
        try:
            g = generate(
                GeneratorSpec("hyper", n=n, m=m, max_edge_size=3, seed=7000 + trial)
            )
        except Exception:
            continue
        res = minimum_star_coloring(g)
        oracle = brute_force_xstar(g)
        assert res.value == oracle.value, (g.edges,)
        if res.feasible:
            assert is_valid(g, res.coloring)
            assert _value_of(g, res.coloring) == res.value
        solved += 1
    _report(
        12,
        f"dfs equals brute force on {solved} random linear hypergraphs; the "
        f"overlapping-triple edge set is rejected at build time",
    )
