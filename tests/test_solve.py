"""The one exact-solve entry point, ``solve``, and the one evaluator, ``node_loads``."""

import random
from itertools import combinations

import pytest

import starpart.coloring as coloring
from starpart import (
    INFEASIBLE,
    GraphKind,
    brute_force_kstar,
    brute_force_weighted,
    brute_force_xstar,
    build_graph,
    minimum_star_coloring,
    minimum_star_coloring_flow,
    node_loads,
    preprocess_and_solve,
    solve,
    solve_min_max_ind,
)
from starpart.cli import main
from starpart.errors import Disconnected, UnsupportedKind

KINDS = [GraphKind.SIMPLE, GraphKind.MULTI, GraphKind.WITH_SELF_LOOPS, GraphKind.LINEAR_HYPER]


def random_edges(rng, kind, n):
    """A small random edge list of the given kind on n >= 3 nodes."""
    if kind is GraphKind.LINEAR_HYPER:
        edges, pairs = [], set()
        for _ in range(rng.randint(2, 6)):
            e = tuple(sorted(rng.sample(range(n), rng.randint(2, 3))))
            if not pairs & set(combinations(e, 2)):
                pairs |= set(combinations(e, 2))
                edges.append(e)
        return edges
    edges = rng.sample(list(combinations(range(n), 2)), rng.randint(2, min(7, n * (n - 1) // 2)))
    if kind is GraphKind.MULTI:
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
    if kind is GraphKind.WITH_SELF_LOOPS:
        edges += [(v, v) for v in rng.sample(range(n), rng.randint(1, 2))]
    rng.shuffle(edges)
    return edges


def random_graph(rng, kind, capped=False, weighted=False):
    while True:
        n = rng.randint(3, 6)
        edges = random_edges(rng, kind, n)
        try:
            probe = build_graph(n, edges, kind)
            break
        except Disconnected:
            continue
    caps = [rng.randint(0, len(inc)) for inc in probe.incidence] if capped else None
    weights = [rng.randint(1, 4) for _ in range(n)] if weighted else None
    return build_graph(n, edges, kind, capacities=caps, weights=weights)


def per_solver_value(g, objective, algo):
    """The optimum from the solver function that ``solve`` should pick."""
    if any(w != 1 for w in g.weights):
        return brute_force_weighted(g, objective)[0]
    if objective == "ind":
        return brute_force_kstar(g)[0] if algo == "oracle" else solve_min_max_ind(g, algo)[0]
    if algo == "oracle":
        return brute_force_xstar(g).value
    if g.kind in (GraphKind.MULTI, GraphKind.WITH_SELF_LOOPS):
        return preprocess_and_solve(g, algo).value
    return (minimum_star_coloring if algo == "dfs" else minimum_star_coloring_flow)(g).value


def check_witness(g, objective, res):
    if res.value == INFEASIBLE:
        assert res.coloring is None
        return
    owner = res.coloring.owner
    assert len(owner) == g.m and all(o in nodes for o, nodes in zip(owner, g.edges))
    weighted = any(w != 1 for w in g.weights)
    if not weighted:  # the weighted problems carry no capacities
        counts = node_loads(g, owner, objective)
        assert all(c <= cap for c, cap in zip(counts, g.capacities))
    loads = node_loads(g, owner, objective, g.weights if weighted else None)
    assert max(loads, default=0) == res.value


def test_solve_matches_the_per_solver_functions():
    rng = random.Random(15)
    infeasible = 0
    for trial in range(160):
        kind = KINDS[trial % 4]
        capped = trial % 3 == 1
        g = random_graph(rng, kind, capped=capped)
        for objective in ("star", "ind"):
            for algo in ("dfs", "flow", "oracle"):
                if objective == "ind" and kind is not GraphKind.SIMPLE:
                    with pytest.raises(UnsupportedKind):
                        solve(g, objective, algo)
                    continue
                if algo == "flow" and kind is GraphKind.LINEAR_HYPER:
                    with pytest.raises(UnsupportedKind):
                        solve(g, objective, algo)
                    continue
                res = solve(g, objective, algo)
                assert res.value == per_solver_value(g, objective, algo), (g, objective, algo)
                check_witness(g, objective, res)
                infeasible += res.value == INFEASIBLE
    assert infeasible > 0


def test_solve_weighted_graphs_only_by_the_oracle():
    rng = random.Random(16)
    for trial in range(20):
        g = random_graph(rng, GraphKind.SIMPLE, weighted=True)
        if all(w == 1 for w in g.weights):
            continue
        for objective in ("star", "ind"):
            for algo in ("auto", "dfs", "flow"):
                with pytest.raises(UnsupportedKind, match="--algo oracle"):
                    solve(g, objective, algo)
            res = solve(g, objective, "oracle")
            assert res.value == brute_force_weighted(g, objective)[0]
            check_witness(g, objective, res)


def test_solve_auto_picks_dfs_on_hypergraphs_and_flow_otherwise():
    rng = random.Random(17)
    for kind in KINDS:
        g = random_graph(rng, kind)
        algo = "dfs" if kind is GraphKind.LINEAR_HYPER else "flow"
        assert solve(g) == solve(g, "star", algo)
    with pytest.raises(ValueError):
        solve(g, "star", "simplex")
    with pytest.raises(ValueError):
        solve(g, "wind")


def test_flow_ind_solve_flips_ends_once(monkeypatch):
    rng = random.Random(18)
    base = random_graph(rng, GraphKind.SIMPLE)
    g = build_graph(base.n, base.edges, capacities=[len(inc) for inc in base.incidence])
    flip = coloring._flip_ends
    calls = []

    def counted(*args):
        calls.append(args[2])
        return flip(*args)

    monkeypatch.setattr(coloring, "_flip_ends", counted)
    res = solve(g, "ind")
    # only the flow search's own heads-to-owners conversion of its witness
    assert calls == ["head"]
    assert res.value == solve_min_max_ind(g)[0]


def recount(g, owner, objective, weights):
    w = weights or [1] * g.n
    loads = []
    for v in range(g.n):
        incident = [e for e in range(g.m) if v in g.edges[e]]
        if objective == "star":
            loads.append(sum(w[u] for u in {owner[e] for e in incident}))
        else:
            loads.append(sum(w[owner[e]] for e in incident if owner[e] != v))
    return loads


def test_node_loads_matches_a_direct_recount():
    rng = random.Random(19)
    for trial in range(200):
        kind = KINDS[trial % 4]
        g = random_graph(rng, kind)
        weights = [rng.randint(1, 5) for _ in range(g.n)] if trial % 2 else None
        owner = tuple(rng.choice(nodes) for nodes in g.edges)
        objectives = ["star"]
        if all(len(nodes) == 2 for nodes in g.edges):
            objectives.append("ind")
        for objective in objectives:
            assert node_loads(g, owner, objective, weights) == recount(g, owner, objective, weights)


MULTI_TEXT = """\
kind multi
node a w=2
node b w=1
node c w=3
edge a b
edge a b
edge b c
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "{inst}", "--out", "{out}"],
        ["approx", "{inst}", "--objective", "wstar", "--out", "{out}"],
        ["reduce", "wind2wstar", "{inst}", "--k", "3", "--out", "{out}"],
    ],
)
def test_weighted_commands_reject_multigraphs(tmp_path, capsys, argv):
    inst = tmp_path / "multi.graph"
    inst.write_text(MULTI_TEXT)
    out = tmp_path / "out.txt"
    argv = [a.format(inst=inst, out=out) for a in argv]
    assert main(argv) == 2
    assert "simple graphs" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.txt.map.json").exists()
