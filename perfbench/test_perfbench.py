"""Tests of the benchmark's checks, generators and trace metrics; none imports starpart.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import random

import pytest

import checks
import instances
import tracer
from checks import CheckFailed
from instances import Instance

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _solution(owners, value):
    lines = [f"owner {e} v{o}" for e, o in enumerate(owners)]
    return "\n".join(lines + [f"value {value}"]) + "\n"


def _brute_wind(inst):
    best = None
    for bits in itertools.product((0, 1), repeat=inst.m):
        heads = [e[b] for e, b in zip(inst.edges, bits)]
        value = checks.weighted_ind_value(inst, heads)
        best = value if best is None else min(best, value)
    return best


def test_star_witness_accepts_a_valid_answer_and_rejects_a_flip_over_capacity():
    owners = [0, 0, 0, 1, 1, 2]  # node 3 sees the colors 0, 1 and 2
    assert checks.check_witness(Instance("simple", 4, K4), _solution(owners, 3), "star", 3) == 3
    inst = Instance("simple", 4, K4, caps=[3, 3, 3, 2])
    with pytest.raises(CheckFailed, match="capacity"):
        checks.check_witness(inst, _solution(owners, 3), "star", 3)


def test_ind_witness_rejects_a_flip_over_capacity():
    inst = Instance("simple", 4, K4, caps=[2, 2, 2, 2])
    owners = [0, 2, 3, 1, 1, 2]  # indegrees 1, 1, 2, 2
    assert checks.check_witness(inst, _solution(owners, 2), "ind", 2) == 2
    flipped = list(owners)
    flipped[0] = 1  # edge 0-1 now points at node 0: indegree 3
    with pytest.raises(CheckFailed, match="capacity"):
        checks.check_witness(inst, _solution(flipped, 3), "ind", 3)


def test_declared_value_one_below_the_truth_is_rejected():
    inst = Instance("simple", 4, K4)
    owners = [0, 0, 0, 1, 1, 2]
    with pytest.raises(CheckFailed, match="declared"):
        checks.check_witness(inst, _solution(owners, 2), "star", 2)
    with pytest.raises(CheckFailed, match="printed"):
        checks.check_witness(inst, _solution(owners, 3), "star", 2)


def test_owner_outside_its_edge_and_missing_owner_are_rejected():
    inst = Instance("simple", 4, K4)
    with pytest.raises(CheckFailed, match="not an endpoint"):
        checks.read_solution(_solution([3, 0, 0, 1, 1, 2], 3), inst)
    with pytest.raises(CheckFailed, match="no owner"):
        checks.read_solution("owner 0 v0\nvalue 1\n", inst)
    with pytest.raises(CheckFailed, match="unknown edge"):
        checks.read_solution("owner 6 v0\nvalue 1\n", inst)
    with pytest.raises(CheckFailed, match="INFEASIBLE"):
        checks.read_value("value INFEASIBLE\n")


def test_optimality_by_counting_bound_and_by_max_flow():
    # K4: the counting bound is ceil(7/4) = 2 but x* = 3.
    k4 = Instance("simple", 4, K4)
    assert checks.counting_bound(k4, "star") == 2
    assert checks.check_optimal(k4, "star", 3) == "max flow at value - 1"
    with pytest.raises(CheckFailed):
        checks.check_optimal(k4, "star", 4)
    path = Instance("simple", 3, [(0, 1), (1, 2)])
    assert checks.check_optimal(path, "star", 1) == "counting bound"
    # k*(K4) = ceil(6/4) = 2; a claim of 3 is not optimal.
    assert checks.check_optimal(k4, "ind", 2) == "counting bound"
    with pytest.raises(CheckFailed):
        checks.check_optimal(k4, "ind", 3)


def test_optimality_proof_on_a_linear_hypergraph():
    # Fano plane: 7 triples, each node in 3; sum|e| - m + 1 = 15, bound 3.
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    inst = Instance("hyper", 7, fano)
    assert checks.counting_bound(inst, "star") == 3
    assert checks.infeasible_at(inst, "star", 2)


def test_wind_optimum_matches_brute_force_and_forged_approx_is_rejected():
    rng = random.Random(3)
    for _ in range(3):
        edges = instances.random_connected_simple(rng, 6, 9, max_degree=4)
        inst = Instance("simple", 6, edges, weights=[rng.randint(1, 3) for _ in range(6)])
        opt, heads = checks.wind_optimum(inst)
        assert opt == _brute_wind(inst) == checks.weighted_ind_value(inst, heads)
        checks.check_approx(opt, opt)
        checks.check_approx(2 * opt, opt)
        with pytest.raises(CheckFailed):
            checks.check_approx(2 * opt + 1, opt)
        with pytest.raises(CheckFailed):
            checks.check_approx(opt - 1, opt)


def test_generators_are_deterministic_and_meet_their_promises():
    for make in instances.GENERATORS.values():
        a, b = make(7), make(7)
        assert [x.edges for x in a] == [x.edges for x in b]
        assert [x.caps for x in a] == [x.caps for x in b]
        assert [x.weights for x in a] == [x.weights for x in b]
    (hyper,) = instances.hyper_dfs(7)
    pairs = [p for e in hyper.edges for p in itertools.combinations(e, 2)]
    assert len(pairs) == len(set(pairs)), "two hyperedges share a node pair"
    assert {len(e) for e in hyper.edges} == {2, 3}
    (sparse,) = instances.star_sparse(7)
    assert len(set(sparse.edges)) == sparse.m == 60000
    assert max(checks._degrees(sparse)) == 16
    (dense,) = instances.ind_dense_cap(7)
    assert len(set(dense.edges)) == dense.m == 60000
    assert not checks.infeasible_at(dense, "ind", dense.planted_max)


def test_layer_metrics_use_self_times_and_leave_out_missing_hooks():
    record = {
        "import_s": 0.3,
        "untraced_s": 10.0,
        "traced_s": 10.5,
        "hooked": ["starpart.instance_io.parse_instance", "starpart.graph.build_graph"],
        "broken": [],
        "counters": {"io.instance_bytes": 99},
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["io.parse", 1.0, 3.0, 0],
            ["graph.build", 2.0, 2.5, 1],
        ],
    }
    out = tracer.layer_metrics(record)
    assert out["cli.self_s"] == (8.0, "s")
    assert out["io.parse_s"] == (1.5, "s")
    assert out["graph.build_s"] == (0.5, "s")
    assert out["graph.build_calls"] == (1, "count")
    assert out["io.instance_bytes"] == (99, "bytes")
    assert out["trace.overhead_pct"][0] == pytest.approx(5.0)
    for absent in ("flow.maxflow_s", "flow.glue_s", "lp.pivots", "weighted.lp_calls"):
        assert absent not in out
