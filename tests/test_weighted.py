import itertools
import random
from fractions import Fraction

import pytest

from starpart import (
    BinPackingInstance,
    FractionalOrientation,
    Orientation,
    binpacking_to_wind,
    brute_force_kstar,
    brute_force_weighted,
    brute_force_xstar,
    build_graph,
    extract_packing,
    gadget_orientation,
    gadget_transform,
    generate,
    GeneratorSpec,
    lp_feasible,
    packing_to_orientation,
    approx2_wind,
    approx4_wstar,
    round_fractional,
    weighted_indeg_value,
    weighted_star_value,
)
from starpart.errors import NoOutgoingEdge, NotPseudoforest, TooLarge
from gadget_check import gadget_reduced_yes


def reduced_star_value(g, orientation):
    return max(weighted_star_value(g, g.weights, orientation, v) for v in range(g.n))


def test_indeg_value_single_edge():
    g = build_graph(2, [(0, 1)], weights=[5, 1])
    toward_1 = Orientation((1,))
    assert weighted_indeg_value(g, g.weights, toward_1, 1) == 5
    assert weighted_indeg_value(g, g.weights, toward_1, 0) == 0


def test_indeg_value_equals_unweighted_for_unit_weights(fig2):
    rng = random.Random(97)
    orientation = Orientation(tuple(rng.choice(e) for e in fig2.edges))
    indeg = [0] * fig2.n
    for h in orientation.head:
        indeg[h] += 1
    for v in range(fig2.n):
        assert weighted_indeg_value(fig2, fig2.weights, orientation, v) == indeg[v]


def test_star_value_cases():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[2, 3, 5])
    cycle = Orientation((1, 2, 0))
    values = [weighted_star_value(g, g.weights, cycle, v) for v in range(3)]
    assert values == [7, 5, 8]
    # a pure sink pays only foreign stars
    sink = Orientation((1, 1, 0))
    assert weighted_star_value(g, g.weights, sink, 1) == weighted_indeg_value(
        g, g.weights, sink, 1
    )


def test_brute_force_weighted_single_edge():
    g = build_graph(2, [(0, 1)], weights=[4, 7])
    assert brute_force_weighted(g, (4, 7), "ind")[0] == 4
    assert brute_force_weighted(g, (4, 7), "star")[0] == 4


def test_brute_force_weighted_unit_weights_match_unweighted(triangle):
    assert brute_force_weighted(triangle, (1, 1, 1), "ind")[0] == brute_force_kstar(triangle)[0]
    assert brute_force_weighted(triangle, (1, 1, 1), "star")[0] == brute_force_xstar(triangle).value


def test_brute_force_weighted_guard():
    path = build_graph(26, [(i, i + 1) for i in range(25)])
    with pytest.raises(TooLarge):
        brute_force_weighted(path, path.weights, "ind")


# --- gadget reduction --------------------------------------------------------


def test_gadget_shape_and_weights():
    g = build_graph(1, [])
    red = gadget_transform(g, (3,), 2)
    assert red.big == 8 and red.threshold == 10
    assert red.reduced.n == 10 and red.reduced.m == 10
    v1, v2, v3, v4 = red.gadget_nodes[0][:4]
    w = red.reduced.weights
    assert w[v1] == w[v4] == 5
    assert w[v2] == w[v3] == 5
    assert all(w[a] == 11 for a in red.gadget_nodes[0][4:])
    # per node: nine fresh nodes and ten fresh edges
    two = gadget_transform(build_graph(2, [(0, 1)], weights=[1, 2]), (1, 2), 1)
    assert two.reduced.n == 2 + 18 and two.reduced.m == 1 + 20


def test_gadget_forces_both_edges():
    g = build_graph(1, [])
    red = gadget_transform(g, (3,), 2)
    w = red.reduced.weights
    anchor_of_v = red.gadget_nodes[0][4]
    feasible = 0
    for mask in range(1 << red.reduced.m):
        heads = tuple(
            nodes[1] if mask >> e & 1 else nodes[0]
            for e, nodes in enumerate(red.reduced.edges)
        )
        orientation = Orientation(heads)
        if reduced_star_value(red.reduced, orientation) <= red.threshold:
            feasible += 1
            assert orientation.head[5] == anchor_of_v  # the heavy pendant absorbs
            assert orientation.head[0] == 0  # the ring edge feeds v
    assert feasible > 0


def test_gadget_canonical_orientation_hits_threshold():
    for w_v in (1, 2, 3):
        for k in (1, 2, 4):
            g = build_graph(1, [])
            red = gadget_transform(g, (w_v,), k)
            orientation = gadget_orientation(red, Orientation(()))
            assert reduced_star_value(red.reduced, orientation) <= red.threshold


def test_gadget_forward_extension():
    # an orientation meeting the bound extends across the gadgets within threshold
    g = build_graph(3, [(0, 1), (1, 2)], weights=[2, 1, 3])
    k_opt, orientation = brute_force_weighted(g, g.weights, "ind")
    red = gadget_transform(g, g.weights, max(k_opt, 1))
    extended = gadget_orientation(red, orientation)
    assert reduced_star_value(red.reduced, extended) <= red.threshold


def test_gadget_equivalence_small():
    shapes = [
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
    ]
    rng = random.Random(101)
    for n, edges in shapes:
        for _ in range(6):
            w = tuple(rng.randint(1, 3) for _ in range(n))
            k = rng.randint(1, 5)
            g = build_graph(n, edges, weights=w)
            lhs = brute_force_weighted(g, w, "ind")[0] <= k
            assert lhs == gadget_reduced_yes(g, w, k)


def test_gadget_factorized_matches_direct_enumeration():
    # the 1-edge reduced graph still fits the direct guard: cross-validate
    for w, k in [((1, 2), 1), ((3, 3), 2)]:
        g = build_graph(2, [(0, 1)], weights=list(w))
        red = gadget_transform(g, w, k)
        direct, _ = brute_force_weighted(red.reduced, red.reduced.weights, "star")
        assert (direct <= red.threshold) == gadget_reduced_yes(g, w, k)


# --- bin packing -------------------------------------------------------------


def test_binpacking_reduction_shape():
    bp = BinPackingInstance(sizes=(1, 1, 3, 6, 8, 9), bins=3, capacity=10)
    g, threshold = binpacking_to_wind(bp)
    assert g.n == 9 and g.m == 18
    assert g.weights == (2, 2, 6, 12, 16, 18, 10, 10, 10)
    assert threshold == 20


def test_binpacking_trivial_single_item():
    bp = BinPackingInstance(sizes=(10,), bins=2, capacity=10)
    g, threshold = binpacking_to_wind(bp)
    value, orientation = brute_force_weighted(g, g.weights, "ind")
    assert value <= threshold
    assert extract_packing(bp, orientation)[0] in (0, 1)


def test_binpacking_two_items_fit_two_bins():
    # each item in its own bin: YES on both sides
    bp = BinPackingInstance(sizes=(6, 6), bins=2, capacity=10)
    g, threshold = binpacking_to_wind(bp)
    value, _ = brute_force_weighted(g, g.weights, "ind")
    assert value <= threshold


def test_extract_packing_leftmost_rule():
    bp = BinPackingInstance(sizes=(1, 1, 3, 6, 8, 9), bins=3, capacity=10)
    assignment = [0, 1, 0, 0, 1, 2]
    orientation = packing_to_orientation(bp, assignment)
    # give item 1 extra outgoing edges; extraction must pick the leftmost bin
    heads = list(orientation.head)
    heads[1] = 6 + 1  # edge (item0, bin1) also points at the bin
    heads[2] = 6 + 2
    packing = extract_packing(bp, Orientation(tuple(heads)))
    assert packing[0] == 0
    loads = [0, 0, 0]
    for j, l in enumerate(packing):
        loads[l] += bp.sizes[j]
    assert loads == [10, 9, 9]


def test_extract_packing_requires_outgoing():
    bp = BinPackingInstance(sizes=(5,), bins=2, capacity=5)
    orientation = Orientation((0, 0))  # both edges into the item node
    with pytest.raises(NoOutgoingEdge):
        extract_packing(bp, orientation)


def test_packing_orientation_roundtrip():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 5)
        kbins = rng.choice([2, 3])
        c = rng.randint(3, 10)
        sizes = tuple(rng.randint(1, c) for _ in range(n))
        bp = BinPackingInstance(sizes=sizes, bins=kbins, capacity=c)
        assignment = [rng.randrange(kbins) for _ in range(n)]
        loads = [0] * kbins
        for j, l in enumerate(assignment):
            loads[l] += sizes[j]
        if any(l > c for l in loads):
            continue
        orientation = packing_to_orientation(bp, assignment)
        g, threshold = binpacking_to_wind(bp)
        value = max(weighted_indeg_value(g, g.weights, orientation, v) for v in range(g.n))
        assert value <= threshold
        back = extract_packing(bp, orientation)
        back_loads = [0] * kbins
        for j, l in enumerate(back):
            back_loads[l] += sizes[j]
        assert all(l <= c for l in back_loads)


# --- LP, rounding, approximation ----------------------------------------------


def test_lp_trivially_feasible_at_weight_sum():
    g = build_graph(3, [(0, 1), (1, 2)], weights=[3, 4, 5])
    assert lp_feasible(g, g.weights, sum(g.weights)) is not None


def test_lp_infeasible_below_min_cost():
    g = build_graph(2, [(0, 1)], weights=[4, 7])
    assert lp_feasible(g, (4, 7), 3) is None


def test_lp_triangle_equal_weights():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[5, 5, 5])
    frac = lp_feasible(g, (5, 5, 5), 5)
    assert frac is not None
    assert all(frac.load(v) <= 5 for v in range(3))


def test_round_fractional_identity_on_integral():
    g = build_graph(3, [(0, 1), (1, 2)], weights=[2, 2, 2])
    one, zero = Fraction(1), Fraction(0)
    frac = FractionalOrientation(g, (2, 2, 2), 4, ((one, zero), (zero, one)))
    assert round_fractional(frac).head == (0, 2)


def test_round_fractional_cycle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[5, 5, 5])
    half = Fraction(1, 2)
    frac = FractionalOrientation(g, (5, 5, 5), 5, ((half, half),) * 3)
    rounded = round_fractional(frac)
    indeg = [0, 0, 0]
    for h in rounded.head:
        indeg[h] += 1
    assert indeg == [1, 1, 1]


def test_round_fractional_tree():
    g = build_graph(4, [(0, 1), (1, 2), (1, 3)], weights=[1, 1, 1, 1])
    third = Fraction(1, 3)
    frac = FractionalOrientation(
        g, (1, 1, 1, 1), 2,
        ((third, 1 - third), (1 - third, third), (third, 1 - third)),
    )
    rounded = round_fractional(frac)
    indeg = [0] * 4
    for h in rounded.head:
        indeg[h] += 1
    assert all(c <= 1 for c in indeg)  # each node receives at most one rounded edge


def test_round_fractional_rejects_dense_support():
    g = build_graph(4, list(itertools.combinations(range(4), 2)), weights=[1] * 4)
    half = Fraction(1, 2)
    frac = FractionalOrientation(g, (1,) * 4, 3, ((half, half),) * 6)
    with pytest.raises(NotPseudoforest):
        round_fractional(frac)


def test_rounding_respects_double_limit():
    rng = random.Random(107)
    for trial in range(30):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=trial))
        w = [rng.randint(1, 9) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)
        limit = rng.randint(max(min(w[a], w[b]) for a, b in g.edges), sum(w))
        frac = lp_feasible(g, w, limit)
        if frac is None:
            continue
        rounded = round_fractional(frac)
        for v in range(n):
            assert weighted_indeg_value(g, w, rounded, v) <= 2 * limit


def test_approx_triangle_equal_weights():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)], weights=[4, 4, 4])
    opt_ind = brute_force_weighted(g, g.weights, "ind")[0]
    opt_star = brute_force_weighted(g, g.weights, "star")[0]
    assert opt_ind == 4 and opt_star == 8
    _, value = approx2_wind(g)
    assert opt_ind <= value <= 2 * opt_ind
    _, star_value = approx4_wstar(g)
    assert opt_star <= star_value <= 4 * opt_star


def test_approx_bounds_random():
    rng = random.Random(109)
    for trial in range(40):
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 10))
        g0 = generate(GeneratorSpec("random", n=n, m=m, seed=400 + trial))
        w = [rng.randint(1, 9) for _ in range(n)]
        g = build_graph(n, g0.edges, weights=w)
        k_opt = brute_force_weighted(g, w, "ind")[0]
        x_opt = brute_force_weighted(g, w, "star")[0]
        orientation, value = approx2_wind(g, w)
        coloring, star_value = approx4_wstar(g, w)
        assert k_opt <= value <= 2 * k_opt
        assert x_opt <= star_value <= 4 * x_opt
        # the star value of any orientation is at most twice its indegree value
        k_of = max(weighted_indeg_value(g, w, orientation, v) for v in range(n))
        assert star_value <= 2 * max(k_of, value)


def test_approx_unit_weights_against_unweighted_solver(fig2):
    _, value = approx2_wind(fig2)
    k_opt = brute_force_kstar(fig2)[0]
    assert k_opt <= value <= 2 * k_opt


def test_approx_at_two_thousand_edges_keeps_exact_loads(monkeypatch):
    from starpart import node_loads, orientation_to_owner, weighted

    found = []

    def recorded(*args):
        frac = lp_feasible(*args)
        if frac is not None:
            found.append(frac)
        return frac

    monkeypatch.setattr(weighted, "lp_feasible", recorded)
    rng = random.Random(113)
    g0 = generate(GeneratorSpec("random", n=400, m=2000, seed=7))
    w = [rng.randint(1, 1000) for _ in range(400)]
    g = build_graph(400, g0.edges, weights=w)
    orientation, value = approx2_wind(g)
    final = found[-1]  # the point approx2_wind rounds
    limit = final.limit
    assert all(type(f) is Fraction and f >= 0 for pair in final.fractions for f in pair)
    assert all(f_lo + f_hi == 1 for f_lo, f_hi in final.fractions)
    assert all(final.load(v) <= limit for v in range(g.n))
    assert value == max(node_loads(g, orientation_to_owner(g, orientation).owner, "ind", w))
    assert value <= 2 * limit
