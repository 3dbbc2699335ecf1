"""Checks of starpart's answers that share no code with starpart.

A written witness is recomputed in O(m); optimality is proved either by
the counting bound or by a max flow showing that ``value - 1`` is
infeasible; the weighted optimum comes from ``scipy.optimize.milp``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from instances import Instance, name


class CheckFailed(Exception):
    """An answer of the program did not pass an independent check."""


def read_value(stdout: str) -> int:
    """The value from a command's ``value V`` line."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "value":
            return _int(parts[1], line)
    raise CheckFailed(f"no 'value' line in output {stdout!r}")


def _int(token: str, line: str) -> int:
    if token == "INFEASIBLE":
        raise CheckFailed("the program answered INFEASIBLE on a feasible instance")
    try:
        return int(token)
    except ValueError:
        raise CheckFailed(f"not an integer in {line!r}") from None


def read_solution(text: str, inst: Instance) -> tuple[list[int], int]:
    """Owner per edge and declared value of a solution file."""
    ids = {name(v): v for v in range(inst.n)}
    owners: list[int | None] = [None] * inst.m
    declared = None
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "owner" and len(parts) == 3:
            e = _int(parts[1], line)
            if not 0 <= e < inst.m or parts[2] not in ids:
                raise CheckFailed(f"unknown edge or node in {line!r}")
            owners[e] = ids[parts[2]]
        elif parts[0] == "value" and len(parts) == 2:
            declared = _int(parts[1], line)
        else:
            raise CheckFailed(f"unexpected solution line {line!r}")
    if declared is None:
        raise CheckFailed("solution has no value line")
    for e, o in enumerate(owners):
        if o is None:
            raise CheckFailed(f"edge {e} has no owner")
        if o not in inst.edges[e]:
            raise CheckFailed(f"owner {name(o)} of edge {e} is not an endpoint")
    return owners, declared


def _capacity(inst: Instance, v: int, degree: list[int]) -> int:
    return inst.caps[v] if inst.caps is not None else degree[v]


def _degrees(inst: Instance) -> list[int]:
    degree = [0] * inst.n
    for e in inst.edges:
        for v in e:
            degree[v] += 1
    return degree


def star_witness_value(inst: Instance, owners: list[int]) -> int:
    """Largest number of colors a node sees; every node within its capacity."""
    seen: list[set[int]] = [set() for _ in range(inst.n)]
    for e, o in enumerate(owners):
        for v in inst.edges[e]:
            seen[v].add(o)
    degree = _degrees(inst)
    for v in range(inst.n):
        if len(seen[v]) > _capacity(inst, v, degree):
            raise CheckFailed(f"node {name(v)} sees {len(seen[v])} colors over its capacity")
    return max(len(s) for s in seen)


def ind_witness_value(inst: Instance, owners: list[int]) -> int:
    """Largest indegree when every edge points away from its owner."""
    indeg = [0] * inst.n
    for e, o in enumerate(owners):
        a, b = inst.edges[e]
        indeg[b if o == a else a] += 1
    degree = _degrees(inst)
    for v in range(inst.n):
        if indeg[v] > _capacity(inst, v, degree):
            raise CheckFailed(f"node {name(v)} has indegree {indeg[v]} over its capacity")
    return max(indeg)


def weighted_ind_value(inst: Instance, heads: list[int]) -> int:
    """Largest weight sum of in-neighbours."""
    load = [0] * inst.n
    for e, h in enumerate(heads):
        a, b = inst.edges[e]
        if h not in (a, b):
            raise CheckFailed(f"head {h} of edge {e} is not an endpoint")
        load[h] += inst.weights[b if h == a else a]
    return max(load)


def check_witness(inst: Instance, text: str, objective: str, printed: int) -> int:
    """Recompute a written solution; its value must match the file and stdout."""
    owners, declared = read_solution(text, inst)
    if objective == "ind":
        value = ind_witness_value(inst, owners)
    else:
        value = star_witness_value(inst, owners)
    if declared != value:
        raise CheckFailed(f"declared value {declared} but the witness gives {value}")
    if printed != value:
        raise CheckFailed(f"printed value {printed} but the witness gives {value}")
    return value


def counting_bound(inst: Instance, objective: str) -> int:
    """Lower bound from counting colors (star) or heads (ind).

    In a linear hypergraph a node sees one color per edge owned by another
    node plus one if it owns any, so the colors sum to
    sum|e| - m + #owners >= sum|e| - m + 1.
    """
    if objective == "ind":
        return math.ceil(inst.m / inst.n)
    total = sum(len(e) for e in inst.edges)
    return math.ceil((total - inst.m + 1) / inst.n)


def _assignment_flow(inst: Instance, node_caps: list[int]) -> int:
    """Max flow source -> edge (1) -> each member (1) -> node (node_caps) -> sink."""
    m, n = inst.m, inst.n
    s, t = 0, 1
    rows, cols, data = [], [], []
    for e, members in enumerate(inst.edges):
        rows.append(s)
        cols.append(2 + e)
        data.append(1)
        for v in members:
            rows.append(2 + e)
            cols.append(2 + m + v)
            data.append(1)
    for v in range(n):
        if node_caps[v]:
            rows.append(2 + m + v)
            cols.append(t)
            data.append(node_caps[v])
    size = 2 + m + n
    graph = csr_matrix(
        (np.asarray(data, dtype=np.int32), (np.asarray(rows), np.asarray(cols))),
        shape=(size, size),
    )
    return int(maximum_flow(graph, s, t, method="dinic").flow_value)


def infeasible_at(inst: Instance, objective: str, x: int) -> bool:
    """True iff a max flow proves that no answer of value <= x exists.

    star: node v with need_v = deg_v - min(cap_v, x) + 1 >= 2 must own that
    many edges; ind: node v can take at most min(cap_v, x) heads.
    """
    degree = _degrees(inst)
    caps = [min(_capacity(inst, v, degree), x) for v in range(inst.n)]
    if objective == "ind":
        return _assignment_flow(inst, caps) < inst.m
    need = [degree[v] - caps[v] + 1 for v in range(inst.n)]
    need = [d if d > 1 else 0 for d in need]
    if any(need[v] > degree[v] for v in range(inst.n)):
        return True
    return _assignment_flow(inst, need) < sum(need)


def check_optimal(inst: Instance, objective: str, value: int) -> str:
    """Prove that value is optimal; returns which proof held."""
    if value == counting_bound(inst, objective):
        return "counting bound"
    if value > 0 and infeasible_at(inst, objective, value - 1):
        return "max flow at value - 1"
    raise CheckFailed(f"cannot prove {value} optimal: value - 1 is not shown infeasible")


def wind_optimum(inst: Instance) -> tuple[int, list[int]]:
    """Exact weighted max indegree and an optimal orientation (heads), by MILP."""
    m, n, w = inst.m, inst.n, inst.weights
    # y_e = 1 points edge (a, b) at a; the last variable is the max load z.
    a_mat = np.zeros((n, m + 1))
    fixed = np.zeros(n)
    for e, (a, b) in enumerate(inst.edges):
        a_mat[a, e] += w[b]
        a_mat[b, e] -= w[a]
        fixed[b] += w[a]
    a_mat[:, m] = -1.0
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    integrality = np.ones(m + 1)
    integrality[m] = 0
    res = milp(
        cost,
        constraints=LinearConstraint(a_mat, -np.inf, -fixed),
        integrality=integrality,
        bounds=(0, [1] * m + [np.inf]),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise CheckFailed(f"milp did not solve the weighted instance: {res.message}")
    heads = [a if res.x[e] > 0.5 else b for e, (a, b) in enumerate(inst.edges)]
    value = weighted_ind_value(inst, heads)
    if value > res.fun + 1e-6:
        raise CheckFailed("the milp orientation does not reach the milp value")
    return value, heads


def check_approx(value: int, optimum: int) -> None:
    if not optimum <= value <= 2 * optimum:
        raise CheckFailed(f"approximation value {value} outside [{optimum}, {2 * optimum}]")


def format_heads(inst: Instance, heads: list[int], value: int) -> str:
    """Solution file whose owners are the tails of the given orientation."""
    lines = []
    for e, (a, b) in enumerate(inst.edges):
        lines.append(f"owner {e} {name(b if heads[e] == a else a)}")
    lines.append(f"value {value}")
    return "\n".join(lines) + "\n"
