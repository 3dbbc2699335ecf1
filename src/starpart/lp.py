"""Exact points of {0 <= x <= 1, A x <= b} when A is a network matrix.

A column with entries c and -c is an arc of capacity |c| carrying y = |c| x
from its + row to its - row (a one-entry column's other end is the source).
Row r bounds r's net outflow by b_r, so by Gale's supply-demand theorem the
region is non-empty exactly when a max flow fills each demand -b_r > 0 from
the source and the supplies b_r > 0; the flow is integral, so x = y / |c| is
exact.  ``_max_flow`` is Dinic's on Python ints, not scipy's
``maximum_flow``, which takes int32 capacities only (it returned flow 0, with
no error, on two arcs of 3 * 10^9) and whose numpy and scipy imports took a
flow-solve process 0.3 s on a 2-vCPU machine.
"""

from __future__ import annotations

from fractions import Fraction


def find_basic_feasible(cols: list[dict[int, int]], rhs: list[int]) -> list[Fraction] | None:
    """Return an exact point with forest support as a dense list, or None if infeasible.

    ``cols[j]`` maps column j's rows to its coefficients: one nonzero int,
    or c and -c; any other column raises ``ValueError``.
    """
    s, t = len(rhs), len(rhs) + 1
    ends, caps = [], []
    for col in cols:
        (r, c), *rest = col.items() or [(None, 0)]
        if c == 0 or len(rest) > 1 or rest and rest[0][1] != -c:
            raise ValueError(f"not a network column: {col}")
        other = rest[0][0] if rest else s
        ends.append((r, other) if c > 0 else (other, r))
        caps.append(abs(c))
    supply = [((s, r), b) for r, b in enumerate(rhs) if b > 0]
    demand = [((r, t), -b) for r, b in enumerate(rhs) if b < 0]
    flow = _max_flow(t + 1, list(zip(ends, caps)) + supply + demand, s, t)
    if any(f < c for f, (_, c) in zip(flow[len(flow) - len(demand):], demand)):
        return None
    flow = flow[:len(cols)]
    # A walk over the open arcs (0 < flow < cap) that never turns straight back
    # meets its own path, and pivots round that cycle, or comes to a node whose
    # only live arc is the one it came by, which then lies on no cycle.
    live = [{} for _ in range(s + 1)]  # each node's open arcs that may lie on a cycle
    for j, (a, b) in enumerate(ends):
        if 0 < flow[j] < caps[j]:
            live[a][j] = live[b][j] = None
    for start in range(s + 1):
        nodes, path, pos = [start], [], {start: 0}
        while nodes:
            j = next((k for k in live[nodes[-1]] if not path or k != path[-1]), None)
            if j is None:
                del pos[nodes.pop()]
                for v in ends[path[-1]] if path else ():
                    del live[v][path[-1]]
                del path[-1:]
            elif (w := sum(ends[j]) - nodes[-1]) not in pos:
                pos[w] = len(nodes)
                nodes.append(w)
                path.append(j)
            else:  # walk on from w after the pivot
                _pivot(ends, caps, flow, live, nodes[pos[w]:], path[pos[w]:] + [j])
                for v in nodes[pos[w] + 1:]:
                    del pos[v]
                del nodes[pos[w] + 1:], path[pos[w]:]
    return [Fraction(y, c) for y, c in zip(flow, caps)]


def _max_flow(n: int, arcs, s: int, t: int) -> list[int]:
    """Dinic's max flow over ((tail, head), capacity) arcs: each arc's flow.

    ``find_basic_feasible`` is its one caller.  Its capacities
    W = w[lo]·w[hi] are not unit, which is why it stays beside the flow
    solver's unit kernel, ``flow_solver._repair``.
    """
    head, res, adj = [], [], [[] for _ in range(n)]
    for (u, v), c in arcs:  # arc i's residual is res[2i], its flow res[2i + 1]
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        res += (c, 0)
    while True:
        dist, queue = [-1] * n, [t]  # residual distances to t, searched back from t until s
        dist[t] = 0
        for u in queue:
            if u == s:
                break
            for i in adj[u]:
                if res[i ^ 1] and dist[head[i]] < 0:
                    dist[head[i]] = dist[u] + 1
                    queue.append(head[i])
        if dist[s] < 0:
            return res[1::2]
        ptr, path, u = [0] * n, [], s
        while True:
            if u == t:  # augment, then retreat to the tail of the first saturated arc
                push = min(res[i] for i in path)
                for i in path:
                    res[i] -= push
                    res[i ^ 1] += push
                del path[next(k for k, i in enumerate(path) if not res[i]):]
            else:  # step only one closer to t
                out, k = adj[u], ptr[u]
                while k < len(out) and not (res[out[k]] and dist[head[out[k]]] == dist[u] - 1):
                    k += 1
                ptr[u] = k
                if k < len(out):
                    path.append(out[k])
                elif not path:
                    break
                else:  # dead end: skip the arc that led here
                    ptr[head[path.pop() ^ 1]] += 1
            u = head[path[-1]] if path else s


def _pivot(ends, caps, flow, live, nodes, cycle) -> None:
    """Push flow round the cycle from ``nodes[i]`` along ``cycle[i]`` until arcs close; they leave ``live``."""
    along = [ends[j][0] == v for v, j in zip(nodes, cycle)]
    push = min(caps[j] - flow[j] if fwd else flow[j] for j, fwd in zip(cycle, along))
    for j, fwd in zip(cycle, along):
        flow[j] += push if fwd else -push
        if flow[j] in (0, caps[j]):
            for v in ends[j]:
                del live[v][j]
