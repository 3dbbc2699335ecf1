"""Exact vertices of {0 <= x <= 1, A x <= b}, each column in at most two rows.

Such a column is an edge between its rows, so the open columns of a vertex
(those strictly inside their bounds) form a pseudoforest, which is what the
rounding step downstream relies on.  HiGHS's dual simplex
(``scipy.optimize.linprog``, imported on first use) finds a vertex in
floating point, which is then read
off exactly over ``fractions.Fraction`` and checked against every row and
bound, so callers get an exact vertex or an ``ArithmeticError``.
"""

from __future__ import annotations

from fractions import Fraction

_TOL = 1e-9  # bound snapping, and tight rows' relative slack


def find_basic_feasible(cols: list[dict[int, int]], rhs: list[int]) -> list[Fraction] | None:
    """Return an exact vertex as a dense list, or None if the LP is infeasible.

    ``cols[j]`` maps each of column j's at most two rows to its integer
    coefficient.  Raises ``ArithmeticError`` when HiGHS fails or gives a
    point whose exact vertex fails a row or a bound.
    """
    if not cols:  # the empty point is the only candidate
        return None if any(b < 0 for b in rhs) else []
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    cells = [(c, r, j) for j, col in enumerate(cols) for r, c in col.items()]
    data, rows, columns = zip(*cells) if cells else ((), (), ())
    a_ub = csc_array((data, (rows, columns)), shape=(len(rhs), len(cols)), dtype=float)
    res = linprog([0.0] * len(cols), A_ub=a_ub, b_ub=rhs, bounds=(0, 1), method="highs-ds")
    if res.status == 2:
        return None
    if res.status != 0:
        raise ArithmeticError(f"HiGHS failed: {res.message}")
    return _exact_vertex(cols, rhs, res.x, res.slack)


def _exact_vertex(cols, rhs, x_float, slack_float) -> list[Fraction]:
    point: list[Fraction | None] = [None] * len(cols)
    residual = list(rhs)  # rhs minus the fixed columns' activity
    open_cols: list[set[int]] = [set() for _ in rhs]
    tight = [abs(s) <= _TOL * (1 + abs(b)) for s, b in zip(slack_float, rhs)]
    for j, v in enumerate(x_float):
        if v <= _TOL or v >= 1 - _TOL:
            _fix(point, cols, residual, open_cols, j, round(v))
        else:
            for r in cols[j]:
                open_cols[r].add(j)
    ready = [r for r, cs in enumerate(open_cols) if len(cs) == 1]
    for j in range(len(cols) + 1):  # peel, then close the cycle through j if j is open
        while ready:
            r = ready.pop()
            if tight[r] and len(open_cols[r]) == 1:
                ready += _pivot(point, cols, residual, open_cols, r)
        if j < len(cols) and point[j] is None:
            value = _close_cycle(cols, residual, open_cols, tight, j)
            ready = _fix(point, cols, residual, open_cols, j, value)
    slack = list(rhs)  # the safety check, independent of the residuals
    for col, v in zip(cols, point):
        if v:
            for r, c in col.items():
                slack[r] -= c * v
    if any(not 0 <= v <= 1 for v in point) or any(s < 0 for s in slack):
        raise ArithmeticError("the exact point read off HiGHS's vertex fails a row or a bound")
    return point


def _fix(point, cols, residual, open_cols, j, value) -> list[int]:
    """Set column j to value; return its rows that now have one open column."""
    point[j] = Fraction(value)
    for r, c in cols[j].items():
        residual[r] -= c * value
        open_cols[r].discard(j)
    return [r for r in cols[j] if len(open_cols[r]) == 1]


def _pivot(point, cols, residual, open_cols, r) -> list[int]:
    """One-row elimination: tight row r fixes its last open column."""
    (j,) = open_cols[r]
    return _fix(point, cols, residual, open_cols, j, Fraction(residual[r], cols[j][r]))


def _close_cycle(cols, residual, open_cols, tight, j) -> Fraction:
    """Column j's value on the cycle of tight rows through it.

    Walks the cycle once from x_j = t, writing each next open column as
    a + b*t, and closes it at t = a + b*t; a singular cycle raises
    ``ZeroDivisionError``.  Anything but a cycle of tight rows with two open
    columns each means the point is not a vertex.
    """
    a, b, k, r = Fraction(0), Fraction(1), j, next(iter(cols[j]), None)
    for _ in cols:
        if r is None or not tight[r] or len(open_cols[r]) != 2:
            break
        (nxt,) = open_cols[r] - {k}
        a, b = (residual[r] - cols[k][r] * a) / cols[nxt][r], -cols[k][r] * b / cols[nxt][r]
        if nxt == j:
            return a / (1 - b)
        k, r = nxt, next((o for o in cols[nxt] if o != r), None)
    raise ArithmeticError("HiGHS's point is not a vertex: an open column is on no tight cycle")
