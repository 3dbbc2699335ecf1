"""Exact basic feasible points of {x >= 0, A_eq x = b_eq, A_ub x <= b_ub}.

Basic solutions are vertices of the feasible polyhedron, which is exactly
what the rounding step downstream relies on.  HiGHS's dual simplex
(``scipy.optimize.linprog(method="highs-ds")``, imported on first use)
finds a vertex in floating point.  The equality rows and the inequality
rows it leaves tight are then solved over ``fractions.Fraction`` on the
vertex's support, and the exact point is checked against every row, so
callers get an exact vertex or an ``ArithmeticError``, never a rounded one.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from numbers import Rational

Row = tuple[list[tuple[int, Rational]], Rational]

_TOL = 1e-9  # support coordinates lie above it, tight rows' relative slack below


def find_basic_feasible(
    num_vars: int, eq_rows: list[Row], ub_rows: list[Row]
) -> list[Fraction] | None:
    """Return a basic feasible point as a dense list, or None if infeasible.

    Raises ``ArithmeticError`` when a support column gets no pivot (HiGHS's
    point is not a vertex) or when the exact point fails a row or a sign.
    """
    point = [Fraction(0)] * num_vars
    if not num_vars or not (eq_rows or ub_rows):  # the origin is the only candidate
        return None if _violates(point, eq_rows, ub_rows) else point
    from scipy.optimize import linprog

    (a_eq, b_eq), (a_ub, b_ub) = _sparse(eq_rows, num_vars), _sparse(ub_rows, num_vars)
    res = linprog([0.0] * num_vars, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs-ds")
    if res.status == 2:
        return None
    if res.status != 0:
        raise ArithmeticError(f"HiGHS failed: {res.message}")
    slack = res.slack if ub_rows else ()
    tight = [row for row, s in zip(ub_rows, slack) if abs(s) <= _TOL * (1 + abs(float(row[1])))]
    support = {j for j in range(num_vars) if res.x[j] > _TOL}
    for j, value in _solve_on_support(list(eq_rows) + tight, support):
        point[j] = value
    if _violates(point, eq_rows, ub_rows):
        raise ArithmeticError("the exact point on HiGHS's support fails a row")
    return point


def _sparse(rows, num_vars):
    """A CSR float matrix and float right-hand sides for linprog, or Nones."""
    if not rows:
        return None, None
    from scipy.sparse import csr_array

    cells = [(float(c), i, j) for i, (coeffs, _) in enumerate(rows) for j, c in coeffs]
    data, row_idx, col_idx = zip(*cells) if cells else ((), (), ())
    matrix = csr_array((data, (row_idx, col_idx)), shape=(len(rows), num_vars))
    return matrix, [float(b) for _, b in rows]


def _solve_on_support(system, support):
    """(column, value) pairs of the unique exact solution on the support columns.

    Sparse Gauss-Jordan elimination, always on a shortest remaining row.  A
    row that empties is skipped; the caller's final check judges the point.
    """
    rows, rhs, col_rows = [], [], {j: set() for j in support}
    for r, (coeffs, b) in enumerate(system):
        row: dict[int, Rational] = {}
        for j, c in coeffs:
            if j in support:  # int rows stay ints until a division needs a Fraction
                row[j] = row.get(j, 0) + c
        rows.append({j: c for j, c in row.items() if c})
        rhs.append(b)
        for j in rows[r]:
            col_rows[j].add(r)
    heap = [(len(row), r) for r, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots: dict[int, int] = {}  # column -> its pivot row
    done: set[int] = set()
    while heap:
        size, r = heapq.heappop(heap)
        if size and size == len(rows[r]) and r not in done:
            col = min(rows[r], key=lambda j: (len(col_rows[j]), j))
            pivots[col] = r
            done.add(r)
            for o in _pivot(rows, rhs, col_rows, r, col):
                heapq.heappush(heap, (len(rows[o]), o))
    if len(pivots) != len(support):
        raise ArithmeticError("HiGHS's point is not a vertex: a support column has no pivot")
    return [(col, Fraction(rhs[r])) for col, r in pivots.items()]


def _pivot(rows, rhs, col_rows, r, col) -> list[int]:
    """Scale row r to a unit pivot on col, eliminate col elsewhere; return the rows changed."""
    row, pivot = rows[r], rows[r][col]
    if pivot != 1:
        rows[r] = row = {j: Fraction(c, pivot) for j, c in row.items()}
        rhs[r] = Fraction(rhs[r], pivot)
    touched = [o for o in col_rows[col] if o != r]
    for o in touched:
        other = rows[o]
        factor = other.pop(col)
        for j, c in row.items():
            if j != col:
                value = other.get(j, 0) - factor * c
                if value:
                    other[j] = value
                    col_rows[j].add(o)
                else:
                    other.pop(j, None)
                    col_rows[j].discard(o)
        rhs[o] -= factor * rhs[r]
    col_rows[col] = {r}
    return touched


def _violates(point, eq_rows, ub_rows) -> bool:
    """Whether the exact point breaks a sign, an equality or an inequality."""
    exact = [v.numerator if v.denominator == 1 else v for v in point]  # ints multiply fast

    def activity(coeffs):
        return sum(c * exact[j] for j, c in coeffs if exact[j])

    return (any(v < 0 for v in exact) or any(activity(coeffs) != b for coeffs, b in eq_rows)
            or any(activity(coeffs) > b for coeffs, b in ub_rows))
