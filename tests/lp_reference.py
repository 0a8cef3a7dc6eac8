"""Reference oracle for `hkconvex.linprog`: the rational two-phase simplex.

This is the Fraction-tableau kernel that `solve_lp` ran on before it
moved to integer (Bareiss) pivots, kept verbatim below this docstring.
The tests compare the integer kernel against it: both use Bland's rule,
so they must return the same status, value and solution on every LP.
`projection`, after the kernel, writes `convex.nearest_point`'s LP as
Fraction rows over any callable ground metric, and solves it here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "value", "solution")

    def __init__(self, status: str, value: Fraction | None, solution: list | None):
        self.status = status
        self.value = value
        self.solution = solution

    def __repr__(self) -> str:
        return f"LPResult({self.status}, value={self.value})"


def _pivot(rows: list[list[Fraction]], obj: list[Fraction], r: int, c: int) -> None:
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        prow = rows[r] = [v / piv if v else v for v in prow]
    nonzero = [(j, p) for j, p in enumerate(prow) if p]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            for j, p in nonzero:
                row[j] -= f * p
    f = obj[c]
    if f:
        for j, p in nonzero:
            obj[j] -= f * p


def _iterate(
    rows: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    allowed: int,
) -> str:
    # Bland: entering = smallest column index with a negative reduced cost;
    # leaving = among minimum-ratio rows, the one whose basic variable has
    # the smallest index.
    while True:
        enter = -1
        for j in range(allowed):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter


def solve_lp(
    objective: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPResult:
    n = len(objective)
    m = len(eq_rows)
    rows: list[list[Fraction]] = []
    for row, b in zip(eq_rows, rhs):
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        r = [Fraction(v) for v in row] + [Fraction(b)]
        if r[-1] < 0:
            r = [-v for v in r]
        rows.append(r)

    # Phase 1: minimize the sum of one artificial variable per row.
    width = n + m + 1
    for i, r in enumerate(rows):
        body = r[:-1] + [ONE if j == i else ZERO for j in range(m)] + [r[-1]]
        rows[i] = body
    obj = [ZERO] * n + [ONE] * m + [ZERO]
    basis = [n + i for i in range(m)]
    for r in rows:
        obj = [o - v for o, v in zip(obj, r)]
    status = _iterate(rows, obj, basis, n + m)
    assert status == OPTIMAL, "phase 1 is bounded below by zero"
    if -obj[-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Drive leftover artificial variables out of the basis; drop rows whose
    # constraints turned out redundant.
    keep: list[int] = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        pivot_col = next((j for j in range(n) if rows[i][j] != 0), None)
        if pivot_col is None:
            continue
        _pivot(rows, obj, i, pivot_col)
        basis[i] = pivot_col
        keep.append(i)
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    obj = [Fraction(v) for v in objective] + [ZERO]
    for i, r in enumerate(rows):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [o - f * v for o, v in zip(obj, r)]
    status = _iterate(rows, obj, basis, n)
    if status != OPTIMAL:
        return LPResult(UNBOUNDED, None, None)
    solution = [ZERO] * n
    for i, r in enumerate(rows):
        solution[basis[i]] = r[-1]
    value = sum((c * x for c, x in zip(objective, solution)), ZERO)
    return LPResult(OPTIMAL, value, solution)


def projection(metric, target, s):
    """(value, base weights) of the nearest point of the convex set `s` to
    `target`: the transport plan and the base weights as one LP, every
    row in Fractions, the cost of moving x to y being metric(x, y)."""
    base = list(s.base)
    xs = list(target.support)
    ys = list(dict.fromkeys(y for g in base for y in g.support))
    nx, ny, nb = len(xs), len(ys), len(base)
    rows, rhs = [], []
    for i, x in enumerate(xs):
        rows.append([Fraction(int(k // ny == i)) for k in range(nx * ny)] + [ZERO] * nb)
        rhs.append(target.weight(x))
    for j, y in enumerate(ys):
        rows.append(
            [Fraction(int(k % ny == j)) for k in range(nx * ny)] + [-g.weight(y) for g in base]
        )
        rhs.append(ZERO)
    rows.append([ZERO] * (nx * ny) + [ONE] * nb)
    rhs.append(ONE)
    objective = [metric(x, y) for x in xs for y in ys] + [ZERO] * nb
    ref = solve_lp(objective, rows, rhs)
    return ref.value, tuple(ref.solution[nx * ny :])
