"""Exact two-phase primal simplex over rationals, pivoting on integers.

Solves  min c.x  subject to  A.x = b, x >= 0.  Inputs are ints or
Fractions (`core.scaled_ints` takes them as they are and coerces
anything else, so floats are rejected), outputs are Fractions, and the
tableau holds Python ints.

`solve_lp` puts every row and right-hand side on one common denominator
L with a single `core.scaled_ints` call (int rows, which `convex.in_hull`
and `convex.nearest_point` pass, come back as they are, over 1). Scaling
every row by the same positive L leaves each sign, each ratio test and
each Bland choice of the rational tableau as it is, and the scaled
artificials are L times the rational ones, so phase 1 runs at unit
artificial costs and minimises L times the rational sum.

Pivots are Edmonds/Bareiss integer-preserving steps: with pivot p and
previous pivot d (1 at first), the pivot row stays and every other row,
the objective included, becomes (p*T_i - T_i[c]*T_r) // d, exactly; then
d = p. The rational tableau is T / d with d > 0 (the ratio test pivots on
positive entries; a drive-out row with a negative pivot, whose rhs is 0,
is negated first), so sign tests and cross-multiplied ratio tests read as
on the rational tableau. Bland's smallest-index rule picks the entering
and leaving variables, which rules out cycling, so termination is
unconditional and the pivot sequence is that of the rational simplex.

`_phase1_tableau` is the one phase-1 set-up: it checks the system's
shape, negates the rows whose rhs is negative and appends the objective
row of minus the column sums (the reduced costs with every artificial
basic at unit cost). `is_feasible` answers only whether A.x = b, x >= 0
has a solution, for integer A and b: phase 1 on that tableau alone, with
no artificial columns, so an artificial that leaves the basis stays at
0; that still ends at 0 exactly when the system is feasible. Its one
caller, `convex._in_int_hull`, asks it only about targets on 4 or more
coordinates (fewer take an integer orientation test there). `solve_lp`
starts from the same tableau and inserts the identity artificial
columns, as its whole Bland sequence picks its vertex; a boolean does
not depend on the pivots. Both share `_iterate`, `_pivot`. `solve_lp`
returns an `LPResult(status, value, solution)`, a NamedTuple compared by
its fields.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import NamedTuple, Sequence

from .core import scaled_ints

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult(NamedTuple):
    status: str
    value: Fraction | None
    solution: list | None


def _pivot(tab: list[list[int]], r: int, c: int, d: int) -> int:
    """Bareiss pivot on (r, c) of the whole tableau; returns the new d."""
    prow = tab[r]
    p = prow[c]
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
        elif p != d:
            tab[i] = [v * p // d if v else 0 for v in row]
    return p


def _iterate(
    tab: list[list[int]], basis: list[int], allowed: int, d: int
) -> tuple[str, int]:
    # tab holds the constraint rows and, last, the objective row.
    # Bland: entering = smallest column index with a negative reduced cost;
    # leaving = among minimum-ratio rows, the one whose basic variable has
    # the smallest index.
    m = len(basis)
    while True:
        obj = tab[m]
        enter = -1
        for j in range(allowed):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                b = row[-1]
                if leave < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[leave]
                ):
                    leave, best_a, best_b = i, a, b
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter


def _phase1_tableau(
    eq_rows: Sequence[Sequence[int]], rhs: Sequence[int], n: int
) -> list[list[int]]:
    """Phase-1 tableau of integer rows [A_i | b_i] with n columns.

    Each row with b_i < 0 is negated; last comes the objective row, minus
    the column sums, for unit artificial costs with every artificial basic
    (all 0 when there are no rows, so the empty system is feasible).
    """
    if len(rhs) != len(eq_rows):
        raise ValueError("constraint rows and rhs differ in length")
    if any(len(row) != n for row in eq_rows):
        raise ValueError("ragged constraint matrix")
    tab = [[-v for v in row] + [-b] if b < 0 else [*row, b] for row, b in zip(eq_rows, rhs)]
    tab.append([-sum(column) for column in zip(*tab)] if tab else [0] * (n + 1))
    return tab


def solve_lp(
    objective: Sequence[Fraction],
    eq_rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPResult:
    n = len(objective)
    cost, scale = scaled_ints(objective)
    flat = iter(scaled_ints([*chain.from_iterable(eq_rows), *rhs])[0])
    tab = _phase1_tableau([list(islice(flat, len(row))) for row in eq_rows], list(flat), n)

    # Phase 1 with the identity artificial columns inserted before the rhs;
    # their reduced costs in the objective row, tab[m], are 0.
    m = len(eq_rows)
    for i, r in enumerate(tab):
        tab[i] = r[:n] + [int(i == k) for k in range(m)] + r[n:]
    basis = [n + i for i in range(m)]
    status, d = _iterate(tab, basis, n + m, 1)
    assert status == OPTIMAL, "phase 1 is bounded below by zero"
    if tab[-1][-1] != 0:
        return LPResult(INFEASIBLE, None, None)

    # Drive leftover artificial variables out of the basis; drop rows whose
    # constraints turned out redundant. A negative pivot's row is negated
    # first (its rhs is 0), which keeps d positive and the rational
    # tableau after the pivot unchanged.
    keep: list[int] = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        row = tab[i]
        pivot_col = next((j for j in range(n) if row[j]), None)
        if pivot_col is None:
            continue
        if row[pivot_col] < 0:
            tab[i] = [-v for v in row]
        d = _pivot(tab, i, pivot_col, d)
        basis[i] = pivot_col
        keep.append(i)
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2 on the objective scaled by the LCM of its denominators.
    obj = [d * v for v in cost] + [0]
    for i, r in enumerate(tab):
        f = cost[basis[i]]
        if f:
            obj = [o - f * v for o, v in zip(obj, r)]
    tab.append(obj)
    status, d = _iterate(tab, basis, n, d)
    if status != OPTIMAL:
        return LPResult(UNBOUNDED, None, None)
    solution = [ZERO] * n
    for i, b in enumerate(basis):
        solution[b] = Fraction(tab[i][-1], d)
    return LPResult(OPTIMAL, Fraction(-tab[-1][-1], d * scale), solution)


def feasible_point(
    eq_rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list | None:
    """A nonnegative solution of A.x = b, or None when none exists."""
    n = len(eq_rows[0]) if eq_rows else 0
    result = solve_lp([ZERO] * n, eq_rows, rhs)
    return result.solution if result.status == OPTIMAL else None


def is_feasible(eq_rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Whether A.x = b has a solution x >= 0, for integer A and b.

    Phase 1 without artificial columns (see the module docstring): the
    objective row holds the reduced costs with every artificial basic.
    """
    n = len(eq_rows[0]) if eq_rows else 0
    tab = _phase1_tableau(eq_rows, rhs, n)
    _iterate(tab, list(range(n, n + len(eq_rows))), n, 1)
    return tab[-1][-1] == 0
