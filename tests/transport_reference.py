"""Reference oracle for `hkconvex.transport.solve_transport`.

This is the transportation simplex that rebuilt the whole basis tree
after every pivot, before `solve_transport` moved to re-hanging only the
subtree a pivot cuts off; it is kept verbatim below this docstring. Both
use Bland's rule and the tree fixes the potentials uniquely, so the tests
require the same value and the same plan dict, in the same order, on
every instance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from hkconvex.core import scaled_ints


def _northwest_corner(supply: list[int], demand: list[int]):
    m, n = len(supply), len(demand)
    rs, rt = supply[:], demand[:]
    x: dict[tuple[int, int], int] = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        q = min(rs[i], rt[j])
        x[(i, j)] = q
        basis.append((i, j))
        rs[i] -= q
        rt[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if rs[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return x, basis


def _tree(basis: Sequence[tuple[int, int]], cost, m: int, n: int):
    # One DFS of the basis tree from row 0. Nodes are rows 0..m-1 and
    # columns m..m+n-1; pot[i] + pot[m + j] == cost[i][j] on basic cells.
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for (i, j) in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b != parent[a]:
                parent[b] = a
                depth[b] = depth[a] + 1
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                stack.append(b)
    return pot, parent, depth


def solve_transport(
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    cost: Sequence[Sequence[Fraction]],
):
    """Minimize sum x[i][j]*cost[i][j] over exact transportation plans.

    Masses and costs are exact rationals (see `core.scaled_ints`); the
    simplex itself runs on their integer multiples.
    """
    m, n = len(supply), len(demand)
    masses, ls = scaled_ints((*supply, *demand))
    flat, lc = scaled_ints(q for row in cost for q in row)
    c = [flat[i * n : (i + 1) * n] for i in range(m)]
    assert sum(masses[:m]) == sum(masses[m:]), "unbalanced transport"
    x, basis = _northwest_corner(masses[:m], masses[m:])
    while True:
        pot, parent, depth = _tree(basis, c, m, n)
        # Bland: the first cell in row-major order with a negative reduced
        # cost (basic cells have reduced cost 0).
        v = pot[m:]
        enter = next(
            ((i, j) for i in range(m) for j in range(n) if c[i][j] - v[j] < pot[i]),
            None,
        )
        if enter is None:
            break
        # The cycle closes the tree path from row i to column j; walk the
        # deeper end up until the two ends meet.
        a, b = enter[0], m + enter[1]
        head: list[tuple[int, int]] = []
        tail: list[tuple[int, int]] = []
        while a != b:
            if depth[a] >= depth[b]:
                head.append((a, parent[a] - m) if a < m else (parent[a], a - m))
                a = parent[a]
            else:
                tail.append((b, parent[b] - m) if b < m else (parent[b], b - m))
                b = parent[b]
        path = head + tail[::-1]
        minus = path[0::2]
        theta = min(x[cell] for cell in minus)
        leave = min(cell for cell in minus if x[cell] == theta)
        x[enter] = theta
        for cell in path[1::2]:
            x[cell] += theta
        for cell in minus:
            x[cell] -= theta
        del x[leave]
        basis[basis.index(leave)] = enter
    value = Fraction(sum(q * c[i][j] for (i, j), q in x.items()), ls * lc)
    plan = {cell: Fraction(q, ls) for cell, q in x.items() if q > 0}
    return value, plan
