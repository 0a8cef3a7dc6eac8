"""Exact optimal transport between finitely supported distributions.

The solver is a primal transportation simplex: north-west corner start,
Bland's smallest-index rule for entering and leaving cells (so degenerate
bases cannot cycle), and exact potentials. The transportation polytope is
totally unimodular, so it runs on Python ints: masses are scaled by the
LCM of their denominators and costs by the LCM of theirs, which keeps
every sign and comparison and hence every pivot; the value and the plan
are divided back once at the end.

The basis tree is hung from row 0 once, with potentials, parent pointers
and depths; the parent pointers close each entering cycle. A pivot swaps
one basic cell for another, which cuts off only the subtree below the
leaving cell, so only that subtree is re-hung from the entering cell and
gets new potentials (the network-simplex update; Ahuja, Magnanti & Orlin,
*Network Flows*, 1993, ch. 11). The tree fixes the potentials, with row 0
at 0, so every pivot is the one a full rebuild of the tree would give.

Where Fractions enter and leave. `kantorovich` runs on the one int form
its inputs hold: the masses are the `Dist` numerators over L, the LCM of
both denominators, and the costs come from the space's int distance
table over its denominator D. It hands those ints to `solve_transport`,
whose scaling (`core.scaled_ints`) returns all-int input as it is, over
1, so the total and the plan come back as Fractions over 1 and it reads
their numerators; `Coupling._from_ints` checks the plan's marginals on
ints and keeps them. The value total / (L*D) is the one Fraction it
builds itself; the coupling's accessors build its weights. Other callers of `solve_transport`, and
`optimal_transport` with any ground cost producing rationals (such as a
Hausdorff-Kantorovich ground cost between convex sets), have their
Fraction masses and costs scaled to ints by the LCMs of their
denominators, run the same simplex and get the result divided back.
Scaling masses and costs by positive constants keeps every pivot, so
`kantorovich` and `optimal_transport(left, right, space.d)` return the
same value and plan. `kantorovich` returns a `TransportResult(value,
witness)`, a NamedTuple compared by its fields.

`kantorovich_bruteforce` is an independent oracle: every vertex of the
transportation polytope is the basic solution of a spanning tree of the
support-by-support bipartite graph, so enumerating spanning trees and
keeping the feasible solutions finds the exact optimum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Mapping, NamedTuple, Sequence

from .core import Coupling, Dist, FiniteMetricSpace, scaled_ints
from .errors import EmptyInput, MalformedInput, OutOfRange, SpaceMismatch, TooLarge

ZERO = Fraction(0)

BRUTEFORCE_SUPPORT_CAP = 8


class TransportResult(NamedTuple):
    value: Fraction
    witness: Coupling


def _northwest_corner(supply: list[int], demand: list[int]) -> dict:
    m, n = len(supply), len(demand)
    rs, rt = supply[:], demand[:]
    x: dict[tuple[int, int], int] = {}
    i = j = 0
    while True:
        q = min(rs[i], rt[j])
        x[(i, j)] = q
        rs[i] -= q
        rt[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if rs[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return x


def _hang(root: int, adj, cost, m: int, pot, parent, depth) -> None:
    # Walk the subtree below `root`, whose parent, depth and potential are
    # already set, and set those of every node below it. Nodes are rows
    # 0..m-1 and columns m..m+n-1; pot[i] + pot[m + j] == cost[i][j] on
    # basic cells.
    stack = [root]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b != parent[a]:
                parent[b] = a
                depth[b] = depth[a] + 1
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                stack.append(b)


def solve_transport(
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    cost: Sequence[Sequence[Fraction]],
):
    """Minimize sum x[i][j]*cost[i][j] over exact transportation plans.

    Masses and costs are exact rationals (see `core.scaled_ints`); the
    simplex itself runs on their integer multiples. Both sides must be
    nonempty (else EmptyInput), the masses nonnegative (else OutOfRange)
    with equal totals, and the cost matrix len(supply) x len(demand)
    (else MalformedInput).
    """
    m, n = len(supply), len(demand)
    if not m or not n:
        raise EmptyInput("transport needs a nonempty supply and demand")
    if len(cost) != m or any(len(row) != n for row in cost):
        raise MalformedInput(f"transport cost matrix must be {m}x{n}")
    masses, ls = scaled_ints((*supply, *demand))
    for k, q in enumerate(masses):
        if q < 0:
            side = f"supply {k}" if k < m else f"demand {k - m}"
            raise OutOfRange(f"transport mass of {side}", Fraction(q, ls))
    if sum(masses[:m]) != sum(masses[m:]):
        raise MalformedInput("unbalanced transport: supply and demand totals differ")
    flat, lc = scaled_ints(q for row in cost for q in row)
    total, plan = _int_transport(
        masses[:m], masses[m:], [flat[i * n : (i + 1) * n] for i in range(m)]
    )
    return Fraction(total, ls * lc), {cell: Fraction(q, ls) for cell, q in plan.items()}


def _int_transport(supply: list[int], demand: list[int], c: list[list[int]]):
    """The simplex on checked int input: nonempty, nonnegative, balanced
    masses and an m x n cost matrix. Returns the optimal total cost and
    the plan {(i, j): q} of its positive cells."""
    m, n = len(supply), len(demand)
    x = _northwest_corner(supply, demand)
    # The basis tree, hung from row 0 once: adjacency lists, parent
    # pointers, depths and potentials. Row 0 is never cut off, so it stays
    # the root with potential 0.
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for (i, j) in x:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    _hang(0, adj, c, m, pot, parent, depth)
    while True:
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
        i, j = leave
        adj[i].remove(m + j)
        adj[m + j].remove(i)
        i, j = enter
        adj[i].append(m + j)
        adj[m + j].append(i)
        # Dropping the leaving cell cuts off the subtree below it, which
        # holds the entering cell's end on the leaving cell's side of the
        # cycle: the row end if it lay on the row's walk, the column end
        # otherwise. Hang that subtree from the entering cell's other end;
        # every node outside it keeps its parent, depth and potential.
        s, t = (i, m + j) if leave in head else (m + j, i)
        parent[s] = t
        depth[s] = depth[t] + 1
        pot[s] = c[i][j] - pot[t]
        _hang(s, adj, c, m, pot, parent, depth)
    total = sum(q * c[i][j] for (i, j), q in x.items())
    return total, {cell: q for cell, q in x.items() if q > 0}


def optimal_transport(left: Dist, right: Dist, metric: Callable):
    """Exact Kantorovich value and plan for an arbitrary item metric."""
    xs = list(left.support)
    ys = list(right.support)
    supply = [left.weight(x) for x in xs]
    demand = [right.weight(y) for y in ys]
    cost = [[metric(x, y) for y in ys] for x in xs]
    value, plan = solve_transport(supply, demand, cost)
    joint = {(xs[i], ys[j]): q for (i, j), q in plan.items()}
    return value, joint


def kantorovich_metric(metric: Callable) -> Callable:
    """Lift an item metric to distributions via optimal transport."""

    def lifted(left: Dist, right: Dist) -> Fraction:
        value, _ = optimal_transport(left, right, metric)
        return value

    return lifted


def kantorovich(space: FiniteMetricSpace, left: Dist, right: Dist) -> TransportResult:
    """Kantorovich distance over the space metric, with an optimal coupling."""
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    if not (left.is_ground() and right.is_ground()):
        raise SpaceMismatch("kantorovich over a space needs label-supported inputs")
    lnum, rnum = left._num, right._num
    den = lcm(left._den, right._den)
    lf, rf = den // left._den, den // right._den
    table = space._rows
    index = space._index
    cols = [index[y] for y in right.support]
    rows = [table[index[x]] for x in left.support]
    cost = [[row[j] for j in cols] for row in rows]
    # All-int input scales by 1, so the value and plan come back over 1.
    value, plan = solve_transport(
        [lnum[x] * lf for x in left.support], [rnum[y] * rf for y in right.support], cost
    )
    ints = {cell: q.numerator for cell, q in plan.items()}
    return TransportResult(
        Fraction(value.numerator, den * space._den), Coupling._from_ints(left, right, den, ints)
    )


def transport_cost(space: FiniteMetricSpace, coupling: Coupling) -> Fraction:
    """The exact cost of a coupling under the space metric."""
    if coupling.left.space != space:
        raise SpaceMismatch()
    return sum((q * space.d(x, y) for (x, y), q in coupling.items()), ZERO)


def _spanning_tree_solution(
    cells: Sequence[tuple[int, int]],
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
):
    # Solve the marginal equations on a candidate tree by leaf stripping;
    # returns None when some basic value turns negative.
    m, n = len(supply), len(demand)
    need = {("r", i): supply[i] for i in range(m)}
    need.update({("c", j): demand[j] for j in range(n)})
    incident: dict[tuple[str, int], set[tuple[int, int]]] = {}
    for cell in cells:
        incident.setdefault(("r", cell[0]), set()).add(cell)
        incident.setdefault(("c", cell[1]), set()).add(cell)
    if len(incident) < m + n:
        return None
    values: dict[tuple[int, int], Fraction] = {}
    leaves = [node for node, cs in incident.items() if len(cs) == 1]
    alive = {cell: True for cell in cells}
    while leaves:
        node = leaves.pop()
        live = [c for c in incident[node] if alive[c]]
        if not live:
            continue
        cell = live[0]
        q = need[node]
        if q < 0:
            return None
        values[cell] = q
        alive[cell] = False
        other = ("c", cell[1]) if node[0] == "r" else ("r", cell[0])
        need[other] -= q
        need[node] = ZERO
        remaining = [c for c in incident[other] if alive[c]]
        if len(remaining) == 1:
            leaves.append(other)
        elif len(remaining) == 0 and need[other] != 0:
            return None
    if any(alive.values()) or any(v < 0 for v in values.values()):
        return None
    if any(need[node] != 0 for node in need):
        return None
    return values


def _is_spanning_tree(cells: Sequence[tuple[int, int]], m: int, n: int) -> bool:
    parent = {("r", i): ("r", i) for i in range(m)}
    parent.update({("c", j): ("c", j) for j in range(n)})

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (i, j) in cells:
        ra, rb = find(("r", i)), find(("c", j))
        if ra == rb:
            return False
        parent[ra] = rb
    roots = {find(node) for node in parent}
    return len(roots) == 1


def kantorovich_bruteforce(
    space: FiniteMetricSpace, left: Dist, right: Dist
) -> Fraction:
    """Exact optimum by enumerating every spanning-tree basic solution."""
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    xs = list(left.support)
    ys = list(right.support)
    m, n = len(xs), len(ys)
    if m + n > BRUTEFORCE_SUPPORT_CAP:
        raise TooLarge("combined support", m + n, BRUTEFORCE_SUPPORT_CAP)
    supply = [left.weight(x) for x in xs]
    demand = [right.weight(y) for y in ys]
    all_cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for cells in combinations(all_cells, m + n - 1):
        if not _is_spanning_tree(cells, m, n):
            continue
        values = _spanning_tree_solution(cells, supply, demand)
        if values is None:
            continue
        cost = sum(
            (q * space.d(xs[i], ys[j]) for (i, j), q in values.items()), ZERO
        )
        if best is None or cost < best:
            best = cost
    assert best is not None, "a balanced transport problem is always feasible"
    return best
