from fractions import Fraction

from hypothesis import given

import strategies as sts
from hkconvex import kantorovich
from hkconvex.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, feasible_point, solve_lp

F = Fraction


def test_simple_bounded_lp():
    # min x + y  s.t.  x + 2y = 2, x,y >= 0
    res = solve_lp([F(1), F(1)], [[F(1), F(2)]], [F(2)])
    assert res.status == OPTIMAL
    assert res.value == F(1)
    assert res.solution == [F(0), F(1)]


def test_degenerate_vertex():
    # min -x  s.t.  x + y = 1, x - y = 1 forces (1, 0)
    res = solve_lp([F(-1), F(0)], [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(1)])
    assert res.status == OPTIMAL
    assert res.solution == [F(1), F(0)]


def test_infeasible():
    # x = -1 with x >= 0
    res = solve_lp([F(1)], [[F(1)]], [F(-1)])
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x  s.t.  x - y = 0
    res = solve_lp([F(-1), F(0)], [[F(1), F(-1)]], [F(0)])
    assert res.status == UNBOUNDED


def test_exactness_no_drift():
    # min sum with awkward rationals; optimum sits at a single vertex
    res = solve_lp(
        [F(1, 3), F(1, 7)],
        [[F(2, 5), F(3, 11)]],
        [F(1, 13)],
    )
    assert res.status == OPTIMAL
    assert res.solution[1] == F(1, 13) / F(3, 11)
    assert res.value == F(1, 7) * (F(11, 39))


def test_feasible_point_on_equalities():
    point = feasible_point([[F(1), F(1), F(1)]], [F(1)])
    assert point is not None
    assert sum(point) == F(1)
    assert all(v >= 0 for v in point)


def test_feasible_point_none_when_infeasible():
    assert feasible_point([[F(1)]], [F(-2)]) is None


@given(sts.space_with_dists(2, max_points=6, max_support=6))
def test_solve_lp_matches_transport_simplex(bundle):
    # the Kantorovich LP over the two supports: one variable per cell, one
    # equality per marginal; mostly zeros, so it exercises sparse pivots
    space, mu, nu = bundle
    xs, ys = mu.support, nu.support
    cells = [(x, y) for x in xs for y in ys]
    rows = [[F(int(cx == x)) for cx, _ in cells] for x in xs]
    rows += [[F(int(cy == y)) for _, cy in cells] for y in ys]
    rhs = [mu.weight(x) for x in xs] + [nu.weight(y) for y in ys]
    res = solve_lp([space.d(x, y) for x, y in cells], rows, rhs)
    assert res.status == OPTIMAL
    assert res.value == kantorovich(space, mu, nu).value
