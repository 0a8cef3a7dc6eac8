from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lp_reference
import strategies as sts
from hkconvex import MalformedInput, kantorovich
from hkconvex.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    feasible_point,
    is_feasible,
    solve_lp,
)

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


def test_rows_and_rhs_of_different_lengths_are_rejected():
    with pytest.raises(ValueError):
        solve_lp([F(1)], [[F(1)], [F(1)]], [F(1)])
    with pytest.raises(ValueError):
        solve_lp([F(1)], [[F(1)]], [F(1), F(5)])


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


def test_redundant_row_is_dropped():
    # row 2 = row 0 + row 1: its artificial stays basic at zero after
    # phase 1 with an all-zero row, so the row is dropped
    res = solve_lp(
        [F(0), F(2)], [[F(1), F(0)], [F(-1), F(1)], [F(0), F(1)]], [F(1), F(0), F(1)]
    )
    assert res.status == OPTIMAL
    assert res.value == F(2)
    assert res.solution == [F(1), F(1)]


def test_negative_drive_out_pivot():
    # phase 1 leaves an artificial basic at zero whose row's first nonzero
    # entry is negative; driving it out pivots on that entry
    res = solve_lp(
        [F(-2), F(2), F(1), F(2)],
        [[F(2), F(-1), F(2), F(1)], [F(0), F(1), F(-1), F(0)]],
        [F(2), F(-1)],
    )
    assert res.status == OPTIMAL
    assert res.value == F(1)
    assert res.solution == [F(0), F(0), F(1), F(0)]


def test_floats_are_rejected_and_strings_accepted():
    with pytest.raises(MalformedInput):
        solve_lp([0.5], [[1]], [0.1])
    with pytest.raises(MalformedInput):
        solve_lp([F(1)], [[F(1)]], [0.25])
    with pytest.raises(MalformedInput):  # even when phase 1 finds it infeasible
        solve_lp([0.5], [[F(1)]], [F(-1)])
    res = solve_lp(["1/2"], [[1]], ["1/10"])
    assert res.status == OPTIMAL
    assert type(res.value) is Fraction and res.value == F(1, 20)
    assert res.solution == [F(1, 10)]


_ENTRY = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 5, 7])),
)


@st.composite
def _lps(draw):
    """Small LPs whose rows are often copies, multiples or sums of earlier
    rows (redundant or, with a shifted rhs, inconsistent), so phase 1 ends
    with artificials basic at zero and the drive-out and row-dropping
    paths run; objectives are sometimes all zero."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    rows, rhs = [], []
    for i in range(m):
        kind = draw(st.sampled_from(["new", "new", "multiple", "sum"])) if i else "new"
        if kind == "new":
            row, b = draw(st.lists(_ENTRY, min_size=n, max_size=n)), draw(_ENTRY)
        elif kind == "multiple":
            j = draw(st.integers(0, i - 1))
            k = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 2)]))
            row, b = [k * v for v in rows[j]], k * rhs[j]
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            row = [u + v for u, v in zip(rows[j], rows[k])]
            b = rhs[j] + rhs[k] + draw(st.sampled_from([F(0), F(0), F(0), F(1)]))
        rows.append(row)
        rhs.append(b)
    zero = draw(st.booleans())
    objective = [F(0)] * n if zero else draw(st.lists(_ENTRY, min_size=n, max_size=n))
    return objective, rows, rhs


@settings(max_examples=400)
@given(_lps())
@example(
    # rows of different scales: unit phase-1 costs would end at (0, 21/2, 0, 79/4)
    (
        [F(0)] * 4,
        [[F(-1, 5), F(-2, 7), F(3, 5), F(0)], [F(3), F(3, 2), F(6), F(-1)]],
        [F(-3), F(-4)],
    )
)
def test_matches_the_rational_reference_simplex(lp):
    # same Bland pivots as the Fraction-tableau kernel, so the same optimum
    # vertex, not just the same value
    res = solve_lp(*lp)
    ref = lp_reference.solve_lp(*lp)
    assert res.status == ref.status
    assert (res.value, res.solution) == (ref.value, ref.solution)


def test_is_feasible_reads_phase_1_only():
    # x + y = 2, x - y = 0 has x = y = 1; a negative rhs is negated first
    assert is_feasible([[1, 1], [1, -1]], [2, 0])
    assert is_feasible([[-1, -1]], [-2])
    # x + y = 2 with x, y >= 0 cannot reach x + y = -1 or 2x + 2y = 5
    assert not is_feasible([[1, 1], [1, 1]], [2, -1])
    assert not is_feasible([[1, 1], [2, 2]], [2, 5])
    # a redundant row leaves an artificial basic at zero: still feasible
    assert is_feasible([[1, 0], [0, 1], [1, 1]], [1, 2, 3])


def test_is_feasible_edge_cases():
    # no rows: the empty system holds; rows with no columns read 0 = b
    assert is_feasible([], [])
    assert is_feasible([[]], [0])
    assert not is_feasible([[]], [1])
    assert not is_feasible([[], []], [0, -2])


def test_is_feasible_rejects_malformed_systems():
    # as solve_lp does: a missing rhs must not drop its row, nor may a
    # short row shift the columns
    with pytest.raises(ValueError, match="rhs differ in length"):
        is_feasible([[1, 1], [1, -1]], [2])
    with pytest.raises(ValueError, match="rhs differ in length"):
        is_feasible([], [1])
    with pytest.raises(ValueError, match="ragged"):
        is_feasible([[1, 1], [1]], [2, 1])


@st.composite
def _int_systems(draw):
    """Integer systems A.x = b whose rows are often copies, multiples or
    sums of earlier rows, with the rhs sometimes shifted (inconsistent)."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    entry = st.integers(-6, 6)
    rows, rhs = [], []
    for i in range(m):
        kind = draw(st.sampled_from(["new", "new", "copy", "multiple", "sum"])) if i else "new"
        if kind == "new":
            row, b = draw(st.lists(entry, min_size=n, max_size=n)), draw(entry)
        elif kind in ("copy", "multiple"):
            j = draw(st.integers(0, i - 1))
            k = 1 if kind == "copy" else draw(st.sampled_from([-1, 2, -3]))
            row, b = [k * v for v in rows[j]], k * rhs[j]
        else:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            row, b = [u + v for u, v in zip(rows[j], rows[k])], rhs[j] + rhs[k]
        if kind != "new":
            b += draw(st.sampled_from([0, 0, 0, 1]))
        rows.append(row)
        rhs.append(b)
    return rows, rhs


@settings(max_examples=400)
@given(_int_systems())
def test_is_feasible_matches_feasible_point_and_the_reference(system):
    rows, rhs = system
    n = len(rows[0])
    feasible = is_feasible(rows, rhs)
    assert feasible == (feasible_point(rows, rhs) is not None)
    assert feasible == (lp_reference.solve_lp([0] * n, rows, rhs).status == OPTIMAL)

