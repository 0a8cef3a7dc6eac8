from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from hkconvex import (
    ConvexSet,
    Coupling,
    Dist,
    EmptyInput,
    FiniteMetricSpace,
    MalformedInput,
    MarginalMismatch,
    OutOfRange,
    SpaceMismatch,
    TooLarge,
    dirac,
    hausdorff,
    kantorovich,
    kantorovich_bruteforce,
    kantorovich_metric,
    optimal_transport,
    solve_transport,
    transport_cost,
)
from hkconvex.linprog import OPTIMAL, solve_lp
from hkconvex.transport import BRUTEFORCE_SUPPORT_CAP
from transport_reference import solve_transport as reference_solve_transport

F = Fraction


def test_dirac_pair_golden(x3):
    # only one coupling exists, so the value is the ground distance
    res = kantorovich(x3, dirac(x3, "a"), dirac(x3, "b"))
    assert res.value == F(1, 2)
    assert res.witness.to_json_list() == [["a", "b", "1"]]


def test_half_mixture_golden(x3):
    mid = Dist(x3, {"a": "1/2", "b": "1/2"})
    assert kantorovich(x3, mid, dirac(x3, "a")).value == F(1, 4)
    assert kantorovich_bruteforce(x3, mid, dirac(x3, "c")) == F(3, 4)
    assert kantorovich(x3, mid, dirac(x3, "c")).value == F(3, 4)


def test_identical_dists_are_at_distance_zero(x3):
    mid = Dist(x3, {"a": "1/2", "c": "1/2"})
    assert kantorovich(x3, mid, mid).value == 0


def test_witness_is_a_coupling_with_matching_cost(x3):
    left = Dist(x3, {"a": "2/3", "b": "1/3"})
    right = Dist(x3, {"b": "1/2", "c": "1/2"})
    res = kantorovich(x3, left, right)
    assert res.witness.left == left and res.witness.right == right
    assert transport_cost(x3, res.witness) == res.value


def test_space_mismatch_rejected(x3, x2):
    with pytest.raises(SpaceMismatch):
        kantorovich(x3, dirac(x3, "a"), dirac(x2, "b"))


def test_kantorovich_refuses_set_supported_distributions(x3):
    over_sets = dirac(x3, ConvexSet(x3, [dirac(x3, "a")]))
    with pytest.raises(SpaceMismatch, match="label-supported"):
        kantorovich(x3, over_sets, over_sets)


def test_bruteforce_cap():
    letters = [chr(ord("a") + i) for i in range(10)]
    space_big = sts.FiniteMetricSpace(
        letters,
        {(x, y): F(1, 2) for i, x in enumerate(letters) for y in letters[i + 1 :]},
    )
    left = Dist(space_big, {p: F(1, 5) for p in letters[:5]})
    right = Dist(space_big, {p: F(1, 5) for p in letters[5:]})
    assert len(left.support) + len(right.support) > BRUTEFORCE_SUPPORT_CAP
    with pytest.raises(TooLarge):
        kantorovich_bruteforce(space_big, left, right)


def test_optimal_transport_over_custom_metric():
    # items need not be space points when a metric is supplied
    space = sts.FiniteMetricSpace(["a", "b"], {("a", "b"): F(1, 2)})
    left = Dist(space, {"a": "1"})
    right = Dist(space, {"b": "1"})
    value, plan = optimal_transport(left, right, lambda x, y: F(0 if x == y else 1))
    assert value == 1
    assert plan[("a", "b")] == 1


@given(sts.space_with_dists(2))
def test_simplex_matches_bruteforce(bundle):
    space, left, right = bundle
    res = kantorovich(space, left, right)
    assert res.value == kantorovich_bruteforce(space, left, right)
    assert transport_cost(space, res.witness) == res.value


@given(sts.space_with_dists(2))
def test_kantorovich_between_zero_and_diameter(bundle):
    space, left, right = bundle
    value = kantorovich(space, left, right).value
    assert 0 <= value <= 1
    if left == right:
        assert value == 0
    else:
        assert value > 0


@given(sts.space_with_dists(2))
def test_kantorovich_symmetry(bundle):
    space, left, right = bundle
    assert (
        kantorovich(space, left, right).value == kantorovich(space, right, left).value
    )


@given(sts.space_with_dists(3))
def test_kantorovich_triangle(bundle):
    space, d1, d2, d3 = bundle
    k = kantorovich_metric(space.d)
    assert k(d1, d3) <= k(d1, d2) + k(d2, d3)


@given(sts.space_with_dists(2))
def test_kantorovich_bounded_by_max_ground_distance(bundle):
    space, left, right = bundle
    value = kantorovich(space, left, right).value
    worst = max(
        space.d(x, y) for x in left.support for y in right.support
    )
    assert value <= worst


# The simplex runs on masses scaled by the LCM of their denominators and on
# costs scaled by the LCM of theirs; these instances make both LCMs large.
COPRIME = (3, 5, 7, 8, 9)


@st.composite
def coprime_dists(draw, space: FiniteMetricSpace) -> Dist:
    k = draw(st.integers(1, 4))
    support = draw(st.permutations(space.points))[:k]
    dens = draw(st.permutations(COPRIME))[: k - 1]
    weights = {x: F(1, d) for x, d in zip(support, dens)}
    weights[support[-1]] = 1 - sum(weights.values(), F(0))
    return Dist(space, weights)


@st.composite
def coprime_instances(draw):
    # every distance in [1/2, 1] satisfies the triangle inequality
    points = list("abcd")
    dist = {}
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            den = draw(st.sampled_from(COPRIME))
            dist[(x, y)] = F(draw(st.integers((den + 1) // 2, den)), den)
    space = FiniteMetricSpace(points, dist)
    return space, draw(coprime_dists(space)), draw(coprime_dists(space))


def _transport_lp(supply, demand, cost):
    m, n = len(supply), len(demand)
    rows = [[F(int(k // n == i)) for k in range(m * n)] for i in range(m)]
    rows += [[F(int(k % n == j)) for k in range(m * n)] for j in range(n)]
    res = solve_lp([q for row in cost for q in row], rows, list(supply) + list(demand))
    assert res.status == OPTIMAL
    return res.value


@given(coprime_instances())
def test_solve_transport_with_coprime_denominators(bundle):
    space, left, right = bundle
    supply = [left.weight(x) for x in left.support]
    demand = [right.weight(y) for y in right.support]
    cost = [[space.d(x, y) for y in right.support] for x in left.support]
    value, plan = solve_transport(supply, demand, cost)
    assert value == kantorovich_bruteforce(space, left, right)
    assert all(q > 0 for q in plan.values())
    assert sum((q * cost[i][j] for (i, j), q in plan.items()), F(0)) == value
    for i, q in enumerate(supply):
        assert sum((p for (r, _), p in plan.items() if r == i), F(0)) == q
    for j, q in enumerate(demand):
        assert sum((p for (_, c), p in plan.items() if c == j), F(0)) == q


@given(sts.spaces(), st.data())
def test_transport_over_sets_with_a_kantorovich_ground_cost(space, data):
    # items are convex sets; the ground cost is the Hausdorff distance of
    # their bases under the Kantorovich metric, whose denominators grow
    def mixture():
        sets = data.draw(st.lists(sts.convex_sets(space, max_base=2), min_size=1, max_size=3))
        dens = data.draw(st.lists(st.sampled_from(COPRIME), min_size=len(sets), max_size=len(sets)))
        weights: dict = {}
        for s, d in zip(sets[1:], dens):
            weights[s] = weights.get(s, F(0)) + F(1, d * len(sets))
        weights[sets[0]] = weights.get(sets[0], F(0)) + 1 - sum(weights.values(), F(0))
        return Dist(space, weights)

    left, right = mixture(), mixture()
    k = kantorovich_metric(space.d)

    def ground(s: ConvexSet, t: ConvexSet) -> F:
        return hausdorff(k, s.base, t.base)

    value, plan = optimal_transport(left, right, ground)
    cost = [[ground(s, t) for t in right.support] for s in left.support]
    supply = [left.weight(s) for s in left.support]
    demand = [right.weight(t) for t in right.support]
    assert value == _transport_lp(supply, demand, cost)
    assert sum((q * ground(s, t) for (s, t), q in plan.items()), F(0)) == value


def test_degenerate_ties_follow_blands_rule():
    # Equal masses make every basis degenerate (tied theta) and the costs
    # tie in many places, so several optimal plans exist. This is the one
    # Bland's choices reach; scanning the rows or columns in another order,
    # entering the most negative cell or leaving the largest tied cell each
    # returns another.
    quarter = F(1, 4)
    halves = [[1, 1, 2, 0], [1, 2, 0, 0], [2, 2, 1, 1], [2, 0, 2, 2]]
    value, plan = solve_transport(
        [quarter] * 4, [quarter] * 4, [[F(k, 2) for k in row] for row in halves]
    )
    assert value == quarter
    assert plan == {(0, 0): quarter, (1, 3): quarter, (2, 2): quarter, (3, 1): quarter}


def test_solve_transport_rejects_floats():
    with pytest.raises(MalformedInput):
        solve_transport([0.5, 0.5], [F(1)], [[F(0)], [F(1)]])
    with pytest.raises(MalformedInput):
        solve_transport([F(1)], [F(1)], [[0.25]])
    assert solve_transport([1], ["1"], [[2]]) == (2, {(0, 0): 1})


def test_solve_transport_rejects_a_ragged_cost_matrix():
    # [[1, 2, 3], [4]] has 2x2 = 4 entries, but it is not a 2x2 matrix
    with pytest.raises(MalformedInput):
        solve_transport([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)], [[1, 2, 3], [4]])
    with pytest.raises(MalformedInput):
        solve_transport([F(1)], [F(1)], [[1], [2]])


def test_solve_transport_rejects_a_negative_mass():
    with pytest.raises(OutOfRange) as err:
        solve_transport([-1, 2], [1], [[0], [1]])
    assert err.value.value == -1
    with pytest.raises(OutOfRange) as err:
        solve_transport([F(1)], [F(3, 2), F(-1, 2)], [[0, 1]])
    assert err.value.value == F(-1, 2)


def test_solve_transport_rejects_an_empty_side():
    with pytest.raises(EmptyInput):
        solve_transport([], [F(1)], [])
    with pytest.raises(EmptyInput):
        solve_transport([F(1)], [], [[]])


def test_solve_transport_rejects_unbalanced_masses():
    with pytest.raises(MalformedInput):
        solve_transport([F(1, 2)], [F(1, 3)], [[0]])


@st.composite
def degenerate_transport(draw):
    # Masses and costs are drawn from a few values, so theta ties and tied
    # reduced costs are common, on sizes beyond the brute-force oracle.
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    total = m * n * draw(st.sampled_from((1, 2)))

    def masses(k):
        cuts = draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1))
        cuts.sort()
        return [F(b - a, total) for a, b in zip([0, *cuts], [*cuts, total])]

    tied = draw(st.booleans())
    supply = [F(1, m)] * m if tied else masses(m)
    demand = [F(1, n)] * n if tied else masses(n)
    costs = st.sampled_from((F(0), F(1, 3), F(1, 2), F(1)))
    cost = [[draw(costs) for _ in range(n)] for _ in range(m)]
    return supply, demand, cost


@settings(max_examples=300)
@given(degenerate_transport())
def test_solve_transport_matches_the_full_rebuild_reference(instance):
    supply, demand, cost = instance
    value, plan = solve_transport(supply, demand, cost)
    ref_value, ref_plan = reference_solve_transport(supply, demand, cost)
    assert value == ref_value
    assert list(plan.items()) == list(ref_plan.items())


@st.composite
def mixed_denominator_instances(draw):
    # Distances in [1/2, 1] (so every triangle holds) mix thirds and eighths;
    # the left weights are over 9 and the right over 8, coprime denominators.
    points = list("abcde")[: draw(st.integers(1, 5))]
    dist = {}
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            den = draw(st.sampled_from((3, 8)))
            dist[(x, y)] = F(draw(st.integers((den + 1) // 2, den)), den)
    space = FiniteMetricSpace(points, dist)

    def side(total):
        k = draw(st.integers(1, len(points)))
        support = draw(st.permutations(points))[:k]
        cuts = draw(st.lists(st.integers(1, total - 1), min_size=k - 1, max_size=k - 1, unique=True))
        cuts.sort()
        weights = zip(support, [0, *cuts], [*cuts, total])
        return Dist(space, {x: F(b - a, total) for x, a, b in weights})

    return space, side(9), side(8)


@settings(max_examples=200)
@given(mixed_denominator_instances(), st.data())
def test_kantorovich_on_ints_matches_the_fraction_route(bundle, data):
    space, left, right = bundle
    res = kantorovich(space, left, right)
    xs, ys = left.support, right.support
    supply = [left.weight(x) for x in xs]
    demand = [right.weight(y) for y in ys]
    cost = [[space.d(x, y) for y in ys] for x in xs]
    value, plan = solve_transport(supply, demand, cost)
    ref_value, ref_plan = reference_solve_transport(supply, demand, cost)
    ot_value, joint = optimal_transport(left, right, space.d)
    assert res.value == value == ref_value == ot_value
    assert plan == ref_plan
    assert joint == {(xs[i], ys[j]): q for (i, j), q in plan.items()}
    expected = Coupling(joint, left, right)
    assert res.witness == expected
    assert res.witness.support == expected.support
    assert res.witness.items() == expected.items()
    # the int-built coupling still checks both marginals
    den = data.draw(st.sampled_from((72, 144)))
    ints = {(xs.index(x), ys.index(y)): int(q * den) for (x, y), q in expected.items()}
    assert Coupling._from_ints(left, right, den, ints) == expected
    cell = data.draw(st.sampled_from(sorted(ints)))
    ints[cell] += 1
    with pytest.raises(MarginalMismatch):
        Coupling._from_ints(left, right, den, ints)
