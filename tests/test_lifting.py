from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as sts
from hkconvex import (
    AxiomViolation,
    ConvexSet,
    Dist,
    EmptySet,
    MetrizedCollection,
    OutOfRange,
    dirac,
    directed_hausdorff,
    hausdorff,
    hausdorff_metric,
    hk_directed,
    hk_distance,
    hk_sampled,
    kantorovich_metric,
    nearest_point,
)

F = Fraction


def _k(space):
    return kantorovich_metric(space.d)


def test_directed_hausdorff_golden(x3):
    left = [dirac(x3, "a"), dirac(x3, "b")]
    right = [dirac(x3, "c")]
    assert directed_hausdorff(_k(x3), left, right) == F(1)
    assert directed_hausdorff(_k(x3), right, left) == F(1, 2)
    assert hausdorff(_k(x3), left, right) == F(1)


def test_directed_hausdorff_rejects_empty(x3):
    with pytest.raises(EmptySet):
        directed_hausdorff(_k(x3), [], [dirac(x3, "a")])


def test_hk_golden(x3):
    mid = Dist(x3, {"a": "1/2", "b": "1/2"})
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    t = ConvexSet(x3, [dirac(x3, "c")])
    assert hk_distance(x3, s, t) == F(1)
    assert hk_distance(x3, s, ConvexSet(x3, [mid])) == F(1, 4)
    assert hk_distance(x3, s, s) == 0
    # mid lies inside s, so its directed term is 0 even though the
    # nearest base point of s sits at Kantorovich distance 1/4
    assert hk_directed(x3, ConvexSet(x3, [mid]), s) == 0
    assert directed_hausdorff(_k(x3), [mid], s.base) == F(1, 4)
    assert nearest_point(x3, mid, s)[0] == 0


def test_hausdorff_metric_combinator(x3):
    h = hausdorff_metric(_k(x3))
    s = ConvexSet(x3, [dirac(x3, "a")])
    t = ConvexSet(x3, [dirac(x3, "b")])
    assert h(s, t) == F(1, 2)


def test_metrized_collection_checks_axioms(x3):
    pts = [dirac(x3, "a"), dirac(x3, "b")]
    MetrizedCollection(pts, _k(x3)).check_axioms()
    with pytest.raises(AxiomViolation):
        MetrizedCollection(pts, lambda x, y: F(1)).check_axioms()
    with pytest.raises(OutOfRange):
        MetrizedCollection(pts, lambda x, y: F(0) if x == y else F(2)).check_axioms()


def test_hk_sampled_requires_positive_denominator(x3):
    s = ConvexSet(x3, [dirac(x3, "a")])
    with pytest.raises(OutOfRange):
        hk_sampled(x3, s, s, 0)


def test_hk_sampled_agrees_on_singletons(x3):
    s = ConvexSet(x3, [dirac(x3, "a")])
    t = ConvexSet(x3, [Dist(x3, {"a": "1/2", "b": "1/2"})])
    assert hk_sampled(x3, s, t, 4) == hk_distance(x3, s, t)


@given(sts.space_with_sets(2))
def test_hk_symmetry_and_identity(bundle):
    space, s, t = bundle
    assert hk_distance(space, s, t) == hk_distance(space, t, s)
    assert hk_distance(space, s, s) == 0
    if s != t:
        assert hk_distance(space, s, t) > 0


@given(sts.space_with_sets(3))
def test_hk_triangle(bundle):
    space, s, t, u = bundle
    assert hk_distance(space, s, u) <= hk_distance(space, s, t) + hk_distance(
        space, t, u
    )


@given(sts.space_with_sets(2, max_base=2))
@settings(max_examples=25)
def test_sampled_grid_is_below_base_value(bundle):
    # each base point lies in its own grid, and mixing the optimal base
    # responses (Kantorovich is convex) bounds every directed grid term
    space, s, t = bundle
    base_value = hausdorff(_k(space), s.base, t.base)
    assert hk_sampled(space, s, t, 4) <= base_value


def test_sampled_grid_is_not_monotone_in_the_denominator():
    # a finer grid on the right side can lower the directed infimum
    space = sts.FiniteMetricSpace(
        ["a", "b", "c"],
        {("a", "b"): F(1, 8), ("a", "c"): F(1, 8), ("b", "c"): F(1, 4)},
    )
    a = dirac(space, "a")
    s = ConvexSet(space, [Dist(space, {"a": F(1, 6), "b": F(2, 3), "c": F(1, 6)}), a])
    t = ConvexSet(space, [Dist(space, {"a": F(1, 5), "b": F(1, 5), "c": F(3, 5)}), a])
    assert hk_sampled(space, s, t, 2) == F(7, 80)
    assert hk_sampled(space, s, t, 4) == F(19, 240)


@given(sts.space_with_sets(2, max_base=2))
@settings(max_examples=25)
def test_projection_value_never_exceeds_base_restriction(bundle):
    # restricting the nearest-point search to base points can only grow
    # each directed term, so the pairwise-base Hausdorff is an upper bound
    space, s, t = bundle
    assert hk_directed(space, s, t) <= directed_hausdorff(_k(space), s.base, t.base)
    assert hk_distance(space, s, t) <= hausdorff(_k(space), s.base, t.base)


def _overshoot_space():
    return sts.FiniteMetricSpace(
        ["a", "b", "c"],
        {("a", "b"): F(1, 4), ("a", "c"): F(1, 8), ("b", "c"): F(3, 8)},
    )


def test_base_restriction_can_overshoot_golden():
    # the nearest point of the right set to (a:4/5, b:1/5) is an interior
    # mixture, so the pairwise-base value strictly exceeds the distance
    space = sts.FiniteMetricSpace(
        ["a", "b", "c"],
        {("a", "b"): F(1, 8), ("a", "c"): F(1, 4), ("b", "c"): F(3, 8)},
    )
    left = ConvexSet(space, [Dist(space, {"a": "4/5", "b": "1/5"}), dirac(space, "b")])
    right = ConvexSet(
        space,
        [dirac(space, "a"), Dist(space, {"b": "2/5", "c": "3/5"}), dirac(space, "b")],
    )
    assert hk_distance(space, left, right) == F(3, 20)
    assert hausdorff(_k(space), left.base, right.base) == F(7, 40)


def test_grid_oracle_can_overshoot_exact_value_golden():
    # with nearly coincident sets the exact distance drops below the grid
    # resolution, so the two-sided grid value is not a lower bound; it
    # does stay below the pairwise-base value
    space = _overshoot_space()
    s = ConvexSet(
        space,
        [
            Dist(space, {"a": "2/3", "c": "1/3"}),
            Dist(space, {"a": "6/7", "c": "1/7"}),
            Dist(space, {"b": "3/4", "c": "1/4"}),
        ],
    )
    t = ConvexSet(
        space,
        [
            Dist(space, {"a": "2/3", "c": "1/3"}),
            Dist(space, {"a": "5/7", "b": "2/7"}),
            dirac(space, "c"),
        ],
    )
    assert hk_distance(space, s, t) == F(15, 112)
    assert hk_sampled(space, s, t, 6) == F(31, 224)
    assert hausdorff(_k(space), s.base, t.base) == F(33, 224)


@given(sts.space_with_dists(2))
def test_hausdorff_of_singletons_is_kantorovich(bundle):
    space, d1, d2 = bundle
    assert hausdorff(_k(space), [d1], [d2]) == _k(space)(d1, d2)
