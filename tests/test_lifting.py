import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
import strategies as sts
from hkconvex import (
    ConvexSet,
    Dist,
    EmptySet,
    SpaceMismatch,
    convex_combine,
    dirac,
    directed_hausdorff,
    hausdorff,
    hk_directed,
    hk_distance,
    kantorovich_metric,
    monad_mult,
    monad_unit,
    nearest_point,
    sampling,
)
from hkconvex import lifting

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


def test_hausdorff_measures_each_pair_once(x3):
    left = [dirac(x3, "a"), dirac(x3, "b")]
    right = [dirac(x3, "c"), dirac(x3, "a"), Dist(x3, {"a": "1/2", "c": "1/2"})]
    calls = []

    def metric(a, b):
        calls.append((left.index(a), right.index(b)))
        return _k(x3)(a, b)

    assert hausdorff(metric, left, right) == F(1, 2)
    # one table serves both directions: |L||R| calls, not 2|L||R|
    assert sorted(calls) == [(i, j) for i in range(2) for j in range(3)]


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


@given(sts.space_with_sets(2))
def test_hk_symmetry_and_identity(bundle):
    space, s, t = bundle
    assert hk_distance(space, s, t) == hk_distance(space, t, s)
    assert hk_distance(space, s, s) == 0
    if s != t:
        assert hk_distance(space, s, t) > 0


@given(sts.space_with_dists(2))
def test_hk_distance_of_singletons_is_kantorovich(bundle):
    # a one-point set is its own closure, so both directed terms are the
    # Kantorovich distance between the two points
    space, d1, d2 = bundle
    s, t = ConvexSet(space, [d1]), ConvexSet(space, [d2])
    assert hk_distance(space, s, t) == _k(space)(d1, d2)


@given(sts.space_with_sets(1), sts.probabilities())
def test_hk_directed_vanishes_inside_the_closure(bundle, p):
    # a mixture of base points lies in the set, so its directed term is 0
    space, t = bundle
    first, last = t.base[0], t.base[-1]
    inside = ConvexSet(space, [convex_combine([(p, first), (1 - p, last)]), first])
    assert hk_directed(space, inside, t) == 0
    assert hk_distance(space, t, inside) == hk_directed(space, t, inside)


@given(sts.space_with_sets(2))
def test_hk_distance_is_bounded_by_the_diameter(bundle):
    space, s, t = bundle
    diameter = max(space.d(x, y) for x in space.points for y in space.points)
    assert hk_distance(space, s, t) <= diameter


@given(sts.space_with_sets(3))
def test_hk_triangle(bundle):
    space, s, t, u = bundle
    assert hk_distance(space, s, u) <= hk_distance(space, s, t) + hk_distance(
        space, t, u
    )


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


def test_base_restriction_overshoots_three_point_bases_golden():
    # a second frozen overshoot, with three base points on each side
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
    assert hausdorff(_k(space), s.base, t.base) == F(33, 224)


@given(sts.space_with_dists(2))
def test_hausdorff_of_singletons_is_kantorovich(bundle):
    space, d1, d2 = bundle
    assert hausdorff(_k(space), [d1], [d2]) == _k(space)(d1, d2)


def _towers(seed):
    """A seeded space of 2-3 points and two sets over sets over it."""
    rng = random.Random(seed)
    space = sampling.rand_space(rng, max_points=3)
    return space, sampling.rand_set_of_sets(rng, space), sampling.rand_set_of_sets(rng, space)


@given(sts.space_with_sets(2))
@settings(max_examples=30)
def test_unit_is_an_isometry_over_labels(bundle):
    space, s, t = bundle
    assert hk_distance(space, monad_unit(space, s), monad_unit(space, t)) == hk_distance(
        space, s, t
    )


@given(st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_unit_is_an_isometry_over_sets(seed):
    space, s, t = _towers(seed)
    assert hk_distance(space, monad_unit(space, s), monad_unit(space, t)) == hk_distance(
        space, s, t
    )


def test_multiplication_is_nonexpansive_on_towers():
    # the paper's A3: flattening one level never grows the lifted distance
    for seed in range(20):
        space, s, t = _towers(seed)
        assert hk_distance(space, monad_mult(s), monad_mult(t)) <= hk_distance(space, s, t)


def test_hk_on_sets_of_sets_golden():
    # the ground metric of sets over sets is hk_distance one level down
    space, s, t = _towers(5)
    assert hk_distance(space, s, t) == F(7, 8)
    assert hk_distance(space, t, s) == F(7, 8)


def _reference_directed(space, left, right):
    # The directed term as projected before towers became label spaces: the
    # ground metric of sets over sets is this reference one level down, a
    # callable that each Fraction projection LP evaluates per cost cell.
    metric = space.d if left.is_ground() else partial(_reference_hk, space)
    return max(lp_reference.projection(metric, g, right)[0] for g in left.base)


def _reference_hk(space, left, right):
    return max(_reference_directed(space, left, right), _reference_directed(space, right, left))


@given(
    st.integers(0, 2**16),
    st.sampled_from([sampling.rand_set_of_sets, sampling.rand_set_of_sets_of_sets]),
)
@settings(max_examples=20, deadline=None)
def test_tower_hk_matches_the_callable_metric_reference(seed, tower):
    rng = random.Random(seed)
    space = sampling.rand_space(rng, max_points=3)
    s, t = tower(rng, space), tower(rng, space)
    ltr, rtl = _reference_directed(space, s, t), _reference_directed(space, t, s)
    assert hk_directed(space, s, t) == ltr
    assert hk_directed(space, t, s) == rtl
    assert hk_distance(space, s, t) == max(ltr, rtl)


@given(
    st.integers(0, 2**16),
    st.sampled_from([sampling.rand_convex_set, sampling.rand_set_of_sets]),
)
@settings(max_examples=40, deadline=None)
def test_vertex_bounds_leave_the_directed_terms_unchanged(seed, draw):
    # Projecting every base point, with no vertex bound skipping any, gives
    # the same directed terms and distance, on flat sets and on towers.
    rng = random.Random(seed)
    space = sampling.rand_space(rng, max_points=3)
    s, t = draw(rng, space), draw(rng, space)
    labels, ls, lt = lifting._over_labels(space, s, t)
    ltr = max(nearest_point(labels, g, lt)[0] for g in ls.base)
    rtl = max(nearest_point(labels, g, ls)[0] for g in lt.base)
    assert hk_directed(space, s, t) == ltr
    assert hk_directed(space, t, s) == rtl
    assert hk_distance(space, s, t) == max(ltr, rtl)


@pytest.mark.parametrize("seed", range(6))
def test_one_tower_distance_measures_each_inner_pair_once(seed, monkeypatch):
    # The label space measures each pair of distinct inner sets of both
    # sides once, for both directions; no projection re-measures a pair.
    space, s, t = _towers(seed)
    hk = lifting.hk_distance
    measured = []

    def counting(space, a, b):
        measured.append(frozenset((a, b)))
        return hk(space, a, b)

    monkeypatch.setattr(lifting, "hk_distance", counting)
    value = lifting.hk_distance(space, s, t)
    inner = measured[1:]
    assert all(len(pair) == 2 for pair in inner)
    assert len(inner) == len(set(inner))
    assert value == hk(space, s, t)


@pytest.mark.parametrize("flip", [False, True])
def test_sets_of_different_kinds_are_a_space_mismatch(x3, monkeypatch, flip):
    def no_projection(*args):
        raise AssertionError("a projection ran")

    monkeypatch.setattr(lifting, "nearest_point", no_projection)
    over_labels = ConvexSet(x3, [dirac(x3, "a")])
    over_sets = monad_unit(x3, over_labels)
    left, right = (over_sets, over_labels) if flip else (over_labels, over_sets)
    with pytest.raises(SpaceMismatch):
        hk_distance(x3, left, right)
    with pytest.raises(SpaceMismatch):
        hk_directed(x3, left, right)
