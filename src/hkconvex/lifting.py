"""Hausdorff lifting of metrics, and the Hausdorff-Kantorovich distance.

`hausdorff` works over finite subsets of anything with an exact metric.
`hk_distance` composes the two liftings: Kantorovich over the ground
metric between distributions, then Hausdorff between two finitely
generated convex sets. The directed sup over a convex set is attained at
a base point because the distance to a convex set is a convex function,
so one exact projection program per base point computes the distance
over the full sets, not merely between the bases. A base point whose
distance to the other base bounds it below the maximum so far is not
projected. Sets of sets are compared as sets over a label space whose
points are their inner sets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable

from .convex import ConvexSet, functor_map, nearest_point
from .core import ZERO, FiniteMetricSpace
from .errors import EmptySet, SpaceMismatch
from .transport import kantorovich


def directed_hausdorff(metric: Callable, left: Iterable, right: Iterable) -> Fraction:
    """sup over left of the distance to the nearest element of right."""
    return _hausdorff_directions(metric, left, right)[0]


def hausdorff(metric: Callable, left: Iterable, right: Iterable) -> Fraction:
    return max(_hausdorff_directions(metric, left, right))


def _hausdorff_directions(metric: Callable, left: Iterable, right: Iterable):
    """(left to right, right to left): the directed terms, read off one
    table of the metric on every pair, each pair measured once."""
    left = list(left)
    right = list(right)
    if not left or not right:
        raise EmptySet("hausdorff distance needs nonempty sets")
    table = [[metric(a, b) for b in right] for a in left]
    return max(map(min, table)), max(map(min, zip(*table)))


def _over_labels(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet):
    """(space, left, right) over labels. On sets over sets, the distinct
    inner sets of both sides, in `sort_key` order so supports keep their
    order, are the points s0, s1, ... of one space at their `hk_distance`,
    and both sides move onto it. Sets of two kinds raise SpaceMismatch."""
    if left.is_ground() != right.is_ground():
        raise SpaceMismatch("one set is over labels, the other over sets")
    if left.is_ground():
        return space, left, right
    inner = sorted(
        {x for s in (left, right) for g in s.base for x in g.support}, key=ConvexSet.sort_key
    )
    name = {x: f"s{i}" for i, x in enumerate(inner)}
    dist = {(name[x], name[y]): hk_distance(space, x, y) for x, y in combinations(inner, 2)}
    labels = FiniteMetricSpace(list(name.values()), dist)
    return labels, functor_map(name.get, left, labels), functor_map(name.get, right, labels)


def hk_directed(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet) -> Fraction:
    """Directed Hausdorff-Kantorovich term: worst base point's exact
    projection distance onto the right convex set, over labels, or over
    the label space of `_over_labels` on sets over sets (sets of different
    kinds raise SpaceMismatch before any projection runs)."""
    space, left, right = _over_labels(space, left, right)
    return _directed(space, left, right, map(min, _vertex_distances(space, left, right)))


def hk_distance(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet) -> Fraction:
    """Hausdorff over Kantorovich between two convex sets.

    Exact over the full sets: restricting the nearest-point search to the
    other base can overshoot whenever the nearest point is an interior
    mixture, so each direction projects onto the whole hull instead. On
    sets over sets both directions share one label space, whose distance
    is this one a level down, so towers of any depth are compared.
    """
    return max(_hk_directions(space, left, right))


def _hk_directions(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet):
    """(left to right, right to left): both directed terms, their
    projections bounded by one table of base distances."""
    space, left, right = _over_labels(space, left, right)
    k = _vertex_distances(space, left, right)
    return (
        _directed(space, left, right, map(min, k)),
        _directed(space, right, left, map(min, zip(*k))),
    )


def _vertex_distances(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet):
    """Kantorovich distances between the base points, one row per left one."""
    return [[kantorovich(space, g, r).value for r in right.base] for g in left.base]


def _directed(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet, bounds) -> Fraction:
    """The directed term over labels, given for each left base point the
    least distance to a right base point: an upper bound on its distance
    to the right set. Points are projected in order of descending bound,
    and once a bound is at most the maximum so far no later point can
    raise it, so the rest are not projected."""
    h = ZERO
    for u, g in sorted(zip(bounds, left.base), key=itemgetter(0), reverse=True):
        if u <= h:
            break
        h = max(h, nearest_point(space, g, right)[0])
    return h
