"""Hausdorff lifting of metrics, and the Hausdorff-Kantorovich distance.

`hausdorff` works over finite subsets of anything with an exact metric.
`hk_distance` composes the two liftings: Kantorovich over the ground
metric between distributions, then Hausdorff between two finitely
generated convex sets. The directed sup over a convex set is attained at
a base point because the distance to a convex set is a convex function,
so one exact projection program per base point computes the distance
over the full sets, not merely between the bases. On sets of sets the
ground metric is `hk_distance` itself, one level down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

from .convex import ConvexSet, nearest_point
from .core import FiniteMetricSpace
from .errors import EmptySet, SpaceMismatch


def directed_hausdorff(metric: Callable, left: Iterable, right: Iterable) -> Fraction:
    """sup over left of the distance to the nearest element of right."""
    left = list(left)
    right = list(right)
    if not left or not right:
        raise EmptySet("hausdorff distance needs nonempty sets")
    return max(min(metric(a, b) for b in right) for a in left)


def hausdorff(metric: Callable, left: Iterable, right: Iterable) -> Fraction:
    left = list(left)
    right = list(right)
    return max(
        directed_hausdorff(metric, left, right),
        directed_hausdorff(metric, right, left),
    )


def hk_directed(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet) -> Fraction:
    """Directed Hausdorff-Kantorovich term: worst base point's exact
    projection distance onto the right convex set.

    The support items fix the ground metric: `space.d` on labels, and on
    sets over sets `hk_distance` one level down. Sets of different kinds
    raise SpaceMismatch before any projection runs.
    """
    ground = left.is_ground()
    if ground != right.is_ground():
        raise SpaceMismatch("one set is over labels, the other over sets")
    metric = None if ground else partial(hk_distance, space)
    return max(nearest_point(space, g, right, metric)[0] for g in left.base)


def hk_distance(space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet) -> Fraction:
    """Hausdorff over Kantorovich between two convex sets.

    Exact over the full sets: restricting the nearest-point search to the
    other base can overshoot whenever the nearest point is an interior
    mixture, so each direction projects onto the whole hull instead. The
    ground metric is `space.d` on labels; on sets over sets, this
    distance one level down, so towers of any depth are compared.
    """
    return max(hk_directed(space, left, right), hk_directed(space, right, left))
