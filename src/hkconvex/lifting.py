"""Hausdorff lifting of metrics, and the Hausdorff-Kantorovich distance.

`hausdorff` works over finite subsets of anything with an exact metric.
`hk_distance` composes the two liftings: Kantorovich over the ground
metric between distributions, then Hausdorff between two finitely
generated convex sets. The directed sup over a convex set is attained at
a base point because the distance to a convex set is a convex function,
so one exact projection program per base point computes the distance
over the full sets, not merely between the bases. `hk_sampled` replaces
each convex set by the finite grid of base mixtures with a fixed
denominator; it is a test oracle, bounded above by the Hausdorff
distance between the bases but neither a bound on `hk_distance` over
every space nor monotone in the denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Iterable, Sequence

from .convex import ConvexSet, nearest_point
from .core import Dist, FiniteMetricSpace, convex_combine
from .errors import AxiomViolation, EmptySet, OutOfRange, SpaceMismatch, TooLarge
from .transport import kantorovich_metric

ZERO = Fraction(0)
ONE = Fraction(1)

GRID_SIDE_CAP = 5000
GRID_PAIR_CAP = 250_000


class MetrizedCollection:
    """Finitely many elements with an exact metric in [0, 1]."""

    __slots__ = ("elements", "metric")

    def __init__(self, elements: Sequence, metric: Callable):
        self.elements = tuple(elements)
        self.metric = metric

    def check_axioms(self) -> None:
        els = self.elements
        for a in els:
            if self.metric(a, a) != 0:
                raise AxiomViolation("identity", str(a), str(a))
        for i, a in enumerate(els):
            for b in els[i + 1 :]:
                v = self.metric(a, b)
                if v < 0 or v > 1:
                    raise OutOfRange(f"distance d({a},{b})", v)
                if v == 0:
                    raise AxiomViolation("identity", str(a), str(b))
                if self.metric(b, a) != v:
                    raise AxiomViolation("symmetry", str(a), str(b))
        for a in els:
            for b in els:
                for c in els:
                    if self.metric(a, b) > self.metric(a, c) + self.metric(c, b):
                        raise AxiomViolation("triangle", str(a), str(b), str(c))


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


def hausdorff_metric(metric: Callable) -> Callable:
    """Lift an element metric to convex sets via their bases."""

    def lifted(left: ConvexSet, right: ConvexSet) -> Fraction:
        return hausdorff(metric, left.base, right.base)

    return lifted


def hk_projections(
    space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet, metric=None
) -> list[tuple[Fraction, Dist]]:
    """(distance, nearest mixture) of each base point of `left`, in base
    order, projected exactly onto the right convex set. `metric` is the
    ground metric on support items, `space.d` by default."""
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    return [nearest_point(space, g, right, metric)[:2] for g in left.base]


def hk_directed(
    space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet, metric=None
) -> Fraction:
    """Directed Hausdorff-Kantorovich term: worst base point's exact
    projection distance onto the right convex set."""
    return max(value for value, _ in hk_projections(space, left, right, metric))


def hk_distance(
    space: FiniteMetricSpace, left: ConvexSet, right: ConvexSet, metric=None
) -> Fraction:
    """Hausdorff over Kantorovich between two convex sets.

    Exact over the full sets: restricting the nearest-point search to the
    other base can overshoot whenever the nearest point is an interior
    mixture, so each direction projects onto the whole hull instead.
    `metric` is the ground metric on support items, `space.d` by
    default; sets over sets pass a metric on their inner sets.
    """
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    return max(
        hk_directed(space, left, right, metric), hk_directed(space, right, left, metric)
    )


def _grid_mixtures(s: ConvexSet, denominator: int) -> list[Dist]:
    base = list(s.base)
    b = len(base)
    count = comb(denominator + b - 1, b - 1)
    if count > GRID_SIDE_CAP:
        raise TooLarge("grid mixture family", count, GRID_SIDE_CAP)
    seen = set()
    out: list[Dist] = []
    # Weak compositions of `denominator` into b parts, as bars-and-stars.
    for bars in combinations_with_replacement(range(b), denominator):
        weights = [ZERO] * b
        for k in bars:
            weights[k] += Fraction(1, denominator)
        mix = convex_combine(list(zip(weights, base)))
        if mix not in seen:
            seen.add(mix)
            out.append(mix)
    return out


def hk_sampled(
    space: FiniteMetricSpace,
    left: ConvexSet,
    right: ConvexSet,
    grid_denominator: int,
) -> Fraction:
    """Hausdorff-Kantorovich over grid mixtures of each base.

    Every base element appears in its own grid, and mixing optimal
    responses shows each directed grid value never exceeds the directed
    value computed between the bases alone. It is not monotone in the
    denominator: a finer grid on the right side can lower the directed
    infimum below a coarser grid's value.
    """
    if grid_denominator < 1:
        raise OutOfRange("grid denominator", grid_denominator)
    if left.space != space or right.space != space:
        raise SpaceMismatch()
    grid_left = _grid_mixtures(left, grid_denominator)
    grid_right = _grid_mixtures(right, grid_denominator)
    if len(grid_left) * len(grid_right) > GRID_PAIR_CAP:
        raise TooLarge(
            "grid pair evaluations", len(grid_left) * len(grid_right), GRID_PAIR_CAP
        )
    return hausdorff(kantorovich_metric(space.d), grid_left, grid_right)
