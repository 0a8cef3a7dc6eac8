"""Seeded random generation of spaces, distributions, sets, and terms.

Everything is exact: probabilities and distances are Fractions with
small denominators. Metric tables are made triangle-valid by shortest
paths over random positive edge lengths, which keeps distances in the
positive range (0, 1].

A carrier point (`rand_point`) is a convex set of 1-2 distributions over
1-2 labels. The towers above it (`rand_dist_over_sets`,
`rand_set_of_sets`, `rand_set_of_sets_of_sets`) draw 1-2 items per
distribution, and equal draws merge their weights, so a one-point space
gives its one tower of each depth.
"""

from __future__ import annotations

import random
from fractions import Fraction
from string import ascii_lowercase
from typing import Callable

from .convex import ConvexSet
from .core import Dist, FiniteMetricSpace
from .errors import EmptyInput
from .syntax import Gen, Oplus, PlusP, Term


def rand_prob(rng: random.Random) -> Fraction:
    den = rng.randint(2, 8)
    return Fraction(rng.randint(1, den - 1), den)


def rand_space(rng: random.Random, max_points: int = 4) -> FiniteMetricSpace:
    n = rng.randint(2, max_points)
    points = list(ascii_lowercase[:n])
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 8), 8)
    # Shortest-path closure: distances stay positive, triangle holds.
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if i != j and via < d[i][j]:
                    d[i][j] = via
    dist = {
        (points[i], points[j]): d[i][j] for i in range(n) for j in range(i + 1, n)
    }
    return FiniteMetricSpace(points, dist)


def rand_weights(rng: random.Random, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 6) for _ in range(k)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def rand_dist(rng: random.Random, space: FiniteMetricSpace, max_support: int = 3) -> Dist:
    if not space.points:
        raise EmptyInput("cannot draw from a space with no points")
    k = rng.randint(1, min(max_support, len(space.points)))
    support = rng.sample(space.points, k)
    weights = rand_weights(rng, k)
    return Dist(space, dict(zip(support, weights)))


def rand_convex_set(
    rng: random.Random,
    space: FiniteMetricSpace,
    max_base: int = 3,
    max_support: int = 3,
) -> ConvexSet:
    k = rng.randint(1, max_base)
    return ConvexSet(space, [rand_dist(rng, space, max_support) for _ in range(k)])


def rand_point(rng: random.Random, space: FiniteMetricSpace) -> ConvexSet:
    """A random carrier point: a convex set of 1-2 distributions over 1-2 labels."""
    return rand_convex_set(rng, space, max_base=2, max_support=2)


def _rand_mixture(rng: random.Random, space: FiniteMetricSpace, draw: Callable) -> Dist:
    """A distribution over 1-2 items `draw(rng, space)`; equal draws merge their weights."""
    k = rng.randint(1, 2)
    acc: dict = {}
    for item, w in zip([draw(rng, space) for _ in range(k)], rand_weights(rng, k)):
        acc[item] = acc.get(item, 0) + w
    return Dist(space, acc)


def rand_dist_over_sets(rng: random.Random, space: FiniteMetricSpace) -> Dist:
    return _rand_mixture(rng, space, rand_point)


def rand_set_of_sets(rng: random.Random, space: FiniteMetricSpace) -> ConvexSet:
    k = rng.randint(1, 2)
    return ConvexSet(space, [rand_dist_over_sets(rng, space) for _ in range(k)])


def rand_set_of_sets_of_sets(rng: random.Random, space: FiniteMetricSpace) -> ConvexSet:
    k = rng.randint(1, 2)
    return ConvexSet(space, [_rand_mixture(rng, space, rand_set_of_sets) for _ in range(k)])


def rand_term(rng: random.Random, space: FiniteMetricSpace, max_depth: int = 4) -> Term:
    if max_depth <= 0 or rng.random() < 0.3:
        return Gen(rng.choice(space.points))
    if rng.random() < 0.5:
        return Oplus(
            rand_term(rng, space, max_depth - 1),
            rand_term(rng, space, max_depth - 1),
        )
    return PlusP(
        rand_prob(rng),
        rand_term(rng, space, max_depth - 1),
        rand_term(rng, space, max_depth - 1),
    )
