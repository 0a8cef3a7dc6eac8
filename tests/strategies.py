"""Hypothesis strategies for spaces, distributions, sets and terms.

Distances are eighths in (0, 1] closed under shortest paths, so every
generated space satisfies the metric axioms by construction and all
arithmetic downstream stays in small rationals.
"""

from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st

from hkconvex import ConvexSet, Dist, FiniteMetricSpace
from hkconvex.syntax import Gen, Oplus, PlusP

LETTERS = "abcdef"


def probabilities() -> st.SearchStrategy[Fraction]:
    return st.integers(1, 7).map(lambda k: Fraction(k, 8))


@st.composite
def spaces(draw, min_points: int = 2, max_points: int = 4) -> FiniteMetricSpace:
    n = draw(st.integers(min_points, max_points))
    points = list(LETTERS[:n])
    dist = {}
    for x, y in combinations(points, 2):
        dist[(x, y)] = Fraction(draw(st.integers(1, 8)), 8)
    # shortest-path closure restores the triangle inequality
    for k in points:
        for x, y in combinations(points, 2):
            if k == x or k == y:
                continue
            via = dist[tuple(sorted((x, k)))] + dist[tuple(sorted((k, y)))]
            if via < dist[(x, y)]:
                dist[(x, y)] = via
    return FiniteMetricSpace(points, dist)


@st.composite
def dists(draw, space: FiniteMetricSpace, max_support: int = 3) -> Dist:
    k = draw(st.integers(1, min(max_support, len(space.points))))
    support = draw(
        st.lists(
            st.sampled_from(space.points), min_size=k, max_size=k, unique=True
        )
    )
    raw = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    total = sum(raw)
    return Dist(space, {x: Fraction(w, total) for x, w in zip(support, raw)})


@st.composite
def convex_sets(
    draw, space: FiniteMetricSpace, max_base: int = 3, max_support: int = 3
) -> ConvexSet:
    gens = draw(
        st.lists(dists(space, max_support=max_support), min_size=1, max_size=max_base)
    )
    return ConvexSet(space, gens)


@st.composite
def space_with_dists(draw, k: int, max_points: int = 4, max_support: int = 3):
    space = draw(spaces(max_points=max_points))
    return (space, *[draw(dists(space, max_support=max_support)) for _ in range(k)])


@st.composite
def space_with_sets(draw, k: int, max_points: int = 4, max_base: int = 3):
    space = draw(spaces(max_points=max_points))
    return (space, *[draw(convex_sets(space, max_base=max_base)) for _ in range(k)])


@st.composite
def terms(draw, space: FiniteMetricSpace, max_depth: int = 3, oplus: bool = True):
    """Random terms; with `oplus` False, only p+ over generators."""
    if max_depth == 0 or draw(st.booleans()):
        return Gen(draw(st.sampled_from(space.points)))
    left = draw(terms(space, max_depth - 1, oplus))
    right = draw(terms(space, max_depth - 1, oplus))
    if oplus and draw(st.booleans()):
        return Oplus(left, right)
    return PlusP(draw(probabilities()), left, right)


@st.composite
def space_with_terms(
    draw, k: int, max_points: int = 3, max_depth: int = 3, oplus: bool = True
):
    space = draw(spaces(max_points=max_points))
    return (
        space,
        *[draw(terms(space, max_depth=max_depth, oplus=oplus)) for _ in range(k)],
    )
