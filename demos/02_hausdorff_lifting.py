"""
Hausdorff lifting and the distance between convex sets of distributions
=======================================================================
"""

from fractions import Fraction

from hkconvex import (
    ConvexSet,
    Dist,
    FiniteMetricSpace,
    dirac,
    directed_hausdorff,
    hausdorff,
    hk_directed,
    hk_distance,
    kantorovich_metric,
    nearest_point,
)

space = FiniteMetricSpace(
    ["a", "b", "c"],
    {
        ("a", "b"): Fraction(1, 2),
        ("b", "c"): Fraction(1, 2),
        ("a", "c"): Fraction(1),
    },
)
K = kantorovich_metric(space.d)

# plain Hausdorff between finite families of distributions
A = [dirac(space, "a"), dirac(space, "b")]
B = [dirac(space, "c")]
print("directed H(A -> B) =", directed_hausdorff(K, A, B))
print("directed H(B -> A) =", directed_hausdorff(K, B, A))
print("H(A, B) =", hausdorff(K, A, B))

# convex sets are handled through their unique base of extreme points,
# but each directed term projects onto the full hull of the other side
mid = Dist(space, {"a": "1/2", "b": "1/2"})
segment = ConvexSet(space, [dirac(space, "a"), dirac(space, "b")])
point = ConvexSet(space, [mid])

print("HK(segment, point) =", hk_distance(space, segment, point))

# the midpoint lies inside the segment, so its directed term is zero
# even though both extreme points of the segment sit at distance 1/4
print("directed HK(point -> segment) =", hk_directed(space, point, segment))
value, mixture, weights = nearest_point(space, mid, segment)
print("projection of mid onto segment:", mixture, "at distance", value)

# restricting the search to base points would overshoot here:
print("nearest base point distance =", min(K(mid, g) for g in segment.base))

# and Hausdorff over the two bases alone overshoots the exact distance:
# (a:1/2, c:1/2) is 1/2 from both ends of the segment but 1/4 from mid
t = ConvexSet(space, [mid, Dist(space, {"a": "1/2", "c": "1/2"})])
print("exact HK(segment, t) =", hk_distance(space, segment, t))
print("base-only H(segment, t) =", hausdorff(K, segment.base, t.base))
