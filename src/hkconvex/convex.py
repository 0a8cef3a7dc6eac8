"""Finitely generated convex sets of distributions and their monad.

A ConvexSet stores only its unique base: the minimal generating set,
equal to the extreme points of the generated polytope of distributions.
Bases are kept in a canonical order, so structural equality of ConvexSets
is exactly equality of the generated convex sets.

Arithmetic on weights runs on the ints of each Dist (see `core.Dist`).
`unique_base` puts the distinct generators' int numerators onto one
common denominator, over their joint support coordinates, and orders
the generators it keeps by those ints. A generator is kept without a
hull test when it is the lexicographic maximum of those ints under one
of 4d signed orders of the d coordinates, which makes it a vertex (see
`unique_base`). Only the generators left over run a hull test
(`_in_int_hull`), and `in` runs the same one: an integer orientation
test when the target has 1-3 support coordinates, else the phase-1-only
`linprog.is_feasible`, with no normalization row. `plus_p` and weighted
Minkowski sums mix through `core.convex_combine`, on ints.

`in_hull` and `nearest_point` build their LP rows from the same ints,
every row on the one common denominator, the normalization row too, so
`linprog.solve_lp` takes them as they are (its one-denominator rule):
every Bland pivot, and hence every vertex and mixture returned, is that
of the rational rows. Fractions appear only in what they return: exact
weights and values.

Because Dist supports ConvexSet-valued items, the same two classes give
distributions over sets, convex sets of those, and so on; the monad
multiplication walks one level down this tower.
"""

from __future__ import annotations

from math import lcm, prod
from typing import Callable, Iterable, Sequence

from . import linprog
from .core import (
    ONE,
    Dist,
    FiniteMetricSpace,
    as_fraction,
    convex_combine,
    dirac,
    item_sort_key,
    json_list,
    pushforward,
)
from .errors import BadProbability, EmptyInput, SpaceMismatch, TooLarge

# Largest number of base choices one weighted Minkowski sum or one `plus_p`
# may enumerate; each choice is a generator that re-basing may then run a
# hull test on.
MINKOWSKI_PRODUCT_CAP = 1024


def in_hull(target: Dist, generators: Sequence[Dist]):
    """Exact membership of `target` in the convex hull of `generators`.

    Returns (True, weights) with an explicit convex combination, or
    (False, None). Solved as a phase-1 feasibility system over the joint
    support coordinates plus one normalization row, all over the common
    denominator of `_int_vectors`.
    """
    if not generators:
        return False, None
    for g in generators:
        if g.space != target.space:
            raise SpaceMismatch()
    rhs, *vecs = _int_vectors([target, *generators])[0]
    den = sum(rhs)
    rows = [*zip(*vecs), [den] * len(vecs)]
    rhs.append(den)
    solution = linprog.feasible_point(rows, rhs)
    if solution is None:
        return False, None
    return True, tuple(solution)


def _int_vectors(dists: Sequence[Dist]) -> tuple[list[list[int]], dict]:
    """Weights of each distribution over the joint support coordinates, as
    integers over one common denominator (so every vector sums to it),
    and the coordinate index of each support item."""
    index: dict = {}
    for d in dists:
        for item in d.support:
            index.setdefault(item, len(index))
    den = lcm(*[d._den for d in dists])
    vecs = []
    for d in dists:
        v = [0] * len(index)
        f = den // d._den
        for item, n in d._num.items():
            v[index[item]] = n * f
        vecs.append(v)
    return vecs, index


def _in_int_hull(target: list[int], others: list[list[int]]) -> bool:
    """Whether `target` is a convex combination of `others`: a hull test.

    All vectors share coordinates and denominator D, so each sums to D. A
    coordinate where the target is 0 forces weight 0 on every vector
    positive there: those drop out, maybe all, and so does every row off
    the target's support. Adding the rows left gives sum(weights) = 1, so
    4 or more rows run a hull LP. The vectors left on 1-3 rows lie in the
    plane where those rows sum to D, which keeping the first and last row
    maps one-to-one into Z^2. There the target is in the hull exactly
    when no open half-plane through 0 holds every v = h - target. One
    does exactly when some v = a has cross(a, v) > 0, or cross(a, v) = 0
    < dot(a, v), for every v: then u = rot90(a) + eps*a separates, and
    the clockwise-most v of a separated set is such an a.
    """
    zeros = [j for j, t in enumerate(target) if not t]
    cols = [h for h in others if not any(h[j] for j in zeros)]
    support = [j for j, t in enumerate(target) if t]
    if len(support) > 3:
        rows = [[h[j] for h in cols] for j in support]
        return linprog.is_feasible(rows, [target[j] for j in support])
    i, j = support[0], support[-1]
    vs = [(h[i] - target[i], h[j] - target[j]) for h in cols]
    for x, y in vs:
        if all(
            x * w - y * z > 0 or (x * w == y * z and x * z + y * w > 0)
            for z, w in vs
        ):
            return False
    return bool(vs)


def unique_base(generators: Sequence[Dist]) -> tuple[Dist, ...]:
    """Minimal generating set: distinct generators extreme in the hull.

    Lexicographic extremes of the distinct integer weight vectors are kept
    with no hull test. For each coordinate j, sort the vectors by their
    entries in the order c_0 = j, j+1, ..., d-1, 0, ..., j-1 (d
    coordinates). Four are kept: the first and the last (signs s = t = -1
    and s = t = +1), the last of the run of smallest values on j (s = -1,
    t = +1) and the first of the run of largest (s = +1, t = -1). Entries
    lie in [0, D], D the common denominator, so each of them, g, is the
    one strict maximum of f(x) = sum_r s_r (D+1)^(d-1-r) x[c_r], with
    s_0 = s and s_r = t after: g is no convex combination of other
    generators. Generators left over run a hull test. No generators raise
    EmptyInput, for `ConvexSet` too.
    """
    distinct = list(dict.fromkeys(generators))
    n = len(distinct)
    if not n:
        raise EmptyInput("a convex set needs at least one generator")
    if n == 1:
        return (distinct[0],)
    space = distinct[0].space
    if any(g.space != space for g in distinct):
        raise SpaceMismatch()
    vecs, index = _int_vectors(distinct)
    certified: set[int] = set()
    for j in range(len(index)):
        ranked = sorted(range(n), key=lambda k: vecs[k][j:] + vecs[k][:j])
        column = [vecs[k][j] for k in ranked]
        low, high = column.count(column[0]), column.count(column[-1])
        certified.update((ranked[0], ranked[low - 1], ranked[n - high], ranked[-1]))
        if len(certified) == n:
            break
    interior: set[int] = set()
    for k, g in enumerate(vecs):
        if k in certified:
            continue
        # A point inside the hull of the others is a combination of extreme
        # points only, so dropping the interior points found so far from
        # the later hull tests changes none of their answers.
        others = [h for i, h in enumerate(vecs) if i != k and i not in interior]
        if _in_int_hull(g, others):
            interior.add(k)
    # Dist.sort_key order, with each weight read off the integer vector:
    # all share one denominator, so the ints compare as the weights do.
    item_keys = {item: item_sort_key(space, item) for item in index}
    kept = [k for k in range(n) if k not in interior]
    kept.sort(
        key=lambda k: [
            (item_keys[item], vecs[k][index[item]]) for item in distinct[k].support
        ]
    )
    return tuple(distinct[k] for k in kept)


class ConvexSet:
    """A nonempty finitely generated convex set, stored by unique base."""

    __slots__ = ("space", "base", "_hash", "_key")

    def __init__(self, space: FiniteMetricSpace, generators: Iterable[Dist]):
        gens = list(generators)
        for g in gens:
            if not isinstance(g, Dist):
                raise TypeError("generators must be Dist values")
            if g.space != space:
                raise SpaceMismatch()
        grounds = {g.is_ground() for g in gens}
        if len(grounds) > 1:
            raise SpaceMismatch("generators mix label and set support")
        self.space = space
        self.base = unique_base(gens)
        self._hash = None
        self._key = None

    def is_ground(self) -> bool:
        return self.base[0].is_ground()

    def sort_key(self):
        if self._key is None:
            self._key = tuple(g.sort_key() for g in self.base)
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConvexSet)
            and self.space == other.space
            and self.base == other.base
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.base)
        return self._hash

    def __repr__(self) -> str:
        return f"ConvexSet({list(self.base)!r})"

    def __contains__(self, dist) -> bool:
        if not isinstance(dist, Dist) or dist.space != self.space:
            return False
        vecs, _ = _int_vectors([dist, *self.base])
        return _in_int_hull(vecs[0], vecs[1:])

    def to_json_dict(self) -> dict:
        return {"generators": [g.to_json_dict() for g in self.base]}

    @classmethod
    def from_json_dict(cls, space: FiniteMetricSpace, data) -> "ConvexSet":
        """Read {"generators": [dist, ...]} or a bare list of dists."""
        gens = [Dist.from_json_dict(space, entry) for entry in _generator_entries(data)]
        return cls(space, gens)


def _generator_entries(data) -> list:
    """The generator entries of a convex set in either JSON form."""
    if isinstance(data, list):
        return data
    return json_list(data, "generators", "convex set")


def monad_unit(space: FiniteMetricSpace, item) -> ConvexSet:
    """eta(x) = the singleton convex set containing the point mass at x."""
    return ConvexSet(space, [dirac(space, item)])


def oplus(left: ConvexSet, right: ConvexSet) -> ConvexSet:
    """Convex union: the convex closure of the union of the two sets."""
    if left.space != right.space:
        raise SpaceMismatch()
    return ConvexSet(left.space, list(left.base) + list(right.base))


def plus_p(p, left: ConvexSet, right: ConvexSet) -> ConvexSet:
    """Pointwise mixture { p*d + (1-p)*e : d in left, e in right }."""
    p = as_fraction(p)
    if not 0 < p < 1:
        raise BadProbability(p)
    if left.space != right.space:
        raise SpaceMismatch()
    count = len(left.base) * len(right.base)
    if count > MINKOWSKI_PRODUCT_CAP:
        raise TooLarge("p+ mixture product", count, MINKOWSKI_PRODUCT_CAP)
    gens = [
        convex_combine([(p, d), (ONE - p, e)])
        for d in left.base
        for e in right.base
    ]
    return ConvexSet(left.space, gens)


def _wms_mixtures(phi: Dist) -> list[Dist]:
    sets = list(phi.support)
    for item in sets:
        if not isinstance(item, ConvexSet):
            raise SpaceMismatch("weighted Minkowski sum needs set-valued support")
    count = prod(len(s.base) for s in sets)
    if count > MINKOWSKI_PRODUCT_CAP:
        raise TooLarge("weighted Minkowski product", count, MINKOWSKI_PRODUCT_CAP)
    choices: list[list[Dist]] = [[]]
    for s in sets:
        choices = [chosen + [g] for chosen in choices for g in s.base]
    weights = [phi.weight(s) for s in sets]
    return [convex_combine(list(zip(weights, chosen))) for chosen in choices]


def wms(phi: Dist) -> ConvexSet:
    """Weighted Minkowski sum of a distribution over convex sets."""
    return ConvexSet(phi.space, _wms_mixtures(phi))


def functor_map(
    f: Callable, s: ConvexSet, target: FiniteMetricSpace | None = None
) -> ConvexSet:
    """Image of a convex set along an item map, re-based on the target."""
    space = target if target is not None else s.space
    return ConvexSet(space, [pushforward(f, g, target) for g in s.base])


def monad_mult(s: ConvexSet) -> ConvexSet:
    """One level of flattening: union of weighted Minkowski sums.

    For each base distribution-over-sets, every choice of base elements
    from its support sets yields one generator of the flattened set.
    """
    gens: list[Dist] = []
    for phi in s.base:
        gens.extend(_wms_mixtures(phi))
    return ConvexSet(s.space, gens)


def nearest_point(space: FiniteMetricSpace, target: Dist, s: ConvexSet):
    """Exact projection: the Kantorovich distance from `target` to the set.

    Minimizes transport cost, read off the space's int distance table,
    jointly over a plan and a convex combination of the base, as one LP
    whose rows share the common denominator of `_int_vectors`. Returns
    (value, nearest mixture, base weights). Items that are not labels
    raise SpaceMismatch before the LP runs (`lifting` relabels towers).
    """
    for other in (target.space, s.space):
        if other is not space and other != space:
            raise SpaceMismatch()
    if not (target.is_ground() and s.is_ground()):
        raise SpaceMismatch("projection over the space metric needs label-supported inputs")
    base = list(s.base)
    vecs, index = _int_vectors([*base, target])
    tvec = vecs.pop()
    den = sum(tvec)
    xs = list(target.support)
    # The base's coordinates come first in `index`, in first-seen order.
    ys = list(index)[: len({item for g in base for item in g.support})]
    nx, ny, nb = len(xs), len(ys), len(base)
    # Variables: the plan w[i][j] at i * ny + j, then the base weights.
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i, x in enumerate(xs):
        row = [0] * (nx * ny + nb)
        row[i * ny : (i + 1) * ny] = [den] * ny
        rows.append(row)
        rhs.append(tvec[index[x]])
    for j in range(ny):
        row = [0] * (nx * ny) + [-v[j] for v in vecs]
        row[j : nx * ny : ny] = [den] * nx
        rows.append(row)
        rhs.append(0)
    rows.append([0] * (nx * ny) + [den] * nb)
    rhs.append(den)
    at = [space.index(y) for y in ys]
    cost = [r[j] for r in (space._rows[space.index(x)] for x in xs) for j in at]
    result = linprog.solve_lp(cost + [0] * nb, rows, rhs)
    assert result.status == linprog.OPTIMAL, "projection LP is always feasible"
    lambdas = tuple(result.solution[nx * ny + k] for k in range(nb))
    mixture = convex_combine(list(zip(lambdas, base)))
    return result.value / space._den, mixture, lambdas
