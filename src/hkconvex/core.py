"""Finite metric spaces, finitely supported distributions, and couplings.

All scalars are exact rationals; nothing in this module (or anywhere
else in the library) touches floating point. Distances are
restricted to [0, 1] so that they compose with probabilities and with the
capped triangle rule of the deduction calculus.

Distributions are immutable and hashable. Support items are either point
labels of the ambient space or ConvexSet objects over the same space; the
latter makes distributions-over-sets (and sets of those, and so on) reuse
this single class, which is what the monad tower needs.

A distribution's weights are int numerators over one int denominator
(see `Dist`); `dirac`, `convex_combine` and `pushforward` mix and merge
them on ints. `fractions.Fraction` weights appear only at the API
boundary: the public `Dist` constructor reads them, and `weight`,
`items`, `sort_key` and `to_json_dict` return them. Distances and
coupling weights stay Fractions; a space also keeps its distances as
int numerators over one int denominator (`FiniteMetricSpace._int_table`),
and `Coupling._from_ints` builds a coupling from int masses, which is how
`transport.kantorovich` stays on ints.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AxiomViolation,
    DuplicateLabel,
    MalformedInput,
    MarginalMismatch,
    OutOfRange,
    SpaceMismatch,
    UnknownPoint,
    WeightsNotNormalized,
)

ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions; reject floats and bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"expected a rational, got {value!r}") from None
    raise MalformedInput(f"expected an exact rational, got {type(value).__name__}")


def scaled_ints(values: Iterable) -> tuple[list[int], int]:
    """Integers q and the LCM s of the denominators, with values == q / s.

    Ints and Fractions are used as they are; anything else goes through
    `as_fraction`, so strings are parsed and floats raise MalformedInput.
    All-int values (the masses and costs `transport.kantorovich` passes)
    come back as they are, over 1.
    """
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    values = [v if isinstance(v, (int, Fraction)) else as_fraction(v) for v in values]
    s = lcm(*[v.denominator for v in values])
    return [v.numerator * (s // v.denominator) for v in values], s


def json_field(data, key: str, what: str):
    """data[key] of a JSON object, or MalformedInput naming the missing field."""
    if not isinstance(data, Mapping) or key not in data:
        raise MalformedInput(f"{what} object missing field {key!r}")
    return data[key]


def json_list(data, key: str, what: str) -> list:
    """json_field(data, key, what), which must be a list."""
    value = json_field(data, key, what)
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{what} field {key!r} must be a list, got {value!r}")
    return value


def format_fraction(value: Fraction) -> str:
    return str(value)


class FiniteMetricSpace:
    """A finite metric space with rational distances in [0, 1].

    Point order is the order given at construction; it is the canonical
    order used everywhere (serialization, distribution supports, term
    folds). The distance table is validated exactly: identity, symmetry,
    and every triangle inequality.

    `_int_table` is built on first use and is not part of `_key`, so it
    changes neither equality nor hashing.
    """

    __slots__ = ("points", "_index", "_d", "_key", "_table_ints")

    def __init__(self, points: Sequence[str], dist: Mapping):
        pts = tuple(points)
        seen = set()
        for p in pts:
            if not isinstance(p, str) or not p:
                raise UnknownPoint(p)
            if p in seen:
                raise DuplicateLabel(p)
            seen.add(p)
        self.points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        table: dict[tuple[str, str], Fraction] = {}
        for raw_key, raw_value in dist.items():
            x, y = raw_key
            if x not in seen:
                raise UnknownPoint(x)
            if y not in seen:
                raise UnknownPoint(y)
            v = as_fraction(raw_value)
            if v < 0 or v > 1:
                raise OutOfRange(f"distance d({x},{y})", v)
            for key in ((x, y), (y, x)):
                if key in table and table[key] != v:
                    raise AxiomViolation("symmetry", x, y)
                table[key] = v
        for p in pts:
            if table.setdefault((p, p), ZERO) != 0:
                raise AxiomViolation("identity", p, p)
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                if (x, y) not in table:
                    raise AxiomViolation("missing distance", x, y)
                if table[(x, y)] == 0:
                    raise AxiomViolation("identity", x, y)
        for x in pts:
            for y in pts:
                for z in pts:
                    if table[(x, y)] > table[(x, z)] + table[(z, y)]:
                        raise AxiomViolation("triangle", x, y, z)
        self._d = table
        self._key = (pts, tuple(sorted(table.items())))
        self._table_ints = None

    def d(self, x: str, y: str) -> Fraction:
        try:
            return self._d[(x, y)]
        except KeyError:
            missing = x if x not in self._index else y
            raise UnknownPoint(missing) from None

    def _int_table(self) -> tuple[int, list[list[int]]]:
        """(D, rows): D is the LCM of the distance denominators and
        rows[i][j] / D == d(points[i], points[j]); built on first use."""
        if self._table_ints is None:
            pts, n = self.points, len(self.points)
            flat, den = scaled_ints([self._d[(x, y)] for x in pts for y in pts])
            self._table_ints = (den, [flat[i * n : (i + 1) * n] for i in range(n)])
        return self._table_ints

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownPoint(label) from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMetricSpace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({list(self.points)!r})"

    def to_json_dict(self) -> dict:
        pairs = []
        for i, x in enumerate(self.points):
            for y in self.points[i + 1 :]:
                pairs.append([x, y, format_fraction(self._d[(x, y)])])
        return {"points": list(self.points), "dist": pairs}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FiniteMetricSpace":
        points = json_list(data, "points", "space")
        dist = {}
        for entry in json_list(data, "dist", "space"):
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 3
                and isinstance(entry[0], str)
                and isinstance(entry[1], str)
            ):
                raise MalformedInput(f"space dist entry {entry!r} is not [x, y, distance]")
            x, y, v = entry
            dist[(x, y)] = v
        return cls(points, dist)


def validate_space(points: Sequence[str], dist: Mapping) -> FiniteMetricSpace:
    """Build a space, raising the first violated axiom with its witnesses."""
    return FiniteMetricSpace(points, dist)


def _item_space(item):
    # Support items are labels or set-like objects carrying .space.
    return None if isinstance(item, str) else getattr(item, "space", None)


def item_sort_key(space: FiniteMetricSpace, item):
    """Total order on support items; labels sort by canonical space order."""
    if isinstance(item, str):
        return (0, space.index(item))
    return (1, item.sort_key())


class Dist:
    """A finitely supported probability distribution with positive weights.

    Weights sum to exactly 1 and zero entries are never stored. Items are
    labels of `space` or ConvexSets over `space` (never a mixture of the
    two kinds).

    Weights are exact rationals `_num[item] / _den`: one positive int
    `_den`, the LCM of the reduced weight denominators, and a map `_num`
    from item to positive int, in lowest terms. Equality, hashing, mixing,
    pushforward and re-basing run on these ints.

    A distribution holds one weight map until both forms are asked for.
    `dirac`, `convex_combine` and `pushforward` build one from ints,
    through the trusted `_from_ints`; its `weight` and `items` then build
    Fractions per call. The public constructor keeps the Fractions it
    validated, and derives the ints on first use.
    """

    __slots__ = ("space", "_den", "_num", "_w", "_support", "_hash", "_sort_key")

    def __init__(self, space: FiniteMetricSpace, weights: Mapping):
        self.space = space
        w: dict = {}
        total = ZERO
        kinds = set()
        for item, raw in weights.items():
            v = as_fraction(raw)
            if v == 0:
                continue
            if v < 0:
                raise OutOfRange(f"weight of {item!r}", v)
            kinds.add(_item_kind(space, item))
            if item in w:
                raise DuplicateLabel(str(item))
            w[item] = v
            total += v
        if total != 1:
            raise WeightsNotNormalized(total)
        if len(kinds) > 1:
            raise SpaceMismatch("mixed label and set support items")
        self._den = None
        self._num = None
        self._w = w
        self._support = _sorted_support(space, w)
        self._hash = None
        self._sort_key = None

    @classmethod
    def _from_ints(cls, space: FiniteMetricSpace, den: int, num: dict) -> "Dist":
        """Trusted constructor: `num` maps valid items of one kind to
        positive ints that sum to `den`; they are put in lowest terms here."""
        g = gcd(*num.values())
        if g != 1:
            den //= g
            num = {item: n // g for item, n in num.items()}
        self = object.__new__(cls)
        self.space = space
        self._den = den
        self._num = num
        self._w = None
        self._support = _sorted_support(space, num)
        self._hash = None
        self._sort_key = None
        return self

    def _ints(self) -> tuple[int, dict]:
        """(_den, _num), derived from the Fraction weights on first use."""
        if self._num is None:
            w = self._w
            den = lcm(*[v.denominator for v in w.values()])
            self._num = {item: v.numerator * (den // v.denominator) for item, v in w.items()}
            self._den = den
        return self._den, self._num

    @property
    def support(self) -> tuple:
        return self._support

    def weight(self, item) -> Fraction:
        if self._w is not None:
            return self._w.get(item, ZERO)
        n = self._num.get(item)
        return ZERO if n is None else Fraction(n, self._den)

    __getitem__ = weight

    def items(self):
        """Support/weight pairs in canonical support order."""
        # Built from a list: tuple(<genexpr>) grows by resizing and leaves one
        # more block per call on CPython's tuple free lists (Coupling too).
        w = self._w
        if w is not None:
            return tuple([(item, w[item]) for item in self._support])
        num, den = self._num, self._den
        return tuple([(item, Fraction(num[item], den)) for item in self._support])

    def is_ground(self) -> bool:
        return all(isinstance(item, str) for item in self._support)

    def sort_key(self):
        if self._sort_key is None:
            self._sort_key = tuple(
                (item_sort_key(self.space, item), v) for item, v in self.items()
            )
        return self._sort_key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.space == other.space
            and self._ints() == other._ints()
        )

    def __hash__(self) -> int:
        # Equal to hash(frozenset(self.items())): a weight n / den hashes
        # as n * den^-1 modulo the numeric hash modulus, which is an int
        # below the modulus and so its own hash.
        if self._hash is None:
            den, num = self._ints()
            try:
                inv = pow(den, -1, _HASH_MODULUS)
            except ValueError:
                self._hash = hash(frozenset(self.items()))
            else:
                self._hash = hash(
                    frozenset([(item, n * inv % _HASH_MODULUS) for item, n in num.items()])
                )
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{item!r}: {v}" for item, v in self.items())
        return "Dist({" + inside + "})"

    def to_json_dict(self) -> dict:
        if not self.is_ground():
            raise SpaceMismatch("only label-supported distributions serialize here")
        return {item: format_fraction(v) for item, v in self.items()}

    @classmethod
    def from_json_dict(cls, space: FiniteMetricSpace, data: Mapping) -> "Dist":
        if not isinstance(data, Mapping):
            raise MalformedInput(f"distribution {data!r} is not an object of weights")
        return cls(space, dict(data))


_HASH_MODULUS = sys.hash_info.modulus


def _item_kind(space: FiniteMetricSpace, item) -> str:
    """'label' or 'set', after checking that the item lives over `space`."""
    if isinstance(item, str):
        if item not in space:
            raise UnknownPoint(item)
        return "label"
    if _item_space(item) != space:
        raise SpaceMismatch("support item over a different space")
    return "set"


def _sorted_support(space: FiniteMetricSpace, items) -> tuple:
    return tuple(sorted(items, key=lambda item: item_sort_key(space, item)))


def dirac(space: FiniteMetricSpace, item) -> Dist:
    """The point mass at a label (or at a set-valued item) of the space."""
    _item_kind(space, item)
    return Dist._from_ints(space, 1, {item: 1})


def convex_combine(pairs: Sequence[tuple]) -> Dist:
    """Mix distributions: sum of p_i * D_i for positive p_i summing to 1.

    Runs on ints: each D_i's numerators are scaled onto the LCM of the
    products p_i.denominator * D_i._den, and summed.
    """
    if not pairs:
        raise WeightsNotNormalized(ZERO)
    space = None
    kinds = set()
    mixed = []
    for raw_p, dist in pairs:
        p = as_fraction(raw_p)
        a = p.numerator
        if a < 0:
            raise OutOfRange("mixing weight", p)
        if not a:
            continue
        if not isinstance(dist, Dist):
            raise TypeError("convex_combine mixes Dist values")
        if space is None:
            space = dist.space
        elif dist.space is not space and dist.space != space:
            raise SpaceMismatch()
        kinds.add(isinstance(dist._support[0], str))
        den, num = dist._ints()
        mixed.append((a, p.denominator * den, num))
    den = lcm(*[scale for _, scale, _ in mixed])
    acc: dict = {}
    for a, scale, num in mixed:
        f = a * (den // scale)
        for item, n in num.items():
            acc[item] = acc.get(item, 0) + f * n
    if sum(acc.values()) != den:
        raise WeightsNotNormalized(sum((as_fraction(p) for p, _ in pairs), ZERO))
    if len(kinds) > 1:
        raise SpaceMismatch("mixed label and set support items")
    return Dist._from_ints(space, den, acc)


def pushforward(f: Callable, dist: Dist, target: FiniteMetricSpace | None = None) -> Dist:
    """Image distribution along an item map; weights of merged items add."""
    target_space = target if target is not None else dist.space
    den, num = dist._ints()
    acc: dict = {}
    for item in dist.support:
        image = f(item)
        acc[image] = acc.get(image, 0) + num[item]
    kinds = {_item_kind(target_space, image) for image in acc}
    if len(kinds) > 1:
        raise SpaceMismatch("mixed label and set support items")
    return Dist._from_ints(target_space, den, acc)


class Coupling:
    """A joint distribution over pairs with prescribed exact marginals."""

    __slots__ = ("left", "right", "_w", "_support")

    def __init__(self, joint: Mapping, left: Dist, right: Dist):
        if left.space != right.space:
            raise SpaceMismatch()
        self.left = left
        self.right = right
        w: dict = {}
        for (x, y), raw in joint.items():
            v = as_fraction(raw)
            if v == 0:
                continue
            if v < 0:
                raise OutOfRange(f"coupling weight at ({x!r},{y!r})", v)
            w[(x, y)] = v
        # The marginals are summed as numerators q over one denominator s,
        # and q / s == n / den is checked against each side's int weights.
        nums, s = scaled_ints(w.values())
        left_marginal: dict = {}
        right_marginal: dict = {}
        for (x, y), q in zip(w, nums):
            left_marginal[x] = left_marginal.get(x, 0) + q
            right_marginal[y] = right_marginal.get(y, 0) + q
        for side, dist, marginal in (
            ("left", left, left_marginal),
            ("right", right, right_marginal),
        ):
            den, num = dist._ints()
            for x in set(marginal) | set(dist.support):
                if marginal.get(x, 0) * den != num.get(x, 0) * s:
                    raise MarginalMismatch(side, x)
        self._w = w
        space = left.space
        self._support = tuple(
            sorted(
                w,
                key=lambda xy: (
                    item_sort_key(space, xy[0]),
                    item_sort_key(space, xy[1]),
                ),
            )
        )

    @classmethod
    def _from_ints(cls, left: Dist, right: Dist, den: int, plan: Mapping) -> "Coupling":
        """Trusted constructor: `plan` maps (i, j), indices into
        `left.support` and `right.support`, to a positive int q, the weight
        q / den. Both marginals are still checked exactly, on ints; the
        support is ordered by (i, j), which is the canonical order because
        both supports are. The caller has checked that both sides live
        over one space."""
        xs, ys = left.support, right.support
        rows = [0] * len(xs)
        cols = [0] * len(ys)
        for (i, j), q in plan.items():
            rows[i] += q
            cols[j] += q
        for side, dist, items, marginal in (
            ("left", left, xs, rows),
            ("right", right, ys, cols),
        ):
            d, num = dist._ints()
            for x, q in zip(items, marginal):
                if q * d != num[x] * den:
                    raise MarginalMismatch(side, x)
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self._w = {(xs[i], ys[j]): Fraction(plan[(i, j)], den) for (i, j) in sorted(plan)}
        self._support = tuple(self._w)
        return self

    @property
    def support(self) -> tuple:
        return self._support

    def weight(self, x, y) -> Fraction:
        return self._w.get((x, y), ZERO)

    def items(self):
        return tuple([((x, y), self._w[(x, y)]) for (x, y) in self._support])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coupling)
            and self.left == other.left
            and self.right == other.right
            and self._w == other._w
        )

    def __repr__(self) -> str:
        inside = ", ".join(f"({x!r},{y!r}): {v}" for (x, y), v in self.items())
        return "Coupling({" + inside + "})"

    def to_json_list(self) -> list:
        return [[x, y, format_fraction(v)] for (x, y), v in self.items()]


def product_coupling(left: Dist, right: Dist) -> Coupling:
    """The independent coupling; always feasible."""
    joint = {}
    for x, vx in left.items():
        for y, vy in right.items():
            joint[(x, y)] = vx * vy
    return Coupling(joint, left, right)
