"""Finite metric spaces, finitely supported distributions, and couplings.

All scalars are exact rationals; nothing in this module (or anywhere
else in the library) touches floating point. Distances are
restricted to [0, 1] so that they compose with probabilities and with the
capped triangle rule of the deduction calculus.

Distributions are immutable and hashable. Support items are either point
labels of the ambient space or ConvexSet objects over the same space; the
latter makes distributions-over-sets (and sets of those, and so on) reuse
this single class, which is what the monad tower needs.

Each weight and distance is held in one int form: a `Dist` keeps int
numerators over one int denominator, a `Coupling` the same for its
pairs, and a `FiniteMetricSpace` an int distance table over one
denominator, built and checked when the space is made. `dirac`,
`convex_combine` and `pushforward` mix and merge on those ints.
`fractions.Fraction` values appear only at the API boundary: the public
constructors read them and convert them at once, and the accessors
(`d`, `weight`, `items`, `sort_key`, `to_json_dict`) build them per
call.
"""

from __future__ import annotations

import re
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
ONE = Fraction(1)

# A point label: one generator token of the term syntax (`terms`), so that
# every term over the space prints and parses back.
LABEL_TOKEN = re.compile(r"[^\s()]+")


def parse_rational(text: str) -> Fraction:
    """Fraction(text) for a rational written without an exponent.

    `Fraction("1e10000000")` builds a ten-million-digit integer before any
    range check could refuse it, so an `e` or `E` is refused first. So are
    an underscore and whitespace inside the text, since `Fraction` reads
    "1_0" from Python 3.11 on and "1 / 2" from 3.12 on: a text means the
    same on every supported Python. Raises ValueError or
    ZeroDivisionError, as `Fraction` does.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    if "_" in text or len(text.split()) > 1:
        raise ValueError(f"underscore or inner whitespace in {text!r}")
    return Fraction(text)


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions; reject floats, bools
    and exponent notation."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value.strip())
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
    folds). A label is one generator token of the term syntax
    (`LABEL_TOKEN`): anything else is MalformedInput, an empty or
    non-string label UnknownPoint. The distance table is validated
    exactly: identity, symmetry, and every triangle inequality.

    Distances are held as ints: `_rows[i][j] / _den == d(points[i],
    points[j])`, where `_den` is the LCM of the distance denominators;
    `d` builds the Fraction per call.
    """

    __slots__ = ("points", "_index", "_den", "_rows", "_key")

    def __init__(self, points: Sequence[str], dist: Mapping):
        pts = tuple(points)
        seen = set()
        for p in pts:
            if not isinstance(p, str) or not p:
                raise UnknownPoint(p)
            if LABEL_TOKEN.fullmatch(p) is None:
                raise MalformedInput(
                    f"point label {p!r} must be one token without whitespace or parentheses"
                )
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
        n = len(pts)
        flat, den = scaled_ints([table[(x, y)] for x in pts for y in pts])
        rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        for x, dx in zip(pts, rows):
            for j, y in enumerate(pts):
                dxy = dx[j]
                for z, dxz, dz in zip(pts, dx, rows):
                    if dxy > dxz + dz[j]:
                        raise AxiomViolation("triangle", x, y, z)
        self._den = den
        self._rows = rows
        self._key = (pts, den, rows)

    def d(self, x: str, y: str) -> Fraction:
        index = self._index
        try:
            n = self._rows[index[x]][index[y]]
        except KeyError:
            raise UnknownPoint(x if x not in index else y) from None
        return Fraction(n, self._den)

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
                pairs.append([x, y, format_fraction(self.d(x, y))])
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

    Weights are held only as ints `_num[item] / _den`: one positive int
    `_den`, the LCM of the reduced weight denominators, and a map `_num`
    from item to positive int, in lowest terms. Equality, the hash (of
    these two fields alone), mixing, pushforward and re-basing run on
    these ints. Every constructor keeps the support to one kind of item,
    so `is_ground` reads the first. The public constructor
    converts the Fractions it validates; `dirac`, `convex_combine` and
    `pushforward` build through the trusted `_from_ints`; `weight` and
    `items` build Fractions per call.
    """

    __slots__ = ("space", "_den", "_num", "_support", "_hash", "_sort_key")

    def __init__(self, space: FiniteMetricSpace, weights: Mapping):
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
        nums, den = scaled_ints(w.values())
        self.space = space
        self._den = den
        self._num = dict(zip(w, nums))
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
        self._support = _sorted_support(space, num)
        self._hash = None
        self._sort_key = None
        return self

    @property
    def support(self) -> tuple:
        return self._support

    def weight(self, item) -> Fraction:
        n = self._num.get(item)
        return ZERO if n is None else Fraction(n, self._den)

    __getitem__ = weight

    def items(self):
        """Support/weight pairs in canonical support order."""
        # Built from a list: tuple(<genexpr>) grows by resizing and leaves one
        # more block per call on CPython's tuple free lists (Coupling too).
        num, den = self._num, self._den
        return tuple([(item, Fraction(num[item], den)) for item in self._support])

    def is_ground(self) -> bool:
        return isinstance(self._support[0], str)

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
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        # The fields `__eq__` compares, hashed once.
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
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


def _item_kind(space: FiniteMetricSpace, item) -> str:
    """'label' or 'set', after checking that the item lives over `space`:
    a label is one of its points, a set-like item carries it as `.space`."""
    if isinstance(item, str):
        if item not in space:
            raise UnknownPoint(item)
        return "label"
    if getattr(item, "space", None) != space:
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
        mixed.append((a, p.denominator * dist._den, dist._num))
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
    num = dist._num
    acc: dict = {}
    for item in dist.support:
        image = f(item)
        acc[image] = acc.get(image, 0) + num[item]
    kinds = {_item_kind(target_space, image) for image in acc}
    if len(kinds) > 1:
        raise SpaceMismatch("mixed label and set support items")
    return Dist._from_ints(target_space, dist._den, acc)


class Coupling:
    """A joint distribution over pairs with prescribed exact marginals.

    Like `Dist`, weights are held only as ints `_num[(x, y)] / _den` in
    lowest terms, and `weight` and `items` build Fractions per call. Both
    constructors check the marginals on these ints (`_check_marginals`).
    """

    __slots__ = ("left", "right", "_den", "_num", "_support")

    def __init__(self, joint: Mapping, left: Dist, right: Dist):
        if left.space != right.space:
            raise SpaceMismatch()
        w: dict = {}
        for (x, y), raw in joint.items():
            v = as_fraction(raw)
            if v == 0:
                continue
            if v < 0:
                raise OutOfRange(f"coupling weight at ({x!r},{y!r})", v)
            w[(x, y)] = v
        nums, den = scaled_ints(w.values())
        num = dict(zip(w, nums))
        _check_marginals(left, right, den, num)
        space = left.space
        support = sorted(
            num,
            key=lambda xy: (item_sort_key(space, xy[0]), item_sort_key(space, xy[1])),
        )
        self._set(left, right, den, num, tuple(support))

    @classmethod
    def _from_ints(cls, left: Dist, right: Dist, den: int, plan: Mapping) -> "Coupling":
        """Trusted constructor: `plan` maps (i, j), indices into
        `left.support` and `right.support`, to a positive int q, the weight
        q / den. Both marginals are still checked exactly; the support is
        ordered by (i, j), which is the canonical order because both
        supports are. The caller has checked that both sides live over one
        space."""
        xs, ys = left.support, right.support
        num = {(xs[i], ys[j]): plan[(i, j)] for (i, j) in sorted(plan)}
        _check_marginals(left, right, den, num)
        g = gcd(*num.values())
        self = object.__new__(cls)
        self._set(left, right, den // g, {xy: q // g for xy, q in num.items()}, tuple(num))
        return self

    def _set(self, left: Dist, right: Dist, den: int, num: dict, support: tuple) -> None:
        self.left = left
        self.right = right
        self._den = den
        self._num = num
        self._support = support

    @property
    def support(self) -> tuple:
        return self._support

    def weight(self, x, y) -> Fraction:
        n = self._num.get((x, y))
        return ZERO if n is None else Fraction(n, self._den)

    def items(self):
        num, den = self._num, self._den
        return tuple([(xy, Fraction(num[xy], den)) for xy in self._support])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Coupling)
            and self.left == other.left
            and self.right == other.right
            and self._den == other._den
            and self._num == other._num
        )

    def __repr__(self) -> str:
        inside = ", ".join(f"({x!r},{y!r}): {v}" for (x, y), v in self.items())
        return "Coupling({" + inside + "})"

    def to_json_list(self) -> list:
        return [[x, y, format_fraction(v)] for (x, y), v in self.items()]


def _check_marginals(left: Dist, right: Dist, den: int, num: Mapping) -> None:
    """Raise MarginalMismatch unless the weights num[(x, y)] / den have
    marginals `left` and `right`. Each side checks its support in order,
    then any other point the weights put mass on, in first-seen order."""
    for side, dist, k in (("left", left, 0), ("right", right, 1)):
        marginal = dict.fromkeys(dist._support, 0)
        for cell, q in num.items():
            x = cell[k]
            marginal[x] = marginal.get(x, 0) + q
        d, dnum = dist._den, dist._num
        for x, q in marginal.items():
            if q * d != dnum.get(x, 0) * den:
                raise MarginalMismatch(side, x)
