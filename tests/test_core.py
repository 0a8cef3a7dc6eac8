import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from hkconvex import (
    AxiomViolation,
    ConvexSet,
    Coupling,
    Dist,
    DuplicateLabel,
    FiniteMetricSpace,
    MalformedInput,
    MarginalMismatch,
    OutOfRange,
    SpaceMismatch,
    UnknownPoint,
    WeightsNotNormalized,
    as_fraction,
    convex_combine,
    dirac,
    format_fraction,
    normalize,
    parse_term,
    pushforward,
    validate_space,
)
from hkconvex.core import item_sort_key, scaled_ints


def test_fraction_round_trip():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("2") == Fraction(2)
    with pytest.raises(MalformedInput):
        as_fraction(True)
    with pytest.raises(MalformedInput):
        as_fraction("1E5")
    assert format_fraction(Fraction(6, 8)) == "3/4"
    assert format_fraction(Fraction(0)) == "0"


@pytest.mark.parametrize("text", ["1_0", "1 / 2", "1/ 2"])
def test_underscores_and_inner_whitespace_are_not_rationals(text):
    # Fraction reads "1_0" from Python 3.11 on and "1 / 2" from 3.12 on;
    # refusing both gives a text one meaning on every supported Python.
    with pytest.raises(MalformedInput):
        as_fraction(text)
    assert as_fraction(" 1/2 ") == Fraction(1, 2)


def test_scaled_ints_keeps_ints_over_one():
    ints = [3, -2, 0]
    assert scaled_ints(iter(ints)) == (ints, 1)
    assert scaled_ints([3, Fraction(1, 2), "2/3"]) == ([18, 3, 4], 6)
    assert scaled_ints([Fraction(4, 2), 5]) == ([2, 5], 1)
    with pytest.raises(MalformedInput):
        scaled_ints([1, 0.5])


def test_space_basics(x3):
    assert x3.d("a", "b") == Fraction(1, 2)
    assert x3.d("b", "a") == Fraction(1, 2)
    assert x3.d("a", "a") == 0
    assert x3.index("c") == 2
    assert "b" in x3 and "z" not in x3


def test_space_json_round_trip(x3):
    data = x3.to_json_dict()
    assert data["points"] == ["a", "b", "c"]
    assert FiniteMetricSpace.from_json_dict(data) == x3


def _check_int_table(space):
    den, rows = space._den, space._rows
    assert len(rows) == len(space.points)
    for x, row in zip(space.points, rows):
        assert len(row) == len(space.points)
        for y, n in zip(space.points, row):
            assert all(isinstance(v, int) for v in (n, den))
            assert Fraction(n, den) == space.d(x, y)


def test_int_table_on_a_one_point_space():
    space = FiniteMetricSpace(["a"], {})
    _check_int_table(space)
    assert (space._den, space._rows) == (1, ((0,),))


def test_int_table_of_a_space_read_back_from_json():
    points = list("abcd")
    # thirds, eighths and a fifth: D is their LCM, 120
    dist = {
        ("a", "b"): Fraction(2, 3),
        ("a", "c"): Fraction(5, 8),
        ("a", "d"): Fraction(1),
        ("b", "c"): Fraction(3, 5),
        ("b", "d"): Fraction(7, 8),
        ("c", "d"): Fraction(1, 2),
    }
    space = FiniteMetricSpace.from_json_dict(FiniteMetricSpace(points, dist).to_json_dict())
    _check_int_table(space)
    assert space._den == 120


@given(sts.spaces(min_points=1, max_points=6))
def test_int_table_matches_the_distances_and_leaves_eq_and_hash(space):
    twin = FiniteMetricSpace.from_json_dict(space.to_json_dict())
    before = hash(space)
    _check_int_table(space)
    assert hash(space) == before == hash(twin)
    assert space == twin and twin == space


def test_space_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        FiniteMetricSpace(["a", "a"], {("a", "a"): 0})


@pytest.mark.parametrize("label", ["a b", "(a", "a)", "a\tb", "x\n", " "])
def test_space_rejects_labels_the_term_syntax_cannot_write(label):
    # a label is one generator token, so every term over the space prints
    # and parses back
    with pytest.raises(MalformedInput, match="point label") as err:
        FiniteMetricSpace([label, "c"], {(label, "c"): "1/2"})
    assert repr(label) in str(err.value)


@pytest.mark.parametrize("label", ["", 3, None])
def test_space_rejects_empty_and_non_string_labels_as_unknown_points(label):
    with pytest.raises(UnknownPoint):
        FiniteMetricSpace([label, "c"], {})


def test_space_rejects_triangle_violation():
    with pytest.raises(AxiomViolation):
        FiniteMetricSpace(
            ["a", "b", "c"],
            {("a", "b"): "1/8", ("b", "c"): "1/8", ("a", "c"): "1"},
        )
    # Six triples violate the triangle inequality here, and each of the six
    # loop orders over (x, y, z) meets a different one first; the check
    # names the first in x, then y, then z order.
    dist = {
        ("a", "b"): "1/2",
        ("a", "c"): "1/8",
        ("a", "d"): "3/4",
        ("b", "c"): "1/4",
        ("b", "d"): "1/8",
        ("c", "d"): "1",
    }
    with pytest.raises(AxiomViolation) as err:
        FiniteMetricSpace(list("abcd"), dist)
    e = err.value
    assert (e.kind, e.x, e.y, e.z) == ("triangle", "a", "b", "c")


def test_space_rejects_zero_distance_between_distinct_points():
    with pytest.raises(AxiomViolation):
        FiniteMetricSpace(["a", "b"], {("a", "b"): 0})


def test_space_rejects_distance_above_one():
    with pytest.raises(OutOfRange):
        FiniteMetricSpace(["a", "b"], {("a", "b"): "9/8"})


def test_space_rejects_one_pair_given_twice_with_two_values():
    with pytest.raises(AxiomViolation) as err:
        FiniteMetricSpace(["a", "b"], {("a", "b"): "1/2", ("b", "a"): "1/3"})
    assert (err.value.kind, err.value.x, err.value.y) == ("symmetry", "b", "a")


def test_space_rejects_a_nonzero_self_distance():
    with pytest.raises(AxiomViolation) as err:
        FiniteMetricSpace(["a", "b"], {("a", "a"): "1/2", ("a", "b"): "1/2"})
    assert (err.value.kind, err.value.x, err.value.y) == ("identity", "a", "a")


def test_space_rejects_an_unknown_first_label_in_a_distance():
    with pytest.raises(UnknownPoint) as err:
        FiniteMetricSpace(["a", "b"], {("z", "b"): "1/2"})
    assert err.value.label == "z"


@pytest.mark.parametrize(
    "lookup", [lambda s: s.d("z", "a"), lambda s: s.d("a", "z"), lambda s: s.index("z")]
)
def test_space_lookups_reject_an_unknown_label(x3, lookup):
    with pytest.raises(UnknownPoint) as err:
        lookup(x3)
    assert err.value.label == "z"


def test_validate_space_returns_space():
    space = validate_space(["a", "b"], {("a", "b"): "1/2"})
    assert space.d("a", "b") == Fraction(1, 2)


def test_dist_construction_and_lookup(x3):
    d = Dist(x3, {"a": "1/2", "b": "1/2"})
    assert d["a"] == Fraction(1, 2)
    assert d["c"] == 0
    assert d.support == ("a", "b")
    assert d.is_ground()


def test_dist_drops_zero_weights(x3):
    d = Dist(x3, {"a": "1", "b": "0"})
    assert d.support == ("a",)


def test_dist_rejects_unnormalized(x3):
    with pytest.raises(WeightsNotNormalized):
        Dist(x3, {"a": "1/2"})


def test_dist_rejects_unknown_point(x3):
    with pytest.raises(UnknownPoint):
        Dist(x3, {"z": "1"})


def test_dist_rejects_negative_weight(x3):
    with pytest.raises(OutOfRange):
        Dist(x3, {"a": "3/2", "b": "-1/2"})


def test_dirac(x3):
    d = dirac(x3, "b")
    assert d["b"] == 1
    assert d.support == ("b",)


def test_convex_combine_merges_support(x3):
    d = convex_combine(
        [(Fraction(1, 2), dirac(x3, "a")), (Fraction(1, 2), dirac(x3, "a"))]
    )
    assert d == dirac(x3, "a")


def test_convex_combine_golden(x3):
    mid = convex_combine(
        [(Fraction(1, 2), dirac(x3, "a")), (Fraction(1, 2), dirac(x3, "b"))]
    )
    assert mid.to_json_dict() == {"a": "1/2", "b": "1/2"}


def test_convex_combine_rejects_bad_mass(x3):
    with pytest.raises(WeightsNotNormalized):
        convex_combine([(Fraction(1, 3), dirac(x3, "a"))])


def test_convex_combine_rejects_no_pairs():
    with pytest.raises(WeightsNotNormalized) as err:
        convex_combine([])
    assert err.value.total == 0


def test_convex_combine_rejects_a_negative_weight(x3):
    with pytest.raises(OutOfRange) as err:
        convex_combine([(Fraction(-1, 2), dirac(x3, "a")), (Fraction(3, 2), dirac(x3, "b"))])
    assert (err.value.what, err.value.value) == ("mixing weight", Fraction(-1, 2))


def test_convex_combine_rejects_what_is_not_a_dist(x3):
    with pytest.raises(TypeError):
        convex_combine([(Fraction(1), "a")])


def test_convex_combine_rejects_two_spaces(x3, x2):
    with pytest.raises(SpaceMismatch):
        convex_combine([(Fraction(1, 2), dirac(x3, "a")), (Fraction(1, 2), dirac(x2, "a"))])


def _point_set(space):
    """A set-valued support item of `space`."""
    return ConvexSet(space, [dirac(space, "a")])


def test_convex_combine_rejects_label_and_set_distributions_together(x3):
    over_sets = dirac(x3, _point_set(x3))
    with pytest.raises(SpaceMismatch, match="mixed label and set"):
        convex_combine([(Fraction(1, 2), dirac(x3, "a")), (Fraction(1, 2), over_sets)])


def test_pushforward_rejects_mixed_kinds(x3):
    s = _point_set(x3)
    mid = Dist(x3, {"a": "1/2", "b": "1/2"})
    with pytest.raises(SpaceMismatch, match="mixed label and set"):
        pushforward(lambda x: x if x == "a" else s, mid)


def test_dist_rejects_mixed_kinds(x3):
    with pytest.raises(SpaceMismatch, match="mixed label and set"):
        Dist(x3, {"a": "1/2", _point_set(x3): "1/2"})


def test_coupling_rejects_two_spaces(x3, x2):
    with pytest.raises(SpaceMismatch):
        Coupling({("a", "a"): 1}, dirac(x3, "a"), dirac(x2, "a"))


def test_pushforward_merges(x3):
    mid = Dist(x3, {"a": "1/2", "b": "1/2"})
    image = pushforward(lambda _: "c", mid)
    assert image == dirac(x3, "c")


def test_dist_json_round_trip(x3):
    d = Dist(x3, {"a": "1/3", "c": "2/3"})
    assert Dist.from_json_dict(x3, d.to_json_dict()) == d


def test_coupling_marginals_enforced(x3):
    left = Dist(x3, {"a": "1/2", "b": "1/2"})
    right = dirac(x3, "c")
    joint = {("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)}
    c = Coupling(joint, left, right)
    assert c.weight("a", "c") == Fraction(1, 2)
    with pytest.raises(MarginalMismatch):
        Coupling({("a", "c"): Fraction(1)}, left, right)


def test_coupling_from_ints_checks_both_marginals(x3):
    left = Dist(x3, {"a": "1/2", "b": "1/2"})
    right = Dist(x3, {"b": "1/3", "c": "2/3"})
    # (i, j) index left.support and right.support; weights are over 6
    c = Coupling._from_ints(left, right, 6, {(1, 0): 2, (0, 1): 3, (1, 1): 1})
    assert c == Coupling({("a", "c"): "1/2", ("b", "b"): "1/3", ("b", "c"): "1/6"}, left, right)
    assert c.support == (("a", "c"), ("b", "b"), ("b", "c"))
    with pytest.raises(MarginalMismatch) as err:
        Coupling._from_ints(left, right, 6, {(0, 0): 2, (0, 1): 3, (1, 1): 1})
    assert (err.value.side, err.value.point) == ("left", "a")
    with pytest.raises(MarginalMismatch) as err:
        Coupling._from_ints(left, right, 6, {(0, 0): 3, (1, 1): 3})
    assert (err.value.side, err.value.point) == ("right", "b")


def product_coupling(left, right):
    """The independent coupling; always feasible."""
    joint = {}
    for x, vx in left.items():
        for y, vy in right.items():
            joint[(x, y)] = vx * vy
    return Coupling(joint, left, right)


def _fraction_marginal_error(joint, left, right):
    # The marginal check on Fraction sums, in the order Coupling runs it:
    # each side's support in order, then other points in first-seen order.
    for side, dist, k in (("left", left, 0), ("right", right, 1)):
        marginal = dict.fromkeys(dist.support, Fraction(0))
        for cell, v in joint.items():
            if v:
                marginal[cell[k]] = marginal.get(cell[k], Fraction(0)) + v
        for x, v in marginal.items():
            if v != dist.weight(x):
                return side, x
    return None


@given(sts.space_with_dists(2), st.data())
def test_coupling_names_the_same_mismatch_as_fraction_sums(bundle, data):
    space, left, right = bundle
    joint = {xy: v for xy, v in product_coupling(left, right).items()}
    cells = [(x, y) for x in space.points for y in space.points]
    for _ in range(data.draw(st.integers(0, 3))):
        cell = data.draw(st.sampled_from(cells))
        den = data.draw(st.sampled_from((2, 5, 7)))
        delta = Fraction(data.draw(st.integers(-3, 3)), den)
        joint[cell] = max(joint.get(cell, Fraction(0)) + delta, Fraction(0))
    expected = _fraction_marginal_error(joint, left, right)
    if expected is None:
        assert dict(Coupling(joint, left, right).items()) == {
            xy: v for xy, v in joint.items() if v
        }
        return
    with pytest.raises(MarginalMismatch) as err:
        Coupling(joint, left, right)
    assert (err.value.side, err.value.point) == expected


def test_coupling_rejects_a_negative_weight_before_the_marginals(x3):
    left = Dist(x3, {"a": "1/2", "b": "1/2"})
    joint = {("a", "c"): Fraction(1), ("b", "c"): Fraction(-1, 3), ("b", "a"): 7}
    with pytest.raises(OutOfRange) as err:
        Coupling(joint, left, dirac(x3, "c"))
    assert err.value.value == Fraction(-1, 3)


def test_product_coupling(x3):
    left = Dist(x3, {"a": "1/2", "b": "1/2"})
    right = dirac(x3, "c")
    c = product_coupling(left, right)
    assert isinstance(c, Coupling)
    assert c.weight("a", "c") == Fraction(1, 2)
    assert c.to_json_list() == [["a", "c", "1/2"], ["b", "c", "1/2"]]


@given(sts.spaces())
def test_generated_spaces_satisfy_axioms(space):
    for x in space.points:
        assert space.d(x, x) == 0
        for y in space.points:
            assert space.d(x, y) == space.d(y, x)
            assert 0 <= space.d(x, y) <= 1
            if x != y:
                assert space.d(x, y) > 0
            for z in space.points:
                assert space.d(x, z) <= space.d(x, y) + space.d(y, z)


@given(sts.space_with_dists(1))
def test_generated_dists_normalized(bundle):
    _, d = bundle
    assert sum(w for _, w in d.items()) == 1
    assert all(w > 0 for _, w in d.items())


def test_items_keep_no_memory_per_call():
    # tuple(<genexpr>) over a 15-item support left one freed block per call
    # on the interpreter's tuple free lists (up to 2000 of them), for the
    # distribution and for its 15-cell coupling with a point mass alike
    points = [chr(ord("a") + i) for i in range(15)]
    space = FiniteMetricSpace(
        points, {(x, y): Fraction(1, 2) for i, x in enumerate(points) for y in points[i + 1 :]}
    )
    d = Dist(space, {p: Fraction(1, 15) for p in points})
    c = product_coupling(d, dirac(space, "a"))
    d.items(), c.items()
    before = sys.getallocatedblocks()
    for _ in range(5000):
        d.items()
        c.items()
    assert sys.getallocatedblocks() - before < 100


def test_convex_combine_keeps_no_memory_per_call():
    # the mixing LCM over 15 point masses, as in the Coupling check below
    points = [chr(ord("a") + i) for i in range(15)]
    space = FiniteMetricSpace(
        points, {(x, y): Fraction(1, 2) for i, x in enumerate(points) for y in points[i + 1 :]}
    )
    pairs = [(Fraction(1, 15), dirac(space, p)) for p in points]
    # one unmeasured batch first: the first batch also warms the allocator
    for _ in range(5000):
        convex_combine(pairs)
    before = sys.getallocatedblocks()
    for _ in range(5000):
        convex_combine(pairs)
    assert sys.getallocatedblocks() - before < 100


def test_coupling_check_keeps_no_memory_per_call():
    # lcm(*<genexpr>) builds its argument tuple by resizing, which left one
    # freed block per call on the tuple free lists, as tuple(<genexpr>) did;
    # the marginal check scales the 15 coupling weights and both marginals
    points = [chr(ord("a") + i) for i in range(15)]
    space = FiniteMetricSpace(
        points, {(x, y): Fraction(1, 2) for i, x in enumerate(points) for y in points[i + 1 :]}
    )
    weights = {p: Fraction(1, 15) for p in points}
    joint = {(p, p): w for p, w in weights.items()}
    # one unmeasured batch first: the first batch also warms the allocator
    for _ in range(5000):
        Coupling(joint, Dist(space, weights), Dist(space, weights))
    before = sys.getallocatedblocks()
    for _ in range(5000):
        Coupling(joint, Dist(space, weights), Dist(space, weights))
    assert sys.getallocatedblocks() - before < 100


def _assert_matches(space, d, ref):
    """`d` against `ref`, a plain map from item to nonzero Fraction weight."""
    order = sorted(ref, key=lambda item: item_sort_key(space, item))
    assert d.support == tuple(order)
    assert d.items() == tuple((item, ref[item]) for item in order)
    assert all(type(w) is Fraction for _, w in d.items())
    for item in order:
        assert d.weight(item) == ref[item] and d[item] == ref[item]
    for label in space.points:
        if label not in ref:
            assert d.weight(label) == 0
    rebuilt = Dist(space, ref)
    assert d == rebuilt and rebuilt == d
    assert hash(d) == hash(rebuilt)
    assert d.sort_key() == tuple((item_sort_key(space, item), ref[item]) for item in order)
    assert d.sort_key() == rebuilt.sort_key()
    if d.is_ground():
        assert d.to_json_dict() == {item: str(ref[item]) for item in order}


def _mix(pairs):
    acc = {}
    for p, ref in pairs:
        if p:
            for item, w in ref.items():
                acc[item] = acc.get(item, 0) + p * w
    return acc


@given(st.data())
@settings(max_examples=80)
def test_int_dist_matches_fraction_reference(data):
    space = data.draw(sts.spaces())
    if data.draw(st.booleans()):
        items = list(space.points)
    else:
        items = data.draw(
            st.lists(
                sts.convex_sets(space, max_base=2, max_support=2),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )

    def reference():
        chosen = data.draw(
            st.lists(st.sampled_from(items), min_size=1, max_size=len(items), unique=True)
        )
        raw = data.draw(st.lists(st.integers(1, 12), min_size=len(chosen), max_size=len(chosen)))
        return {item: Fraction(r, sum(raw)) for item, r in zip(chosen, raw)}

    refs = [reference() for _ in range(data.draw(st.integers(1, 3)))]
    raw_p = data.draw(
        st.lists(st.integers(0, 6), min_size=len(refs), max_size=len(refs)).filter(any)
    )
    ps = [Fraction(r, sum(raw_p)) for r in raw_p]
    dists = [Dist(space, ref) for ref in refs]
    for d, ref in zip(dists, refs):
        _assert_matches(space, d, ref)
    mixed_ref = _mix(zip(ps, refs))
    mixed = convex_combine(list(zip(ps, dists)))
    _assert_matches(space, mixed, mixed_ref)
    # mixing a mixture again stays on ints throughout
    q = Fraction(data.draw(st.integers(1, 6)), 7)
    _assert_matches(
        space,
        convex_combine([(q, mixed), (1 - q, dirac(space, items[0]))]),
        _mix([(q, mixed_ref), (1 - q, {items[0]: Fraction(1)})]),
    )
    # merging items adds their weights
    first = mixed.support[0]
    merged_ref = {first: sum(mixed_ref.values(), Fraction(0))}
    _assert_matches(space, pushforward(lambda item: first, mixed), merged_ref)


def test_is_ground_is_right_for_every_constructor(x3):
    half = Fraction(1, 2)
    s = ConvexSet(x3, [dirac(x3, "a"), Dist(x3, {"b": half, "c": half})])
    t = ConvexSet(x3, [dirac(x3, "c")])
    over_labels = Dist(x3, {"a": half, "b": half})
    over_sets = Dist(x3, {s: half, t: half})
    ground = [
        over_labels,
        dirac(x3, "b"),
        convex_combine([(half, dirac(x3, "a")), (half, dirac(x3, "c"))]),
        pushforward(lambda x: "c", over_labels),
        pushforward(lambda u: "b" if u == s else "a", over_sets),
        *normalize(x3, parse_term("(oplus (p+ 1/3 a b) (oplus c (p+ 1/2 b c)))")).base,
    ]
    over = [
        over_sets,
        dirac(x3, s),
        convex_combine([(half, dirac(x3, s)), (half, over_sets)]),
        pushforward(lambda x: s if x == "a" else t, over_labels),
        pushforward(lambda u: t, over_sets),
    ]
    assert all(d.is_ground() for d in ground)
    assert not any(d.is_ground() for d in over)


def test_hash_is_consistent_when_the_denominator_is_the_modulus(x3):
    # a denominator the numeric hash modulus divides hashes like any other
    m = sys.hash_info.modulus
    ref = {"a": Fraction(1, m), "b": Fraction(m - 1, m)}
    d = convex_combine([(ref["a"], dirac(x3, "a")), (ref["b"], dirac(x3, "b"))])
    rebuilt = Dist(x3, ref)
    assert d == rebuilt
    assert hash(d) == hash(rebuilt)
