import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import lp_reference
import strategies as sts
from hkconvex import (
    BadProbability,
    ConvexSet,
    Dist,
    EmptyInput,
    FiniteMetricSpace,
    MalformedInput,
    SpaceMismatch,
    TooLarge,
    check_monad_laws,
    convex_combine,
    dirac,
    functor_map,
    hk_distance,
    in_hull,
    monad_mult,
    monad_unit,
    nearest_point,
    oplus,
    plus_p,
    sampling,
    unique_base,
    wms,
)
from hkconvex import convex, linprog
from hkconvex.convex import MINKOWSKI_PRODUCT_CAP, _in_int_hull
from hkconvex.linprog import is_feasible

F = Fraction


def _mid(space, x, y, p=F(1, 2)):
    return convex_combine([(p, dirac(space, x)), (1 - p, dirac(space, y))])


def test_in_hull_golden(x3):
    gens = [dirac(x3, "a"), dirac(x3, "b")]
    inside, weights = in_hull(_mid(x3, "a", "b"), gens)
    assert inside
    assert weights == (F(1, 2), F(1, 2))
    outside, _ = in_hull(dirac(x3, "c"), gens)
    assert not outside


def test_unique_base_drops_interior_points(x3):
    gens = [dirac(x3, "a"), dirac(x3, "b"), _mid(x3, "a", "b")]
    base = unique_base(gens)
    assert set(base) == {dirac(x3, "a"), dirac(x3, "b")}


def test_unique_base_keeps_extreme_mixture(x3):
    gens = [dirac(x3, "a"), _mid(x3, "b", "c")]
    assert set(unique_base(gens)) == set(gens)


def test_base_is_canonically_ordered_and_deduped(x3):
    s = ConvexSet(x3, [dirac(x3, "b"), dirac(x3, "a"), dirac(x3, "a")])
    t = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    assert s == t
    assert s.base == t.base
    assert hash(s) == hash(t)


def test_empty_generator_list_rejected(x3):
    with pytest.raises(EmptyInput):
        ConvexSet(x3, [])


def test_unique_base_of_no_generators_is_empty_input():
    with pytest.raises(EmptyInput) as exc:
        unique_base([])
    assert str(exc.value) == "a convex set needs at least one generator"


def test_from_json_dict_reads_a_bare_list_as_the_wrapped_form(x3):
    bare = ConvexSet.from_json_dict(x3, [{"a": "1"}])
    assert bare == ConvexSet.from_json_dict(x3, {"generators": [{"a": "1"}]})
    assert bare == ConvexSet(x3, [dirac(x3, "a")])


def test_membership(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    assert _mid(x3, "a", "b", F(1, 3)) in s
    assert dirac(x3, "c") not in s
    # c carries no weight of the target, so the hull test runs without that vertex
    t = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b"), dirac(x3, "c")])
    assert _mid(x3, "a", "b", F(1, 3)) in t
    assert _mid(x3, "a", "c") not in ConvexSet(x3, [dirac(x3, "a"), _mid(x3, "b", "c")])


def test_monad_unit(x3):
    s = monad_unit(x3, "a")
    assert s.base == (dirac(x3, "a"),)


def test_oplus_golden(x3):
    s = oplus(monad_unit(x3, "a"), monad_unit(x3, "b"))
    assert s.base == (dirac(x3, "a"), dirac(x3, "b"))
    # union then closure: the mixture is inside, not a base point
    assert _mid(x3, "a", "b") in s


def test_plus_p_golden(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    t = monad_unit(x3, "c")
    r = plus_p(F(1, 2), s, t)
    assert [g.to_json_dict() for g in r.base] == [
        {"a": "1/2", "c": "1/2"},
        {"b": "1/2", "c": "1/2"},
    ]


def test_plus_p_rejects_endpoint_probabilities(x3):
    s = monad_unit(x3, "a")
    for bad in (0, 1, F(3, 2)):
        with pytest.raises(BadProbability):
            plus_p(bad, s, s)


def test_plus_p_rejects_floats_and_takes_exact_strings(x3):
    s = monad_unit(x3, "a")
    t = monad_unit(x3, "b")
    for bad in (0.1, 0.5, "x"):
        with pytest.raises(MalformedInput):
            plus_p(bad, s, t)
    assert plus_p("1/4", s, t) == plus_p(F(1, 4), s, t)


def test_wms_golden(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    t = monad_unit(x3, "c")
    phi = Dist(x3, {s: F(1, 2), t: F(1, 2)})
    assert wms(phi) == plus_p(F(1, 2), s, t)


def test_functor_map_golden(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    image = functor_map(lambda x: "c", s)
    assert image == monad_unit(x3, "c")


def test_monad_mult_golden(x3):
    s = ConvexSet(x3, [dirac(x3, "a")])
    t = ConvexSet(x3, [dirac(x3, "b"), dirac(x3, "c")])
    nested = ConvexSet(x3, [Dist(x3, {s: F(1, 2), t: F(1, 2)})])
    flat = monad_mult(nested)
    assert flat == plus_p(F(1, 2), s, t)


def test_monad_mult_unions_outer_generators(x3):
    s = monad_unit(x3, "a")
    t = monad_unit(x3, "b")
    nested = ConvexSet(x3, [dirac(x3, s), dirac(x3, t)])
    assert monad_mult(nested) == oplus(s, t)


def test_nearest_point_inside_and_outside(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    value, witness, weights = nearest_point(x3, _mid(x3, "a", "b"), s)
    assert value == 0
    assert witness == _mid(x3, "a", "b")
    assert sum(weights) == 1
    value, witness, _ = nearest_point(x3, dirac(x3, "c"), s)
    assert value == F(1, 2)
    assert witness in s


def test_nearest_point_rejects_another_space():
    # A and B differ only in d(a, b), so their points carry equal labels
    a_space = FiniteMetricSpace(["a", "b"], {("a", "b"): F(1, 2)})
    b_space = FiniteMetricSpace(["a", "b"], {("a", "b"): F(1)})
    over_a = ConvexSet(a_space, [dirac(a_space, "a")])
    over_b = ConvexSet(b_space, [dirac(b_space, "a")])
    with pytest.raises(SpaceMismatch):
        nearest_point(b_space, dirac(b_space, "b"), over_a)
    with pytest.raises(SpaceMismatch):
        nearest_point(b_space, dirac(a_space, "b"), over_b)
    with pytest.raises(SpaceMismatch):
        hk_distance(b_space, over_a, over_b)
    with pytest.raises(SpaceMismatch):
        hk_distance(b_space, over_b, over_a)


def test_convex_set_rejects_bad_generators(x3, x2):
    with pytest.raises(TypeError):
        ConvexSet(x3, ["a"])
    with pytest.raises(SpaceMismatch):
        ConvexSet(x3, [dirac(x2, "a")])
    over_sets = dirac(x3, ConvexSet(x3, [dirac(x3, "a")]))
    with pytest.raises(SpaceMismatch, match="mix label and set"):
        ConvexSet(x3, [dirac(x3, "a"), over_sets])


def test_operations_reject_two_spaces(x3, x2):
    s3, s2 = ConvexSet(x3, [dirac(x3, "a")]), ConvexSet(x2, [dirac(x2, "a")])
    with pytest.raises(SpaceMismatch):
        oplus(s3, s2)
    with pytest.raises(SpaceMismatch):
        plus_p(F(1, 2), s3, s2)
    with pytest.raises(SpaceMismatch):
        in_hull(dirac(x3, "a"), [dirac(x2, "a")])


def test_wms_rejects_a_label_supported_dist(x3):
    with pytest.raises(SpaceMismatch, match="set-valued support"):
        wms(dirac(x3, "a"))


def test_nothing_is_in_the_hull_of_no_generators(x3):
    assert in_hull(dirac(x3, "a"), []) == (False, None)


def _no_lp(*args):
    raise AssertionError("an LP ran")


@pytest.mark.parametrize("seed", range(3))
def test_nearest_point_over_the_space_metric_refuses_sets_of_sets(x3, seed, monkeypatch):
    # With no metric the cost is space.d, defined on labels only: a set
    # over sets on either side is a SpaceMismatch, raised before any LP.
    tower = sampling.rand_set_of_sets(random.Random(seed), x3)
    flat = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    monkeypatch.setattr(linprog, "solve_lp", _no_lp)
    for target, s in ((tower.base[0], tower), (tower.base[0], flat), (dirac(x3, "c"), tower)):
        with pytest.raises(SpaceMismatch, match="label-supported"):
            nearest_point(x3, target, s)


def _fraction_hull_lp(target, generators):
    # The hull LP as Fraction rows: one row per joint support coordinate,
    # each on its own denominators, and a unit normalization row.
    coords = list(dict.fromkeys(x for d in (target, *generators) for x in d.support))
    rows = [[g.weight(x) for g in generators] for x in coords] + [[F(1)] * len(generators)]
    rhs = [target.weight(x) for x in coords] + [F(1)]
    return [F(0)] * len(generators), rows, rhs


def _fraction_projection(space, target, s):
    # nearest_point's LP as Fraction rows, solved by the rational reference.
    value, lambdas = lp_reference.projection(space.d, target, s)
    return value, convex_combine(list(zip(lambdas, s.base))), lambdas


@st.composite
def _mixed_dists(draw, space):
    # Weights in halves, thirds or eighths.
    den = draw(st.sampled_from((2, 3, 8)))
    k = draw(st.integers(1, min(3, len(space.points), den)))
    support = draw(st.lists(st.sampled_from(space.points), min_size=k, max_size=k, unique=True))
    cuts = draw(st.lists(st.integers(1, den - 1), min_size=k - 1, max_size=k - 1, unique=True))
    bounds = [0, *sorted(cuts), den]
    return Dist(space, {x: F(b - a, den) for x, a, b in zip(support, bounds, bounds[1:])})


@st.composite
def _hull_instances(draw):
    """A space, a target and generators with mixed denominators, some of
    them repeated; the target is often on a segment between two
    generators (a vertex when both are the same), so on a face."""
    space = draw(sts.spaces(max_points=4))
    gens = draw(st.lists(_mixed_dists(space), min_size=1, max_size=4))
    gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        p = draw(st.sampled_from((F(1, 2), F(1, 3), F(3, 8))))
        target = convex_combine([(p, a), (1 - p, b)])
    else:
        target = draw(_mixed_dists(space))
    return space, target, gens


@settings(max_examples=150)
@given(_hull_instances())
def test_hull_and_projection_certificates_match_the_fraction_rows(instance):
    space, target, gens = instance
    ref = lp_reference.solve_lp(*_fraction_hull_lp(target, gens))
    if ref.status == lp_reference.OPTIMAL:
        assert in_hull(target, gens) == (True, tuple(ref.solution))
    else:
        assert in_hull(target, gens) == (False, None)
    s = ConvexSet(space, gens)
    assert nearest_point(space, target, s) == _fraction_projection(space, target, s)


def test_check_monad_laws_clean():
    report = check_monad_laws(seed=11, trials=40)
    assert report.ok
    assert report.trials == 40
    assert report.to_json_dict()["failures"] == []


@given(sts.space_with_sets(1))
def test_base_points_are_extreme(bundle):
    # no base point may be a mixture of the others
    space, s = bundle
    for i, g in enumerate(s.base):
        rest = [h for j, h in enumerate(s.base) if j != i]
        if rest:
            inside, _ = in_hull(g, rest)
            assert not inside


@given(sts.space_with_sets(1))
def test_rebasing_is_idempotent(bundle):
    _, s = bundle
    assert ConvexSet(s.space, list(s.base)) == s


@given(sts.space_with_sets(2))
def test_oplus_contains_both_operands(bundle):
    space, s, t = bundle
    u = oplus(s, t)
    for g in s.base + t.base:
        assert g in u


@given(sts.space_with_sets(2))
@settings(max_examples=40)
def test_oplus_absorbs_mixture(bundle):
    # x (+) y = x (+) y (+) (x +_p y): the convexity equation at set level
    space, s, t = bundle
    u = oplus(s, t)
    assert oplus(u, plus_p(F(1, 3), s, t)) == u


@given(sts.space_with_sets(2))
@settings(max_examples=40)
def test_hk_convexity_inequality(bundle):
    # HK(x +_p z, y +_p z) and HK(x (+) z, y (+) z) are bounded by HK(x, y)
    space, s, t = bundle
    z = monad_unit(space, space.points[0])
    bound = hk_distance(space, s, t)
    assert hk_distance(space, plus_p(F(1, 2), s, z), plus_p(F(1, 2), t, z)) <= bound
    assert hk_distance(space, oplus(s, z), oplus(t, z)) <= bound


@given(sts.space_with_dists(1))
def test_wms_of_dirac_over_one_set_is_that_set(bundle):
    space, d = bundle
    s = ConvexSet(space, [d])
    phi = Dist(space, {s: 1})
    assert wms(phi) == s


def _base_by_lp_only(generators):
    # reference: one hull LP per distinct generator against all the others
    distinct = list(dict.fromkeys(generators))
    if len(distinct) == 1:
        return tuple(distinct)
    kept = [
        g
        for i, g in enumerate(distinct)
        if not in_hull(g, distinct[:i] + distinct[i + 1 :])[0]
    ]
    return tuple(sorted(kept, key=Dist.sort_key))


@st.composite
def _generator_lists(draw):
    # small integer weights make tied maximal coordinates common; drawing
    # from a pool with replacement repeats generators; set-valued items
    # give distributions one level up the tower
    space = draw(sts.spaces(max_points=3))
    items = list(space.points)
    if draw(st.booleans()):
        inner = sts.convex_sets(space, max_base=2)
        items = draw(st.lists(inner, min_size=1, max_size=3, unique=True))
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(3, len(items))))
        support = draw(
            st.lists(st.sampled_from(items), min_size=k, max_size=k, unique=True)
        )
        raw = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
        pool.append(Dist(space, {x: F(w, sum(raw)) for x, w in zip(support, raw)}))
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if len(items) >= 3 and draw(st.booleans()):
        # d and e share their top weight w on x; their midpoint is interior
        # and ties with both there, and comes first
        x, y, z = draw(st.permutations(items))[:3]
        w = draw(st.sampled_from([F(1, 2), F(2, 3), F(3, 4)]))
        d = Dist(space, {x: w, y: 1 - w})
        e = Dist(space, {x: w, z: 1 - w})
        gens = [convex_combine([(F(1, 2), d), (F(1, 2), e)])] + gens + [d, e]
    return gens + gens[:1]


@given(_generator_lists())
def test_unique_base_matches_lp_only_reference(gens):
    assert unique_base(gens) == _base_by_lp_only(gens)


@given(_generator_lists())
def test_membership_matches_in_hull(gens):
    distinct = list(dict.fromkeys(gens))
    if len(distinct) > 1:
        target, rest = distinct[0], distinct[1:]
        assert (target in ConvexSet(target.space, rest)) == in_hull(target, rest)[0]


@st.composite
def _monad_sized_generator_lists(draw):
    # the monad workload re-bases up to 12 generators on 4-5 points, with
    # hull tests up to 5 x 11: a few drawn generators, then mixtures of them,
    # which no functional certifies, so each runs a hull test
    space = draw(sts.spaces(min_points=4, max_points=5))
    gens = draw(st.lists(sts.dists(space, max_support=5), min_size=2, max_size=7))
    for _ in range(draw(st.integers(0, 12 - len(gens)))):
        d, e = draw(st.lists(st.sampled_from(gens), min_size=2, max_size=2))
        p = draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
        gens.append(convex_combine([(p, d), (1 - p, e)]))
    return draw(st.permutations(gens))


@settings(max_examples=40)
@given(_monad_sized_generator_lists())
def test_base_and_membership_at_the_monad_workload_sizes(gens):
    assert unique_base(gens) == _base_by_lp_only(gens)
    distinct = list(dict.fromkeys(gens))
    if len(distinct) > 1:
        target, rest = distinct[0], distinct[1:]
        assert (target in ConvexSet(target.space, rest)) == in_hull(target, rest)[0]


def _kept_without_lp(gens):
    # the distinct generators that unique_base keeps without a hull test, as
    # indices into the distinct list, and their integer vectors
    distinct = list(dict.fromkeys(gens))
    vecs = convex._int_vectors(distinct)[0]
    targets = []
    real = convex._in_int_hull

    def recording(target, others):
        targets.append(target)
        return real(target, others)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(convex, "_in_int_hull", recording)
        unique_base(gens)
    return {k for k, v in enumerate(vecs) if v not in targets}, vecs


def _functional_maxima(vecs):
    # where each of the 4d integer functionals of unique_base's docstring,
    # f(x) = sum_r s_r (D+1)^(d-1-r) x[c_r], is largest; each is strict
    den, d = sum(vecs[0]), len(vecs[0])
    found = set()
    for j in range(d):
        order = [*range(j, d), *range(j)]
        for s in (1, -1):
            for t in (1, -1):
                weights = [s * (den + 1) ** (d - 1)]
                weights += [t * (den + 1) ** (d - 1 - r) for r in range(1, d)]
                f = [sum(w * v[c] for w, c in zip(weights, order)) for v in vecs]
                assert f.count(max(f)) == 1
                found.add(f.index(max(f)))
    return found


@settings(max_examples=80)
@given(st.one_of(_generator_lists(), _monad_sized_generator_lists()))
def test_generators_kept_without_lp_are_the_functional_maxima(gens):
    kept, vecs = _kept_without_lp(gens)
    assert kept == _functional_maxima(vecs)
    distinct = list(dict.fromkeys(gens))
    assert {distinct[k] for k in kept} <= set(_base_by_lp_only(gens))


@pytest.fixture
def hull_tests(monkeypatch):
    # the target of every hull test run, in call order
    calls = []
    real = convex._in_int_hull

    def counted(target, others):
        calls.append(target)
        return real(target, others)

    monkeypatch.setattr(convex, "_in_int_hull", counted)
    return calls


def test_a_tie_broken_by_the_smallest_weight_needs_no_lp(x3, hull_tests):
    # over 6ths: g = (4, 2, 0), a = (6, 0, 0), bc = (0, 3, 3). g ties with a
    # for the smallest weight on c; keeping the smallest weight on a next
    # leaves g alone, so g is a lexicographic extreme and runs no hull test
    g = Dist(x3, {"a": F(2, 3), "b": F(1, 3)})
    a, bc = dirac(x3, "a"), _mid(x3, "b", "c")
    assert unique_base([g, a, bc]) == (g, a, bc)
    assert hull_tests == []


@st.composite
def _int_hull_cases(draw):
    """A target and 1-12 other vectors of 1-5 nonnegative ints, all with one
    sum; half the time the target is a mixture of the others."""
    dim, den = draw(st.integers(1, 5)), draw(st.integers(1, 12))

    def vector():
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=dim - 1, max_size=dim - 1)))
        return [b - a for a, b in zip([0, *cuts], [*cuts, den])]

    others = [vector() for _ in range(draw(st.integers(1, 12)))]
    if not draw(st.booleans()):
        return vector(), others
    size = len(others)
    coef = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    target = [sum(c * h[j] for c, h in zip(coef, others)) for j in range(dim)]
    return target, [[sum(coef) * v for v in h] for h in others]


@settings(max_examples=200)
@given(_int_hull_cases())
def test_int_hull_needs_no_normalization_row(case):
    # every vector sums to one denominator, so the coordinate rows already
    # force the weights to sum to 1
    target, others = case
    rows = [list(column) for column in zip(*others)] + [[1] * len(others)]
    assert _in_int_hull(target, others) == is_feasible(rows, [*target, 1])


def test_tied_functionals_certify_nothing(x2, hull_tests):
    # mid = (a + b) / 2 is neither largest nor smallest on any coordinate:
    # a and b hold both extremes of each, so no lexicographic order picks
    # mid. An interior point must not be kept; its one hull test drops it
    a, b, mid = dirac(x2, "a"), dirac(x2, "b"), _mid(x2, "a", "b")
    assert unique_base([mid, a, b]) == (a, b)
    assert len(hull_tests) == 1
    assert unique_base([a, mid, b, mid]) == (a, b)
    assert len(hull_tests) == 2


def test_unique_base_ties_go_to_the_lp(x3, hull_tests):
    # every coordinate's largest weight is shared by two generators; the
    # tie-break on the next coordinate, and each coordinate's unshared
    # smallest weight, keep all three without a hull test
    ab, ac, bc = _mid(x3, "a", "b"), _mid(x3, "a", "c"), _mid(x3, "b", "c")
    assert unique_base([bc, ab, ac, ab]) == (ab, ac, bc)
    assert hull_tests == []
    # the centre ties with both others at its weight 1/2 on a, lies strictly
    # between them on b and c, and is inside the hull: only its hull test runs
    centre = Dist(x3, {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)})
    assert unique_base([centre, ab, ac]) == (ab, ac)
    assert len(hull_tests) == 1


@st.composite
def _planar_hull_cases(draw):
    """A target on 1-3 of 1-5 coordinates and 0-11 other vectors, all with
    one sum. Scaled by 4, the target is a column, an edge's midpoint, a
    point of a line through collinear columns, or one unit off a midpoint;
    some columns have mass off the target's coordinates."""
    size = draw(st.integers(1, 3))
    dim = draw(st.integers(size, 5))
    support = draw(st.permutations(range(dim)))[:size]
    den = draw(st.integers(2 * size, 12))

    def vector(coords):
        k = len(coords) - 1
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=k, max_size=k)))
        v = [0] * dim
        for c, lo, hi in zip(coords, [0, *cuts], [*cuts, den]):
            v[c] = 4 * (hi - lo)
        return v

    on = [vector(support) for _ in range(draw(st.integers(0, 4)))]
    others = on + [vector(range(dim)) for _ in range(draw(st.integers(0, 3)))]
    if not on:
        return vector(support), others
    a, b = draw(st.lists(st.sampled_from(on), min_size=2, max_size=2))

    def point(k):  # a + k (b - a) / 4
        return [x + k * (y - x) // 4 for x, y in zip(a, b)]

    kind = draw(st.sampled_from(["column", "midpoint", "line", "outside"]))
    target = point(2)
    if kind == "column":
        target = point(0)
    elif kind == "line":
        ks = [k for k in range(-4, 9) if min(point(k)) >= 0]
        others += [point(k) for k in draw(st.lists(st.sampled_from(ks), max_size=4))]
        target = point(draw(st.sampled_from(ks)))
    elif kind == "outside":
        i = draw(st.sampled_from(support))
        j = draw(st.sampled_from([j for j in support if target[j]]))
        target[i] += 1
        target[j] -= 1
    return target, draw(st.permutations(others))


@settings(max_examples=300)
@given(_planar_hull_cases())
def test_planar_hull_test_matches_the_lp(case):
    target, others = case
    rows = [[h[j] for h in others] for j in range(len(target))] + [[1] * len(others)]
    assert _in_int_hull(target, others) == is_feasible(rows, [*target, 1])


@pytest.mark.parametrize("points", ["ab", "abc"])
def test_membership_in_the_plane_matches_in_hull(points, x2, x3):
    # x2: the segment from a to (a + 2b) / 3. x3: the triangle a, b and
    # (b + c) / 2, the points with weight on c at most that on b
    if points == "ab":
        space, base = x2, [dirac(x2, "a"), _mid(x2, "a", "b", F(1, 3))]
        outside = _mid(x2, "a", "b", F(1, 4))
    else:
        space, base = x3, [dirac(x3, "a"), dirac(x3, "b"), _mid(x3, "b", "c")]
        outside = Dist(x3, {"a": F(1, 2), "b": F(1, 5), "c": F(3, 10)})
    s = ConvexSet(space, base)
    assert set(s.base) == set(base)
    midpoint = convex_combine([(F(1, 2), base[0]), (F(1, 2), base[-1])])
    for t, inside in ((base[-1], True), (midpoint, True), (outside, False)):
        assert (t in s) == in_hull(t, base)[0] == inside


def test_only_hull_tests_on_four_or_more_coordinates_run_an_lp(x3, hull_tests, monkeypatch):
    lps = []
    real = linprog.is_feasible

    def counted(rows, rhs):
        lps.append(rhs)
        return real(rows, rhs)

    monkeypatch.setattr(linprog, "is_feasible", counted)
    ab, ac = _mid(x3, "a", "b"), _mid(x3, "a", "c")
    centre = Dist(x3, {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)})
    assert unique_base([centre, ab, ac]) == (ab, ac)
    assert len(hull_tests) == 1
    assert lps == []
    # the centre of 4 point masses is on none of their extremes
    x4 = _discrete_space(["a", "b", "c", "d"])
    corners = [dirac(x4, p) for p in "abcd"]
    centre = Dist(x4, dict.fromkeys("abcd", F(1, 4)))
    assert unique_base([centre, *corners]) == tuple(corners)
    assert len(hull_tests) == 2
    assert len(lps) == 1


def _discrete_space(labels: list) -> FiniteMetricSpace:
    return FiniteMetricSpace(
        labels, {(x, y): F(1) for i, x in enumerate(labels) for y in labels[i + 1 :]}
    )


def test_plus_p_product_over_the_cap_is_refused_before_mixing(monkeypatch):
    labels = [f"x{i}" for i in range(65)]
    space = _discrete_space(labels)
    left = ConvexSet(space, [dirac(space, x) for x in labels[:33]])
    right = ConvexSet(space, [dirac(space, x) for x in labels[33:]])
    assert 33 * 32 > MINKOWSKI_PRODUCT_CAP

    def no_mixing(*args):
        raise AssertionError("mixed before the cap was checked")

    monkeypatch.setattr(convex, "convex_combine", no_mixing)
    with pytest.raises(TooLarge) as exc:
        plus_p(F(1, 2), left, right)
    assert exc.value.actual == 33 * 32


def test_minkowski_product_over_the_cap_is_refused(x2):
    # eleven distinct segments of two base points each: 2**11 choices
    segments = [
        ConvexSet(x2, [dirac(x2, "a"), _mid(x2, "a", "b", F(1, k))]) for k in range(2, 13)
    ]
    assert 2 ** len(segments) > MINKOWSKI_PRODUCT_CAP
    phi = Dist(x2, {s: F(1, len(segments)) for s in segments})
    with pytest.raises(TooLarge) as exc:
        wms(phi)
    assert exc.value.actual == 2 ** len(segments)
    with pytest.raises(TooLarge):
        monad_mult(ConvexSet(x2, [phi]))
