import collections
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as sts
from hkconvex import (
    ConvexSet,
    Dist,
    functor_map,
    EMAlgebra,
    FiniteMetricSpace,
    OutOfRange,
    QuantConvexSemilattice,
    check_monad_laws,
    corrupt_alpha,
    dirac,
    eval_canonical,
    free_em_algebra,
    functor_F,
    functor_G,
    hausdorff,
    hk_distance,
    kantorovich_metric,
    monad_mult,
    monad_unit,
    oplus,
    plus_p,
    roundtrip_FG,
    roundtrip_GF,
)
from hkconvex import sampling
from hkconvex.presentation import check_homomorphism
from hkconvex.sampling import rand_point, rand_set_of_sets as rand_carrier_set

F = Fraction


def test_free_algebra_satisfies_em_laws(x3):
    em = free_em_algebra(x3)
    assert em.check_unit(seed=1, trials=20).ok
    assert em.check_mult(seed=2, trials=10).ok
    assert em.check_nonexpansive(seed=3, trials=10).ok


def test_functor_f_ops_on_free_algebra_are_union_and_mixture(x3):
    qa = functor_F(free_em_algebra(x3))
    rng = random.Random(5)
    for _ in range(8):
        x = rand_point(rng, x3)
        y = rand_point(rng, x3)
        assert qa.op_oplus(x, y) == oplus(x, y)
        assert qa.op_plusp(F(1, 3), x, y) == plus_p(F(1, 3), x, y)


def test_functor_f_ops_are_idempotent_at_a_point(x3):
    qa = functor_F(free_em_algebra(x3))
    x = monad_unit(x3, "b")
    assert qa.op_oplus(x, x) == x
    assert qa.op_plusp(F(1, 2), x, x) == x


def test_functor_f_output_satisfies_axioms_and_bounds(x3):
    qa = functor_F(free_em_algebra(x3))
    assert qa.check_axioms(seed=4, trials=25).ok
    assert qa.check_nonexpansive(seed=5, trials=25).ok


def _failed_laws(report):
    return collections.Counter(failure.split(": ", 1)[1] for failure in report.failures)


def test_an_operation_that_breaks_one_axiom_fails_that_axiom_only(x3):
    # Each axiom's left side is paired with its own name: a join that keeps
    # its left argument breaks only commutativity, and a mixture that swaps
    # its weights breaks only A_p, in every trial.
    qa = functor_F(free_em_algebra(x3))
    left_join = QuantConvexSemilattice(x3, lambda x, y: x, qa.op_plusp)
    mirrored = QuantConvexSemilattice(
        x3, qa.op_oplus, lambda p, x, y: qa.op_plusp(1 - p, x, y)
    )
    assert _failed_laws(left_join.check_axioms(seed=4, trials=25)) == {"axiom C": 25}
    assert _failed_laws(mirrored.check_axioms(seed=4, trials=25)) == {"axiom A_p": 25}


def test_a_mixture_fixed_at_one_half_breaks_the_mixture_bound(x3):
    # Negative control for the NExp bounds: the join is the free one, so
    # only the mixture bound can fail, and it does on these trials.
    qa = functor_F(free_em_algebra(x3))
    half = QuantConvexSemilattice(
        x3, qa.op_oplus, lambda p, x, y: qa.op_plusp(F(1, 2), x, y)
    )
    report = half.check_nonexpansive(seed=5, trials=25)
    assert report.failures == [f"trial {t}: mixture bound" for t in (1, 2, 13, 23)]


def test_functor_g_unit_and_join(x3):
    qa = functor_F(free_em_algebra(x3))
    em = functor_G(qa)
    x = monad_unit(x3, "a")
    y = monad_unit(x3, "c")
    assert em.alpha(ConvexSet(x3, [dirac(x3, x)])) == x
    assert em.alpha(ConvexSet(x3, [dirac(x3, x), dirac(x3, y)])) == qa.op_oplus(x, y)


def test_eval_canonical_matches_mult_on_free_instance(x3):
    em = free_em_algebra(x3)
    qa = functor_F(em)
    rng = random.Random(7)
    for _ in range(10):
        s = rand_carrier_set(rng, x3)
        assert eval_canonical(qa, s) == monad_mult(s)


def _law_reports(space):
    for seed in range(4):
        yield check_monad_laws(seed, 10)
        for em in (free_em_algebra(space), corrupt_alpha(free_em_algebra(space))):
            qa = functor_F(em)
            yield em.check_unit(seed, 10)
            yield em.check_mult(seed, 5)
            yield em.check_nonexpansive(seed, 5)
            yield qa.check_axioms(seed, 10)
            yield roundtrip_GF(em, 10, seed)
            yield roundtrip_FG(qa, 10, seed)


def test_law_reports_are_pinned(x3):
    # Pins every sample count and failure string: a changed rng draw, or a
    # G that interprets a set differently, changes the digest.
    reports = [r.to_json_dict() for r in _law_reports(x3)]
    assert sum(len(r["failures"]) for r in reports) == 156
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d100a0ebb0bb37d9c91e71db254532e26e392305fddbb8d2cd2bdbcac178f24"
    )


def test_tower_samplers_are_pinned(x3):
    # The monad-law report holds no sample, so the towers it draws are
    # pinned here: the same rng calls in the same order give these reprs.
    draws = []
    for seed in range(4):
        rng = random.Random(seed)
        draws.append(sampling.rand_dist_over_sets(rng, x3))
        draws.append(sampling.rand_set_of_sets_of_sets(rng, x3))
        draws.append(rng.random())
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "a76dcc96b4b89919e8ff448005df533e5ba264b0a1244aeb2a52a35651312935"
    )


def test_tower_samplers_return_on_a_one_point_space():
    # Over one point every draw of a depth is the same item: two equal
    # draws merge into weight 1, so each sampler gives the one tower.
    space = FiniteMetricSpace(["a"], {})
    point = monad_unit(space, "a")
    sets = monad_unit(space, point)
    for seed in range(20):
        rng = random.Random(seed)
        assert sampling.rand_dist_over_sets(rng, space) == dirac(space, point)
        assert sampling.rand_set_of_sets(rng, space) == sets
        assert sampling.rand_set_of_sets_of_sets(rng, space) == monad_unit(space, sets)


def test_roundtrips_clean_on_free_instance(x3):
    em = free_em_algebra(x3)
    gf = roundtrip_GF(em, 40, seed=11)
    fg = roundtrip_FG(functor_F(em), 40, seed=12)
    assert gf.ok and gf.trials == 40
    assert fg.ok and fg.trials == 40


def test_roundtrip_on_singleton_space_trivial():
    space = sts.FiniteMetricSpace(["a"], {})
    em = free_em_algebra(space)
    assert roundtrip_GF(em, 10, seed=1).ok
    assert roundtrip_FG(functor_F(em), 10, seed=1).ok


def test_corrupted_alpha_detected(x3):
    bad = corrupt_alpha(free_em_algebra(x3))
    report = roundtrip_GF(bad, 40, seed=8)
    assert not report.ok
    assert report.failures


def test_corrupt_alpha_needs_two_points():
    space = sts.FiniteMetricSpace(["a"], {})
    with pytest.raises(OutOfRange):
        corrupt_alpha(free_em_algebra(space))


def test_alpha_ignoring_set_structure_fails_the_unit_law(x3):
    broken = EMAlgebra(x3, lambda s: monad_unit(x3, "a"))
    report = broken.check_unit()
    assert not report.ok and report.trials == 50
    assert report.failures[0].endswith(": unit law")


def test_identity_is_a_homomorphism(x3):
    em = free_em_algebra(x3)
    assert check_homomorphism(lambda s: s, em, em, samples=10, seed=3).ok


def test_relabeling_is_a_homomorphism(x3):
    em = free_em_algebra(x3)
    swap = {"a": "b", "b": "a", "c": "c"}
    relabel = lambda s: functor_map(lambda x: swap[x], s)
    assert check_homomorphism(relabel, em, em, samples=20, seed=4).ok


def test_non_homomorphism_detected(x3):
    em = free_em_algebra(x3)
    # joining a fixed set after flattening differs from joining it inside
    graft = lambda s: oplus(s, monad_unit(x3, "a"))
    assert not check_homomorphism(graft, em, em, samples=20, seed=5).ok


def test_relabeling_between_two_spaces_is_a_homomorphism(x3):
    # F f for any map f: X -> Y is a homomorphism of free algebras
    # (naturality of the multiplication), whether or not f is injective.
    y = FiniteMetricSpace(
        ["p", "q", "r"], {("p", "q"): F(1, 4), ("q", "r"): F(1, 2), ("p", "r"): F(3, 4)}
    )
    two = FiniteMetricSpace(["p", "q"], {("p", "q"): F(1, 3)})
    src = free_em_algebra(x3)
    for target, names in (
        (y, {"a": "r", "b": "p", "c": "q"}),
        (two, {"a": "p", "b": "q", "c": "p"}),
    ):
        relabel = lambda s: functor_map(lambda x: names[x], s, target=target)
        report = check_homomorphism(relabel, src, free_em_algebra(target), samples=20, seed=6)
        assert report.ok and report.trials == 20
    # joining a fixed set over Y after relabelling is not one
    names = {"a": "r", "b": "p", "c": "q"}
    graft = lambda s: oplus(functor_map(lambda x: names[x], s, target=y), monad_unit(y, "p"))
    assert not check_homomorphism(graft, src, free_em_algebra(y), samples=20, seed=7).ok


@given(sts.spaces(max_points=3))
@settings(max_examples=8)
def test_free_roundtrips_on_generated_spaces(space):
    em = free_em_algebra(space)
    assert roundtrip_GF(em, 12, seed=21).ok
    assert roundtrip_FG(functor_F(em), 12, seed=22).ok


def test_hk_projects_onto_the_whole_set():
    # m = (a + c)/2 lies outside the segment T between a and b; its nearest
    # point in T is (a + b)/2 at cost d(b, c)/2 = 1/8, while the nearest
    # base point of T is a at cost d(a, c)/2 = 1/4
    space = FiniteMetricSpace(
        ["a", "b", "c"],
        {("a", "b"): F(1, 2), ("b", "c"): F(1, 4), ("a", "c"): F(1, 2)},
    )
    m = Dist(space, {"a": F(1, 2), "c": F(1, 2)})
    s = ConvexSet(space, [dirac(space, "a"), dirac(space, "b"), m])
    t = ConvexSet(space, [dirac(space, "a"), dirac(space, "b")])
    assert hausdorff(kantorovich_metric(space.d), s.base, t.base) == F(1, 4)
    assert hk_distance(space, s, t) == F(1, 8)
