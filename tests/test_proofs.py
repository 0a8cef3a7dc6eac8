import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

import strategies as sts
from hkconvex import (
    ConvexSet,
    Dist,
    QuantEquation,
    SpaceMismatch,
    check_derivation,
    dirac,
    hk_distance,
    kantorovich,
    metric_hypotheses,
    sampling,
    term_distance,
)
from hkconvex import convex, linprog
from hkconvex.convex import nearest_point
from hkconvex.proofs import (
    canon_proof,
    derive_hk,
    derive_kantorovich,
    prove_dist,
    prove_equal,
    tightest_derivable,
)
from hkconvex.syntax import Gen, Oplus, PlusP, parse_term, print_term
from hkconvex.terms import normalize, nu

F = Fraction


def test_prove_dist_reorders_scrambled_chain(x3):
    t = parse_term("(p+ 1/3 b (p+ 1/2 a b))")
    d = prove_dist(x3, t)
    assert d.conclusion.eps == 0
    assert print_term(d.conclusion.right) == "(p+ 1/3 a b)"
    assert check_derivation((), d).ok


def test_canon_proof_golden(x3):
    t = parse_term("(p+ 1/2 (oplus a b) (oplus b c))")
    d, s = canon_proof(x3, t)
    assert s == normalize(x3, t)
    assert d.conclusion.left == t
    assert d.conclusion.right == nu(x3, s)
    assert d.conclusion.eps == 0
    assert check_derivation((), d).ok


def test_canon_proof_derives_convexity_absorption(x3):
    # x (+) y = x (+) y (+) (x +_p y) is provable from the seven axioms
    t = parse_term("(oplus (oplus a b) (p+ 1/4 a b))")
    d, s = canon_proof(x3, t)
    assert print_term(d.conclusion.right) == "(oplus a b)"
    assert check_derivation((), d).ok


def test_derive_kantorovich_golden(x3):
    mid = Dist(x3, {"a": "1/2", "b": "1/2"})
    d = derive_kantorovich(x3, mid, dirac(x3, "a"))
    assert d.conclusion.eps == F(1, 4)
    assert d.hypotheses == (QuantEquation(Gen("b"), Gen("a"), F(1, 2)),)
    assert check_derivation(d.hypotheses, d).ok


def test_derive_hk_golden(x3):
    s = ConvexSet(x3, [dirac(x3, "a"), Dist(x3, {"a": "1/2", "b": "1/2"})])
    t = ConvexSet(x3, [dirac(x3, "c")])
    d = derive_hk(x3, s, t)
    assert d.conclusion.eps == hk_distance(x3, s, t) == F(1)
    assert d.conclusion.left == nu(x3, s)
    assert d.conclusion.right == nu(x3, t)
    assert check_derivation(d.hypotheses, d).ok


def test_derive_hk_projects_each_base_point_once(x3, monkeypatch):
    s = ConvexSet(x3, [dirac(x3, "a"), Dist(x3, {"b": "1/2", "c": "1/2"})])
    t = ConvexSet(x3, [dirac(x3, "b"), dirac(x3, "c"), Dist(x3, {"a": "1/4", "c": "3/4"})])
    assert (len(s.base), len(t.base)) == (2, 3)
    calls = []

    def counted(space, target, hull, *args, **kwargs):
        calls.append((target, hull))
        return nearest_point(space, target, hull, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hkconvex") and vars(module).get("nearest_point") is nearest_point:
            monkeypatch.setattr(module, "nearest_point", counted)
    d = derive_hk(x3, s, t)
    assert calls == [(g, t) for g in s.base] + [(g, s) for g in t.base]
    monkeypatch.undo()
    assert d.conclusion.eps == hk_distance(x3, s, t)
    assert check_derivation(d.hypotheses, d).ok


def test_derive_hk_builds_no_set_and_runs_no_hull_lp(x3, monkeypatch):
    # The padded sides span the hulls of the two given sets, so their bases
    # are the sets' own: no unique_base, and no hull membership LP.
    s = ConvexSet(x3, [dirac(x3, "a"), Dist(x3, {"b": "1/2", "c": "1/2"})])
    t = ConvexSet(x3, [dirac(x3, "b"), dirac(x3, "c"), Dist(x3, {"a": "1/4", "c": "3/4"})])
    calls = {"unique_base": 0, "is_feasible": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(convex, "unique_base")
    counted(linprog, "is_feasible")
    d = derive_hk(x3, s, t)
    assert calls == {"unique_base": 0, "is_feasible": 0}
    monkeypatch.undo()
    assert check_derivation(d.hypotheses, d).ok


def test_tightest_derivable_matches_term_distance(x3):
    t = parse_term("(p+ 1/2 (oplus a b) (oplus b c))")
    s = parse_term("a")
    value, d = tightest_derivable(x3, t, s)
    assert value == term_distance(x3, t, s) == F(3, 4)
    assert d.conclusion.left == t and d.conclusion.right == s
    assert check_derivation(metric_hypotheses(x3), d).ok


def test_derivation_hypotheses_restricted_to_support(x3):
    # only cross-support ground pairs may appear as hypotheses
    s = ConvexSet(x3, [dirac(x3, "a")])
    t = ConvexSet(x3, [dirac(x3, "b")])
    d = derive_hk(x3, s, t)
    labels = {(str(h.left.label), str(h.right.label)) for h in d.hypotheses}
    assert labels <= {("a", "b"), ("b", "a")}


@given(sts.space_with_terms(1, max_depth=4))
@settings(max_examples=40)
def test_canon_proof_checker_valid(bundle):
    space, t = bundle
    d, s = canon_proof(space, t)
    assert s == normalize(space, t)
    assert d.conclusion.eps == 0
    assert check_derivation((), d).ok


@given(sts.space_with_dists(2))
@settings(max_examples=40)
def test_derive_kantorovich_exact_and_valid(bundle):
    space, left, right = bundle
    d = derive_kantorovich(space, left, right)
    assert d.conclusion.eps == kantorovich(space, left, right).value
    assert check_derivation(d.hypotheses, d).ok


@given(sts.space_with_sets(2))
@settings(max_examples=30)
def test_derive_hk_exact_and_valid(bundle):
    space, s, t = bundle
    d = derive_hk(space, s, t)
    assert d.conclusion.eps == hk_distance(space, s, t)
    assert check_derivation(d.hypotheses, d).ok


@given(sts.space_with_terms(2))
@settings(max_examples=25)
def test_tightest_derivable_equals_term_distance(bundle):
    space, t, s = bundle
    value, d = tightest_derivable(space, t, s)
    assert value == term_distance(space, t, s)
    assert check_derivation(metric_hypotheses(space), d).ok


@given(sts.space_with_terms(2, max_depth=2))
@settings(max_examples=15)
def test_tightest_derivable_carries_the_metric_hypotheses(bundle):
    # the proof's hypotheses are the whole metric gamma, which accepts it
    space, t, s = bundle
    _, d = tightest_derivable(space, t, s)
    assert d.hypotheses == metric_hypotheses(space)
    assert check_derivation(metric_hypotheses(space), d).ok


@pytest.mark.parametrize("seed", range(3))
def test_derive_hk_refuses_sets_of_sets(x3, seed, monkeypatch):
    # Proofs are over the space metric: towers are a SpaceMismatch, raised
    # before any projection LP, whichever side they are on.
    rng = random.Random(seed)
    left, right = sampling.rand_set_of_sets(rng, x3), sampling.rand_set_of_sets(rng, x3)
    flat = ConvexSet(x3, [dirac(x3, "a")])

    def no_lp(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(linprog, "solve_lp", no_lp)
    for pair in ((left, right), (left, flat), (flat, right)):
        with pytest.raises(SpaceMismatch, match="label-supported"):
            derive_hk(x3, *pair)


def _conclusion_terms(d):
    """Every term object reachable from a conclusion of d, by id."""
    terms, nodes, stack = {}, set(), [d]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes.add(id(node))
        stack.extend(node.premises)
        todo = [node.conclusion.left, node.conclusion.right]
        while todo:
            t = todo.pop()
            if id(t) not in terms:
                terms[id(t)] = t
                if not isinstance(t, Gen):
                    todo += [t.left, t.right]
    return terms.values()


def _one_object_per_term(d):
    texts = [print_term(t) for t in _conclusion_terms(d)]
    assert len(texts) == len(set(texts))


def _fresh_terms_are_distinct():
    assert Oplus(Gen("a"), Gen("b")) is not Oplus(Gen("a"), Gen("b"))
    assert PlusP(F(1, 2), Gen("a"), Gen("b")) is not PlusP(F(1, 2), Gen("a"), Gen("b"))


@given(sts.space_with_sets(2), sts.space_with_terms(2))
@settings(max_examples=20, deadline=None)
def test_builders_build_each_distinct_term_once(sets, terms):
    space, s, t = sets
    _one_object_per_term(derive_hk(space, s, t))
    space, t, u = terms
    _one_object_per_term(canon_proof(space, t)[0])
    _one_object_per_term(tightest_derivable(space, t, u)[1])
    _fresh_terms_are_distinct()


def test_terms_built_outside_a_builder_are_not_shared():
    _fresh_terms_are_distinct()
    assert Gen("a") is not Gen("a")


@pytest.mark.parametrize("seed", range(3))
def test_no_sharing_survives_a_builder_that_raises(x3, seed):
    rng = random.Random(seed)
    left, right = sampling.rand_set_of_sets(rng, x3), sampling.rand_set_of_sets(rng, x3)
    with pytest.raises(SpaceMismatch):
        derive_hk(x3, left, right)
    _fresh_terms_are_distinct()


def test_no_sharing_survives_nested_builders(x3):
    # tightest_derivable runs canon_proof and derive_hk, which runs
    # derive_kantorovich, in its own scope; each builds in the caller's.
    t, u = parse_term("(p+ 1/2 (oplus a b) (oplus b c))"), parse_term("(oplus a c)")
    _, d = tightest_derivable(x3, t, u)
    _one_object_per_term(d)
    _fresh_terms_are_distinct()
    d = prove_equal(x3, t, parse_term("(p+ 1/2 (oplus b c) (oplus a b))"))
    _one_object_per_term(d)
    _fresh_terms_are_distinct()
