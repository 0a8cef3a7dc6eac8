import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as sts
from hkconvex import (
    AXIOMS,
    RULES,
    Derivation,
    FiniteMetricSpace,
    MalformedInput,
    OutOfRange,
    ParseError,
    QuantEquation,
    TooDeep,
    check_derivation,
    derivation_from_json_dict,
    derivation_to_json_dict,
    derivation_to_json_text,
    equation_from_json_dict,
    equation_to_json_dict,
    metric_hypotheses,
    term_distance,
)
from hkconvex.core import ZERO
from hkconvex.deduction import (
    _axiom_right,
    _match_axiom,
    _oplus_eps,
    _plusp_eps,
    _triang_eps,
    equations_from_json_list,
)
from hkconvex.proofs import canon_proof, derive_hk
from hkconvex.sampling import rand_convex_set, rand_space
from hkconvex.syntax import Gen, Oplus, PlusP, parse_term
from hkconvex.terms import normalize

F = Fraction


def eq(l, r, e):
    return QuantEquation(parse_term(l), parse_term(r), F(e))


def refl(term):
    t = parse_term(term)
    return Derivation("Refl", QuantEquation(t, t, F(0)))


def test_equation_validates_epsilon():
    for eps in (F(3, 2), F(-1, 8), 2, -1):
        with pytest.raises(OutOfRange):
            QuantEquation(Gen("a"), Gen("b"), eps)
        with pytest.raises(OutOfRange):
            QuantEquation(left=Gen("a"), right=Gen("b"), eps=eps)
    for eps in (0, 1, F(0), F(1), F(1, 2)):
        assert QuantEquation(Gen("a"), Gen("b"), eps).eps == eps


def test_equation_rejects_inexact_epsilon():
    for eps in (0.5, "1/2", True, False, None):
        with pytest.raises(MalformedInput):
            QuantEquation(Gen("a"), Gen("b"), eps)
        with pytest.raises(MalformedInput):
            QuantEquation(left=Gen("a"), right=Gen("b"), eps=eps)
    assert str(QuantEquation(Gen("a"), Gen("b"), 1)) == "a =1 b"


# A node with the wrong number of premises fails at the node itself, with
# the arity message, before any other condition of its rule is tested.
ARITY = {
    "Refl": 0,
    "Symm": 1,
    "Triang": 2,
    "Max": 1,
    "NExpOplus": 2,
    "NExpPlusP": 2,
    "Subst": 1,
    "Assum": 0,
    "AxiomCS": 0,
}


@pytest.mark.parametrize("rule", list(ARITY))
def test_wrong_premise_count_is_reported_first(x3, rule):
    bad_premise = Derivation("Nope", eq("a", "b", "1/2"))
    want = ARITY[rule]
    for count in {0, 1, 2, 3} - {want}:
        d = Derivation(rule, eq("a", "b", "1/2"), (bad_premise,) * count)
        result = check_derivation((), d)
        assert (result.ok, result.path) == (False, ())
        assert result.reason == f"{rule} expects {want} premise(s), got {count}"


def test_unknown_rule_is_reported_before_arity(x3):
    d = Derivation("Nope", eq("a", "a", "0"), (refl("a"),))
    assert check_derivation((), d).reason == "unknown rule 'Nope'"


def test_refl_valid(x3):
    assert check_derivation((), refl("(oplus a b)")).ok


def test_refl_rejects_distinct_sides(x3):
    bad = Derivation("Refl", eq("a", "b", 0))
    res = check_derivation((), bad)
    assert not res.ok and res.path == ()


def test_symm_flips(x3):
    gamma = (eq("a", "b", "1/2"),)
    d = Derivation("Symm", eq("b", "a", "1/2"), (Derivation("Assum", eq("a", "b", "1/2")),))
    assert check_derivation(gamma, d).ok


def test_assum_requires_verbatim_membership(x3):
    gamma = (eq("a", "b", "1/2"),)
    assert check_derivation(gamma, Derivation("Assum", eq("a", "b", "1/2"))).ok
    # same pair at a larger eps is not in gamma
    res = check_derivation(gamma, Derivation("Assum", eq("a", "b", "3/4")))
    assert not res.ok


def test_triang_adds_and_caps(x3):
    gamma = (eq("a", "b", "3/4"), eq("b", "c", "3/4"))
    p1 = Derivation("Assum", eq("a", "b", "3/4"))
    p2 = Derivation("Assum", eq("b", "c", "3/4"))
    good = Derivation("Triang", eq("a", "c", "1"), (p1, p2))
    assert check_derivation(gamma, good).ok
    # capped sum is exactly 1; claiming anything else is invalid
    under = Derivation("Triang", eq("a", "c", "7/8"), (p1, p2))
    assert not check_derivation(gamma, under).ok


def test_triang_quarter_plus_quarter(x3):
    gamma = (eq("a", "b", "1/4"), eq("b", "c", "1/4"))
    d = Derivation(
        "Triang",
        eq("a", "c", "1/2"),
        (Derivation("Assum", eq("a", "b", "1/4")), Derivation("Assum", eq("b", "c", "1/4"))),
    )
    assert check_derivation(gamma, d).ok


def test_max_weakens_non_strictly(x3):
    gamma = (eq("a", "b", "1/2"),)
    inner = Derivation("Assum", eq("a", "b", "1/2"))
    assert check_derivation(
        gamma, Derivation("Max", eq("a", "b", "1/2"), (inner,))
    ).ok
    assert check_derivation(
        gamma, Derivation("Max", eq("a", "b", "3/4"), (inner,))
    ).ok
    res = check_derivation(gamma, Derivation("Max", eq("a", "b", "1/4"), (inner,)))
    assert not res.ok


def test_oplus_congruence_takes_max(x3):
    gamma = (eq("a", "b", "1/2"), eq("b", "c", "1/4"))
    d = Derivation(
        "NExpOplus",
        eq("(oplus a b)", "(oplus b c)", "1/2"),
        (Derivation("Assum", eq("a", "b", "1/2")), Derivation("Assum", eq("b", "c", "1/4"))),
    )
    assert check_derivation(gamma, d).ok
    claim_sum = Derivation(
        "NExpOplus",
        eq("(oplus a b)", "(oplus b c)", "3/4"),
        tuple(d.premises),
    )
    assert not check_derivation(gamma, claim_sum).ok


def test_plusp_congruence_weights_epsilons(x3):
    gamma = (eq("a", "b", "1/2"), eq("b", "c", "1/4"))
    d = Derivation(
        "NExpPlusP",
        eq("(p+ 1/2 a b)", "(p+ 1/2 b c)", "3/8"),
        (Derivation("Assum", eq("a", "b", "1/2")), Derivation("Assum", eq("b", "c", "1/4"))),
    )
    assert check_derivation(gamma, d).ok
    mismatched_p = Derivation(
        "NExpPlusP",
        eq("(p+ 1/2 a b)", "(p+ 1/4 b c)", "3/8"),
        tuple(d.premises),
    )
    assert not check_derivation(gamma, mismatched_p).ok


def test_axiom_instances_accepted(x3):
    cases = {
        "A": ("(oplus (oplus a b) c)", "(oplus a (oplus b c))"),
        "C": ("(oplus a b)", "(oplus b a)"),
        "I": ("(oplus a a)", "a"),
        "A_p": ("(p+ 1/3 (p+ 1/2 a b) c)", "(p+ 1/6 a (p+ 1/5 b c))"),
        "C_p": ("(p+ 1/3 a b)", "(p+ 2/3 b a)"),
        "I_p": ("(p+ 1/2 a a)", "a"),
        "D": ("(p+ 1/2 a (oplus b c))", "(oplus (p+ 1/2 a b) (p+ 1/2 a c))"),
    }
    assert set(cases) == set(AXIOMS)
    for name, (l, r) in cases.items():
        d = Derivation("AxiomCS", eq(l, r, 0), axiom=name)
        assert check_derivation((), d).ok, name
        # both orientations are instances
        flipped = Derivation("AxiomCS", eq(r, l, 0), axiom=name)
        assert check_derivation((), flipped).ok, name


def test_axiom_rejects_non_instance(x3):
    d = Derivation("AxiomCS", eq("(oplus a b)", "a", 0), axiom="I")
    assert not check_derivation((), d).ok
    wrong_eps = Derivation("AxiomCS", eq("(oplus a a)", "a", "1/8"), axiom="I")
    assert not check_derivation((), wrong_eps).ok


def test_a_p_side_condition_is_exact(x3):
    # p=1/3, q=1/2 forces pq=1/6 and p(1-q)/(1-pq)=1/5; any other pair fails
    bad = Derivation(
        "AxiomCS",
        eq("(p+ 1/3 (p+ 1/2 a b) c)", "(p+ 1/6 a (p+ 1/4 b c))", 0),
        axiom="A_p",
    )
    assert not check_derivation((), bad).ok


def test_subst_requires_hypothesis_free_premise(x3):
    inner = Derivation("AxiomCS", eq("(oplus x x)", "x", 0), axiom="I")
    d = Derivation(
        "Subst",
        eq("(oplus (p+ 1/2 a b) (p+ 1/2 a b))", "(p+ 1/2 a b)", 0),
        (inner,),
        subst=(("x", parse_term("(p+ 1/2 a b)")),),
    )
    assert check_derivation((), d).ok
    leaky = Derivation(
        "Subst",
        eq("a", "b", "1/2"),
        (Derivation("Assum", eq("a", "b", "1/2")),),
        subst=(),
    )
    gamma = (eq("a", "b", "1/2"),)
    assert not check_derivation(gamma, leaky).ok


def test_cut_discharges_theta(x3):
    # theta = {a =_1/2 b} proved from gamma; conclusion reuses it
    gamma = metric_hypotheses(x3)
    theta = (eq("a", "b", "1/2"),)
    prove_theta = Derivation("Assum", eq("a", "b", "1/2"))
    under_theta = Derivation("Assum", eq("a", "b", "1/2"))
    d = Derivation("Cut", eq("a", "b", "1/2"), (prove_theta, under_theta), theta=theta)
    assert check_derivation(gamma, d).ok


def test_cut_rejects_unproven_theta(x3):
    theta = (eq("a", "c", "1/8"),)
    prove_theta = Derivation("Assum", eq("a", "c", "1/8"))
    under_theta = Derivation("Assum", eq("a", "c", "1/8"))
    d = Derivation("Cut", eq("a", "c", "1/8"), (prove_theta, under_theta), theta=theta)
    res = check_derivation(metric_hypotheses(x3), d)
    assert not res.ok


def test_invalid_node_path_points_into_tree(x3):
    gamma = (eq("a", "b", "1/2"),)
    bad_leaf = Derivation("Assum", eq("a", "b", "1/4"))
    d = Derivation(
        "Triang",
        eq("a", "a", "3/4"),
        (Derivation("Assum", eq("a", "b", "1/2")), Derivation("Symm", eq("b", "a", "1/4"), (bad_leaf,))),
    )
    res = check_derivation(gamma, d)
    assert not res.ok
    assert res.path == (1, 0)


def test_metric_hypotheses_cover_both_orientations(x3):
    gamma = metric_hypotheses(x3)
    assert eq("a", "b", "1/2") in gamma
    assert eq("b", "a", "1/2") in gamma
    assert len(gamma) == 6


def test_equation_json_round_trip():
    e = eq("(p+ 1/2 a b)", "c", "1/3")
    assert equation_from_json_dict(equation_to_json_dict(e)) == e


def test_derivation_json_round_trip(x3):
    inner = Derivation("AxiomCS", eq("(oplus x x)", "x", 0), axiom="I")
    d = Derivation(
        "Subst",
        eq("(oplus a a)", "a", 0),
        (inner,),
        subst=(("x", Gen("a")),),
        hypotheses=(eq("a", "b", "1/2"),),
    )
    back = derivation_from_json_dict(derivation_to_json_dict(d))
    assert back == d
    assert check_derivation((), back).ok


def test_derivation_json_shares_equal_terms():
    doc = derivation_to_json_dict(
        Derivation(
            "Triang",
            eq("(oplus a b)", "(oplus b c)", "1/2"),
            (
                Derivation("Assum", eq("(oplus a b)", "(oplus b b)", "1/2")),
                Derivation("Assum", eq("(oplus b b)", "(oplus b c)", 0)),
            ),
        )
    )
    back = derivation_from_json_dict(doc)
    first, second = back.premises
    assert back.conclusion.left is first.conclusion.left
    assert first.conclusion.right is second.conclusion.left
    assert back.conclusion.right.left is first.conclusion.right.left
    assert derivation_to_json_dict(back) == doc


def test_derivation_json_shares_equal_subproofs_and_equations(x3):
    def hop():
        return Derivation("Max", eq("a", "b", "1/2"), (Derivation("Assum", eq("a", "b", "1/2")),))

    first, second = hop(), hop()
    assert first == second and first is not second
    d = Derivation("NExpOplus", eq("(oplus a a)", "(oplus b b)", "1/2"), (first, second))
    doc = derivation_to_json_dict(d)
    back = derivation_from_json_dict(doc)
    assert back == d
    assert back.premises[0] is back.premises[1]
    # The Max node and its Assum premise conclude one equation object.
    assert back.premises[0].conclusion is back.premises[0].premises[0].conclusion
    assert check_derivation(metric_hypotheses(x3), back).ok
    assert derivation_to_json_dict(back) == doc


def test_derivation_json_builds_one_dict_per_node_object():
    hop = Derivation("Max", eq("a", "b", "1/2"), (Derivation("Assum", eq("a", "b", "1/2")),))
    twin = Derivation("Max", eq("a", "b", "1/2"), (Derivation("Assum", eq("a", "b", "1/2")),))
    shared = Derivation("NExpOplus", eq("(oplus a a)", "(oplus b b)", "1/2"), (hop, hop))
    apart = Derivation("NExpOplus", eq("(oplus a a)", "(oplus b b)", "1/2"), (hop, twin))
    doc = derivation_to_json_dict(shared)
    assert doc["premises"][0] is doc["premises"][1]
    other = derivation_to_json_dict(apart)
    assert other["premises"][0] is not other["premises"][1]
    assert json.dumps(doc, sort_keys=True) == json.dumps(other, sort_keys=True)
    assert derivation_from_json_dict(doc) == shared


# Labels that JSON must escape: a quote, a backslash, a control character,
# non-ASCII ones inside and outside the BMP.
ODD_LABELS = st.text(st.sampled_from('ab"\\\x01\u00e9\u2003\U0001d538'), min_size=1, max_size=3)
ODD_TERMS = st.recursive(
    st.builds(Gen, ODD_LABELS),
    lambda inner: st.builds(Oplus, inner, inner) | st.builds(PlusP, sts.probabilities(), inner, inner),
    max_leaves=4,
)
ODD_EQUATIONS = st.builds(
    QuantEquation, ODD_TERMS, ODD_TERMS, st.integers(0, 8).map(lambda k: F(k, 8))
)


@st.composite
def odd_derivations(draw):
    """Trees, not proofs: every field the writer handles, node objects
    shared as premises, and substitutions that may repeat a variable."""
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        premises = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        subst = st.lists(st.tuples(st.sampled_from(["x", "y", '"\u00e9']), ODD_TERMS), max_size=3)
        pool.append(
            Derivation(
                draw(st.sampled_from(RULES) | ODD_LABELS),
                draw(ODD_EQUATIONS),
                tuple(premises),
                draw(st.none() | st.sampled_from(AXIOMS) | ODD_LABELS),
                draw(st.none() | subst.map(tuple)),
                draw(st.none() | st.lists(ODD_EQUATIONS, max_size=2).map(tuple)),
                tuple(draw(st.lists(ODD_EQUATIONS, max_size=2))),
            )
        )
    return pool[-1]


@given(odd_derivations())
@settings(max_examples=60)
def test_text_writer_matches_the_dict_writer(d):
    assert derivation_to_json_text(d) == json.dumps(derivation_to_json_dict(d), sort_keys=True)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_text_writer_matches_the_dict_writer_on_derived_proofs(seed):
    rng = random.Random(seed)
    for _ in range(8):
        space = rand_space(rng)
        d = derive_hk(space, rand_convex_set(rng, space), rand_convex_set(rng, space))
        text = derivation_to_json_text(d)
        assert text == json.dumps(derivation_to_json_dict(d), sort_keys=True)
        assert derivation_from_json_dict(json.loads(text)) == d


def _distinct_nodes(d: Derivation) -> list[Derivation]:
    """Each node object of `d` once."""
    seen, stack, nodes = set(), [d], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.premises)
    return nodes


def _padded(doc, spaces):
    """A copy of a derivation document with every l and r text respelled:
    each space widened and the text wrapped in spaces, by varying amounts."""
    if isinstance(doc, list):
        return [_padded(x, spaces) for x in doc]
    if not isinstance(doc, dict):
        return doc
    out = {key: _padded(value, spaces) for key, value in doc.items()}
    for key in ("l", "r"):
        if isinstance(doc.get(key), str):
            pad = " " * (1 + next(spaces) % 3)
            out[key] = pad + doc[key].replace(" ", pad) + pad
    return out


@pytest.mark.parametrize("seed", [2, 11, 29])
def test_reader_shares_each_node_and_conclusion_value_of_derived_proofs(seed):
    rng = random.Random(seed)
    for _ in range(6):
        space = rand_space(rng)
        d = derive_hk(space, rand_convex_set(rng, space), rand_convex_set(rng, space))
        doc = json.loads(derivation_to_json_text(d))
        gamma_doc = [equation_to_json_dict(e) for e in metric_hypotheses(space)]
        replies = []
        for document in (doc, _padded(doc, itertools.count())):
            # Gamma and then the proof through one table, as `check` reads them.
            table = {}
            gamma = equations_from_json_list(gamma_doc, table)
            back = derivation_from_json_dict(document, table)
            assert back == d
            res = check_derivation(gamma, back)
            replies.append((res.ok, res.path, res.reason))
            if document is doc:
                nodes = _distinct_nodes(back)
                assert len(nodes) == len(set(nodes))
                conclusions = {id(node.conclusion): node.conclusion for node in nodes}
                assert len(conclusions) == len(set(conclusions.values()))
        assert replies[0] == replies[1] == (True, (), "")


def test_shared_premises_cost_one_visit_per_node_object(x3):
    # 64 levels of Triang(d, d) over a =0 a: 65 node objects, 2**65 - 1 nodes.
    d = refl("a")
    for _ in range(64):
        d = Derivation("Triang", d.conclusion, (d, d))
    start = time.perf_counter()
    assert d.size() == 2**65 - 1
    assert time.perf_counter() - start < 1
    renamed = Derivation("Subst", eq("b", "b", 0), (d,), subst=(("a", Gen("b")),))
    start = time.perf_counter()
    assert check_derivation((), renamed).ok
    assert time.perf_counter() - start < 1


def test_generator_labelled_like_an_eps_reads_and_checks():
    space = FiniteMetricSpace(["1/2", "b"], {("1/2", "b"): F(1, 2)})
    hop = Derivation("Assum", eq("1/2", "b", "1/2"))
    d = Derivation(
        "NExpPlusP",
        eq("(p+ 1/2 1/2 b)", "(p+ 1/2 b b)", "1/4"),
        (hop, Derivation("Refl", eq("b", "b", 0))),
    )
    gamma_doc = [equation_to_json_dict(e) for e in metric_hypotheses(space)]
    doc = derivation_to_json_dict(d)
    assert doc["premises"][0]["conclusion"] == {"l": "1/2", "r": "b", "eps": "1/2"}
    table = {}
    gamma = equations_from_json_list(gamma_doc, table)
    back = derivation_from_json_dict(doc, table)
    assert back == d
    assert back.premises[0].conclusion.left == Gen("1/2")
    assert back.premises[0].conclusion.eps == F(1, 2)
    assert back.conclusion.left.p == F(1, 2)
    assert back.conclusion.left.left is back.premises[0].conclusion.left
    assert check_derivation(gamma, back).ok


def test_shared_failing_subproof_is_reported_at_its_first_position(x3):
    bad = {"rule": "Assum", "conclusion": {"l": "a", "r": "b", "eps": "1/4"}}
    doc = {
        "rule": "NExpOplus",
        "conclusion": {"l": "(oplus b a)", "r": "(oplus a b)", "eps": "1/4"},
        "premises": [
            {"rule": "Symm", "conclusion": {"l": "b", "r": "a", "eps": "1/4"},
             "premises": [bad]},
            bad,
        ],
    }
    back = derivation_from_json_dict(doc)
    assert back.premises[1] is back.premises[0].premises[0]
    res = check_derivation(metric_hypotheses(x3), back)
    assert not res.ok
    assert res.path == (0, 0)
    assert res.reason == "Assum cites an equation outside the hypotheses"


def test_shared_subproof_is_checked_again_under_other_hypotheses(x3):
    # a =3/4 b is a hypothesis inside the Cut only; the same Assum node
    # cited again outside it must fail there.
    under_theta = {"rule": "Assum", "conclusion": {"l": "a", "r": "b", "eps": "3/4"}}
    weaken = {
        "rule": "Max",
        "conclusion": {"l": "a", "r": "b", "eps": "3/4"},
        "premises": [{"rule": "Assum", "conclusion": {"l": "a", "r": "b", "eps": "1/2"}}],
    }
    cut = {
        "rule": "Cut",
        "conclusion": {"l": "a", "r": "b", "eps": "3/4"},
        "premises": [weaken, under_theta],
        "theta": [{"l": "a", "r": "b", "eps": "3/4"}],
    }
    doc = {
        "rule": "NExpOplus",
        "conclusion": {"l": "(oplus a a)", "r": "(oplus b b)", "eps": "3/4"},
        "premises": [cut, under_theta],
    }
    back = derivation_from_json_dict(doc)
    assert back.premises[1] is back.premises[0].premises[1]
    gamma = metric_hypotheses(x3)
    assert check_derivation(gamma, back.premises[0]).ok
    res = check_derivation(gamma, back)
    assert not res.ok
    assert res.path == (1,)
    assert res.reason == "Assum cites an equation outside the hypotheses"


def test_derivation_json_prints_each_term_in_full():
    shared = parse_term("(p+ 1/2 (oplus a b) c)")
    d = Derivation(
        "Max",
        QuantEquation(shared, shared, F(1, 2)),
        (Derivation("Refl", QuantEquation(shared, shared, F(0))),),
        theta=(QuantEquation(shared.left, shared, F(1)),),
    )
    doc = derivation_to_json_dict(d)
    text = "(p+ 1/2 (oplus a b) c)"
    assert doc["conclusion"] == {"l": text, "r": text, "eps": "1/2"}
    assert doc["premises"][0]["conclusion"] == {"l": text, "r": text, "eps": "0"}
    assert doc["theta"] == [{"l": "(oplus a b)", "r": text, "eps": "1"}]


CONCLUSION = {"l": "a", "r": "a", "eps": "0"}


def after_shared(node: dict) -> dict:
    """A valid proof of (oplus a a) =0 (oplus a a) whose last node in
    pre-order is `node`, after a Refl node read twice (so shared)."""
    shared = {"rule": "Refl", "conclusion": CONCLUSION}
    return {
        "rule": "NExpOplus",
        "conclusion": {"l": "(oplus a a)", "r": "(oplus a a)", "eps": "0"},
        "premises": [
            shared,
            {"rule": "Triang", "conclusion": CONCLUSION, "premises": [dict(shared), node]},
        ],
    }


@pytest.mark.parametrize(
    "doc,detail",
    [
        (5, "derivation must be a JSON object, got int"),
        ({"rule": "Refl"}, "derivation object missing field 'conclusion'"),
        ({"rule": "Refl", "conclusion": "a"}, "equation must be a JSON object, got str"),
        ({"rule": "Refl", "conclusion": {"l": "a", "eps": "0"}},
         "equation object missing field 'r'"),
        ({"rule": "Refl", "conclusion": {"l": 5, "r": "a", "eps": "0"}},
         "term must be a string, got int"),
        ({"rule": "Symm", "conclusion": CONCLUSION, "premises": [5]},
         "derivation must be a JSON object, got int"),
        ({"rule": "Symm", "conclusion": CONCLUSION, "premises": {}},
         "premises must be a JSON list, got dict"),
        ({"rule": "Subst", "conclusion": CONCLUSION, "subst": []},
         "subst must be a JSON object, got list"),
        ({"rule": "Subst", "conclusion": CONCLUSION, "subst": {"x": ["a"]}},
         "term must be a string, got list"),
        ({"rule": "Cut", "conclusion": CONCLUSION, "theta": "a"},
         "theta must be a JSON list, got str"),
        ({"rule": "Refl", "conclusion": CONCLUSION, "hypotheses": {"l": "a"}},
         "hypotheses must be a JSON list, got dict"),
        ({"rule": "Refl", "conclusion": CONCLUSION, "hypotheses": [[]]},
         "equation must be a JSON object, got list"),
        (after_shared({"conclusion": CONCLUSION}),
         "derivation object missing field 'rule'"),
        (after_shared({"rule": "Symm", "conclusion": CONCLUSION, "premises": {}}),
         "premises must be a JSON list, got dict"),
        (after_shared({"rule": "Symm", "conclusion": CONCLUSION, "premises": None}),
         "premises must be a JSON list, got NoneType"),
        (after_shared({"rule": "Refl", "conclusion": {"l": "a", "r": "a"}}),
         "equation object missing field 'eps'"),
        (after_shared({"rule": "Refl", "conclusion": {"l": "a", "r": ["a"], "eps": "0"}}),
         "term must be a string, got list"),
        (after_shared({"rule": "Refl", "conclusion": ["a", "a", "0"]}),
         "equation must be a JSON object, got list"),
    ],
)
def test_wrong_shapes_are_parse_errors(doc, detail):
    with pytest.raises(ParseError) as exc:
        derivation_from_json_dict(doc)
    assert str(exc.value) == f"{detail} (at offset 0)"


# Nodes that read without error but not as `derive` writes them; each is
# read as before, and checked with the same reply.
@pytest.mark.parametrize(
    "node,expected,reply",
    [
        ({"rule": 5, "conclusion": CONCLUSION}, Derivation(5, eq("a", "a", 0)),
         (False, (1, 1), "unknown rule 5")),
        ({"rule": "AxiomCS", "conclusion": CONCLUSION, "axiom": 5},
         Derivation("AxiomCS", eq("a", "a", 0), axiom=5), (False, (1, 1), "unknown axiom 5")),
        ({"rule": "Refl", "conclusion": CONCLUSION, "axiom": ["I"]},
         Derivation("Refl", eq("a", "a", 0), axiom=["I"]), (True, (), "")),
        ({"rule": "Refl", "conclusion": {"l": "a", "r": "a", "eps": 0}}, refl("a"), (True, (), "")),
        ({"rule": "Assum", "conclusion": {"l": "a", "r": "a", "eps": 0}},
         Derivation("Assum", eq("a", "a", 0)),
         (False, (1, 1), "Assum cites an equation outside the hypotheses")),
        ({"rule": "Refl", "conclusion": CONCLUSION, "note": "x"}, refl("a"), (True, (), "")),
    ],
)
def test_odd_nodes_after_a_shared_sibling_read_as_before(x3, node, expected, reply):
    back = derivation_from_json_dict(after_shared(node))
    first, (second, last) = back.premises[0], back.premises[1].premises
    assert first is second
    assert last == expected
    res = check_derivation((), back)
    assert (res.ok, res.path, res.reason) == reply


def test_too_deep_documents_raise_too_deep():
    deep = "a"
    for _ in range(sys.getrecursionlimit() + 200):
        deep = f"(oplus {deep} a)"
    conclusion = {"l": deep, "r": "a", "eps": "0"}
    with pytest.raises(TooDeep):
        derivation_from_json_dict({"rule": "Refl", "conclusion": conclusion})
    doc = {"rule": "Refl", "conclusion": CONCLUSION}
    for _ in range(sys.getrecursionlimit() + 200):
        doc = {"rule": "Symm", "conclusion": CONCLUSION, "premises": [doc]}
    with pytest.raises(TooDeep):
        derivation_from_json_dict(doc)


def test_too_deep_derivations_raise_too_deep_in_every_walker():
    d = refl("a")
    for _ in range(sys.getrecursionlimit() + 200):
        d = Derivation("Symm", d.conclusion, (d,))
    for walk in (Derivation.size, derivation_to_json_dict, derivation_to_json_text):
        with pytest.raises(TooDeep):
            walk(d)


def test_check_derivation_on_a_deep_premise_chain_raises_too_deep(x3):
    d = refl("a")
    for _ in range(sys.getrecursionlimit() + 200):
        d = Derivation("Symm", d.conclusion, (d,))
    with pytest.raises(TooDeep):
        check_derivation((), d)


def test_unknown_rule_rejected(x3):
    d = Derivation("Arch", eq("a", "a", 0))
    assert not check_derivation((), d).ok


@given(sts.space_with_terms(2))
@settings(max_examples=30)
def test_checker_soundness_on_assumption_chains(bundle):
    # any valid derivation from true hypotheses cannot beat the true distance
    space, t, s = bundle
    from hkconvex.proofs import tightest_derivable

    gamma = metric_hypotheses(space)
    value, deriv = tightest_derivable(space, t, s)
    res = check_derivation(gamma, deriv)
    assert res.ok
    assert value >= term_distance(space, t, s)


# One tampered node per rejection reason of the checker, under the
# hypotheses _GAMMA. Each node is valid but for the one condition it
# breaks, so a checker without that condition accepts it or names another
# reason; the wrapped rows put the node below a valid root, which checks
# the reported path.
_GAMMA = (eq("a", "b", "1/2"), eq("b", "c", "1/4"), eq("c", "b", "1/4"))


def _node(rule, conclusion, *premises, **fields):
    return Derivation(rule, conclusion, premises, **fields)


def _assum(l, r, e):
    return _node("Assum", eq(l, r, e))


def _under_symm(d):
    return _node("Symm", d.conclusion.flip(), d)


def _under_triang(d):
    left = d.conclusion.left
    return _node("Triang", d.conclusion, Derivation("Refl", QuantEquation(left, left, F(0))), d)


_AB, _BC = _assum("a", "b", "1/2"), _assum("b", "c", "1/4")
_CB = _assum("c", "b", "1/4")
_AXIOM_C = _node("AxiomCS", eq("(oplus a b)", "(oplus b a)", 0), axiom="C")
_A_TO_C = (("a", Gen("c")),)
_AC = _node("Triang", eq("a", "c", "3/4"), _AB, _BC)
_THETA = (_AB.conclusion, _BC.conclusion)

_REJECTIONS = [
    ("unknown-rule", _node("Foo", eq("a", "a", 0)), (), "unknown rule 'Foo'"),
    (
        "arity",
        _under_symm(_node("Triang", eq("a", "a", 0), refl("a"))),
        (0,),
        "Triang expects 2 premise(s), got 1",
    ),
    ("refl-sides", _node("Refl", eq("a", "b", 0)), (), "Refl needs syntactically equal sides"),
    ("refl-eps", _under_triang(_node("Refl", eq("a", "a", "1/2"))), (1,), "Refl needs eps 0"),
    (
        "symm-flip",
        _node("Symm", eq("a", "b", "1/2"), _AB),
        (),
        "Symm conclusion must flip the premise",
    ),
    (
        "triang-middle",
        _node("Triang", eq("a", "b", "3/4"), _AB, _CB),
        (),
        "Triang premises must share the middle term",
    ),
    (
        "triang-left-end",
        _under_symm(_node("Triang", eq("b", "c", "3/4"), _AB, _BC)),
        (0,),
        "Triang conclusion endpoints do not match premises",
    ),
    (
        "triang-right-end",
        _node("Triang", eq("a", "b", "3/4"), _AB, _BC),
        (),
        "Triang conclusion endpoints do not match premises",
    ),
    (
        "triang-eps",
        _node("Triang", eq("a", "c", "1/2"), _AB, _BC),
        (),
        "Triang eps must be the capped sum of premise eps",
    ),
    ("max-left", _node("Max", eq("c", "b", "3/4"), _AB), (), "Max must keep both terms"),
    (
        "max-right",
        _under_triang(_node("Max", eq("a", "c", "3/4"), _AB)),
        (1,),
        "Max must keep both terms",
    ),
    ("max-eps", _node("Max", eq("a", "b", "1/4"), _AB), (), "Max cannot decrease eps"),
    (
        "oplus-left",
        _node("NExpOplus", eq("(oplus b a)", "(oplus b c)", "1/2"), _AB, _BC),
        (),
        "NExpOplus conclusion must pair the premises under oplus",
    ),
    (
        "oplus-right",
        _under_symm(_node("NExpOplus", eq("(oplus a b)", "(oplus c b)", "1/2"), _AB, _BC)),
        (0,),
        "NExpOplus conclusion must pair the premises under oplus",
    ),
    (
        "oplus-eps",
        _node("NExpOplus", eq("(oplus a b)", "(oplus b c)", "1/4"), _AB, _BC),
        (),
        "NExpOplus eps must be the max of premise eps",
    ),
    (
        "oplus-eps-second-premise-larger",
        _node("NExpOplus", eq("(oplus b a)", "(oplus c b)", "1/4"), _BC, _AB),
        (),
        "NExpOplus eps must be the max of premise eps",
    ),
    (
        "plusp-left-side",
        _node("NExpPlusP", eq("(oplus a b)", "(p+ 1/3 b c)", "1/3"), _AB, _BC),
        (),
        "NExpPlusP conclusion sides must be p+ terms",
    ),
    (
        "plusp-right-side",
        _node("NExpPlusP", eq("(p+ 1/3 a b)", "(oplus b c)", "1/3"), _AB, _BC),
        (),
        "NExpPlusP conclusion sides must be p+ terms",
    ),
    (
        "plusp-probability",
        _under_triang(_node("NExpPlusP", eq("(p+ 1/3 a b)", "(p+ 1/2 b c)", "1/3"), _AB, _BC)),
        (1,),
        "NExpPlusP sides must share the probability",
    ),
    (
        "plusp-left-pair",
        _node("NExpPlusP", eq("(p+ 1/3 b b)", "(p+ 1/3 b c)", "1/3"), _AB, _BC),
        (),
        "NExpPlusP conclusion must pair the premises under p+",
    ),
    (
        "plusp-right-pair",
        _node("NExpPlusP", eq("(p+ 1/3 a b)", "(p+ 1/3 b b)", "1/3"), _AB, _BC),
        (),
        "NExpPlusP conclusion must pair the premises under p+",
    ),
    (
        "plusp-eps",
        _node("NExpPlusP", eq("(p+ 1/3 a b)", "(p+ 1/3 b c)", "1/2"), _AB, _BC),
        (),
        "NExpPlusP eps must be the p-weighted sum",
    ),
    (
        "subst-missing",
        _node("Subst", eq("(oplus c b)", "(oplus b c)", 0), _AXIOM_C),
        (),
        "Subst needs a substitution",
    ),
    (
        "subst-hypotheses",
        _under_symm(
            _node("Subst", eq("b", "c", "1/2"), _under_symm(_AB), subst=_A_TO_C)
        ),
        (0,),
        "Subst premise must not use hypotheses",
    ),
    (
        "subst-left",
        _node("Subst", eq("(oplus a b)", "(oplus b c)", 0), _AXIOM_C, subst=_A_TO_C),
        (),
        "Subst conclusion must be the substituted premise",
    ),
    (
        "subst-right",
        _node("Subst", eq("(oplus c b)", "(oplus b a)", 0), _AXIOM_C, subst=_A_TO_C),
        (),
        "Subst conclusion must be the substituted premise",
    ),
    (
        "subst-eps",
        _node("Subst", eq("(oplus c b)", "(oplus b c)", "1/2"), _AXIOM_C, subst=_A_TO_C),
        (),
        "Subst preserves eps",
    ),
    (
        "cut-no-theta",
        _node("Cut", eq("a", "b", "1/2"), _AB),
        (),
        "Cut needs a nonempty intermediate set",
    ),
    (
        "cut-empty-theta",
        _under_symm(_node("Cut", eq("a", "b", "1/2"), _AB, theta=())),
        (0,),
        "Cut needs a nonempty intermediate set",
    ),
    (
        "cut-premise-count",
        _node("Cut", eq("a", "b", "1/2"), _AB, theta=(_AB.conclusion,)),
        (),
        "Cut expects one premise per intermediate equation plus the final one",
    ),
    (
        "cut-theta-premise",
        _node("Cut", _AC.conclusion, _AB, _CB, _AC, theta=_THETA),
        (),
        "Cut premise 1 does not conclude theta[1]",
    ),
    (
        "cut-final-premise",
        _under_triang(_node("Cut", eq("a", "c", 1), _AB, _BC, _AC, theta=_THETA)),
        (1,),
        "Cut final premise must conclude the goal",
    ),
    (
        "cut-final-under-theta",
        _node("Cut", eq("a", "b", "1/2"), _BC, _AB, theta=(_BC.conclusion,)),
        (1,),
        "Assum cites an equation outside the hypotheses",
    ),
    (
        "assum",
        _under_triang(_under_symm(_assum("a", "c", 1))),
        (1, 0),
        "Assum cites an equation outside the hypotheses",
    ),
    (
        "axiom-name",
        _node("AxiomCS", _AXIOM_C.conclusion, axiom="Z"),
        (),
        "unknown axiom 'Z'",
    ),
    (
        "axiom-eps",
        _node("AxiomCS", eq("(oplus a b)", "(oplus b a)", "1/2"), axiom="C"),
        (),
        "axiom instances have eps 0",
    ),
    (
        "axiom-instance",
        _under_symm(_node("AxiomCS", eq("(oplus a b)", "(oplus a b)", 0), axiom="C")),
        (0,),
        "conclusion is not an instance of axiom C",
    ),
    (
        "axiom-A-instance",
        _node("AxiomCS", eq("(oplus a b)", "c", 0), axiom="A"),
        (),
        "conclusion is not an instance of axiom A",
    ),
    (
        "axiom-Cp-instance",
        _node("AxiomCS", eq("(p+ 1/3 a b)", "(p+ 1/3 b a)", 0), axiom="C_p"),
        (),
        "conclusion is not an instance of axiom C_p",
    ),
    (
        "axiom-D-shape",
        _node(
            "AxiomCS",
            eq("(p+ 1/2 a (p+ 1/3 b c))", "(oplus (p+ 1/2 a b) (p+ 1/2 a c))", 0),
            axiom="D",
        ),
        (),
        "conclusion is not an instance of axiom D",
    ),
    (
        "axiom-D-probability",
        _node(
            "AxiomCS",
            eq("(p+ 1/2 a (oplus b c))", "(oplus (p+ 1/2 a b) (p+ 1/3 a c))", 0),
            axiom="D",
        ),
        (),
        "conclusion is not an instance of axiom D",
    ),
]


@pytest.mark.parametrize(
    "node, path, reason", [row[1:] for row in _REJECTIONS], ids=[row[0] for row in _REJECTIONS]
)
def test_every_rejection_reason_is_reported_at_its_node(x3, node, path, reason):
    res = check_derivation(_GAMMA, node)
    assert (res.ok, res.path, res.reason) == (False, path, reason)


# True instances of each axiom over subterms x, y, z and probabilities
# p, q, left to right as the axiom is written.
_AXIOM_INSTANCES = {
    "A": lambda p, q, x, y, z: (Oplus(Oplus(x, y), z), Oplus(x, Oplus(y, z))),
    "C": lambda p, q, x, y, z: (Oplus(x, y), Oplus(y, x)),
    "I": lambda p, q, x, y, z: (Oplus(x, x), x),
    "A_p": lambda p, q, x, y, z: (
        PlusP(p, PlusP(q, x, y), z),
        PlusP(p * q, x, PlusP(p * (1 - q) / (1 - p * q), y, z)),
    ),
    "C_p": lambda p, q, x, y, z: (PlusP(p, x, y), PlusP(1 - p, y, x)),
    "I_p": lambda p, q, x, y, z: (PlusP(p, x, x), x),
    "D": lambda p, q, x, y, z: (
        PlusP(p, x, Oplus(y, z)),
        Oplus(PlusP(p, x, y), PlusP(p, x, z)),
    ),
}


@pytest.mark.parametrize("name", AXIOMS)
@given(data=st.data())
@settings(max_examples=15)
def test_axiom_rewrite_gives_the_right_side_of_each_instance(name, data):
    space = data.draw(sts.spaces(max_points=3))
    x, y, z = (data.draw(sts.terms(space, max_depth=1)) for _ in range(3))
    p, q = data.draw(sts.probabilities()), data.draw(sts.probabilities())
    left, right = _AXIOM_INSTANCES[name](p, q, x, y, z)
    assert _axiom_right(name, left) == right


@pytest.mark.parametrize("name", AXIOMS)
@given(data=st.data())
@settings(max_examples=30)
def test_axiom_rewrite_keeps_what_every_term_denotes(name, data):
    space, t = data.draw(sts.space_with_terms(1))
    right = _axiom_right(name, t)
    assert right is None or normalize(space, right) == normalize(space, t)


def _moved(p, up):
    """p moved one unit of its denominator, or half a unit where a whole
    one leaves (0, 1)."""
    step = F(1 if up else -1, p.denominator)
    return p + step if 0 < p + step < 1 else p + step / 2


def _changed(node, draw, pool):
    """The p+ or oplus `node` with its children swapped, one child replaced
    by a term of `pool`, or, at a p+, its p moved."""
    args = [node.p] if isinstance(node, PlusP) else []
    children = [node.left, node.right]
    change = draw(st.sampled_from(["swap", "replace", "move"] if args else ["swap", "replace"]))
    if change == "swap":
        children.reverse()
    elif change == "replace":
        children[draw(st.integers(0, 1))] = draw(st.sampled_from(pool))
    else:
        args = [_moved(node.p, draw(st.booleans()))]
    return type(node)(*args, *children)


def _inner_nodes(term):
    """(field, node) of each p+ or oplus node of `term` at depth 0 (field
    None) or 1 (field "left" or "right")."""
    if isinstance(term, Gen):
        return []
    children = [(field, getattr(term, field)) for field in ("left", "right")]
    return [(None, term)] + [(f, c) for f, c in children if not isinstance(c, Gen)]


@st.composite
def _axiom_near_misses(draw, name):
    """A space, a true instance (left, right) of the axiom, and the same
    instance with one change at a p+ or oplus node of depth 0 or 1 of
    either side (see `_changed`)."""
    space = draw(sts.spaces(max_points=3))
    x, y, z, fresh = (draw(sts.terms(space, max_depth=1)) for _ in range(4))
    p, q = draw(sts.probabilities()), draw(sts.probabilities())
    sides = _AXIOM_INSTANCES[name](p, q, x, y, z)
    spots = [(k, *spot) for k, term in enumerate(sides) for spot in _inner_nodes(term)]
    k, field, node = draw(st.sampled_from(spots))
    node = _changed(node, draw, [x, y, z, fresh])
    miss = list(sides)
    miss[k] = node if field is None else sides[k]._replace(**{field: node})
    return space, sides, tuple(miss)


@pytest.mark.parametrize("name", AXIOMS)
@given(data=st.data())
@settings(max_examples=15)
def test_axiom_near_misses_match_only_when_the_sides_normalize_equal(name, data):
    space, instance, miss = data.draw(_axiom_near_misses(name))
    assert _match_axiom(name, *instance)
    for left, right in (miss, miss[::-1]):
        if _match_axiom(name, left, right):
            assert normalize(space, left) == normalize(space, right)


# Each rule's premises, as pairs of indices into drawn terms t, and its
# conclusion (left, right, eps) from t, a probability p and the premises'
# eps e, as the rule states it.
_RULE_INSTANCES = {
    "Refl": ((), lambda t, p, e: (t[0], t[1], 0)),
    "Symm": (((0, 1),), lambda t, p, e: (t[1], t[0], e[0])),
    "Triang": (((0, 1), (1, 2)), lambda t, p, e: (t[0], t[2], min(1, e[0] + e[1]))),
    "Max": (((0, 1),), lambda t, p, e: (t[0], t[1], e[0])),
    "NExpOplus": (
        ((0, 1), (2, 3)),
        lambda t, p, e: (Oplus(t[0], t[2]), Oplus(t[1], t[3]), max(e)),
    ),
    "NExpPlusP": (
        ((0, 1), (2, 3)),
        lambda t, p, e: (PlusP(p, t[0], t[2]), PlusP(p, t[1], t[3]), p * e[0] + (1 - p) * e[1]),
    ),
}


@pytest.mark.parametrize("rule", list(_RULE_INSTANCES))
@given(data=st.data())
@settings(max_examples=10)
def test_rule_steps_accepted_over_true_premises_are_sound(rule, data):
    # premises are Assum nodes at the true distance of their sides; the
    # conclusion claims the rule's eps, one unit of its denominator less,
    # or one more
    space = data.draw(sts.spaces(max_points=3))
    t = [data.draw(sts.terms(space, max_depth=1)) for _ in range(4)]
    pairs, conclude = _RULE_INSTANCES[rule]
    gamma = [QuantEquation(t[i], t[j], term_distance(space, t[i], t[j])) for i, j in pairs]
    p = data.draw(sts.probabilities())
    left, right, exact = conclude(t, p, [g.eps for g in gamma])
    exact = F(exact)
    unit = F(1, exact.denominator)
    claims = [e for e in (exact - unit, exact, exact + unit) if 0 <= e <= 1]
    eps = data.draw(st.sampled_from(claims))
    premises = tuple(Derivation("Assum", g) for g in gamma)
    node = Derivation(rule, QuantEquation(left, right, eps), premises)
    ok = check_derivation(gamma, node).ok
    if ok:
        assert term_distance(space, left, right) <= eps
    if eps == exact and (rule != "Refl" or left == right):
        assert ok


# An eps as a rule step meets it: the one shared ZERO, another zero
# Fraction, the int 0, or any value in [0, 1].
_EPS = st.one_of(
    st.just(ZERO),
    st.builds(Fraction, st.just(0)),
    st.just(0),
    st.fractions(min_value=0, max_value=1),
)


@given(_EPS, _EPS, sts.probabilities())
@settings(max_examples=200)
def test_eps_rules_compute_their_values_for_every_form_of_zero(e1, e2, p):
    assert _triang_eps(e1, e2) == min(1, e1 + e2)
    assert _oplus_eps(e1, e2) == max(e1, e2)
    assert _plusp_eps(p, e1, e2) == p * e1 + (1 - p) * e2
    # ZERO passes through by identity
    if e1 is ZERO:
        assert _triang_eps(e1, e2) is e2 and _oplus_eps(e1, e2) is e2
    if e2 is ZERO:
        assert _triang_eps(e1, e2) is e1 and _oplus_eps(e1, e2) is e1
    if e1 is ZERO and e2 is ZERO:
        assert _plusp_eps(p, e1, e2) is ZERO


@pytest.mark.parametrize("zero", [0, F(0)], ids=["int", "Fraction"])
def test_every_rule_at_eps_0_accepts_a_zero_that_is_not_ZERO(zero):
    a, b = parse_term("a"), parse_term("b")
    ab, ba = Oplus(a, b), Oplus(b, a)
    shared = Derivation("Refl", QuantEquation(a, a, ZERO))
    other = Derivation("Refl", QuantEquation(a, a, zero))
    nodes = [
        other,
        Derivation("AxiomCS", QuantEquation(ab, ba, zero), axiom="C"),
        Derivation("Triang", QuantEquation(a, a, zero), (shared, shared)),
        Derivation("Triang", QuantEquation(a, a, ZERO), (other, other)),
        Derivation("NExpOplus", QuantEquation(Oplus(a, a), Oplus(a, a), zero), (shared, shared)),
        Derivation("NExpOplus", QuantEquation(Oplus(a, a), Oplus(a, a), ZERO), (other, other)),
    ]
    half = F(1, 2)
    aa = PlusP(half, a, a)
    nodes.append(Derivation("NExpPlusP", QuantEquation(aa, aa, zero), (shared, shared)))
    nodes.append(Derivation("NExpPlusP", QuantEquation(aa, aa, ZERO), (other, shared)))
    for node in nodes:
        assert check_derivation((), node).ok, node.rule


def _eps_zero_conclusions(d: Derivation) -> list:
    return [n.conclusion.eps for n in _distinct_nodes(d) if n.conclusion.eps == 0]


@pytest.mark.parametrize("seed", [3, 19])
def test_eps_0_conclusions_of_derived_and_read_back_proofs_are_ZERO(seed):
    rng = random.Random(seed)
    for _ in range(4):
        space = rand_space(rng)
        left = rand_convex_set(rng, space)
        # the second pair is at distance 0, where the Max nodes are at eps 0 too
        for right in (rand_convex_set(rng, space), left):
            d = derive_hk(space, left, right)
            back = derivation_from_json_dict(json.loads(derivation_to_json_text(d)))
            for proof in (d, back):
                zeros = _eps_zero_conclusions(proof)
                assert zeros and all(eps is ZERO for eps in zeros)


def test_a_zero_eps_written_as_0_over_1_reads_checks_and_equals_the_original():
    rng = random.Random(5)
    space = rand_space(rng)
    d = derive_hk(space, rand_convex_set(rng, space), rand_convex_set(rng, space))
    text = derivation_to_json_text(d)
    assert '"eps": "0"' in text
    back = derivation_from_json_dict(json.loads(text.replace('"eps": "0"', '"eps": "0/1"')))
    assert back == d
    zeros = _eps_zero_conclusions(back)
    assert zeros and all(eps is not ZERO for eps in zeros)
    assert check_derivation(metric_hypotheses(space), back) == (True, (), "")


def test_checking_a_read_back_canon_proof_makes_no_fraction_eq_or_bool_call(x3, monkeypatch):
    # An oplus-only term: its proof uses A, C and I and the eps-0 rules,
    # so no term comparison meets a Fraction either.
    d, _ = canon_proof(x3, parse_term("(oplus (oplus c a) (oplus b (oplus a (oplus c b))))"))
    back = derivation_from_json_dict(json.loads(derivation_to_json_text(d)))
    assert {n.rule for n in _distinct_nodes(back)} >= {"Refl", "AxiomCS", "Triang", "NExpOplus"}
    calls = []
    for name in ("__eq__", "__bool__"):
        method = getattr(Fraction, name)

        def counted(self, *args, name=name, method=method):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(Fraction, name, counted)
    result = check_derivation((), back)
    monkeypatch.undo()
    assert result.ok
    assert calls == []
