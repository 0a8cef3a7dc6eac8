import collections
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies as sts
import term_reference
from hkconvex import (
    BadProbability,
    ConvexSet,
    Derivation,
    Dist,
    FiniteMetricSpace,
    MalformedInput,
    ParseError,
    QuantEquation,
    TooDeep,
    TooLarge,
    UnknownPoint,
    dirac,
    dist_term,
    hk_distance,
    monad_unit,
    normalize,
    nu,
    oplus,
    parse_term,
    plus_p,
    print_term,
    substitute,
    term_distance,
    term_equal_mod_theory,
)
from hkconvex import syntax
from hkconvex.deduction import (
    derivation_from_json_dict,
    derivation_to_json_text,
    equation_to_json_dict,
    equations_from_json_list,
    metric_hypotheses,
)
from hkconvex.proofs import derive_hk
from hkconvex.sampling import rand_convex_set, rand_space
from hkconvex.syntax import Gen, Oplus, PlusP, _fold_items

F = Fraction


def test_parse_print_round_trip_golden():
    text = "(oplus (p+ 1/2 a b) c)"
    assert print_term(parse_term(text)) == text
    assert parse_term(text) == Oplus(PlusP(F(1, 2), Gen("a"), Gen("b")), Gen("c"))


def test_parse_integer_probability_forms():
    assert parse_term("(p+ 3/4 a b)").p == F(3, 4)


def test_parse_errors_carry_position():
    for text, pos in [("(oplus a", 8), ("(p+ x a b)", 4), ("a b", 2), (")", 0)]:
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert exc.value.position == pos


def test_probability_bounds_enforced():
    with pytest.raises(BadProbability):
        parse_term("(p+ 2/2 a b)")
    for p in (F(0), F(1), F(3, 2), F(-1, 2), 0, 1):
        with pytest.raises(BadProbability):
            PlusP(p, Gen("a"), Gen("b"))
        with pytest.raises(BadProbability):
            PlusP(p=p, left=Gen("a"), right=Gen("b"))


def test_probabilities_must_be_exact():
    for p in (0.25, "1/4", True, False, None):
        with pytest.raises(MalformedInput):
            PlusP(p, Gen("a"), Gen("b"))
        with pytest.raises(MalformedInput):
            PlusP(p=p, left=Gen("a"), right=Gen("b"))
    assert print_term(PlusP(F(1, 4), Gen("a"), Gen("b"))) == "(p+ 1/4 a b)"


# The five node classes, each with the fields of one node and of an equal
# but distinct one, and its repr.
A, B = Gen("a"), Gen("b")
AB_EQ = QuantEquation(A, B, F(1, 2))
NODES = {
    "Gen": (Gen, ("a",), ("a",), "Gen(label='a')"),
    "Oplus": (
        Oplus,
        (A, B),
        (Gen("a"), Gen("b")),
        "Oplus(left=Gen(label='a'), right=Gen(label='b'))",
    ),
    "PlusP": (
        PlusP,
        (F(1, 3), A, B),
        (F(1, 3), Gen("a"), Gen("b")),
        "PlusP(p=Fraction(1, 3), left=Gen(label='a'), right=Gen(label='b'))",
    ),
    "QuantEquation": (
        QuantEquation,
        (A, B, F(1, 2)),
        (Gen("a"), Gen("b"), F(1, 2)),
        "QuantEquation(left=Gen(label='a'), right=Gen(label='b'), eps=Fraction(1, 2))",
    ),
    "Derivation": (
        Derivation,
        ("Assum", AB_EQ, (), None, None, None, ()),
        ("Assum", QuantEquation(Gen("a"), Gen("b"), F(1, 2))),
        "Derivation(rule='Assum', conclusion=QuantEquation(left=Gen(label='a'), "
        "right=Gen(label='b'), eps=Fraction(1, 2)), premises=(), axiom=None, "
        "subst=None, theta=None, hypotheses=())",
    ),
}
node_classes = pytest.mark.parametrize(
    "cls, fields, equal_fields, text", NODES.values(), ids=list(NODES)
)


@node_classes
def test_node_equality_hash_and_repr(cls, fields, equal_fields, text):
    node, twin = cls(*fields), cls(*equal_fields)
    assert node is not twin
    assert node == twin and not node != twin
    assert hash(node) == hash(twin) == hash(tuple(node))
    assert repr(node) == repr(twin) == text


@node_classes
def test_node_never_equals_another_class(cls, fields, equal_fields, text):
    node = cls(*fields)
    subclass = type("Sub", (cls,), {"__slots__": ()})
    others = [fields, tuple(node), subclass(*node)]
    others += [
        other_cls(*other_fields)
        for other_cls, other_fields, _, _ in NODES.values()
        if other_cls is not cls
    ]
    for other in others:
        assert not node == other and not other == node, other
        assert node != other and other != node, other
    # A tuple of an unrelated class compares by its own `__eq__` when it is
    # on the left; on the right it never equals the node.
    foreign = collections.namedtuple(cls.__name__, cls._fields)(*node)
    assert not node == foreign and node != foreign


@node_classes
def test_node_inequality_agrees_with_equality(cls, fields, equal_fields, text):
    pool = [cls(*fields), cls(*equal_fields), fields, None, 0, "a"]
    pool += [other_cls(*f) for other_cls, f, _, _ in NODES.values()]
    for x in pool:
        for y in pool:
            assert (x != y) is (not x == y), (x, y)


@node_classes
def test_nodes_are_immutable_and_unordered(cls, fields, equal_fields, text):
    node = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(AttributeError):
        node.extra = None
    assert tuple(node) == tuple(cls(*equal_fields))
    with pytest.raises(TypeError):
        node < cls(*equal_fields)


def test_fold_items_depends_only_on_weight_ratios():
    text = "(p+ 3/4 (p+ 1/3 a b) c)"
    for k in (1, 2, 7):
        assert print_term(_fold_items([("a", k), ("b", 2 * k), ("c", k)])) == text
    assert _fold_items([("a", 5)]) == Gen("a")


def test_dist_term_folds_prefix_sums(x3):
    d = Dist(x3, {"a": "1/6", "b": "1/3", "c": "1/2"})
    assert print_term(dist_term(d)) == "(p+ 1/2 (p+ 1/3 a b) c)"


def test_substitute():
    t = parse_term("(oplus x (p+ 1/2 x y))")
    s = substitute(t, {"x": parse_term("(oplus a b)"), "y": Gen("c")})
    assert print_term(s) == "(oplus (oplus a b) (p+ 1/2 (oplus a b) c))"


def test_normalize_goldens(x3):
    assert normalize(x3, Gen("a")) == ConvexSet(x3, [dirac(x3, "a")])
    s = normalize(x3, parse_term("(oplus a b)"))
    assert s.base == (dirac(x3, "a"), dirac(x3, "b"))
    m = normalize(x3, parse_term("(p+ 1/2 a b)"))
    assert m.base == (Dist(x3, {"a": "1/2", "b": "1/2"}),)


def test_normalize_rejects_unknown_label(x3):
    with pytest.raises(UnknownPoint):
        normalize(x3, Gen("z"))


def test_nu_goldens(x3):
    assert print_term(nu(x3, normalize(x3, Gen("a")))) == "a"
    assert print_term(nu(x3, normalize(x3, parse_term("(oplus a b)")))) == "(oplus a b)"
    assert (
        print_term(nu(x3, normalize(x3, parse_term("(p+ 1/2 a b)")))) == "(p+ 1/2 a b)"
    )


def test_nu_on_interior_point_reduces(x3):
    s = ConvexSet(
        x3,
        [
            dirac(x3, "a"),
            dirac(x3, "b"),
            Dist(x3, {"a": "1/2", "b": "1/2"}),
        ],
    )
    assert print_term(nu(x3, s)) == "(oplus a b)"


def test_dist_term_fold_shape(x3):
    d = Dist(x3, {"a": "1/2", "b": "1/3", "c": "1/6"})
    t = dist_term(d)
    # left-nested: ((a +_3/5 b) +_5/6 c), probability = mass kept on the left
    assert t == PlusP(F(5, 6), PlusP(F(3, 5), Gen("a"), Gen("b")), Gen("c"))
    assert normalize(x3, t).base == (d,)


def test_term_distance_goldens(x3):
    assert term_distance(x3, Gen("a"), Gen("a")) == 0
    assert term_distance(x3, Gen("a"), Gen("b")) == F(1, 2)
    assert term_distance(x3, Gen("a"), parse_term("(oplus a b)")) == F(1, 2)
    assert term_distance(x3, parse_term("(p+ 1/2 a b)"), Gen("a")) == F(1, 4)


def test_axiom_identities_modulo_theory(x3):
    pairs = [
        ("(oplus (oplus a b) c)", "(oplus a (oplus b c))"),
        ("(oplus a b)", "(oplus b a)"),
        ("(oplus a a)", "a"),
        ("(p+ 1/3 (p+ 1/2 a b) c)", "(p+ 1/6 a (p+ 1/5 b c))"),
        ("(p+ 1/3 a b)", "(p+ 2/3 b a)"),
        ("(p+ 1/2 a a)", "a"),
        ("(p+ 1/2 a (oplus b c))", "(oplus (p+ 1/2 a b) (p+ 1/2 a c))"),
        ("(oplus a b)", "(oplus (oplus a b) (p+ 1/4 a b))"),
    ]
    for left, right in pairs:
        assert term_equal_mod_theory(x3, parse_term(left), parse_term(right)), left


@given(sts.space_with_terms(1))
def test_parse_print_round_trip(bundle):
    _, t = bundle
    assert parse_term(print_term(t)) == t


def _spaced(text: str, pads: list[str]) -> str:
    """text with pads[i] inserted before its i-th token; parens stay tokens."""
    out = []
    k = 0
    for i, c in enumerate(text):
        if c in "()" or (c != " " and (i == 0 or text[i - 1] in " ()")):
            out.append(pads[k % len(pads)])
            k += 1
        out.append(c)
    return "".join(out) + pads[k % len(pads)]


PADS = st.lists(st.sampled_from(["", " ", "\t", "\n ", "\u00a0", "\u2003"]), min_size=1)


@given(st.lists(sts.space_with_terms(1, max_depth=4), min_size=1, max_size=6), PADS)
@settings(max_examples=40)
def test_shared_table_parses_like_a_fresh_one(bundles, pads):
    shared: dict = {}
    for _, t in bundles:
        for text in (print_term(t), _spaced(print_term(t), pads)):
            alone = parse_term(text)
            fresh = parse_term(text, {})
            again = parse_term(text, shared)
            assert alone == fresh == again == t
            assert print_term(again) == print_term(t)
            assert parse_term(text, shared) is again


def _outcome(parse, text, table):
    """The term `parse` reads, or its exception's type, message and offset."""
    try:
        return parse(text, table)
    except (ParseError, BadProbability) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


BAD_PROBABILITIES = ["0", "1", "3/2", "-1/2", "x", "1/0", "1e3", "(", ")", ""]


@st.composite
def printed_and_mutated(draw):
    """A printed term, and the same term spaced out and maybe broken: a
    paren dropped or added, a run of spaces dropped, two tokens swapped, a bad
    probability, or trailing input."""
    _, t = draw(sts.space_with_terms(1, max_depth=4))
    text = _spaced(print_term(t), draw(PADS))
    kind = draw(st.sampled_from(["none", "drop", "squeeze", "add", "swap", "p", "trail"]))
    if kind in ("drop", "squeeze"):
        found = list(re.finditer(r"[()]" if kind == "drop" else r"\s+", text))
        if found:
            m = draw(st.sampled_from(found))
            text = text[: m.start()] + text[m.end() :]
    elif kind == "add":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("()")) + text[i:]
    elif kind == "swap":
        spans = [m.span() for m in re.finditer(r"[()]|[^\s()]+", text)]
        i = draw(st.integers(0, len(spans) - 1))
        j = draw(st.integers(0, len(spans) - 1))
        (a, b), (c, d) = sorted((spans[i], spans[j]))
        if b <= c:
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    elif kind == "p":
        probs = list(re.finditer(r"p\+\s+([^\s()]+)", text))
        if probs:
            m = draw(st.sampled_from(probs))
            text = text[: m.start(1)] + draw(st.sampled_from(BAD_PROBABILITIES)) + text[m.end(1) :]
    else:
        text += draw(st.sampled_from(["", " a", ")", "(", " (oplus a b)", "b"]))
    return [print_term(t), text]


@given(st.lists(printed_and_mutated(), min_size=1, max_size=6))
@example([["(oplus a b)", "(oplus a(oplus a b))"], ["(oplus(oplus a b) a)", "(oplus a b)(oplus a b)"]])
@example([[" (oplus a b)", "( oplus a b )"], ["(p+ 1/2(oplus a b) a)", "(oplus (oplus a b)(p+ 1/2 a b))"]])
@settings(max_examples=150)
def test_skipping_reader_agrees_with_the_token_parser(pairs):
    # Both tables grow over the texts, so later texts hold known subterms.
    skipped, tokens = {}, {}
    for text in [text for pair in pairs for text in pair]:
        got = _outcome(parse_term, text, skipped)
        want = _outcome(term_reference.parse_term, text, tokens)
        assert got == want, text
        assert skipped == tokens, text


GROUP = re.compile(r"\s*\(")


def _group_reads(monkeypatch) -> list:
    """The start of each group `syntax._Reader` reads from now on."""
    reads = []
    term = syntax._Reader.term

    def counted(self, at, close):
        if GROUP.match(self.text, at):
            reads.append(at)
        return term(self, at, close)

    monkeypatch.setattr(syntax._Reader, "term", counted)
    return reads


def test_a_derived_document_reads_each_group_once(monkeypatch):
    # Each group read enters its slice in the table, so reading a group the
    # table already holds would count a read the table does not gain.
    rng = random.Random(5)
    cases = []
    for _ in range(12):
        space = rand_space(rng)
        d = derive_hk(space, rand_convex_set(rng, space), rand_convex_set(rng, space))
        gamma = [equation_to_json_dict(e) for e in metric_hypotheses(space)]
        cases.append((d, gamma, json.loads(derivation_to_json_text(d))))
    reads = _group_reads(monkeypatch)
    for d, gamma, doc in cases:
        for with_gamma in (False, True):
            table = {}
            if with_gamma:
                equations_from_json_list(gamma, table)
            before = sum(key.startswith("(") for key in table)
            reads.clear()
            assert derivation_from_json_dict(doc, table) == d
            assert reads
            assert len(reads) == sum(key.startswith("(") for key in table) - before


@pytest.mark.parametrize(
    "text",
    [
        "(oplus (oplus a b) cd)",
        "(oplus(oplus a b)cd)",
        "(p+ 1/2 cd\t(oplus a b))",
        " (oplus (oplus a b)(oplus cd a) )\n",
    ],
)
def test_held_children_are_not_read_in_any_spacing(text, monkeypatch):
    table: dict = {}
    for held in ("(oplus a b)", "(oplus cd a)"):
        parse_term(held, table)
    reads = _group_reads(monkeypatch)
    t = parse_term(text, table)
    assert len(reads) == 1
    assert any(child is table["(oplus a b)"] for child in (t.left, t.right))


def test_right_nested_terms_parse_in_linear_time():
    # A scan that counts depth back from each closing paren again would
    # take seconds here.
    text = "a"
    for _ in range(900):
        text = f"(oplus (p+ 1/2 (oplus (oplus a b) (oplus b c)) (oplus c d)) {text})"
    start = time.perf_counter()
    t = parse_term(text)
    assert time.perf_counter() - start < 1.0
    assert print_term(t) == text
    # The same term with no whitespace next to a paren: each group's head
    # is read token by token.
    unspaced = re.sub(r"\s+(?=\()|(?<=\))\s+", "", text)
    start = time.perf_counter()
    t = parse_term(unspaced)
    assert time.perf_counter() - start < 1.0
    assert print_term(t) == text


def _subterms(term):
    yield term
    if not isinstance(term, Gen):
        yield from _subterms(term.left)
        yield from _subterms(term.right)


@given(sts.space_with_terms(2, max_depth=4))
@settings(max_examples=40)
def test_equal_subterms_share_one_object(bundle):
    _, t, s = bundle
    table: dict = {}
    parsed = [parse_term(print_term(u), table) for u in (t, s, Oplus(t, s))]
    seen: dict = {}
    for root in parsed:
        for sub in _subterms(root):
            assert seen.setdefault(sub, sub) is sub


def test_subterm_texts_enter_the_table():
    table: dict = {}
    t = parse_term("(oplus (p+ 1/2 a b) (p+ 1/2 a b))", table)
    assert t.left is t.right
    assert table["(p+ 1/2 a b)"] is t.left
    assert table["a"] is t.left.left
    assert parse_term("(oplus c (p+ 1/2 a b))", table).right is t.left


@pytest.mark.parametrize(
    "text",
    [
        " (oplus (p+ 1/2 a b) c)",
        "(oplus  (p+ 1/2 a b)\t(oplus c a))\n",
        "(oplus(p+ 1/2 a b)(oplus c a))",
        "(p+ 1/3 (oplus c a)(p+ 1/2 a b))",
    ],
)
def test_a_spaced_text_returns_the_subterms_the_table_holds(text):
    table: dict = {}
    for held in ("(p+ 1/2 a b)", "(oplus c a)"):
        parse_term(held, table)
    before = dict(table)
    t = parse_term(text, table)
    subterms = list(_subterms(t))
    for key, held in before.items():
        assert any(sub is held for sub in subterms) == (parse_term(key) in subterms), key
    assert all(table[k] is v for k, v in before.items())


# Malformed inputs and what the parser reports: exception type, message and
# offset. A shared table must not change any of them.
MALFORMED = [
    ("(oplus a", ParseError, "unexpected end of input (at offset 8)", 8),
    (")", ParseError, "unexpected ')' (at offset 0)", 0),
    ("(foo a b)", ParseError, "expected 'oplus' or 'p+', got 'foo' (at offset 1)", 1),
    ("(p+ x a b)", ParseError, "expected a rational, got 'x' (at offset 4)", 4),
    ("(p+ 1/2 a b) c", ParseError, "trailing input 'c' (at offset 13)", 13),
    ("", ParseError, "unexpected end of input (at offset 0)", 0),
    ("(oplus a b))", ParseError, "trailing input ')' (at offset 11)", 11),
    ("(p+ 3/2 a b)", BadProbability,
     "probability must lie strictly between 0 and 1, got 3/2", None),
    ("((a))", ParseError, "expected 'oplus' or 'p+', got '(' (at offset 1)", 1),
    # the bad token opens, or follows, a subterm the table already holds
    ("((oplus a b))", ParseError, "expected 'oplus' or 'p+', got '(' (at offset 1)", 1),
    ("(p+ (oplus a b) a b)", ParseError, "expected a rational, got '(' (at offset 4)", 4),
    ("(oplus (oplus a b) (oplus a b) c)", ParseError,
     "expected ')', got 'c' (at offset 31)", 31),
    ("(oplus (oplus a b c) a)", ParseError, "expected ')', got 'c' (at offset 18)", 18),
    ("(p+ 1/2 (oplus a b)", ParseError, "unexpected end of input (at offset 19)", 19),
    ("(oplus a b)(", ParseError, "trailing input '(' (at offset 11)", 11),
    ("(oplus (p+ 1 a b) a)", BadProbability,
     "probability must lie strictly between 0 and 1, got 1", None),
    # the guess of a child's slice from the closing paren is wrong
    ("(oplus a b (oplus a b))", ParseError, "expected ')', got '(' (at offset 11)", 11),
    ("(oplus c (oplus a b) (oplus a b))", ParseError,
     "expected ')', got '(' (at offset 21)", 21),
    ("(p+ 1/2 a b c)", ParseError, "expected ')', got 'c' (at offset 12)", 12),
    ("(oplus (oplus a b) c (oplus a b))", ParseError,
     "expected ')', got '(' (at offset 21)", 21),
    ("(oplus (oplus a b)(oplus a b) c)", ParseError,
     "expected ')', got 'c' (at offset 30)", 30),
    ("(oplus (p+ 1/2 a b) (oplus a b c))", ParseError,
     "expected ')', got 'c' (at offset 31)", 31),
]


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("text,kind,message,position", MALFORMED)
def test_malformed_terms_keep_their_errors(text, kind, message, position, shared):
    table = None
    if shared:
        table = {}
        for good in ("(oplus a b)", "(p+ 1/2 a b)", "(oplus (oplus a b) c)"):
            parse_term(good, table)
    before = dict(table or {})
    # The token parser, on a copy of the table, and then the reader.
    copy = None if table is None else dict(table)
    for parse, held in ((term_reference.parse_term, copy), (parse_term, table)):
        with pytest.raises(kind) as exc:
            parse(text, held)
        assert type(exc.value) is kind
        assert str(exc.value) == message
        assert getattr(exc.value, "position", None) == position
    if shared:
        assert text not in table
        assert all(table[k] is v for k, v in before.items())


def test_a_probability_with_underscores_is_not_a_rational():
    # Python 3.11's Fraction alone would read this p as 1/3.
    with pytest.raises(ParseError) as exc:
        parse_term("(p+ 1_0/3_0 a b)")
    assert str(exc.value) == "expected a rational, got '1_0/3_0' (at offset 4)"


@given(sts.space_with_terms(1))
def test_nu_normalize_round_trip(bundle):
    space, t = bundle
    s = normalize(space, t)
    assert normalize(space, nu(space, s)) == s


@given(sts.space_with_terms(2))
@settings(max_examples=40)
def test_term_distance_is_a_pseudometric(bundle):
    space, t, s = bundle
    d = term_distance(space, t, s)
    assert 0 <= d <= 1
    assert d == term_distance(space, s, t)
    assert term_distance(space, t, t) == 0
    assert d == hk_distance(space, normalize(space, t), normalize(space, s))


@given(sts.space_with_terms(1))
@settings(max_examples=40)
def test_canonical_form_is_deterministic(bundle):
    space, t = bundle
    s = normalize(space, t)
    assert print_term(nu(space, s)) == print_term(nu(space, normalize(space, nu(space, s))))


def test_a_parse_does_not_depend_on_spacing():
    # Every level's left child is held, so neither spelling of the last
    # text reads more than its top group, however deep the term.
    table: dict = {}
    text = "a"
    for _ in range(sys.getrecursionlimit() + 200):
        held = parse_term(text, table)
        text = f"(oplus {text} a)"
    for spelling in (text, text.replace("(oplus ", "(oplus", 1)):
        t = parse_term(spelling, dict(table))
        assert type(t) is Oplus and t.left is held and t.right is table["a"]


def test_too_deep_term_raises_too_deep():
    text = "a"
    for _ in range(sys.getrecursionlimit() + 200):
        text = f"(oplus {text} a)"
    with pytest.raises(TooDeep):
        parse_term(text)
    table = {}
    with pytest.raises(TooDeep):
        parse_term(text, table)
    assert text not in table


def test_deep_oplus_spines_normalize_without_recursion(x3):
    depth = sys.getrecursionlimit() + 200
    left = right = mixed = Gen("a")
    for i in range(depth):
        left = Oplus(left, Gen("b"))
        right = Oplus(Gen("b"), right)
        mixed = Oplus(mixed, Gen("b")) if i % 2 else Oplus(Gen("c"), mixed)
    ab = ConvexSet(x3, [dirac(x3, "a"), dirac(x3, "b")])
    assert normalize(x3, left) == ab
    assert normalize(x3, right) == ab
    assert normalize(x3, mixed) == ConvexSet(x3, [dirac(x3, p) for p in "abc"])
    assert term_equal_mod_theory(x3, left, right)
    assert term_distance(x3, left, mixed) == F(1, 2)


def _fold(space, term):
    """The denotation of a term built node by node: one monad_unit, plus_p
    or oplus per node, each re-based."""
    if isinstance(term, Gen):
        return monad_unit(space, term.label)
    left = _fold(space, term.left)
    right = _fold(space, term.right)
    if isinstance(term, Oplus):
        return oplus(left, right)
    return plus_p(term.p, left, right)


def _has_oplus(term) -> bool:
    if isinstance(term, Gen):
        return False
    return isinstance(term, Oplus) or _has_oplus(term.left) or _has_oplus(term.right)


@given(
    sts.space_with_terms(1, max_points=4, max_depth=5, oplus=False)
    | sts.space_with_terms(1, max_points=4, max_depth=4)
)
@settings(max_examples=80)
def test_normalize_matches_a_per_node_fold(bundle):
    space, t = bundle
    s = normalize(space, t)
    folded = _fold(space, t)
    assert s == folded
    assert hash(s) == hash(folded)
    assert print_term(nu(space, s)) == print_term(nu(space, folded))
    if not _has_oplus(t):
        assert len(s.base) == 1


def test_normalize_mixes_deep_oplus_free_chains_exactly(x3):
    # 200 nested halvings, b outermost: the j-th label from the outside
    # weighs 2^-j, and c, innermost, 2^-200
    deep = Gen("c")
    for label in ("a", "b") * 100:
        deep = PlusP(F(1, 2), Gen(label), deep)
    s = normalize(x3, deep)
    assert s == _fold(x3, deep)
    (d,) = s.base
    assert d.weight("c") == F(1, 2**200)
    assert d.weight("b") == sum(F(1, 2 ** (2 * k + 1)) for k in range(100))


def test_print_term_raises_too_deep():
    deep = Gen("a")
    for _ in range(sys.getrecursionlimit() + 200):
        deep = Oplus(deep, Gen("b"))
    with pytest.raises(TooDeep):
        print_term(deep)
    with pytest.raises(TooDeep):
        print_term(deep, {})


def test_deep_plus_p_nesting_raises_too_deep(x3):
    deep = Gen("a")
    for _ in range(sys.getrecursionlimit() + 200):
        deep = PlusP(F(1, 2), deep, Gen("b"))
    with pytest.raises(TooDeep):
        normalize(x3, deep)
    with pytest.raises(TooDeep):
        term_distance(x3, deep, Gen("a"))
    with pytest.raises(TooDeep):
        term_equal_mod_theory(x3, Gen("a"), deep)



def test_substitute_raises_too_deep():
    deep = Gen("a")
    for _ in range(sys.getrecursionlimit() + 200):
        deep = Oplus(deep, Gen("b"))
    with pytest.raises(TooDeep):
        substitute(deep, {"a": Gen("c")})


def test_nested_plus_p_over_oplus_hits_the_product_cap():
    # (p+ 1/2 (oplus a0 b0) (p+ 1/2 (oplus a1 b1) ... (oplus a10 b10))): each
    # level doubles the base, so the outermost p+ would mix 2 x 1024 points
    k = 11
    labels = [f"{c}{i}" for i in range(k) for c in "ab"]
    space = FiniteMetricSpace(
        labels, {(x, y): Fraction(1) for i, x in enumerate(labels) for y in labels[i + 1 :]}
    )
    text = f"(oplus a{k - 1} b{k - 1})"
    for i in reversed(range(k - 1)):
        text = f"(p+ 1/2 (oplus a{i} b{i}) {text})"
    with pytest.raises(TooLarge) as exc:
        normalize(space, parse_term(text))
    assert exc.value.actual == 2 * 2 ** (k - 1)

