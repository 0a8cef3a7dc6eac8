"""Quantitative deduction over convex-semilattice terms.

A derivation is an immutable tree of rule applications concluding
quantitative equations t =_eps s. The checker validates every node's
side conditions exactly and reports the first failing node by its path
from the root.

Rules: Refl, Symm, Triang (eps sums, capped at 1), Max (non-strict
weakening), NExpOplus (eps = max), NExpPlusP (eps = p-weighted sum),
Subst (on hypothesis-free premises), Cut (with an explicit finite
intermediate set), Assum (cites a hypothesis verbatim), AxiomCS (an
axiom read left to right, in either orientation, at eps 0).

Each convex-semilattice axiom (A, C, I, A_p, C_p, I_p, D) is written
once, as the rewrite `_axiom_right` from its left side to its right
side. The checker accepts an AxiomCS node when the rewrite takes one
side of its conclusion to the other; the builders in `proofs` make each
instance with the same rewrite, and `presentation` checks models by it.

`QuantEquation(left, right, eps)` and `Derivation(rule, conclusion,
premises, axiom, subst, theta, hypotheses)` are immutable tuples of their
fields, like the terms (see `syntax._Node`): a node is equal only to a
node of its class with equal fields and hashes as the tuple of its
fields; `_replace` returns a copy with some fields changed. The
checker's reply `CheckResult(ok, path=(), reason="")` is a plain
NamedTuple, compared by its fields.
`QuantEquation` checks its eps in `__new__`. A derivation may hold one
node object at several places: the JSON writers build its dict or its
text once (`derivation_to_json_text` copies the text's pieces where the
node occurs again), the reader reads every node down one checked path
and turns equal nodes of a document into one object (see `_Reader`),
and the checker proves each (node, hypotheses) pair once. `size` and the
checker's scan for Assum under a Subst visit each node object once.
Every recursive walk raises TooDeep through `errors.guard_depth`.

The checker reads syntax only: this module imports `syntax`, `core` and
`errors`, and nothing that normalizes a term or solves an LP.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .core import FiniteMetricSpace, as_fraction, format_fraction
from .errors import MalformedInput, OutOfRange, ParseError, guard_depth
from .syntax import (
    Gen,
    Oplus,
    PlusP,
    Term,
    _Node,
    _tuple_new,
    parse_term,
    print_term,
    substitute,
)

ZERO = Fraction(0)
ONE = Fraction(1)

RULES = (
    "Refl",
    "Symm",
    "Triang",
    "Max",
    "NExpOplus",
    "NExpPlusP",
    "Subst",
    "Cut",
    "Assum",
    "AxiomCS",
)

AXIOMS = ("A", "C", "I", "A_p", "C_p", "I_p", "D")

# Premise count of each rule but Cut, which takes one per intermediate
# equation plus one.
_ARITY = {
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


class _QuantEquationFields(NamedTuple):
    left: Term
    right: Term
    eps: Fraction


class QuantEquation(_Node, _QuantEquationFields):
    __slots__ = ()

    def __new__(cls, left: Term, right: Term, eps: Fraction):
        if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
            raise MalformedInput(
                f"equation distance must be an exact rational, got {type(eps).__name__}"
            )
        if not (0 <= eps.numerator <= eps.denominator):
            raise OutOfRange("equation distance", eps)
        return _tuple_new(cls, (left, right, eps))

    def flip(self) -> "QuantEquation":
        return QuantEquation(self.right, self.left, self.eps)

    def __str__(self) -> str:
        return (
            f"{print_term(self.left)} ={format_fraction(self.eps)} "
            f"{print_term(self.right)}"
        )


class _DerivationFields(NamedTuple):
    rule: str
    conclusion: QuantEquation
    premises: tuple["Derivation", ...] = ()
    axiom: str | None = None
    subst: tuple[tuple[str, Term], ...] | None = None
    theta: tuple[QuantEquation, ...] | None = None
    hypotheses: tuple[QuantEquation, ...] = ()


class Derivation(_Node, _DerivationFields):
    __slots__ = ()

    def size(self) -> int:
        """The number of nodes, counting a shared node at each place, in
        one visit per node object; a derivation nested deeper than the
        recursion limit raises TooDeep."""
        return guard_depth(_size, self, {})


def _size(d: Derivation, counted: dict[int, int]) -> int:
    n = counted.get(id(d))
    if n is None:
        n = counted[id(d)] = 1 + sum(_size(p, counted) for p in d.premises)
    return n


class CheckResult(NamedTuple):
    ok: bool
    path: tuple[int, ...] = ()
    reason: str = ""


def _fail(path: tuple[int, ...], reason: str) -> CheckResult:
    return CheckResult(False, path, reason)


# The eps of a Triang, NExpOplus and NExpPlusP conclusion. Most premises
# of a derived proof are eps-0 glue, which these pass through without
# Fraction arithmetic.


def _triang_eps(e1: Fraction, e2: Fraction) -> Fraction:
    """The capped sum min(1, e1 + e2)."""
    return e2 if not e1 else e1 if not e2 else min(ONE, e1 + e2)


def _oplus_eps(e1: Fraction, e2: Fraction) -> Fraction:
    """max(e1, e2)."""
    return e1 if not e2 else e2 if not e1 else max(e1, e2)


def _plusp_eps(p: Fraction, e1: Fraction, e2: Fraction) -> Fraction:
    """The p-weighted sum p e1 + (1 - p) e2."""
    if not e2:
        return p * e1 if e1 else e1
    if not e1:
        return (1 - p) * e2
    return p * e1 + (1 - p) * e2


def _axiom_right(name: str, t: Term) -> Term | None:
    """The right side that the named axiom, read left to right, gives for
    the left side `t`; None when `t` does not have the axiom's left shape.
    Probabilities are built from ints: pq < 1 since p, q < 1."""
    if isinstance(t, Oplus):
        a, b = t
        if name == "A" and isinstance(a, Oplus):
            # (x oplus y) oplus z  =  x oplus (y oplus z)
            return Oplus(a.left, Oplus(a.right, b))
        if name == "C":
            return Oplus(b, a)
        if name == "I" and a == b:
            return a
    elif isinstance(t, PlusP):
        p, a, b = t
        pn, pd = p.numerator, p.denominator
        if name == "A_p" and isinstance(a, PlusP):
            # (x +_q y) +_p z  =  x +_{pq} (y +_{p(1-q)/(1-pq)} z)
            qn, qd = a.p.numerator, a.p.denominator
            s = Fraction(pn * (qd - qn), pd * qd - pn * qn)
            return PlusP(Fraction(pn * qn, pd * qd), a.left, PlusP(s, a.right, b))
        if name == "C_p":
            return PlusP(Fraction(pd - pn, pd), b, a)
        if name == "I_p" and a == b:
            return a
        if name == "D" and isinstance(b, Oplus):
            # x +_p (y oplus z)  =  (x +_p y) oplus (x +_p z)
            return Oplus(PlusP(p, a, b.left), PlusP(p, a, b.right))
    return None


def _match_axiom(name: str, left: Term, right: Term) -> bool:
    """Does left = right instantiate the named axiom, read left to right?
    A missing side (None) instantiates none."""
    return right is not None and _axiom_right(name, left) == right


def _uses_assumption(d: Derivation, seen: set[int]) -> bool:
    """Does an Assum node lie under `d`? Visits each node object once:
    `seen` holds the ids of the nodes visited so far."""
    if d.rule == "Assum":
        return True
    seen.add(id(d))
    return any(_uses_assumption(p, seen) for p in d.premises if id(p) not in seen)


_PROVED = CheckResult(True)


def _check_node(
    gamma: frozenset[QuantEquation],
    d: Derivation,
    path: tuple[int, ...],
    proved: set,
) -> CheckResult:
    """Check `d` under `gamma`, skipping (node, gamma) pairs in `proved`.

    Only successes are recorded, so a failure is found at the same path
    as without the record; the key holds the gamma object itself, which
    keeps it alive, and the node is held by the tree being checked.
    """
    key = (id(d), gamma)
    if key in proved:
        return _PROVED
    rule = d.rule
    goal = d.conclusion
    if rule not in RULES:
        return _fail(path, f"unknown rule {rule!r}")
    arity = _ARITY.get(rule)
    if arity is not None and len(d.premises) != arity:
        return _fail(path, f"{rule} expects {arity} premise(s), got {len(d.premises)}")
    if rule == "Refl":
        if goal.left != goal.right:
            return _fail(path, "Refl needs syntactically equal sides")
        if goal.eps != ZERO:
            return _fail(path, "Refl needs eps 0")
    elif rule == "Symm":
        prem = d.premises[0].conclusion
        if goal != prem.flip():
            return _fail(path, "Symm conclusion must flip the premise")
    elif rule == "Triang":
        p1 = d.premises[0].conclusion
        p2 = d.premises[1].conclusion
        if p1.right != p2.left:
            return _fail(path, "Triang premises must share the middle term")
        if goal.left != p1.left or goal.right != p2.right:
            return _fail(path, "Triang conclusion endpoints do not match premises")
        if goal.eps != _triang_eps(p1.eps, p2.eps):
            return _fail(path, "Triang eps must be the capped sum of premise eps")
    elif rule == "Max":
        prem = d.premises[0].conclusion
        if goal.left != prem.left or goal.right != prem.right:
            return _fail(path, "Max must keep both terms")
        if goal.eps < prem.eps:
            return _fail(path, "Max cannot decrease eps")
    elif rule == "NExpOplus":
        p1 = d.premises[0].conclusion
        p2 = d.premises[1].conclusion
        want_l = Oplus(p1.left, p2.left)
        want_r = Oplus(p1.right, p2.right)
        if goal.left != want_l or goal.right != want_r:
            return _fail(path, "NExpOplus conclusion must pair the premises under oplus")
        if goal.eps != _oplus_eps(p1.eps, p2.eps):
            return _fail(path, "NExpOplus eps must be the max of premise eps")
    elif rule == "NExpPlusP":
        if not (isinstance(goal.left, PlusP) and isinstance(goal.right, PlusP)):
            return _fail(path, "NExpPlusP conclusion sides must be p+ terms")
        p = goal.left.p
        if goal.right.p != p:
            return _fail(path, "NExpPlusP sides must share the probability")
        p1 = d.premises[0].conclusion
        p2 = d.premises[1].conclusion
        if goal.left != PlusP(p, p1.left, p2.left) or goal.right != PlusP(
            p, p1.right, p2.right
        ):
            return _fail(path, "NExpPlusP conclusion must pair the premises under p+")
        if goal.eps != _plusp_eps(p, p1.eps, p2.eps):
            return _fail(path, "NExpPlusP eps must be the p-weighted sum")
    elif rule == "Subst":
        if d.subst is None:
            return _fail(path, "Subst needs a substitution")
        if _uses_assumption(d.premises[0], set()):
            return _fail(path, "Subst premise must not use hypotheses")
        mapping = dict(d.subst)
        prem = d.premises[0].conclusion
        if goal.left != substitute(prem.left, mapping) or goal.right != substitute(
            prem.right, mapping
        ):
            return _fail(path, "Subst conclusion must be the substituted premise")
        if goal.eps != prem.eps:
            return _fail(path, "Subst preserves eps")
    elif rule == "Cut":
        if not d.theta:
            return _fail(path, "Cut needs a nonempty intermediate set")
        if len(d.premises) != len(d.theta) + 1:
            return _fail(
                path,
                "Cut expects one premise per intermediate equation plus the final one",
            )
        for i, eq in enumerate(d.theta):
            if d.premises[i].conclusion != eq:
                return _fail(path, f"Cut premise {i} does not conclude theta[{i}]")
        if d.premises[-1].conclusion != goal:
            return _fail(path, "Cut final premise must conclude the goal")
        for i, eq in enumerate(d.theta):
            sub = _check_node(gamma, d.premises[i], path + (i,), proved)
            if not sub.ok:
                return sub
        last = len(d.theta)
        sub = _check_node(frozenset(d.theta), d.premises[last], path + (last,), proved)
        if sub.ok:
            proved.add(key)
        return sub
    elif rule == "Assum":
        if goal not in gamma:
            return _fail(path, "Assum cites an equation outside the hypotheses")
    elif rule == "AxiomCS":
        if d.axiom not in AXIOMS:
            return _fail(path, f"unknown axiom {d.axiom!r}")
        if goal.eps != ZERO:
            return _fail(path, "axiom instances have eps 0")
        if not (
            _match_axiom(d.axiom, goal.left, goal.right)
            or _match_axiom(d.axiom, goal.right, goal.left)
        ):
            return _fail(path, f"conclusion is not an instance of axiom {d.axiom}")

    for i, prem in enumerate(d.premises):
        sub = _check_node(gamma, prem, path + (i,), proved)
        if not sub.ok:
            return sub
    proved.add(key)
    return _PROVED


def check_derivation(gamma, d: Derivation) -> CheckResult:
    """Validate every node against the hypotheses `gamma` alone; on
    failure report the path from the root.

    A metric enters only through `gamma`, as its ground hypotheses (see
    `metric_hypotheses`). A node object met again under the same
    hypotheses is checked once; the first failing node in pre-order is
    reported either way. A derivation nested deeper than the recursion
    limit raises TooDeep. The equations of `gamma` and of each Cut's
    `theta` are hashed, through `frozenset`, and so are their terms: see
    `syntax._Node` for the cost on terms built in Python with shared
    children.
    """
    return guard_depth(_check_node, frozenset(gamma), d, (), set())


def metric_hypotheses(space: FiniteMetricSpace) -> tuple[QuantEquation, ...]:
    """The ground-distance equations x =_{d(x,y)} y, both orientations."""
    eqs = []
    for i, x in enumerate(space.points):
        for y in space.points[i + 1 :]:
            eqs.append(QuantEquation(Gen(x), Gen(y), space.d(x, y)))
            eqs.append(QuantEquation(Gen(y), Gen(x), space.d(x, y)))
    return tuple(eqs)


def equation_to_json_dict(eq: QuantEquation, printed: dict | None = None) -> dict:
    """The equation as JSON; `printed` is passed to `print_term` (see there)."""
    return {
        "l": print_term(eq.left, printed),
        "r": print_term(eq.right, printed),
        "eps": format_fraction(eq.eps),
    }


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(value).__name__}", 0)
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list, got {type(value).__name__}", 0)
    return value


def _field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ParseError(f"{what} object missing field {key!r}", 0)
    return obj[key]


def _term(text, table: dict) -> Term:
    if not isinstance(text, str):
        raise ParseError(f"term must be a string, got {type(text).__name__}", 0)
    return parse_term(text, table)


class _Reader:
    """Reads equations and derivations of one document, sharing equal ones.

    Terms go through `table` (see `parse_term`). Three memos of its own
    share the rest: eps text to one Fraction; the (l, r, eps) text triple
    of an equation whose three fields are strings to one `QuantEquation`;
    and a node whose rule and axiom are strings or absent, by (rule,
    conclusion object, axiom, premise objects) and the objects of its
    `subst`, `theta` and `hypotheses` if it has any, to one `Derivation`.
    Every object a key names by id is held by these memos or by the tree
    being built, so no id is reused during the read.
    """

    def __init__(self, table: dict):
        self.table = table
        self.eps: dict[str, Fraction] = {}
        self.equations: dict[tuple[str, str, str], QuantEquation] = {}
        self.nodes: dict[tuple, Derivation] = {}

    def equation(self, obj) -> QuantEquation:
        obj = _json_object(obj, "equation")
        key = ltext, rtext, text = obj.get("l"), obj.get("r"), obj.get("eps")
        if isinstance(ltext, str) and isinstance(rtext, str) and isinstance(text, str):
            eq = self.equations.get(key)
            if eq is not None:
                return eq
        left = _term(_field(obj, "l", "equation"), self.table)
        right = _term(_field(obj, "r", "equation"), self.table)
        if not isinstance(text, str):
            return QuantEquation(left, right, as_fraction(_field(obj, "eps", "equation")))
        eps = self.eps.get(text)
        if eps is None:
            eps = self.eps[text] = as_fraction(text)
        eq = self.equations[key] = QuantEquation(left, right, eps)
        return eq

    def equations_list(self, items, what: str) -> tuple[QuantEquation, ...]:
        return tuple(self.equation(eq) for eq in _json_list(items, what))

    def derivation(self, obj) -> Derivation:
        obj = _json_object(obj, "derivation")
        rule = _field(obj, "rule", "derivation")
        conclusion = self.equation(_field(obj, "conclusion", "derivation"))
        premises = ()
        if "premises" in obj:
            premises = tuple(map(self.derivation, _json_list(obj["premises"], "premises")))
        axiom = obj.get("axiom")
        notes = ()
        if "subst" in obj or "theta" in obj or "hypotheses" in obj:
            notes = self._annotations(obj)
        if not (isinstance(rule, str) and (axiom is None or isinstance(axiom, str))):
            return Derivation(rule, conclusion, premises, axiom, *notes)
        key = (rule, id(conclusion), axiom, *map(id, premises))
        if notes:
            subst, theta, hypotheses = notes
            key = (
                key,
                subst and tuple((var, id(t)) for var, t in subst),
                theta and tuple(map(id, theta)),
                tuple(map(id, hypotheses)),
            )
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = Derivation(rule, conclusion, premises, axiom, *notes)
        return node

    def _annotations(self, obj) -> tuple:
        """The `subst`, `theta` and `hypotheses` fields of a node."""
        subst = None
        if "subst" in obj:
            subst = tuple(
                sorted(
                    (var, _term(text, self.table))
                    for var, text in _json_object(obj["subst"], "subst").items()
                )
            )
        theta = None
        if "theta" in obj:
            theta = self.equations_list(obj["theta"], "theta")
        hypotheses = ()
        if "hypotheses" in obj:
            hypotheses = self.equations_list(obj["hypotheses"], "hypotheses")
        return subst, theta, hypotheses


def equation_from_json_dict(obj: dict) -> QuantEquation:
    """Read one equation."""
    return _Reader({}).equation(obj)


def equations_from_json_list(
    items, table: dict | None = None
) -> tuple[QuantEquation, ...]:
    """Read a hypothesis list, named "hypotheses" in errors; `table` is
    passed to `parse_term` (see there)."""
    return _Reader({} if table is None else table).equations_list(items, "hypotheses")


def derivation_to_json_dict(d: Derivation) -> dict:
    """The derivation as JSON, building each node object's dict once.

    A node object that occurs at several places of the tree is written as
    one dict at all of them, so a shared node's dict is shared in the
    returned document (`json.dumps` writes it out at each place). The
    derivation keeps every node and term it holds alive during the call,
    so memos keyed by object id serve the whole document: one for node
    dicts, and one passed to `print_term`. A derivation nested deeper than
    the recursion limit raises TooDeep.
    """
    return guard_depth(_derivation_dict, d, {}, {})


def _derivation_dict(d: Derivation, printed: dict, built: dict) -> dict:
    out = built.get(id(d))
    if out is not None:
        return out
    out = {
        "rule": d.rule,
        "conclusion": equation_to_json_dict(d.conclusion, printed),
    }
    if d.premises:
        out["premises"] = [_derivation_dict(p, printed, built) for p in d.premises]
    if d.axiom is not None:
        out["axiom"] = d.axiom
    if d.subst is not None:
        out["subst"] = {var: print_term(t, printed) for var, t in d.subst}
    if d.theta is not None:
        out["theta"] = [equation_to_json_dict(eq, printed) for eq in d.theta]
    if d.hypotheses:
        out["hypotheses"] = [equation_to_json_dict(eq, printed) for eq in d.hypotheses]
    built[id(d)] = out
    return out


def _json_value(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value, sort_keys=True)


def derivation_to_json_text(d: Derivation) -> str:
    """`json.dumps(derivation_to_json_dict(d), sort_keys=True)`, in one walk.

    The text is one list of pieces, joined at the end. The JSON string of
    each term and eps object is made once, and so are the pieces of each
    node object: a node object met again copies its span of the list, so
    no node holds the text of its subtree. Memos are keyed by object id,
    which `d` keeps alive. A derivation nested deeper than the recursion
    limit raises TooDeep.
    """
    out: list[str] = []
    guard_depth(_write_node, d, out, {}, {}, {})
    return "".join(out)


def _write_node(d: Derivation, out: list, spans: dict, strings: dict, printed: dict):
    span = spans.get(id(d))
    if span is not None:
        out.extend(out[span[0] : span[1]])
        return
    start = len(out)
    left, right, eps = (_json_string(x, strings, printed) for x in d.conclusion)
    head = "{" if d.axiom is None else f'{{"axiom": {_json_value(d.axiom)}, '
    out.extend((head, '"conclusion": {"eps": ', eps, ', "l": ', left, ', "r": ', right, "}"))
    if d.hypotheses:
        hypotheses = [equation_to_json_dict(eq, printed) for eq in d.hypotheses]
        out.append(', "hypotheses": ' + json.dumps(hypotheses, sort_keys=True))
    if d.premises:
        sep = ', "premises": ['
        for p in d.premises:
            out.append(sep)
            _write_node(p, out, spans, strings, printed)
            sep = ", "
        out.append("]")
    out.append(', "rule": ' + _json_value(d.rule))
    if d.subst is not None:
        subst = {var: print_term(t, printed) for var, t in d.subst}
        out.append(', "subst": ' + json.dumps(subst, sort_keys=True))
    if d.theta is not None:
        theta = [equation_to_json_dict(eq, printed) for eq in d.theta]
        out.append(', "theta": ' + json.dumps(theta, sort_keys=True))
    out.append("}")
    spans[id(d)] = (start, len(out))


def _json_string(x, strings: dict, printed: dict) -> str:
    """The JSON text of a term or eps object, made once per object."""
    text = strings.get(id(x))
    if text is None:
        raw = format_fraction(x) if isinstance(x, (int, Fraction)) else print_term(x, printed)
        text = strings[id(x)] = _json_value(raw)
    return text


def derivation_from_json_dict(obj: dict, table: dict | None = None) -> Derivation:
    """Read a derivation document, every term through one shared `table`.

    Equal subterms anywhere in the document become one object, so the
    checker's equality tests mostly stop at identity; so do equal
    equations and equal subproofs, so the checker proves each once. Input
    of the wrong shape raises ParseError; input nested deeper than the
    recursion limit (premises or terms) raises TooDeep.
    """
    return guard_depth(_Reader({} if table is None else table).derivation, obj)
