"""Convex-semilattice terms over generator labels: their syntax.

Signature: a binary oplus and a family of binary p+ operations with
probability annotations strictly between 0 and 1. Terms denote convex
sets of distributions via `terms.normalize`; `terms.nu` picks the
canonical term of a convex set, and the two are mutually inverse up to
the theory. Nothing here reads a space or solves anything: this module
is what a term is, how it is written and read, and substitution.

Concrete syntax is s-expressions: "(oplus a b)", "(p+ 1/2 a b)".
`parse_term` can share one table of texts across many calls. Only
`parse_term` and `_Skipper` look texts up in it: a new text is split
around the subterms the table already holds, and only a text of unusual
shape is tokenized by `_Parser`, which parses every slice and enters it.

Terms are immutable tuples of their fields: `Gen(label)`, `Oplus(left,
right)` and `PlusP(p, left, right)`, each a `typing.NamedTuple` under the
`_Node` rules (equal only to a node of the same class with equal fields,
hashed as the tuple of fields, not ordered). `PlusP` checks its
probability in `__new__`. `deduction` builds its equations and
derivations the same way.

Inside `_sharing_terms()` the three constructors hash-cons: a call that
asks for a term the scope already built returns that object, so equal
terms built in one scope are one object. Outside a scope every call
builds a new object.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from typing import NamedTuple

from .core import LABEL_TOKEN, format_fraction, parse_rational
from .errors import BadProbability, MalformedInput, ParseError, guard_depth


_tuple_new = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class _Node:
    """Equality and ordering for the tuple-backed node classes.

    A node is a tuple of its fields, so that building one is one tuple
    allocation and reading a field is an index. Two nodes are equal when
    they have the same class and equal fields; a node never equals a node
    of another class or a plain tuple (only a tuple of an unrelated tuple
    subclass, on the left of `==`, compares by its own rule), and nodes
    are not ordered. The hash is the tuple's: the hash of the tuple of
    fields. It is not cached and walks the tree, not the distinct node
    objects, so hashing a term built in Python with shared children takes
    time exponential in its depth. A parsed term is not affected: its tree
    is no larger than its text.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self.__class__ is other.__class__ and _tuple_eq(self, other)

    def __ne__(self, other):
        return self.__class__ is not other.__class__ or _tuple_ne(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


# The terms built in the current `_sharing_terms` scope, or None outside
# one. Keys are a label, (id(left), id(right)) for Oplus, and (numerator,
# denominator, id(left), id(right)) for PlusP. The ids are sound while the
# table lives: each value keeps the children its key names alive.
_shared: ContextVar[dict | None] = ContextVar("hkconvex.syntax._shared", default=None)


@contextmanager
def _sharing_terms():
    """A scope in which `Gen`, `Oplus` and `PlusP` return the one object
    the scope already built for an equal term. A nested entry joins the
    enclosing scope; the table is dropped when the outermost one exits,
    by an exception too."""
    if _shared.get() is not None:
        yield
        return
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


class _GenFields(NamedTuple):
    label: str


class Gen(_Node, _GenFields):
    __slots__ = ()

    def __new__(cls, label: str):
        table = _shared.get()
        if table is None:
            return _tuple_new(cls, (label,))
        term = table.get(label)
        if term is None:
            term = table[label] = _tuple_new(cls, (label,))
        return term


class _OplusFields(NamedTuple):
    left: "Term"
    right: "Term"


class Oplus(_Node, _OplusFields):
    __slots__ = ()

    def __new__(cls, left: "Term", right: "Term"):
        table = _shared.get()
        if table is None:
            return _tuple_new(cls, (left, right))
        key = (id(left), id(right))
        term = table.get(key)
        if term is None:
            term = table[key] = _tuple_new(cls, (left, right))
        return term


class _PlusPFields(NamedTuple):
    p: Fraction
    left: "Term"
    right: "Term"


class PlusP(_Node, _PlusPFields):
    __slots__ = ()

    def __new__(cls, p: Fraction, left: "Term", right: "Term"):
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
            raise MalformedInput(
                f"probability must be an exact rational, got {type(p).__name__}"
            )
        if not (0 < p.numerator < p.denominator):
            raise BadProbability(p)
        table = _shared.get()
        if table is None:
            return _tuple_new(cls, (p, left, right))
        key = (p.numerator, p.denominator, id(left), id(right))
        term = table.get(key)
        if term is None:
            term = table[key] = _tuple_new(cls, (p, left, right))
        return term


Term = Gen | Oplus | PlusP


def print_term(term: Term, printed: dict[int, str] | None = None) -> str:
    """Concrete syntax of a term.

    `printed` memoizes the text of each term object by id, so a term
    shared across many calls is printed once. Pass one only while every
    term it has seen is alive: the id of a collected object can be reused.
    A term nested deeper than the recursion limit raises TooDeep.
    """
    return guard_depth(_print_term, term, printed)


def _print_term(term: Term, printed: dict[int, str] | None) -> str:
    if printed is not None:
        text = printed.get(id(term))
        if text is not None:
            return text
    if isinstance(term, Gen):
        return term.label
    if isinstance(term, Oplus):
        text = f"(oplus {_print_term(term.left, printed)} {_print_term(term.right, printed)})"
    else:
        text = (
            f"(p+ {format_fraction(term.p)} "
            f"{_print_term(term.left, printed)} {_print_term(term.right, printed)})"
        )
    if printed is not None:
        printed[id(term)] = text
    return text


_TOKEN = re.compile(r"[()]|" + LABEL_TOKEN.pattern)


def _parse_fraction(token: str, position: int) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got {token!r}", position) from None


class _Parser:
    """Recursive descent over the tokens of one text: the grammar and its
    error messages.

    Each generator token and each parenthesised subterm that parses is
    entered in `table` under its exact source slice with `setdefault`, so
    a slice the table already holds returns the table's object. The
    parser reads no entry before it has parsed a slice, so a subterm the
    table holds still counts toward the recursion limit.
    """

    def __init__(self, text: str, table: dict):
        self.text = text
        self.table = table
        matches = list(_TOKEN.finditer(text))
        self.tokens = [m.group() for m in matches]
        self.starts = [m.start() for m in matches]
        self.pos = 0
        self.end = len(text)

    def take(self) -> tuple[str, int]:
        pos = self.pos
        if pos >= len(self.tokens):
            raise ParseError("unexpected end of input", self.end)
        self.pos = pos + 1
        return self.tokens[pos], self.starts[pos]

    def expect(self, text: str) -> int:
        tok, at = self.take()
        if tok != text:
            raise ParseError(f"expected {text!r}, got {tok!r}", at)
        return at

    def term(self) -> Term:
        tok, at = self.take()
        if tok == ")":
            raise ParseError("unexpected ')'", at)
        if tok != "(":
            return self.table.setdefault(tok, Gen(tok))
        head, head_at = self.take()
        if head == "oplus":
            p = None
        elif head == "p+":
            ptok, pat = self.take()
            p = _parse_fraction(ptok, pat)
        else:
            raise ParseError(f"expected 'oplus' or 'p+', got {head!r}", head_at)
        left = self.term()
        right = self.term()
        close = self.expect(")")
        term = Oplus(left, right) if p is None else PlusP(p, left, right)
        return self.table.setdefault(self.text[at : close + 1], term)


# '(', the head and, for p+, the probability, each followed by whitespace.
_HEAD = re.compile(r"\(\s*(?:oplus|p\+\s+([^\s()]+))\s+")


class _Unexpected(Exception):
    """A text that `_Skipper` leaves to `_Parser`."""


class _Skipper:
    """Reads a text slice by slice, settling each known slice by one lookup.

    A group `(head [p] A B)` not in the table is split without tokenizing
    it: the header is matched from the left, B's extent is found from the
    closing paren, and A is the slice between. A slice is read further
    only if the table misses it, in `_Parser`'s order, and is entered
    under its exact text, so the table gains the keys `_Parser` would
    add. The backward scan records the '(' of each ')' it closes, so no
    paren is scanned twice. Anything unusual (no whitespace between
    children, a bad head or probability, unbalanced parens) raises
    `_Unexpected`.
    """

    def __init__(self, text: str, table: dict):
        self.text = text
        self.table = table
        self.opener: dict[int, int] = {}

    def read(self, lo: int, hi: int, key: str) -> Term:
        """The term of `key`, the slice text[lo:hi], which the table does
        not hold; enters it there."""
        text = self.text
        table = self.table
        if key[0] != "(":
            if LABEL_TOKEN.fullmatch(key) is None:
                raise _Unexpected
            table[key] = term = Gen(key)
            return term
        if text[hi - 1] != ")":
            raise _Unexpected
        head = _HEAD.match(text, lo, hi)
        if head is None:
            raise _Unexpected
        p = head.group(1)
        if p is not None:
            try:
                p = parse_rational(p)
            except (ValueError, ZeroDivisionError):
                raise _Unexpected from None
            if not 0 < p.numerator < p.denominator:
                raise _Unexpected
        a = head.end()  # A's first character: the header ends in whitespace
        b_end = hi - 1
        while b_end - 1 > a and text[b_end - 1].isspace():
            b_end -= 1
        if text[b_end - 1] == ")":
            b = self.open_of(b_end - 1, a)
        else:  # a token, checked when it is read or looked up
            b = b_end - 1
            while b > a and not text[b - 1].isspace():
                b -= 1
        if b <= a or not text[b - 1].isspace():
            raise _Unexpected
        a_end = b - 1
        while text[a_end - 1].isspace():
            a_end -= 1
        a_key = text[a:a_end]
        left = table.get(a_key)
        if left is None:
            left = self.read(a, a_end, a_key)
        b_key = text[b:b_end]
        right = table.get(b_key)
        if right is None:
            right = self.read(b, b_end, b_key)
        table[key] = term = Oplus(left, right) if p is None else PlusP(p, left, right)
        return term

    def open_of(self, close: int, lo: int) -> int:
        """The index of the '(' that closes at `close`, or -1 if none does
        at or after `lo`."""
        opener = self.opener
        found = opener.get(close)
        if found is not None:
            return found if found >= lo else -1
        text = self.text
        stack = [close]
        at_open = text.rfind("(", lo, close)
        at_close = text.rfind(")", lo, close)
        while True:
            if at_close > at_open:
                stack.append(at_close)
                at_close = text.rfind(")", lo, at_close)
            elif at_open < 0:
                return -1
            else:
                opener[stack.pop()] = at_open
                if not stack:
                    return at_open
                at_open = text.rfind("(", lo, at_open)


def parse_term(text: str, table: dict[str, Term] | None = None) -> Term:
    """Parse one term; equal subterms within `table`'s scope are one object.

    `table` maps texts to their terms and grows with every successful
    parse (the whole text, each parenthesised subterm and each generator).
    Passing one table to many calls reads each distinct subterm once and
    shares it; without a table the sharing is confined to this text.
    A new text is split around the subterms the table holds (`_Skipper`);
    one of unusual shape, such as a hand-spaced one, is parsed in full by
    `_Parser`, which raises ParseError or BadProbability on malformed
    input. A term nested deeper than the recursion limit raises TooDeep;
    on the full parse that counts the subterms the table already holds.
    """
    if table is None:
        table = {}
    else:
        term = table.get(text)
        if term is not None:
            return term
    if text:
        try:
            return _Skipper(text, table).read(0, len(text), text)
        except (_Unexpected, RecursionError):
            pass
    parser = _Parser(text, table)
    term = guard_depth(parser.term)
    if parser.pos < len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos]!r}", parser.starts[parser.pos]
        )
    table[text] = term
    return term


def substitute(term: Term, mapping: dict[str, Term]) -> Term:
    """Replace generator leaves by terms; leaves not mapped stay put.

    A term nested deeper than the recursion limit raises TooDeep.
    """
    return guard_depth(_substitute, term, mapping)


def _substitute(term: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(term, Gen):
        return mapping.get(term.label, term)
    if isinstance(term, Oplus):
        return Oplus(_substitute(term.left, mapping), _substitute(term.right, mapping))
    return PlusP(
        term.p, _substitute(term.left, mapping), _substitute(term.right, mapping)
    )


def _fold_items(items: list[tuple[str, int]]) -> Term:
    """Left-fold of p+ over labels with positive int weights.

    Only the ratios of the weights matter: the step that attaches the
    j-th label has p = S_{j-1} / S_j, where S_j is the sum of the first j
    weights, so k labels cost k - 1 Fractions.
    """
    label, total = items[0]
    term = Gen(label)
    for label, w in items[1:]:
        grown = total + w
        term = PlusP(Fraction(total, grown), term, Gen(label))
        total = grown
    return term


def oc_term(leaves: list[Term]) -> Term:
    """Left comb of oplus over the leaves: (((l0 + l1) + l2) + ...)."""
    term = leaves[0]
    for leaf in leaves[1:]:
        term = Oplus(term, leaf)
    return term
