"""Convex-semilattice terms over generator labels: their syntax.

Signature: a binary oplus and a family of binary p+ operations with
probability annotations strictly between 0 and 1. Terms denote convex
sets of distributions via `terms.normalize`; `terms.nu` picks the
canonical term of a convex set, and the two are mutually inverse up to
the theory. Nothing here reads a space or solves anything: this module
is what a term is, how it is written and read, and substitution.

Concrete syntax is s-expressions: "(oplus a b)", "(p+ 1/2 a b)".
`parse_term` can share one table of texts across many calls. Only
`parse_term` and its one reader, `_Reader`, look texts up in it: a text
is read left to right, and a subterm whose text the table already holds,
found by guessing where each child of a group lies, is taken from the
table without being read. Every slice that is read is entered.

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
from functools import lru_cache
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
        n, d = p.numerator, p.denominator
        if not (0 < n < d):
            raise BadProbability(p)
        table = _shared.get()
        if table is None:
            return _tuple_new(cls, (p, left, right))
        key = (n, d, id(left), id(right))
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
# '(', the head and, for p+, the probability, each followed by whitespace.
_HEAD = re.compile(r"\(\s*(?:oplus|p\+\s+([^\s()]+))\s+")
# Proof documents repeat a few probability texts many times.
_rational = lru_cache(maxsize=256)(parse_rational)


def _parse_fraction(token: str, position: int) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got {token!r}", position) from None


class _Reader:
    """Recursive descent over one text, left to right: the grammar and its
    error messages.

    Each generator token and each parenthesised subterm that is read is
    entered in `table` under its exact source slice with `setdefault`, so
    a slice the table already holds returns the table's object.

    A group with a guess at its own ')' guesses its children's slices: the
    right child is the last ')'-group or token before that ')', and the
    left child ends just before it. A guessed slice that starts at the
    token the read has reached is looked up, and a held one is taken from
    the table without being read. Every key is the exact slice of a term
    that was read or a whole text that parsed, so such a slice is the text
    of a term, and reading it would stop at its end and return the table's
    object: a wrong guess costs one lookup and changes no term, error or
    table entry. On a well-formed text every guess is right. A subterm
    taken from the table does not count toward the recursion limit.
    """

    __slots__ = ("text", "table", "opener", "end")

    def __init__(self, text: str, table: dict):
        self.text = text
        self.table = table
        self.opener: dict[int, int] = {}

    def token(self, at: int) -> re.Match:
        """The first token at or after `at`."""
        m = _TOKEN.search(self.text, at)
        if m is None:
            raise ParseError("unexpected end of input", len(self.text))
        return m

    def term(self, at: int, close: int) -> Term:
        """The term whose first token is the first at or after `at`; sets
        `end` to the end of its last token. `close` is the index of a ')'
        guessed to close it, or -1."""
        text = self.text
        table = self.table
        head = _HEAD.match(text, at)
        if head is not None:
            p = head.group(1)
            if p is not None:
                p = _parse_fraction(p, head.start(1))
            a = head.end()  # the left child's first character
        else:
            m = self.token(at)
            tok = m.group()
            if tok != "(":
                if tok == ")":
                    raise ParseError("unexpected ')'", m.start())
                self.end = m.end()
                return table.setdefault(tok, Gen(tok))
            at = m.start()
            m = self.token(m.end())
            tok = m.group()
            if tok == "oplus":
                p = None
            elif tok == "p+":
                m = self.token(m.end())
                p = _parse_fraction(m.group(), m.start())
            else:
                raise ParseError(f"expected 'oplus' or 'p+', got {tok!r}", m.start())
            a = self.token(m.end()).start()
        b = b_end = -1
        if close > a:
            b_end = close
            while text[b_end - 1].isspace():
                b_end -= 1
            if text[b_end - 1] == ")":
                b = self.open_of(b_end - 1, a)
            else:
                b = b_end - 1
                while b > a and text[b - 1] not in "()" and not text[b - 1].isspace():
                    b -= 1
        if b > a:  # the children are guessed to be text[a:a_end] and text[b:b_end]
            a_end = b
            while text[a_end - 1].isspace():
                a_end -= 1
            left = table.get(text[a:a_end])
            if left is None:
                left = self.term(a, a_end - 1 if text[a_end - 1] == ")" else -1)
                end = self.end
            else:
                end = a_end
            if end == a_end:  # the read has reached b
                right = table.get(text[b:b_end])
                if right is None:
                    right = self.term(b, b_end - 1 if text[b_end - 1] == ")" else -1)
                    end = self.end
                else:
                    end = b_end
            else:
                right = self.term(end, -1)
                end = self.end
        else:
            left = self.term(a, -1)
            right = self.term(self.end, -1)
            end = self.end
        if end != b_end:  # else the guessed ')' is the next token
            m = self.token(end)
            if m.group() != ")":
                raise ParseError(f"expected ')', got {m.group()!r}", m.start())
            close = m.start()
        self.end = close + 1
        term = Oplus(left, right) if p is None else PlusP(p, left, right)
        return table.setdefault(text[at : close + 1], term)

    def open_of(self, close: int, lo: int) -> int:
        """The index of the '(' that closes at `close`, or -1 if none does
        at or after `lo`. The backward scan records the '(' of each ')' it
        closes, so no paren is scanned twice."""
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
    The text is read left to right, and a subterm whose text the table
    holds is taken from it without being read (see `_Reader`), whatever
    the spacing. Raises ParseError or BadProbability on malformed input,
    and TooDeep on a term whose read nests deeper than the recursion
    limit; a subterm the table holds does not count toward it.
    """
    if table is None:
        table = {}
    else:
        term = table.get(text)
        if term is not None:
            return term
    end = len(text.rstrip())
    reader = _Reader(text, table)
    term = guard_depth(reader.term, 0, end - 1 if text[end - 1 : end] == ")" else -1)
    if reader.end != end:
        m = reader.token(reader.end)
        raise ParseError(f"trailing input {m.group()!r}", m.start())
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
