"""Reference oracle for `hkconvex.syntax.parse_term`.

This is the token parser that `parse_term` ran before it read texts left
to right and took held subterms from the table: it tokenizes the whole
text and reads every token, entering each generator and each
parenthesised subterm in the table under its exact source slice. It is
kept verbatim below this docstring. The tests require the same term, or
the same exception type, message and offset, and the same table, on
every text. They differ only where a subterm the table holds is nested
deeper than the recursion limit: this parser counts it toward the limit
and `parse_term` does not read it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from hkconvex.core import LABEL_TOKEN, parse_rational
from hkconvex.errors import ParseError, guard_depth
from hkconvex.syntax import Gen, Oplus, PlusP, Term


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


def parse_term(text: str, table: dict[str, Term] | None = None) -> Term:
    """The token parser's `parse_term`: the whole text is read token by
    token, whatever the table holds."""
    if table is None:
        table = {}
    else:
        term = table.get(text)
        if term is not None:
            return term
    parser = _Parser(text, table)
    term = guard_depth(parser.term)
    if parser.pos < len(parser.tokens):
        raise ParseError(
            f"trailing input {parser.tokens[parser.pos]!r}", parser.starts[parser.pos]
        )
    table[text] = term
    return term
