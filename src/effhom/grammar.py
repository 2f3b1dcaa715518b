"""Textual form of elements.

    element := tuple | comb | int
    tuple   := "(" element ("," element)+ ")"
    comb    := ["-"] term (("+" | "-") term)* | "0"
    term    := [nat "*"] "x" nat

Rank-one components render as bare integers (a pair over ``Z (+) Z``
prints as ``(5, 7)``), coefficients ``1`` and ``-1`` are elided, terms are
printed in ascending generator order, and nested pairs print flat:
``((a, b), c)`` renders as ``(a, b, c)``.

Parsing is guided by the target module: the parser yields the text's
leaves as one flat list, whatever its parenthesization, and they are
matched in order against the module's leaves (``modules.leaves``), so flat
and nested spellings are both accepted as long as the leaves line up.
"""

from __future__ import annotations

import re

from .errors import MembershipError, ParseError
from .modules import (
    Comb, Element, FreeModule, Z, _comb_text, join, leaves, normalize, split
)

_TOKEN = re.compile(r"\s*(?:(?P<nat>[0-9]+)|(?P<gen>x[0-9]+)|(?P<punct>[(),+*-]))")


def format_element(element: Element, desc: FreeModule) -> str:
    """Canonical text of ``element`` as a member of ``desc``."""
    pieces = []
    for leaf, part in split(element, desc):
        leaf.require(part)
        pieces.append(str(part.coefficient(0)) if leaf == Z else _comb_text(part.terms))
    if len(pieces) == 1:
        return pieces[0]
    return "(" + ", ".join(pieces) + ")"


def parse_element(text: str, desc: FreeModule) -> Element:
    """Parse ``text`` as a member of ``desc``.

    Raises ``ParseError`` for bad syntax and ``MembershipError`` when the
    shape or the generators do not fit the module.
    """
    flat = _Parser(text).parse()
    shape = leaves(desc)
    if len(flat) != len(shape):
        raise MembershipError(
            f"element has {len(flat)} component(s) but {desc} expects {len(shape)}"
        )
    return join(desc, map(_leaf_value, shape, flat))


def _leaf_value(leaf: FreeModule, node) -> Comb:
    kind, payload = node
    if kind == "int":
        if payload == 0:
            return Comb(())
        if leaf != Z:
            raise MembershipError(
                f"a bare integer denotes a rank-one combination, not a member of {leaf}"
            )
        return normalize([(payload, 0)], leaf)
    return normalize(payload, leaf)


class _Parser:
    """Parser producing the flat list of leaf nodes.

    A leaf node is ``("comb", terms)`` with terms a list of
    ``(coefficient, generator)`` pairs, or ``("int", value)``; tuples only
    group leaves and leave no node of their own.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                rest = text[pos:].strip()
                if rest.startswith("x"):  # an x with no ASCII digit after it
                    raise ParseError("a generator needs an ASCII index after 'x'")
                if rest:
                    raise ParseError(f"unexpected character {rest[0]!r}")
                break
            if m.group("nat") is not None:
                tokens.append(("nat", int(m.group("nat"))))
            elif m.group("gen") is not None:
                tokens.append(("gen", int(m.group("gen")[1:])))
            else:
                tokens.append((m.group("punct"), None))
            pos = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of element text")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        out: list = []
        self._element(out)
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input in element text {self.text!r}")
        return out

    def _element(self, out):
        # iterative, so nesting depth is bounded by memory, not the stack
        open_tuples = []  # components read so far, one count per open "("
        while True:
            while self._peek() == "(":
                self._next()
                open_tuples.append(0)
            out.append(self._comb_or_int())
            while open_tuples:  # a component just ended: its tuple goes on or closes
                open_tuples[-1] += 1
                if self._peek() == ",":
                    self._next()
                    break
                kind, _ = self._next()
                if kind != ")":
                    raise ParseError("expected ')' in element text")
                if open_tuples.pop() < 2:
                    raise ParseError("a tuple needs at least two components")
            else:
                return

    def _comb_or_int(self):
        sign = 1
        if self._peek() == "-":
            self._next()
            sign = -1
        kind, value = self._next()
        if kind == "nat":
            if self._peek() == "*":
                self._next()
                terms = [(sign * value, self._generator())]
            else:
                if self._peek() in ("+", "-"):
                    raise ParseError("a bare integer cannot start a combination")
                return ("int", sign * value)
        elif kind == "gen":
            terms = [(sign, value)]
        else:
            raise ParseError("expected a term or an integer")
        while self._peek() in ("+", "-"):
            term_sign = 1 if self._next()[0] == "+" else -1
            kind, value = self._next()
            if kind == "nat":
                kind2, _ = self._next()
                if kind2 != "*":
                    raise ParseError("a combination term needs an 'x' generator")
                terms.append((term_sign * value, self._generator()))
            elif kind == "gen":
                terms.append((term_sign, value))
            else:
                raise ParseError("expected a term after '+'/'-'")
        return ("comb", terms)

    def _generator(self):
        kind, value = self._next()
        if kind != "gen":
            raise ParseError("expected a generator after '*'")
        return value
