"""Textual form of elements.

    element := tuple | comb | int
    tuple   := "(" element ("," element)+ ")"
    comb    := ["-"] term (("+" | "-") term)* | "0"
    term    := [nat "*"] "x" nat

Rank-one components render as bare integers (a pair over ``Z (+) Z``
prints as ``(5, 7)``), coefficients ``1`` and ``-1`` are elided, terms are
printed in ascending generator order, and nested pairs print flat:
``((a, b), c)`` renders as ``(a, b, c)``.

Parsing is guided by the target module: the text's tokens are read in one
pass into its leaves, one flat list whatever its parenthesization, and they
are matched in order against the module's leaves (``modules.leaves``), so flat
and nested spellings are both accepted as long as the leaves line up.  One
term reader reads every term of a combination; only the first may be a
bare integer.  Integers have no size limit here: a conversion past the
interpreter's int <-> str digit limit is done again with the limit lifted,
and the limit is restored.
"""

from __future__ import annotations

import re
import sys

from .errors import MembershipError, ParseError
from .modules import (
    Comb, Element, FreeModule, Z, _comb_text, join, leaves, normalize, split
)

_TOKEN = re.compile(r"\s*(?:(?P<nat>[0-9]+)|(?P<gen>x[0-9]+)|(?P<punct>[(),+*-]))")
_END = "unexpected end of element text"


def format_element(element: Element, desc: FreeModule) -> str:
    """Canonical text of ``element`` as a member of ``desc``.

    Integers of any size are written out; the ``repr`` of such an element
    still follows the interpreter's digit limit.
    """
    pieces = []
    try:
        for leaf, part in split(element, desc):
            leaf.require(part)
            pieces.append(str(part.coefficient(0)) if leaf == Z else _comb_text(part.terms))
    except ValueError:  # an integer past the int <-> str digit limit
        return _unlimited(format_element, element, desc)
    if len(pieces) == 1:
        return pieces[0]
    return "(" + ", ".join(pieces) + ")"


def parse_element(text: str, desc: FreeModule) -> Element:
    """Parse ``text`` as a member of ``desc``.

    Raises ``ParseError`` for bad syntax and ``MembershipError`` when the
    shape or the generators do not fit the module.
    """
    try:
        flat = _leaf_nodes(text)
        shape = leaves(desc)
        if len(flat) != len(shape):
            raise MembershipError(
                f"element has {len(flat)} component(s) but {desc} expects {len(shape)}"
            )
        return join(desc, map(_leaf_value, shape, flat))
    except ValueError:  # an integer past the int <-> str digit limit
        return _unlimited(parse_element, text, desc)


def _unlimited(convert, *args):
    """``convert(*args)`` with the int <-> str digit limit lifted, then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(*args)
    finally:
        sys.set_int_max_str_digits(limit)


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


def _leaf_nodes(text: str) -> list:
    """The leaf nodes of ``text`` in order, read in one pass.

    A leaf node is ``("comb", terms)`` with terms a list of
    ``(coefficient, generator)`` pairs, or ``("int", value)``; tuples only
    group leaves and leave no node of their own.  A bad character is found
    before bad syntax, as the whole text is tokenized first.
    """
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if rest.startswith("x"):  # an x with no ASCII digit after it
                raise ParseError("a generator needs an ASCII index after 'x'")
            raise ParseError(f"unexpected character {rest[0]!r}")
        kind, token = m.lastgroup, m[m.lastgroup]
        tokens.append((token, None) if kind == "punct" else (kind, int(token.lstrip("x"))))
        pos = m.end()
    tokens.append((None, None))  # the end of the text

    out: list = []
    # iterative, so nesting depth is bounded by memory, not the stack
    open_tuples = []  # components read so far, one count per open "("
    i = 0
    while True:
        while tokens[i][0] == "(":
            open_tuples.append(0)
            i += 1
        terms = []
        while True:  # one term a round; only the first may be a bare integer
            sign = -1 if tokens[i][0] == "-" else 1
            if terms or sign == -1:  # a later term always starts with its sign
                i += 1
            kind, value = tokens[i]
            coefficient = sign
            if kind == "nat" and tokens[i + 1][0] == "*":
                coefficient *= value
                i += 2
                kind, value = tokens[i]
                if kind != "gen":
                    raise ParseError(_END if kind is None else "expected a generator after '*'")
            if kind == "gen":
                terms.append((coefficient, value))
                i += 1
            elif kind == "nat":
                after = tokens[i + 1][0]
                if terms:
                    raise ParseError(
                        _END if after is None else "a combination term needs an 'x' generator"
                    )
                if after in ("+", "-"):
                    raise ParseError("a bare integer cannot start a combination")
                out.append(("int", sign * value))
                i += 1
                break
            elif terms:
                raise ParseError(_END if kind is None else "expected a term after '+'/'-'")
            else:
                raise ParseError(_END if kind is None else "expected a term or an integer")
            if tokens[i][0] not in ("+", "-"):
                out.append(("comb", terms))
                break
        while open_tuples:  # a component just ended: its tuple goes on or closes
            open_tuples[-1] += 1
            kind = tokens[i][0]
            i += 1
            if kind == ",":
                break
            if kind != ")":
                raise ParseError(_END if kind is None else "expected ')' in element text")
            if open_tuples.pop() < 2:
                raise ParseError("a tuple needs at least two components")
        else:
            if tokens[i][0] is not None:
                raise ParseError(f"trailing input in element text {text!r}")
            return out
