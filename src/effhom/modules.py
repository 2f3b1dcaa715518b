"""Free modules over the integers and their canonical elements.

A module is described structurally: ``FiniteFree(k)`` is free on the
generators ``x0 .. x{k-1}`` (rank zero doubles as the zero module),
``CountableFree()`` is free on the infinite generator family ``x0, x1, ...``
and ``DirectSum(left, right)`` glues two descriptions side by side.

Elements are kept canonical at all times: a combination stores
``(generator, coefficient)`` pairs with strictly increasing generator
indices and no zero coefficient, and a direct-sum element is a ``Pair`` of
members of the two sides.  Equality of elements is therefore plain
structural equality, and coefficients are Python integers, so arithmetic
is exact at every size.  As generators rise strictly from x0 up, the first
and last terms bound the others: ``FiniteFree.contains`` reads only those.

The public ``Comb(...)`` constructor checks the canonical form.  Results
the library builds itself (sums, negatives, multiples, ``normalize``,
sampled elements and generator-image applications) are canonical by
construction, so they skip that check.

A member of a direct sum is one combination per *leaf* (combination-shaped
summand), left to right: ``(Z (+) Z[N]) (+) Z`` has leaves Z, Z[N], Z.
``leaves``, ``split`` and ``join`` are the one walk of that shape, and
``basis`` builds the basis elements x0 .. x{n-1} of each leaf on it.

>>> e = normalize([(7, 4), (8, 0)], COUNTABLE)
>>> e
8*x0+7*x4
>>> e + (-e)
0
>>> -2 * normalize([(5, 3)], COUNTABLE)
-10*x3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MembershipError


class FreeModule:
    """Structural description of a free module of integer combinations."""

    __slots__ = ()

    def is_finite_type(self) -> bool:
        raise NotImplementedError

    def zero(self) -> "Element":
        raise NotImplementedError

    def contains(self, element: "Element") -> bool:
        raise NotImplementedError

    def require(self, element: "Element") -> "Element":
        if not self.contains(element):
            raise MembershipError(f"{element!r} is not a member of {self}")
        return element


@dataclass(frozen=True, slots=True)
class FiniteFree(FreeModule):
    """Free module of finite rank; ``FiniteFree(0)`` is the zero module."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be a natural number")

    def is_finite_type(self) -> bool:
        return True

    def zero(self) -> "Element":
        return Comb(())

    def contains(self, element) -> bool:
        if not isinstance(element, Comb):
            return False
        terms = element.terms
        return not terms or (terms[0][0] >= 0 and terms[-1][0] < self.rank)

    def __str__(self):
        if self.rank == 0:
            return "0"
        if self.rank == 1:
            return "Z"
        return f"Z^{self.rank}"


@dataclass(frozen=True, slots=True)
class CountableFree(FreeModule):
    """Free module on countably many generators x0, x1, ..."""

    def is_finite_type(self) -> bool:
        return False

    def zero(self) -> "Element":
        return Comb(())

    def contains(self, element) -> bool:
        return isinstance(element, Comb)

    def __str__(self):
        return "Z[N]"


@dataclass(frozen=True, slots=True)
class DirectSum(FreeModule):
    """Direct sum of two module descriptions; elements are pairs."""

    left: FreeModule
    right: FreeModule

    def is_finite_type(self) -> bool:
        return self.left.is_finite_type() and self.right.is_finite_type()

    def zero(self) -> "Element":
        return Pair(self.left.zero(), self.right.zero())

    def contains(self, element) -> bool:
        return (
            isinstance(element, Pair)
            and self.left.contains(element.left)
            and self.right.contains(element.right)
        )

    def __str__(self):
        return f"({self.left} (+) {self.right})"


#: The zero module (same description as ``FiniteFree(0)``).
ZERO = FiniteFree(0)
#: Rank-one free module, i.e. the integers.
Z = FiniteFree(1)
#: The free module on all natural-number generators.
COUNTABLE = CountableFree()


def _comb_text(terms) -> str:
    if not terms:
        return "0"
    parts = []
    for g, c in terms:
        body = f"x{g}" if abs(c) == 1 else f"{abs(c)}*x{g}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


class Element:
    """Canonical value of a free module."""

    __slots__ = ()

    def is_zero(self) -> bool:
        raise NotImplementedError

    def __neg__(self) -> "Element":
        raise NotImplementedError

    def __add__(self, other) -> "Element":
        raise NotImplementedError

    def __sub__(self, other) -> "Element":
        return self + (-other)

    def __mul__(self, c) -> "Element":
        if not isinstance(c, int):
            return NotImplemented
        return self._scaled(c)

    __rmul__ = __mul__

    def _scaled(self, c: int) -> "Element":
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Comb(Element):
    """Integer combination of generators, always in canonical form."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = -1
        for g, c in self.terms:
            if g <= prev:
                raise ValueError("generator indices must be strictly increasing")
            if c == 0:
                raise ValueError("zero coefficients are not stored")
            prev = g

    @classmethod
    def _canonical(cls, terms: tuple[tuple[int, int], ...]) -> "Comb":
        """``Comb(terms)`` without the check, for terms canonical by construction."""
        comb = object.__new__(cls)
        object.__setattr__(comb, "terms", terms)
        return comb

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, generator: int) -> int:
        for g, c in self.terms:
            if g == generator:
                return c
        return 0

    def __neg__(self):
        return Comb._canonical(tuple((g, -c) for g, c in self.terms))

    def _scaled(self, c):
        if c == 0:
            return Comb._canonical(())
        return Comb._canonical(tuple((g, c * v) for g, v in self.terms))

    def __add__(self, other):
        if not isinstance(other, Comb):
            if isinstance(other, Pair):
                raise MembershipError("cannot add a combination and a pair")
            return NotImplemented
        merged = []
        a, b = self.terms, other.terms
        i = j = 0
        while i < len(a) and j < len(b):
            ga, ca = a[i]
            gb, cb = b[j]
            if ga < gb:
                merged.append((ga, ca))
                i += 1
            elif gb < ga:
                merged.append((gb, cb))
                j += 1
            else:
                if ca + cb:
                    merged.append((ga, ca + cb))
                i += 1
                j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        return Comb._canonical(tuple(merged))

    def __repr__(self):
        return _comb_text(self.terms)


@dataclass(frozen=True, slots=True)
class Pair(Element):
    """Element of a direct sum: one member per side."""

    left: Element
    right: Element

    def is_zero(self) -> bool:
        return self.left.is_zero() and self.right.is_zero()

    def __neg__(self):
        return Pair(-self.left, -self.right)

    def _scaled(self, c):
        return Pair(c * self.left, c * self.right)

    def __add__(self, other):
        if not isinstance(other, Pair):
            if isinstance(other, Comb):
                raise MembershipError("cannot add a pair and a combination")
            return NotImplemented
        return Pair(self.left + other.left, self.right + other.right)

    def __repr__(self):
        return f"({self.left!r}, {self.right!r})"


def generator(index: int) -> Comb:
    """The basis element ``x{index}`` as a combination."""
    if index < 0:
        raise MembershipError("generator indices are natural numbers")
    return Comb(((index, 1),))


def normalize(raw_terms: Iterable[tuple[int, int]], desc: FreeModule) -> Comb:
    """Canonical combination from ``(coefficient, generator)`` pairs.

    Like terms are merged, zero coefficients dropped and generators sorted
    ascending.  ``desc`` must be combination-shaped (not a direct sum) and
    every generator must be valid for it.

    >>> normalize([(2, 2), (1, 0), (5, 2)], COUNTABLE)
    x0+7*x2
    """
    if isinstance(desc, DirectSum):
        raise MembershipError("a direct sum has pair elements, not combinations")
    acc: dict[int, int] = {}
    for c, g in raw_terms:
        if g < 0 or (isinstance(desc, FiniteFree) and g >= desc.rank):
            raise MembershipError(f"generator x{g} is not valid for {desc}")
        acc[g] = acc.get(g, 0) + c
    return Comb._canonical(tuple((g, acc[g]) for g in sorted(acc) if acc[g]))


def leaves(desc: FreeModule) -> list[FreeModule]:
    """The combination-shaped summands of ``desc``, left to right."""
    if not isinstance(desc, DirectSum):
        return [desc]
    return leaves(desc.left) + leaves(desc.right)


def split(element: Element, desc: FreeModule) -> list[tuple[FreeModule, Element]]:
    """``(leaf, combination)`` pairs in leaf order; only sums are checked."""
    if not isinstance(desc, DirectSum):
        return [(desc, element)]
    if not isinstance(element, Pair):
        raise MembershipError(f"{element!r} is not a member of {desc}")
    return split(element.left, desc.left) + split(element.right, desc.right)


def join(desc: FreeModule, parts: Iterator[Element]) -> Element:
    """The member of ``desc`` whose leaf combinations ``parts`` yields in order."""
    if not isinstance(desc, DirectSum):
        return next(parts)
    return Pair(join(desc.left, parts), join(desc.right, parts))


def basis(desc: FreeModule, sizes: Iterable[int]) -> list[Element]:
    """x0 .. x{n_k - 1} of each leaf k of ``desc`` in turn, every other leaf zero.

    >>> basis(DirectSum(Z, COUNTABLE), [1, 2])
    [(x0, 0), (0, x0), (0, x1)]
    """
    shape = leaves(desc)
    parts = [leaf.zero() for leaf in shape]
    elements = []
    for k, n in enumerate(sizes):
        for g in range(n):
            parts[k] = Comb._canonical(((g, 1),))  # x_g alone is canonical
            elements.append(join(desc, iter(parts)))
        parts[k] = shape[k].zero()
    return elements
