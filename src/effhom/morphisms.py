"""Linear maps between free modules.

A morphism packages a source and a target description with a pure action
on elements.  Calling a morphism validates membership on both ends of that
outer call.  Composites (``g * f``, ``f + g``, ``-f``, ``pair`` and
``direct_sum_map``) check the descriptions when they are built and then
run the inner actions directly, so an element is validated once per
application, not once per layer.  The one leaf whose images come from a
user callable, ``from_generator_images``, checks its own result against its
target, so a bad generator image still surfaces as a ``MembershipError``
at application time, also from inside a composite.  Composition is written
``g * f`` (first apply ``f``), addition ``f + g`` and negation ``-f``.

The units of this algebra are folded out of a composite when it is built,
after its shapes are checked, so an application never runs a branch whose
value is known.  ``zero_map`` and ``identity`` mark what they return; with
``z`` such a zero map and ``1`` such an identity:

- ``1 * f`` and ``f * 1`` are ``f``;
- ``z + f`` and ``f + z`` are ``f``, and ``-z`` is ``z``;
- ``f * z`` is ``zero_map(z.source, f.target)``: f(0) = 0 by linearity;
- ``z * g`` is ``zero_map(g.source, z.target)``, unless ``g`` checks its
  own images: a ``from_generator_images`` map, or any composite with one
  as a part, still runs, so a bad generator image still raises.

A ``ModMorphism`` built directly is never a zero or an identity, whatever
its action, but it folds away beside a zero factor like any other map.

>>> from effhom.modules import Z, COUNTABLE, generator
>>> def loud(e):
...     raise RuntimeError("never run")
>>> (zero_map(Z, Z) * ModMorphism(Z, Z, loud))(generator(0))
0
>>> (ModMorphism(Z, Z, loud) * zero_map(Z, Z))(generator(0))
0
>>> bad = from_generator_images(COUNTABLE, Z, generator)
>>> (zero_map(Z, Z) * bad)(generator(3))
Traceback (most recent call last):
    ...
effhom.errors.MembershipError: x3 is not a member of Z

Every morphism is linear: M(sum of c*x) = sum of c*M(x) for integers c
and elements x.  The constructors here build linear maps from linear
parts, and a ``ModMorphism`` built directly must have a linear action too.
The law engine relies on this contract: it decides a sampled law on the
basis elements the sampler draws from (see ``effhom.laws``).

Equality of morphisms is deliberately not provided: over an infinite
generator family it is undecidable, so the law checkers compare morphisms
pointwise on sampled elements instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from .errors import MembershipError, ShapeMismatchError
from .modules import Comb, DirectSum, Element, FreeModule, Pair


@dataclass(frozen=True, eq=False)
class ModMorphism:
    """A linear map ``source -> target`` given by a pure action."""

    source: FreeModule
    target: FreeModule
    action: Callable[[Element], Element]
    #: ``_ZERO``, ``_IDENTITY`` or ``_CHECKS``, set only by this module's
    #: constructors through ``_tagged``; a caller's morphism has none.
    _tag: ClassVar[str | None] = None

    def __call__(self, element: Element) -> Element:
        self.source.require(element)
        image = self.action(element)
        self.target.require(image)
        return image

    def __mul__(self, other: "ModMorphism") -> "ModMorphism":
        if not isinstance(other, ModMorphism):
            return NotImplemented
        if other.target != self.source:
            raise ShapeMismatchError(
                f"cannot compose: inner target {other.target} != outer source {self.source}"
            )
        if self._tag is _IDENTITY:
            return other
        if other._tag is _IDENTITY:
            return self
        if other._tag is _ZERO or (self._tag is _ZERO and other._tag is not _CHECKS):
            return zero_map(other.source, self.target)
        outer, inner = self.action, other.action
        composite = ModMorphism(other.source, self.target, lambda e: outer(inner(e)))
        return _composite(composite, self, other)

    def __add__(self, other: "ModMorphism") -> "ModMorphism":
        if not isinstance(other, ModMorphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatchError("cannot add morphisms with different shapes")
        if self._tag is _ZERO:
            return other
        if other._tag is _ZERO:
            return self
        a, b = self.action, other.action
        return _composite(
            ModMorphism(self.source, self.target, lambda e: a(e) + b(e)), self, other
        )

    def __neg__(self) -> "ModMorphism":
        if self._tag is _ZERO:
            return self
        a = self.action
        return _composite(ModMorphism(self.source, self.target, lambda e: -a(e)), self)

    def __sub__(self, other: "ModMorphism") -> "ModMorphism":
        return self + (-other)


_ZERO, _IDENTITY, _CHECKS = "zero", "identity", "checks"


def _tagged(morphism: ModMorphism, tag: str) -> ModMorphism:
    object.__setattr__(morphism, "_tag", tag)
    return morphism


def _composite(morphism: ModMorphism, *parts: ModMorphism) -> ModMorphism:
    """``morphism``, tagged ``_CHECKS`` when one of its parts checks its images."""
    for p in parts:
        if p._tag is _CHECKS:
            return _tagged(morphism, _CHECKS)
    return morphism


def identity(desc: FreeModule) -> ModMorphism:
    return _tagged(ModMorphism(desc, desc, lambda e: e), _IDENTITY)


def zero_map(source: FreeModule, target: FreeModule) -> ModMorphism:
    zero = target.zero()  # elements are immutable, so one zero serves every call
    return _tagged(ModMorphism(source, target, lambda e: zero), _ZERO)


def scaling(desc: FreeModule, factor: int) -> ModMorphism:
    """Multiplication by a fixed integer."""
    return ModMorphism(desc, desc, lambda e: factor * e)


def from_generator_images(
    source: FreeModule,
    target: FreeModule,
    images: Callable[[int], Element],
) -> ModMorphism:
    """The linear extension of a map defined on generators.

    ``source`` and ``target`` must be combination-shaped.  The image of a
    combination is the coefficient-weighted sum of the generator images,
    accumulated in one dict and canonicalized once, so an application costs
    time linear in the image terms it touches.  The result is checked
    against ``target``, so a bad image raises ``MembershipError`` even when
    the map sits inside a composite:

    >>> from effhom.modules import Z, COUNTABLE, generator
    >>> bad = from_generator_images(COUNTABLE, Z, generator)
    >>> (scaling(Z, 2) * bad)(generator(0))
    2*x0
    >>> (scaling(Z, 2) * bad)(generator(3))
    Traceback (most recent call last):
        ...
    effhom.errors.MembershipError: x3 is not a member of Z
    """
    if isinstance(source, DirectSum):
        raise ShapeMismatchError("generator images need a combination-shaped source")
    if isinstance(target, DirectSum):
        raise ShapeMismatchError("generator images need a combination-shaped target")

    def act(element: Element) -> Element:
        assert isinstance(element, Comb)
        acc: dict[int, int] = {}
        for g, c in element.terms:
            image = images(g)
            if not isinstance(image, Comb):
                raise MembershipError(f"image of x{g} is {image!r}, not a combination")
            for h, v in image.terms:
                acc[h] = acc.get(h, 0) + c * v
        return target.require(
            Comb._canonical(tuple((h, acc[h]) for h in sorted(acc) if acc[h]))
        )

    return _tagged(ModMorphism(source, target, act), _CHECKS)


def proj1(desc: DirectSum) -> ModMorphism:
    _require_sum(desc)
    return ModMorphism(desc, desc.left, lambda e: e.left)


def proj2(desc: DirectSum) -> ModMorphism:
    _require_sum(desc)
    return ModMorphism(desc, desc.right, lambda e: e.right)


def inj1(desc: DirectSum) -> ModMorphism:
    _require_sum(desc)
    return ModMorphism(desc.left, desc, lambda e: Pair(e, desc.right.zero()))


def inj2(desc: DirectSum) -> ModMorphism:
    _require_sum(desc)
    return ModMorphism(desc.right, desc, lambda e: Pair(desc.left.zero(), e))


def pair(f: ModMorphism, g: ModMorphism) -> ModMorphism:
    """The map ``e -> (f(e), g(e))`` into the direct sum of the targets."""
    if f.source != g.source:
        raise ShapeMismatchError("paired morphisms must share their source")
    target = DirectSum(f.target, g.target)
    fa, ga = f.action, g.action
    return _composite(ModMorphism(f.source, target, lambda e: Pair(fa(e), ga(e))), f, g)


def direct_sum_map(f: ModMorphism, g: ModMorphism) -> ModMorphism:
    """Componentwise action on a direct sum: ``(a, b) -> (f(a), g(b))``."""
    source = DirectSum(f.source, g.source)
    target = DirectSum(f.target, g.target)
    fa, ga = f.action, g.action
    return _composite(
        ModMorphism(source, target, lambda e: Pair(fa(e.left), ga(e.right))), f, g
    )


def _require_sum(desc: FreeModule) -> None:
    if not isinstance(desc, DirectSum):
        raise ShapeMismatchError(f"{desc} is not a direct sum")
