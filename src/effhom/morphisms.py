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

A map built here with a direct sum at one end keeps its block matrix, a
*grid*: a row per leaf of the target (see ``effhom.modules``), an entry per
leaf of the source, each a map between the two leaves or None for zero.
``*``, ``+`` and ``-`` combine grids when built, folding entry by entry; a
grid of Nones is a zero map.  ``pair`` stacks two grids, and ``_lower``
lays out the blocks of ``direct_sum_map`` and ``effhom.cone``.  An identity
on a sum takes, on first use, the grid of ``direct_sum_map`` of its sides'
identities; a projection pads its side's, an injection is a ``pair``, and
nothing caches a grid.  A grid's action is compiled on its first call, as
most grids built are never applied, and keeps what it compiled in its own
closure: the map never refers to itself, so ``del`` frees it.  It reads the
source leaves, skips a zero one (M(0) = 0), sums each row and joins the
rows.  A map that checks its own images has no grid, nor has a caller's map
on a sum; composites with either, ``_lower``'s too, keep closures.

Every morphism is linear: M(sum of c*x) = sum of c*M(x) for integers c
and elements x.  The constructors here build linear maps from linear
parts, and a ``ModMorphism`` built directly must have a linear action too.
The law engine relies on this contract: it decides a sampled law on the
basis elements the sampler draws from (see ``effhom.laws``).

A map built here may also have a *period* p: it commutes with the shift S
that sends x_n to x_{n+p} on every countable leaf and fixes every finite
leaf, so its images of x0 .. x{p-1} fix those of every x_n.  ``identity``,
``zero_map`` and ``scaling`` have period 1, and a library map may be
declared with one by ``_periodic``.  ``*``, ``+``, ``-``, ``pair``,
``direct_sum_map``, ``_lower`` and a grid have the lcm of their parts'
periods, since that shift commutes with every part.  A
``from_generator_images`` map, a caller's ``ModMorphism`` and any composite
with either as a part have none.  The law engine decides an equation of two
maps with periods on one period of each countable leaf.

Equality of morphisms is deliberately not provided: over an infinite
generator family it is undecidable, so the law checkers compare morphisms
pointwise on sampled elements instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import attrgetter
from typing import Callable, ClassVar

from .errors import MembershipError, ShapeMismatchError
from .modules import Comb, DirectSum, Element, FreeModule, Pair, join, leaves


@dataclass(frozen=True, eq=False)
class ModMorphism:
    """A linear map ``source -> target`` given by a pure action."""

    source: FreeModule
    target: FreeModule
    action: Callable[[Element], Element]
    #: ``_ZERO``, ``_IDENTITY`` or ``_CHECKS``, set only by this module's
    #: constructors through ``_tagged``; a caller's morphism has none.
    _tag: ClassVar[str | None] = None
    #: The blocks of a map built here between direct sums; see ``_grid_of``.
    _grid: ClassVar[tuple | None] = None
    #: The p with M S = S M for the shift S of ``_periodic``, set only by the
    #: library's constructors; a caller's morphism has none.
    _period: ClassVar[int | None] = None
    #: ``from_generator_images``'s read g -> image of x_g, checked to be a
    #: combination: column g of the map.  No other map has one.
    _images: ClassVar[Callable[[int], Comb] | None] = None

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
        if grids := _grids((self, other), other.source, self.source, self.target):
            columns = list(zip(*grids[1]))
            return _from_grid(other.source, self.target, tuple([
                tuple([_entry([x * y for x, y in zip(r, c) if x and y]) for c in columns])
                for r in grids[0]
            ]))
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
        if grids := _grids((self, other), self.source, self.target):
            return _from_grid(self.source, self.target, tuple([
                tuple([_entry([x for x in xs if x]) for xs in zip(*rows)])
                for rows in zip(*grids)
            ]))
        a, b = self.action, other.action
        return _composite(
            ModMorphism(self.source, self.target, lambda e: a(e) + b(e)), self, other
        )

    def __neg__(self) -> "ModMorphism":
        if self._tag is _ZERO:
            return self
        if grids := _grids((self,), self.source, self.target):
            grid = tuple([tuple([x and -x for x in row]) for row in grids[0]])
            return _from_grid(self.source, self.target, grid)
        a = self.action
        return _composite(ModMorphism(self.source, self.target, lambda e: -a(e)), self)

    def __sub__(self, other: "ModMorphism") -> "ModMorphism":
        return self + (-other)


_ZERO, _IDENTITY, _CHECKS = "zero", "identity", "checks"


def _tagged(morphism: ModMorphism, tag: str) -> ModMorphism:
    object.__setattr__(morphism, "_tag", tag)
    return morphism


def _periodic(morphism: ModMorphism, period: int) -> ModMorphism:
    """``morphism``, declared to commute with the shift S of period ``period``.

    S sends x_n to x_{n+period} on every countable leaf and fixes every
    finite leaf.  Only a map that commutes with it may be declared: the
    law engine decides an equation of two such maps on x0 .. x{period-1}.
    """
    object.__setattr__(morphism, "_period", period)
    return morphism


def _composite(morphism: ModMorphism, *parts: ModMorphism) -> ModMorphism:
    """``morphism``, tagged ``_CHECKS`` when one of its parts checks its images,
    with the lcm of its parts' periods when each part has one."""
    periods = [p._period for p in parts]
    if None not in periods:
        _periodic(morphism, lcm(*periods))
    for p in parts:
        if p._tag is _CHECKS:
            return _tagged(morphism, _CHECKS)
    return morphism


def _grids(maps, *ends: FreeModule) -> list | None:
    """The grids of ``maps`` when an end is a direct sum and each map has one."""
    for end in ends:
        if isinstance(end, DirectSum):
            grids = [_grid_of(m) for m in maps]
            return None if None in grids else grids
    return None


def _grid_of(m: ModMorphism) -> tuple | None:
    """The grid of ``m`` or None; a map between leaves is its one entry."""
    if m._grid is not None or m._tag is _CHECKS:
        return m._grid
    if not isinstance(m.source, DirectSum) and not isinstance(m.target, DirectSum):
        return ((None if m._tag is _ZERO else m,),)
    if m._tag is _IDENTITY:  # an identity or a zero map on a sum: on first use
        grid = _grid_of(direct_sum_map(identity(m.source.left), identity(m.source.right)))
    elif m._tag is _ZERO:
        grid = ((None,) * len(leaves(m.source)),) * len(leaves(m.target))
    else:
        return None
    object.__setattr__(m, "_grid", grid)
    return grid


def _entry(terms: list[ModMorphism]) -> ModMorphism | None:
    """The sum of leaf maps, or None when it folds to zero."""
    total = sum(terms[1:], terms[0]) if terms else None
    return None if total is None or total._tag is _ZERO else total


def _from_grid(source: FreeModule, target: FreeModule, grid: tuple) -> ModMorphism:
    """The map with these blocks: a zero map or a leaf map when it is one."""
    if not any(map(any, grid)):
        m = zero_map(source, target)
    elif not isinstance(source, DirectSum) and not isinstance(target, DirectSum):
        return grid[0][0]
    else:
        m = ModMorphism(source, target, _compiled(source, target, grid))
        _composite(m, *[x for row in grid for x in row if x])
    object.__setattr__(m, "_grid", grid)
    return m


def _compiled(source: FreeModule, target: FreeModule, grid: tuple):
    """A grid's action: each row sums its entries' images of the nonzero leaves.

    Its reader and rows are made on its first call.
    """
    read = rows = None

    def act(e):
        nonlocal read, rows
        if rows is None:
            paths = _paths(source)
            read = attrgetter(*paths) if isinstance(source, DirectSum) else lambda e: (e,)
            rows = [
                (leaf.zero(), [(j, x.action) for j, x in enumerate(row) if x])
                for leaf, row in zip(leaves(target), grid)
            ]
        parts, images = read(e), []
        for image, row in rows:
            for j, f in row:
                if parts[j].terms:  # an entry maps 0 to 0
                    image = image + f(parts[j]) if image.terms else f(parts[j])
            images.append(image)
        return join(target, iter(images))

    return act


def _paths(desc: FreeModule, path: str = "") -> list[str]:
    """The attribute path of each leaf of a direct sum, such as ``left.right``."""
    if not isinstance(desc, DirectSum):
        return [path.lstrip(".")]
    return _paths(desc.left, path + ".left") + _paths(desc.right, path + ".right")


def identity(desc: FreeModule) -> ModMorphism:
    return _tagged(_periodic(ModMorphism(desc, desc, lambda e: e), 1), _IDENTITY)


def zero_map(source: FreeModule, target: FreeModule) -> ModMorphism:
    zero = target.zero()  # elements are immutable, so one zero serves every call
    return _tagged(_periodic(ModMorphism(source, target, lambda e: zero), 1), _ZERO)


def scaling(desc: FreeModule, factor: int) -> ModMorphism:
    """Multiplication by a fixed integer."""
    return _periodic(ModMorphism(desc, desc, lambda e: factor * e), 1)


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

    The image of x_g is column g of the map: ``_images`` keeps the read of
    one image, checked to be a combination, for ``effhom.homology`` to read
    a finite differential's columns without applying the map.
    """
    if isinstance(source, DirectSum):
        raise ShapeMismatchError("generator images need a combination-shaped source")
    if isinstance(target, DirectSum):
        raise ShapeMismatchError("generator images need a combination-shaped target")

    def read(g: int) -> Comb:
        image = images(g)
        if not isinstance(image, Comb):
            raise MembershipError(f"image of x{g} is {image!r}, not a combination")
        return image

    def act(element: Element) -> Element:
        assert isinstance(element, Comb)
        acc: dict[int, int] = {}
        for g, c in element.terms:
            for h, v in read(g).terms:
                acc[h] = acc.get(h, 0) + c * v
        return target.require(
            Comb._canonical(tuple((h, acc[h]) for h in sorted(acc) if acc[h]))
        )

    m = _tagged(ModMorphism(source, target, act), _CHECKS)
    object.__setattr__(m, "_images", read)
    return m


def proj1(desc: DirectSum) -> ModMorphism:
    left, right = _sides(desc)
    pad = (None,) * len(leaves(right))
    return _from_grid(desc, left, tuple(row + pad for row in _grid_of(identity(left))))


def proj2(desc: DirectSum) -> ModMorphism:
    left, right = _sides(desc)
    pad = (None,) * len(leaves(left))
    return _from_grid(desc, right, tuple(pad + row for row in _grid_of(identity(right))))


def inj1(desc: DirectSum) -> ModMorphism:
    left, right = _sides(desc)
    return pair(identity(left), zero_map(left, right))


def inj2(desc: DirectSum) -> ModMorphism:
    left, right = _sides(desc)
    return pair(zero_map(right, left), identity(right))


def _sides(desc: FreeModule) -> tuple[FreeModule, FreeModule]:
    if not isinstance(desc, DirectSum):
        raise ShapeMismatchError(f"{desc} is not a direct sum")
    return desc.left, desc.right


def pair(f: ModMorphism, g: ModMorphism) -> ModMorphism:
    """The map ``e -> (f(e), g(e))`` into the direct sum of the targets."""
    if f.source != g.source:
        raise ShapeMismatchError("paired morphisms must share their source")
    target = DirectSum(f.target, g.target)
    a, b = _grid_of(f), _grid_of(g)
    if a and b:
        return _from_grid(f.source, target, a + b)
    fa, ga = f.action, g.action
    return _composite(ModMorphism(f.source, target, lambda e: Pair(fa(e), ga(e))), f, g)


def direct_sum_map(f: ModMorphism, g: ModMorphism) -> ModMorphism:
    """Componentwise action on a direct sum: ``(a, b) -> (f(a), g(b))``."""
    return _lower(f, None, g)


def _lower(a: ModMorphism, b: ModMorphism | None, c: ModMorphism) -> ModMorphism:
    """The block map (x, y) -> (a x, b x + c y) out of ``a.source (+) c.source``.

    It is the grid [[a, 0], [b, c]], None for ``b`` being the zero block, so a
    law's composite of such maps multiplies its blocks once, when built; it is
    one closure when a block has no grid.
    """
    if b is not None and (b.source != a.source or b.target != c.target):
        raise ShapeMismatchError(
            f"block {b.source} -> {b.target} is not {a.source} -> {c.target}"
        )
    source, target = DirectSum(a.source, c.source), DirectSum(a.target, c.target)
    blocks = (a, c) if b is None else (a, b, c)
    if grids := _grids(blocks, source):
        top, right = grids[0], grids[-1]
        bottom = grids[1] if b is not None else [(None,) * len(top[0])] * len(right)
        pad = (None,) * len(right[0])
        grid = tuple(row + pad for row in top) + tuple(x + y for x, y in zip(bottom, right))
        return _from_grid(source, target, grid)
    fa, fc = a.action, c.action
    if b is None:
        act = lambda e: Pair(fa(e.left), fc(e.right))
    else:
        fb = b.action
        act = lambda e: Pair(fa(e.left), fb(e.left) + fc(e.right))
    return _composite(ModMorphism(source, target, act), *blocks)
