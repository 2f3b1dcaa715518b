"""The cone of a chain morphism and its reduction.

For a chain morphism ``alpha: CC -> CC'`` the cone has degree-``i`` module
``M(i) (+) M'(i+1)`` and twisted differential

    d''(i)(x, x') = (-d(i)(x), d'(i+1)(x') + alpha(i+1)(x)).

Given reductions of both complexes and a morphism ``alpha`` between their
tops, the cone of ``alpha`` reduces onto the cone of the induced bottom
morphism ``alpha' = f' . alpha . g``; the degree bookkeeping of the three
reduction morphisms is fixed here so that every composite is built over
matching module descriptions, and a mismatch raises when the degree
component is constructed, not when it is first applied to an element.

``cone_effective_homology`` is ``effective_homology`` of that reduction.
``cone_contraction`` is ``perturb_homotopy`` of the contraction (u, v) -> (v, 0)
of the cone of f . g = id through the cone reduction of a reduction's own f.
"""

from __future__ import annotations

from .complexes import ChainComplex, ChainMorphism, identity_chain_morphism
from .errors import ShapeMismatchError
from .modules import DirectSum
from .morphisms import pair, proj1, proj2, zero_map
from .reduction import (
    EffectiveHomology,
    HomotopyOperator,
    Reduction,
    effective_homology,
    perturb_homotopy,
    zero_homotopy,
)


def cone(alpha: ChainMorphism) -> ChainComplex:
    """The mapping cone of ``alpha``."""
    src, tgt = alpha.source, alpha.target

    def module_at(i):
        return DirectSum(src.module_at(i), tgt.module_at(i + 1))

    def diff(i):
        domain = module_at(i + 1)
        p1, p2 = proj1(domain), proj2(domain)
        first = -(src.diff_at(i) * p1)
        second = tgt.diff_at(i + 1) * p2 + alpha.at(i + 1) * p1
        return pair(first, second)

    return ChainComplex(
        module_at,
        diff,
        declared_finite_type=src.declared_finite_type and tgt.declared_finite_type,
    )


def bottom_morphism(
    r1: Reduction, r2: Reduction, alpha: ChainMorphism
) -> ChainMorphism:
    """The induced morphism between the bottoms: f' . alpha . g, degreewise."""
    if alpha.source is not r1.top or alpha.target is not r2.top:
        raise ShapeMismatchError("alpha must run from r1.top to r2.top")
    return ChainMorphism(
        r1.bottom,
        r2.bottom,
        lambda i: r2.f.at(i) * alpha.at(i) * r1.g.at(i),
    )


def cone_reduction(r1: Reduction, r2: Reduction, alpha: ChainMorphism) -> Reduction:
    """Reduce the cone of ``alpha`` onto the cone of the induced bottom map."""
    top = cone(alpha)
    bottom = cone(bottom_morphism(r1, r2, alpha))

    def f_at(i):
        domain = top.module_at(i)
        p1, p2 = proj1(domain), proj2(domain)
        first = r1.f.at(i) * p1
        via_h = r2.f.at(i + 1) * alpha.at(i + 1) * r1.h.at(i) * p1
        second = via_h + r2.f.at(i + 1) * p2
        return pair(first, second)

    def g_at(i):
        domain = bottom.module_at(i)
        p1, p2 = proj1(domain), proj2(domain)
        lift = r1.g.at(i) * p1
        via_h = -(r2.h.at(i) * alpha.at(i) * lift)
        second = via_h + r2.g.at(i + 1) * p2
        return pair(lift, second)

    def h_at(i):
        domain = top.module_at(i)
        p1, p2 = proj1(domain), proj2(domain)
        lift = r1.h.at(i) * p1
        first = -lift
        second = r2.h.at(i + 1) * alpha.at(i + 1) * lift + r2.h.at(i + 1) * p2
        return pair(first, second)

    return Reduction(
        top,
        bottom,
        ChainMorphism(top, bottom, f_at),
        ChainMorphism(bottom, top, g_at),
        HomotopyOperator(top, h_at),
    )


def cone_effective_homology(
    eh1: EffectiveHomology, eh2: EffectiveHomology, alpha: ChainMorphism
) -> EffectiveHomology:
    """Effective homology of the cone of a morphism between the two tops."""
    return effective_homology(cone_reduction(eh1.reduction, eh2.reduction, alpha))


def cone_contraction(r: Reduction) -> HomotopyOperator:
    """Contracting homotopy on the cone of ``r.f``.

    k(i)(x, y) = (g(i+1)(y) - h(i)(x), 0), raising cone degree i to i+1.
    """
    b, one = r.bottom, identity_chain_morphism(r.bottom)
    onto = cone_reduction(r, Reduction(b, b, one, one, zero_homotopy(b)), r.f)
    over = onto.bottom

    def swap_at(i):
        domain = over.module_at(i)
        return pair(proj2(domain), zero_map(domain, b.module_at(i + 2)))

    return perturb_homotopy(onto, HomotopyOperator(over, swap_at))
