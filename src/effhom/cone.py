"""The cone of a chain morphism and its reduction.

For a chain morphism ``alpha: CC -> CC'`` the cone has degree-``i`` module
``M(i) (+) M'(i+1)``.  Its differential and the three maps of its reduction
are each one lower-triangular block (x, y) -> (a x, b x + c y), written
[[a, 0], [b, c]] and built by ``effhom.morphisms._lower(a, b, c)``:

    d''(i) = [[-d(i), 0], [alpha(i+1), d'(i+1)]]

Given reductions (f1, g1, h1) of CC and (f2, g2, h2) of CC', the cone of
``alpha`` reduces onto the cone of the induced bottom morphism
``f2 . alpha . g1``.  That is the basic perturbation lemma for the direct
sum (f0, g0, h0) = (f1 (+) f2, g1 (+) g2, (-h1) (+) h2) perturbed by
delta = [[0, 0], [alpha, 0]].  As delta h0 delta = 0, its series stops after
one term: f = f0 - f0 delta h0, g = g0 - h0 delta g0, h = h0 - h0 delta h0,
and the bottom differential is d0' + f0 delta g0.  The b-entries are these
cross terms, at degree i:

    f(i) = [[f1(i), 0], [f2(i+1) . alpha(i+1) . h1(i), f2(i+1)]]
    g(i) = [[g1(i), 0], [-h2(i) . alpha(i) . g1(i), g2(i+1)]]
    h(i) = [[-h1(i), 0], [h2(i+1) . alpha(i+1) . h1(i), h2(i+1)]]

Every block is built over matching module descriptions, so a degree
mismatch raises when a component is constructed, not when it is applied.

``cone_effective_homology`` is ``effective_homology`` of that reduction.
``cone_contraction`` is ``perturb_homotopy`` of the contraction (u, v) -> (v, 0)
of the cone of f . g = id through the cone reduction of a reduction's own f.
"""

from __future__ import annotations

from .complexes import ChainComplex, ChainMorphism, identity_chain_morphism
from .errors import ShapeMismatchError
from .modules import DirectSum
from .morphisms import _lower, pair, proj2, zero_map
from .reduction import (
    EffectiveHomology,
    HomotopyOperator,
    Reduction,
    effective_homology,
    perturb_homotopy,
    zero_homotopy,
)


def cone(alpha: ChainMorphism) -> ChainComplex:
    """The mapping cone of ``alpha``, built once and kept on ``alpha`` itself."""
    if (c := getattr(alpha, "_cone", None)) is None:
        src, tgt = alpha.source, alpha.target
        c = ChainComplex(
            lambda i: DirectSum(src.module_at(i), tgt.module_at(i + 1)),
            lambda i: _lower(-src.diff_at(i), alpha.at(i + 1), tgt.diff_at(i + 1)),
            declared_finite_type=src.declared_finite_type and tgt.declared_finite_type,
        )
        object.__setattr__(alpha, "_cone", c)
    return c


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
    top, bottom = cone(alpha), cone(bottom_morphism(r1, r2, alpha))

    def f_at(i):
        f2 = r2.f.at(i + 1)
        return _lower(r1.f.at(i), f2 * alpha.at(i + 1) * r1.h.at(i), f2)

    def g_at(i):
        g1 = r1.g.at(i)
        return _lower(g1, -(r2.h.at(i) * alpha.at(i) * g1), r2.g.at(i + 1))

    def h_at(i):
        h1, h2 = r1.h.at(i), r2.h.at(i + 1)
        return _lower(-h1, h2 * alpha.at(i + 1) * h1, h2)

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
    return perturb_homotopy(onto, _swap(onto.bottom))


def _swap(over: ChainComplex) -> HomotopyOperator:
    """(a, b) -> (b, 0) on a cone whose two sides have the same modules."""

    def at(i):
        domain = over.module_at(i)
        return pair(proj2(domain), zero_map(domain, over.module_at(i + 1).right))

    return HomotopyOperator(over, at)
