"""The built-in catalog of complexes, reductions, and homotopies.

These are the concrete values everything else is exercised on: a rank-one
complex whose differential alternates between doubling and zero, an
infinite-type complex on countably many generators with a parity
differential and its contracting homotopy, their direct sum with its
projection reduction, and the cone of the projection together with the
homotopy operators used to probe it.

Every value is cached, so repeated lookups share one object, and the
catalog entries are addressable from the command line by the identifiers
in ``CATALOG`` and ``HOMOTOPIES``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

from .complexes import (
    ChainComplex,
    ChainMorphism,
    direct_sum_complex,
    null_complex,
)
from .cone import _swap, cone_effective_homology
from .modules import COUNTABLE, Z, Comb
from .morphisms import (
    ModMorphism,
    _periodic,
    direct_sum_map,
    identity,
    pair,
    proj1,
    scaling,
    zero_map,
)
from .reduction import (
    EffectiveHomology,
    HomotopyOperator,
    Reduction,
    _onto_null,
    effective_homology,
    perturb_homotopy,
    zero_homotopy,
)

__all__ = [
    "null_complex",
    "cc1",
    "fcc1",
    "cc2",
    "sum12",
    "hcc2",
    "idz2x0",
    "zxznat",
    "alpha_pi1",
    "cone_example",
    "cc2_to_null",
    "h1_bottom",
    "h2_bottom",
    "h_top",
    "CATALOG",
    "HOMOTOPIES",
    "resolve_complex",
    "resolve_effective_homology",
    "resolve_homotopy",
]


@cache
def cc1() -> ChainComplex:
    """Rank-one complex: doubling at even indices, zero at odd ones."""

    def diff(i):
        return scaling(Z, 2) if i % 2 == 0 else zero_map(Z, Z)

    return ChainComplex(lambda i: Z, diff)


@cache
def fcc1() -> ChainComplex:
    """Same complex as ``cc1`` but carrying the declared finite-type flag."""
    return replace(cc1(), declared_finite_type=True)


def _parity_map(i: int) -> ModMorphism:
    """On x0, x1, ...: keep the generators of the parity of ``i``, kill the rest."""
    keep = i % 2
    parity = ModMorphism(
        COUNTABLE,
        COUNTABLE,
        # a subsequence of canonical terms is canonical
        lambda e: Comb._canonical(tuple(t for t in e.terms if t[0] % 2 == keep)),
    )
    return _periodic(parity, 2)  # x_n and x_{n+2} have one parity


@cache
def cc2() -> ChainComplex:
    """Infinite-type complex on x0, x1, ...

    The differential at an even index keeps the even generators and kills
    the odd ones; at an odd index it keeps the odd generators.
    """
    return ChainComplex(lambda i: COUNTABLE, _parity_map)


@cache
def hcc2() -> HomotopyOperator:
    """Degree-raising operator on ``cc2`` with the same parity rule.

    h(i) keeps the generators whose parity matches the degree index, which
    makes it a contracting homotopy: at each degree exactly one of d.h and
    h.d is the identity on a generator and the other is zero.
    """
    return HomotopyOperator(cc2(), _parity_map)


@cache
def sum12() -> ChainComplex:
    """Direct sum of ``cc1`` and ``cc2``."""
    return direct_sum_complex(cc1(), cc2())


@cache
def idz2x0() -> EffectiveHomology:
    """Identity reduction from ``cc1`` onto its finite-type presentation."""
    top, bottom = cc1(), fcc1()
    f = ChainMorphism(top, bottom, lambda i: identity(Z))
    g = ChainMorphism(bottom, top, lambda i: identity(Z))
    return effective_homology(Reduction(top, bottom, f, g, zero_homotopy(top)))


@cache
def zxznat() -> EffectiveHomology:
    """Reduction of ``sum12`` onto ``fcc1``.

    f projects onto the first component, g injects it back, and the
    homotopy is zero on the first component and ``hcc2`` on the second.
    No law is sampled here; ``check_reduction_laws`` samples the five.
    """
    top, bottom = sum12(), fcc1()
    f = ChainMorphism(top, bottom, lambda i: proj1(top.module_at(i)))
    g = ChainMorphism(
        bottom, top, lambda i: pair(identity(Z), zero_map(Z, COUNTABLE))
    )
    h = HomotopyOperator(
        top, lambda i: direct_sum_map(zero_map(Z, Z), hcc2().at(i))
    )
    return effective_homology(Reduction(top, bottom, f, g, h))


@cache
def alpha_pi1() -> ChainMorphism:
    """Projection of ``sum12`` onto ``cc1``, degreewise."""
    source = sum12()
    return ChainMorphism(source, cc1(), lambda i: proj1(source.module_at(i)))


@cache
def cone_example() -> EffectiveHomology:
    """Effective homology of the cone of ``alpha_pi1``.

    The top complex has degreewise module (Z (+) Z[N]) (+) Z, printed as
    3-tuples; the bottom is the cone of the induced identity on ``fcc1``.
    """
    return cone_effective_homology(zxznat(), idz2x0(), alpha_pi1())


@cache
def cc2_to_null() -> EffectiveHomology:
    """``cc2`` is acyclic: ``hcc2`` as a reduction to the null complex, unsampled."""
    return effective_homology(_onto_null(cc2(), hcc2()))


@cache
def h1_bottom() -> HomotopyOperator:
    """Candidate operator (a, b) -> (0, a) on the example bottom cone.

    Not contracting; the checker finds counterexamples.
    """
    bottom = cone_example().reduction.bottom

    def family(i):
        domain = bottom.module_at(i)
        return pair(zero_map(domain, Z), proj1(domain))

    return HomotopyOperator(bottom, family)


@cache
def h2_bottom() -> HomotopyOperator:
    """Contracting homotopy (a, b) -> (b, 0) on the example bottom cone."""
    return _swap(cone_example().reduction.bottom)


@cache
def h_top() -> HomotopyOperator:
    """Contracting homotopy on the example cone top.

    ``h2_bottom`` transported through the cone reduction and added to the
    reduction's own homotopy.
    """
    return perturb_homotopy(cone_example().reduction, h2_bottom())


@dataclass(frozen=True)
class CatalogEntry:
    ident: str
    kind: str
    summary: str
    load: Callable[[], object]


CATALOG: dict[str, CatalogEntry] = {
    entry.ident: entry
    for entry in (
        CatalogEntry(
            "null", "complex", "zero module and zero differential everywhere",
            null_complex,
        ),
        CatalogEntry(
            "cc1", "complex", "rank-one complex, alternating x->2x / 0 differential",
            cc1,
        ),
        CatalogEntry(
            "fcc1", "complex", "cc1 with the declared finite-type flag", fcc1
        ),
        CatalogEntry(
            "cc2", "complex", "infinite-type complex with the parity differential",
            cc2,
        ),
        CatalogEntry("sum12", "complex", "direct sum cc1 (+) cc2", sum12),
        CatalogEntry(
            "idz2x0",
            "effective-homology",
            "identity reduction cc1 -> fcc1 with zero homotopy",
            idz2x0,
        ),
        CatalogEntry(
            "zxznat",
            "effective-homology",
            "projection reduction sum12 -> fcc1",
            zxznat,
        ),
        CatalogEntry(
            "cone-example",
            "effective-homology",
            "effective homology of the cone of the projection sum12 -> cc1",
            cone_example,
        ),
        CatalogEntry(
            "cone-example.bottom",
            "complex",
            "bottom of cone-example: cone of the induced identity on fcc1",
            lambda: cone_example().reduction.bottom,
        ),
    )
}

#: Homotopy operators by name, with the catalog identifier of the complex
#: they act on.
HOMOTOPIES: dict[str, tuple[str, Callable[[], HomotopyOperator], str]] = {
    "hcc2": ("cc2", hcc2, "parity homotopy contracting cc2"),
    "h1": ("cone-example.bottom", h1_bottom, "(a, b) -> (0, a); not contracting"),
    "h2": ("cone-example.bottom", h2_bottom, "(a, b) -> (b, 0); contracting"),
    "htop": ("cone-example", h_top, "transported contraction on the cone top"),
}


def resolve_complex(ident: str) -> ChainComplex:
    """The complex behind a catalog identifier (top of a reduction)."""
    entry = CATALOG.get(ident)
    if entry is None:
        raise KeyError(ident)
    value = entry.load()
    if isinstance(value, EffectiveHomology):
        return value.reduction.top
    return value


def resolve_effective_homology(ident: str) -> EffectiveHomology:
    entry = CATALOG.get(ident)
    if entry is None or entry.kind != "effective-homology":
        raise KeyError(ident)
    return entry.load()


def resolve_homotopy(name: str) -> tuple[str, HomotopyOperator]:
    """A named homotopy along with its home catalog identifier."""
    if name not in HOMOTOPIES:
        raise KeyError(name)
    home, load, _ = HOMOTOPIES[name]
    return home, load()
