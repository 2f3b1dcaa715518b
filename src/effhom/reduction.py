"""Reductions, effective homology, and contracting homotopies.

A reduction connects a top complex to a (typically smaller) bottom
complex through chain morphisms f (top to bottom), g (bottom to top) and
a degree-raising homotopy operator h on the top, subject to five laws,
written at degree i as equations of composite morphisms (``g * f`` applies
f first):

    1. f(i) * g(i) = id                                     on the bottom
    2. d(i+1) * h(i+1) + h(i) * d(i) + g(i+1) * f(i+1) = id on the top
    3. f(i+1) * h(i) = 0
    4. h(i) * g(i) = 0
    5. h(i+1) * h(i) = 0

A contracting homotopy of one complex satisfies d(i) * h(i) +
h(i-1) * d(i-1) = id and law 5, and is then a reduction onto ``null``.
Reductions r of A onto B and s of B onto C compose to one of A onto C:
f = s.f * r.f, g = r.g * s.g, h(i) = r.h(i) + r.g(i+1) * s.h(i) * r.f(i).
Values are constructible without proof; the checkers hand each equation
to the law engine (``laws.run_law``), which samples it.

An effective homology is a reduction whose bottom is free of finite type,
which its one constructor ``effective_homology`` checks on ``DEFAULT_DEGREES``:
homological questions about the top transfer to integer linear algebra on
the bottom.  ``sampled_effective_homology`` packages a reduction whose laws
a caller promises, after sampling them; a violation raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .complexes import (
    ChainComplex,
    ChainMorphism,
    _component,
    null_complex,
    zero_chain_morphism,
)
from .errors import (
    LawViolationError,
    NotACycleError,
    NotFiniteTypeError,
    PreimageVerificationError,
    ShapeMismatchError,
)
from .grammar import format_element
from .laws import LawReport, LawSection, equals_identity, equals_zero, run_law
from .modules import Element
from .morphisms import ModMorphism, zero_map
from .sampling import Sampler

#: Default degree window for sampled checks: covers both parities and all
#: the degrees exercised by the shipped instances.
DEFAULT_DEGREES = range(-8, 9)


@dataclass(frozen=True, eq=False)
class HomotopyOperator:
    """Degree-raising family h(i): M(i) -> M(i+1) over one complex."""

    over: ChainComplex
    family: Callable[[int], ModMorphism]
    _components: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, i: int) -> ModMorphism:
        what = "homotopy component at degree"
        return _component(self, self.family, i, what, self.over, i, self.over, i + 1)


def zero_homotopy(cc: ChainComplex) -> HomotopyOperator:
    return HomotopyOperator(
        cc, lambda i: zero_map(cc.module_at(i), cc.module_at(i + 1))
    )


@dataclass(frozen=True, eq=False)
class Reduction:
    top: ChainComplex
    bottom: ChainComplex
    f: ChainMorphism
    g: ChainMorphism
    h: HomotopyOperator


@dataclass(frozen=True, eq=False)
class EffectiveHomology:
    """A reduction whose bottom is of finite type, made by ``effective_homology``."""

    reduction: Reduction


def effective_homology(reduction: Reduction) -> EffectiveHomology:
    """Package a reduction whose bottom is finite type on ``DEFAULT_DEGREES``."""
    bottom = reduction.bottom
    bad = tuple(i for i in DEFAULT_DEGREES if not bottom.module_at(i).is_finite_type())
    if bad:
        raise NotFiniteTypeError(f"bottom complex is infinite type at degrees {bad}")
    return EffectiveHomology(reduction)


def sampled_effective_homology(reduction: Reduction) -> EffectiveHomology:
    """``effective_homology`` of a reduction whose five laws sample clean.

    The laws are sampled on ``DEFAULT_DEGREES`` with the default ``Sampler``;
    a violation raises ``LawViolationError`` carrying the report.
    """
    report = check_reduction_laws(reduction, DEFAULT_DEGREES, Sampler())
    if not report.ok:
        raise LawViolationError("reduction laws failed at construction", report)
    return effective_homology(reduction)


def check_reduction_laws(r: Reduction, degrees, sampler: Sampler) -> LawReport:
    """Sample the five reduction laws; one report section per law."""
    d, f, g, h = r.top.diff_at, r.f.at, r.g.at, r.h.at

    def homotopy(i):
        # samples live in top degree i+1
        return equals_identity(d(i + 1) * h(i + 1) + h(i) * d(i) + g(i + 1) * f(i + 1))

    return LawReport(
        (
            run_law("fg=id", degrees, sampler, lambda i: equals_identity(f(i) * g(i))),
            run_law("dh+hd+gf=id", degrees, sampler, homotopy),
            run_law("fh=0", degrees, sampler, lambda i: equals_zero(f(i + 1) * h(i))),
            run_law("hg=0", degrees, sampler, lambda i: equals_zero(h(i) * g(i))),
            _squares_to_zero(r.h, degrees, sampler),
        )
    )


def _squares_to_zero(h: HomotopyOperator, degrees, sampler: Sampler) -> LawSection:
    """Law 5, shared by ``check_reduction_laws`` and contracting homotopies."""

    def sides(i):
        return equals_zero(h.at(i + 1) * h.at(i))

    return run_law("hh=0", degrees, sampler, sides)


def _require_over(cc: ChainComplex, h: HomotopyOperator) -> None:
    if h.over is not cc:
        raise ShapeMismatchError(
            "the homotopy must act on the complex it is checked on"
        )


def check_contracting(
    cc: ChainComplex, h: HomotopyOperator, degrees, sampler: Sampler
) -> LawReport:
    """Sample d(i) . h(i) + h(i-1) . d(i-1) = id on elements at degree i."""
    _require_over(cc, h)
    d = cc.diff_at

    def sides(i):
        return equals_identity(d(i) * h.at(i) + h.at(i - 1) * d(i - 1))

    return LawReport((run_law("dh+hd=id", degrees, sampler, sides),))


def check_homotopy_squares_to_zero(
    cc: ChainComplex, h: HomotopyOperator, degrees, sampler: Sampler
) -> LawReport:
    """Sample h(i+1) . h(i) = 0 on elements at degree i; ``h`` acts on ``cc``."""
    _require_over(cc, h)
    return LawReport((_squares_to_zero(h, degrees, sampler),))


def compose(r: Reduction, s: Reduction) -> Reduction:
    """The reduction of ``r.top`` onto ``s.bottom`` through ``r.bottom``."""
    if r.bottom is not s.top:
        raise ShapeMismatchError("reductions compose only when r.bottom is s.top")
    return Reduction(
        r.top,
        s.bottom,
        ChainMorphism(r.top, s.bottom, lambda i: s.f.at(i) * r.f.at(i)),
        ChainMorphism(s.bottom, r.top, lambda i: r.g.at(i) * s.g.at(i)),
        HomotopyOperator(
            r.top, lambda i: r.h.at(i) + r.g.at(i + 1) * s.h.at(i) * r.f.at(i)
        ),
    )


def _onto_null(cc: ChainComplex, h: HomotopyOperator) -> Reduction:
    """``cc`` onto ``null`` with zero f and g: a reduction when h contracts cc."""
    if h.over is not cc:
        raise ShapeMismatchError("the homotopy must act on the complex it contracts")
    null = null_complex()
    f, g = zero_chain_morphism(cc, null), zero_chain_morphism(null, cc)
    return Reduction(cc, null, f, g, h)


def perturb_homotopy(r: Reduction, h_bottom: HomotopyOperator) -> HomotopyOperator:
    """Transport a contraction of ``r.bottom`` to ``r.top``: compose onto ``null``."""
    return compose(r, _onto_null(r.bottom, h_bottom)).h


def is_cycle(cc: ChainComplex, i: int, x: Element) -> bool:
    """True when the differential at index ``i`` kills ``x``.

    ``x`` must live in degree ``i + 1``, the domain of ``diff_at(i)``.
    """
    d = cc.diff_at(i)
    return d(x) == cc.module_at(i).zero()


def preimage(cc: ChainComplex, h: HomotopyOperator, i: int, x: Element) -> Element:
    """A z at degree ``i + 1`` with d(z) = x, obtained as z = h(x).

    ``x`` must be a cycle at degree ``i``.  The output is verified: if
    d(h(x)) differs from x the homotopy is not contracting at this point
    and a ``PreimageVerificationError`` reports both z and d(z).
    """
    _require_over(cc, h)
    boundary = cc.diff_at(i - 1)(x)
    if boundary != cc.module_at(i - 1).zero():
        raise NotACycleError(
            f"element at degree {i} has nonzero boundary "
            f"{format_element(boundary, cc.module_at(i - 1))}",
            boundary,
        )
    z = h.at(i)(x)
    dz = cc.diff_at(i)(z)
    if dz != x:
        raise PreimageVerificationError(
            "homotopy is not contracting at this element: d(h(x)) != x", z, dz
        )
    return z


def acyclic_to_null_effective_homology(
    cc: ChainComplex, h: HomotopyOperator
) -> EffectiveHomology:
    """Package a contracting homotopy as its reduction onto ``null``, sampled.

    With zero f and g the five reduction laws say exactly that h contracts
    ``cc`` (law 2) and squares to zero (law 5).
    """
    return sampled_effective_homology(_onto_null(cc, h))
