"""Chain complexes graded over all the integers.

A complex is a total family of module descriptions ``module_at(i)``
together with differentials ``diff_at(i)`` mapping degree ``i+1`` to
degree ``i``.  Negative degrees are first-class: nothing here assumes the
complex is bounded.  Nilpotency, d(i) . d(i+1) = 0, and the chain
morphism law, f(i) . d(i) = d'(i) . f(i+1), are equations handed to the
law engine (``laws.run_law``), which samples them; neither is assumed.

``_component`` builds, shape-checks and keeps each degree component for the
object's lifetime, so a family is called once per degree used and must be pure.
A complex also keeps, per degree, the invariant factors of d(i) once
``homology.homology_window`` has computed them: being pure, d(i) and so its
factors are fixed for the complex's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

from .errors import ShapeMismatchError
from .laws import LawReport, equals_zero, run_law
from .modules import ZERO, DirectSum, FreeModule
from .morphisms import ModMorphism, direct_sum_map, identity, zero_map
from .sampling import Sampler


def _component(owner, family, i: int, what: str, source, j: int, target, k: int):
    """Keep one checked ``family(i)`` per owner and degree; ``family`` must be pure."""
    if (c := owner._components.get(i)) is None:
        c, s, t = family(i), source.module_at(j), target.module_at(k)
        if c.source != s or c.target != t:
            raise ShapeMismatchError(
                f"{what} {i} has shape {c.source} -> {c.target}, expected {s} -> {t}"
            )
        owner._components[i] = c
    return c


@dataclass(frozen=True, eq=False)
class ChainComplex:
    """Graded module plus differential family, both total over the integers.

    ``declared_finite_type`` is a label an instance may carry; no check
    reads it.  Finite type is a property of the modules, so whoever needs
    it asks ``module_at(i).is_finite_type()`` on the degrees it uses.

    A complex keeps two things per degree i, each made on first use: the
    checked differential d(i) (``_components``) and the invariant factors
    of d(i) (``_factors``, filled by ``homology.homology_window``).
    """

    module_family: Callable[[int], FreeModule]
    diff_family: Callable[[int], ModMorphism]
    declared_finite_type: bool = False
    _components: dict = field(default_factory=dict, init=False, repr=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def module_at(self, i: int) -> FreeModule:
        return self.module_family(i)

    def diff_at(self, i: int) -> ModMorphism:
        """The differential from degree ``i + 1`` down to degree ``i``."""
        what = "differential at index"
        return _component(self, self.diff_family, i, what, self, i + 1, self, i)


@dataclass(frozen=True, eq=False)
class ChainMorphism:
    """Degree-preserving family of module maps between two complexes."""

    source: ChainComplex
    target: ChainComplex
    family: Callable[[int], ModMorphism]
    _components: dict = field(default_factory=dict, init=False, repr=False)

    def at(self, i: int) -> ModMorphism:
        what = "chain morphism component at degree"
        return _component(self, self.family, i, what, self.source, i, self.target, i)


@cache
def null_complex() -> ChainComplex:
    """The zero module in every degree with the zero differential."""
    return ChainComplex(
        lambda i: ZERO, lambda i: zero_map(ZERO, ZERO), declared_finite_type=True
    )


def identity_chain_morphism(cc: ChainComplex) -> ChainMorphism:
    return ChainMorphism(cc, cc, lambda i: identity(cc.module_at(i)))


def zero_chain_morphism(source: ChainComplex, target: ChainComplex) -> ChainMorphism:
    return ChainMorphism(
        source, target, lambda i: zero_map(source.module_at(i), target.module_at(i))
    )


def direct_sum_complex(cc1: ChainComplex, cc2: ChainComplex) -> ChainComplex:
    """Degreewise direct sum with the componentwise differential."""
    return ChainComplex(
        lambda i: DirectSum(cc1.module_at(i), cc2.module_at(i)),
        lambda i: direct_sum_map(cc1.diff_at(i), cc2.diff_at(i)),
        declared_finite_type=cc1.declared_finite_type and cc2.declared_finite_type,
    )


def check_nilpotency(cc: ChainComplex, degrees, sampler: Sampler) -> LawReport:
    """Sample d(i) . d(i+1) = 0 at every degree in the window."""

    def sides(i):
        return equals_zero(cc.diff_at(i) * cc.diff_at(i + 1))

    return LawReport((run_law("dd=0", degrees, sampler, sides),))


def check_chain_morphism(
    morphism: ChainMorphism, degrees, sampler: Sampler, law: str = "fd=df"
) -> LawReport:
    """Sample f(i) . d(i) - d'(i) . f(i+1) = 0; a failure shows the difference."""
    f, src, tgt = morphism, morphism.source, morphism.target

    def sides(i):
        return equals_zero(f.at(i) * src.diff_at(i) - tgt.diff_at(i) * f.at(i + 1))

    return LawReport((run_law(law, degrees, sampler, sides),))
