"""Homology groups of finite-type complexes from ranks and invariant factors.

The group at degree i is ker d(i-1) / im d(i), with n_i generators in
degree i.  Its free rank is n_i - rank d(i-1) - rank d(i).  Its torsion
is the torsion of coker d(i) = C_i / im d(i), which the invariant factors
of d(i) greater than one give: the homology sits inside coker d(i) with
quotient C_i / ker d(i-1), which embeds in the free C_(i-1), so the two
share their torsion and no basis of the kernel is ever needed.  Both
matrices go through ``invariant_factors`` only, and their product checks
exactly that d(i-1) d(i) = 0.  ``homology_window`` factors each
differential once per call, however many degrees of the window use it.
For a complex that reduces onto a finite-type bottom, the homology of the
top *is* the homology of the bottom: that transfer is the whole point of
an effective homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .complexes import ChainComplex
from .errors import HomAlgError, NotFiniteTypeError
from .modules import Element, FiniteFree, FreeModule, generator, join, leaves, split
from .reduction import EffectiveHomology
from .snf import IntMatrix, invariant_factors


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    Torsion entries are > 1 and each divides the next.
    """

    betti_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.betti_rank < 0:
            raise ValueError("the free rank is a natural number")
        prev = None
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion entries are greater than one")
            if prev is not None and t % prev:
                raise ValueError("torsion entries must form a divisibility chain")
            prev = t

    def is_trivial(self) -> bool:
        return self.betti_rank == 0 and not self.torsion

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = []
        if self.betti_rank == 1:
            parts.append("Z")
        elif self.betti_rank > 1:
            parts.append(f"Z^{self.betti_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


def _rank(leaf: FreeModule) -> int:
    if not isinstance(leaf, FiniteFree):
        raise NotFiniteTypeError(f"{leaf} is not of finite type")
    return leaf.rank


def module_rank(desc: FreeModule) -> int:
    return sum(_rank(leaf) for leaf in leaves(desc))


def enumerate_basis(desc: FreeModule) -> list[Element]:
    """Ordered basis of a finite-type module.

    The generators x0 .. x{k-1} of each leaf in turn, left to right, each
    injected with every other leaf zero; so a direct sum lists the left
    basis injected on the left, then the right basis injected on the right.
    """
    shape = leaves(desc)
    parts = [leaf.zero() for leaf in shape]
    basis = []
    for k, leaf in enumerate(shape):
        for g in range(_rank(leaf)):
            parts[k] = generator(g)
            basis.append(join(desc, iter(parts)))
        parts[k] = leaf.zero()
    return basis


def element_coordinates(element: Element, desc: FreeModule) -> list[int]:
    """Dense coordinates of a member of a finite-type module, leaf by leaf."""
    coords: list[int] = []
    for leaf, part in split(element, desc):
        row = [0] * _rank(leaf)
        for g, c in part.terms:
            row[g] = c
        coords.extend(row)
    return coords


def differential_matrix(cc: ChainComplex, i: int) -> IntMatrix:
    """Matrix of d(i) with column j the image of the j-th basis element."""
    source = cc.module_at(i + 1)
    target = cc.module_at(i)
    d = cc.diff_at(i)
    columns = [element_coordinates(d(b), target) for b in enumerate_basis(source)]
    # zip(*columns) reads the rows; with no rows or no columns it is empty
    entries = tuple(chain.from_iterable(zip(*columns)))
    return IntMatrix(module_rank(target), module_rank(source), entries)


def homology_window(cc: ChainComplex, degrees: Iterable[int]) -> list[HomologyGroup]:
    """The homology at each of ``degrees``, in order.

    Each degree needs finite type at i-1, i and i+1.  The matrix of each
    differential and its invariant factors are kept for the span of this
    call, so a window of consecutive degrees builds and factors every d(i)
    once, not once as the outgoing and again as the incoming map.
    """
    factored: dict[int, tuple[IntMatrix, tuple[int, ...]]] = {}
    groups = []
    for i in degrees:
        for j in (i - 1, i, i + 1):
            if not cc.module_at(j).is_finite_type():
                raise NotFiniteTypeError(
                    f"module at degree {j} is not of finite type; "
                    "compute through an effective homology instead"
                )
        for j in (i - 1, i):
            if j not in factored:
                matrix = differential_matrix(cc, j)
                factored[j] = (matrix, invariant_factors(matrix))
        incoming, in_factors = factored[i - 1]
        outgoing, out_factors = factored[i]
        if any((incoming @ outgoing).entries):
            raise HomAlgError(f"differentials do not compose to zero around degree {i}")
        groups.append(
            HomologyGroup(
                betti_rank=incoming.cols - len(in_factors) - len(out_factors),
                torsion=tuple(f for f in out_factors if f > 1),
            )
        )
    return groups


def homology_at(cc: ChainComplex, i: int) -> HomologyGroup:
    """ker d(i-1) / im d(i), requiring finite type at degrees i-1, i, i+1."""
    return homology_window(cc, [i])[0]


def homology_via_effective_homology(eh: EffectiveHomology, i: int) -> HomologyGroup:
    """Homology of the top complex, computed on the finite-type bottom."""
    return homology_window(eh.reduction.bottom, [i])[0]
