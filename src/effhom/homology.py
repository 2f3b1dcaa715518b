"""Homology groups of finite-type complexes from ranks and invariant factors.

The group at degree i is ker d(i-1) / im d(i), with n_i generators in
degree i.  Its free rank is n_i - rank d(i-1) - rank d(i).  Its torsion
is the torsion of coker d(i) = C_i / im d(i), which the invariant factors
of d(i) greater than one give: the homology sits inside coker d(i) with
quotient C_i / ker d(i-1), which embeds in the free C_(i-1), so the two
share their torsion and no basis of the kernel is ever needed.

A differential is kept sparse from the generator images to the invariant
factors: ``differential_columns`` reads one ``{row: entry}`` column per
basis element from the terms of its validated image (read directly from
a ``from_generator_images`` map's generator images), the columns go to the
elimination as rows (a matrix and its transpose share their invariant
factors), and d(i-1) d(i) = 0 is checked exactly, column by column, as a
sum of columns of d(i-1).  So the work follows the nonzero entries, not
rows x cols.  ``differential_matrix`` is the dense view of the same columns.

The invariant factors of d(i) are kept on the complex (``_factors``), so
``homology_at``, ``homology_window`` and ``homology_via_effective_homology``
factor each differential once per complex, across calls.  The columns are
not kept: each call builds them again from the validated images, once per
differential however many degrees of the window use it.  So every call
reads or applies the differentials and checks d(i-1) d(i) = 0 exactly, as
the first did, and a complex holds O(rank) per degree rather than
O(nonzeros).

For a complex that reduces onto a finite-type bottom, the homology of the
top *is* the homology of the bottom: that transfer is the whole point of
an effective homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import ChainComplex
from .errors import HomAlgError, NotFiniteTypeError
from .modules import Element, FiniteFree, FreeModule, basis, leaves, split
from .reduction import EffectiveHomology
from .snf import IntMatrix, _sparse_invariant_factors


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
    return basis(desc, [_rank(leaf) for leaf in leaves(desc)])


def differential_columns(cc: ChainComplex, i: int) -> tuple[int, list[dict[int, int]]]:
    """The row count and the sparse columns of d(i), one per basis element.

    Column j maps row to entry for the image of the j-th basis element of
    degree i + 1, read from the terms of each leaf of the image at that
    leaf's offset in the target; zero entries are absent.  A
    ``from_generator_images`` map is read directly: column j is the image
    of x_j, checked against the target as an application checks it.  Any
    other map is applied to each basis element.  Nothing is kept.

    >>> from effhom.instances import fcc1
    >>> differential_columns(fcc1(), 0)
    (1, [{0: 2}])
    >>> differential_columns(fcc1(), 1)
    (1, [{}])
    """
    target = cc.module_at(i)
    offsets = []
    rows = 0
    for leaf in leaves(target):
        offsets.append(rows)
        rows += _rank(leaf)
    d = cc.diff_at(i)
    if (read := d._images) is not None:  # leaf to leaf: column g is the image of x_g
        return rows, [dict(target.require(read(g)).terms) for g in range(_rank(d.source))]
    columns = []
    for b in enumerate_basis(cc.module_at(i + 1)):
        column: dict[int, int] = {}
        for offset, (_, part) in zip(offsets, split(d(b), target)):
            if offset:
                for g, c in part.terms:
                    column[offset + g] = c
            else:
                column.update(part.terms)
        columns.append(column)
    return rows, columns


def differential_matrix(cc: ChainComplex, i: int) -> IntMatrix:
    """Dense matrix of d(i) with column j the image of the j-th basis element."""
    rows, columns = differential_columns(cc, i)
    cols = len(columns)
    entries = [0] * (rows * cols)
    for j, column in enumerate(columns):
        for r, x in column.items():
            entries[r * cols + j] = x
    return IntMatrix(rows, cols, tuple(entries))


def _composes_to_zero(
    incoming: list[dict[int, int]], outgoing: list[dict[int, int]]
) -> bool:
    """Whether d(i-1) d(i) = 0, given the columns of d(i-1) and of d(i).

    Column j of the product is the sum over k of b_k times column k of
    d(i-1), where b is column j of d(i); each is summed exactly.
    """
    for column in outgoing:
        acc: dict[int, int] = {}
        for k, b in column.items():
            for r, a in incoming[k].items():
                acc[r] = acc.get(r, 0) + b * a
        if any(acc.values()):
            return False
    return True


def homology_window(cc: ChainComplex, degrees: Iterable[int]) -> list[HomologyGroup]:
    """The homology at each of ``degrees``, in order.

    Each degree needs finite type at i-1, i and i+1.  The columns of each
    differential are built once per call, not once as the outgoing and
    again as the incoming map, and checked for d(i-1) d(i) = 0 on every
    call.  The invariant factors of d(j) are computed on the first call
    that needs them and kept on ``cc`` after that.
    """
    columns: dict[int, list[dict[int, int]]] = {}
    factors = cc._factors
    groups = []
    for i in degrees:
        for j in (i - 1, i, i + 1):
            if not cc.module_at(j).is_finite_type():
                raise NotFiniteTypeError(
                    f"module at degree {j} is not of finite type; "
                    "compute through an effective homology instead"
                )
        for j in (i - 1, i):
            if j not in columns:
                _, columns[j] = differential_columns(cc, j)
            if j not in factors:
                # the columns as rows: A transposed has the factors of A; the
                # elimination consumes its rows, and the columns are read again
                rows = {k: dict(column) for k, column in enumerate(columns[j]) if column}
                factors[j] = _sparse_invariant_factors(rows)
        incoming, outgoing = columns[i - 1], columns[i]
        if not _composes_to_zero(incoming, outgoing):
            raise HomAlgError(f"differentials do not compose to zero around degree {i}")
        in_factors, out_factors = factors[i - 1], factors[i]
        groups.append(
            HomologyGroup(
                betti_rank=len(incoming) - len(in_factors) - len(out_factors),
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
