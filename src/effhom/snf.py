"""Smith normal form and invariant factors of integer matrices, exactly.

``invariant_factors`` returns the nonzero diagonal of the Smith normal
form, d1 | d2 | ..., and tracks no transforms.  Its core works on sparse
rows, ``{row: {column: entry}}``, which the homology computation builds
directly; the public function only turns a dense ``IntMatrix`` into them.
The core first takes every +-1 pivot by sparse row elimination: pivoting
on a unit entry and clearing its column leaves the Schur complement, and
the pivot adds a factor 1.  Boundary matrices of cell complexes are
sparse with +-1 entries, so this leaves a tiny dense remainder, or none
(the approach of sparse integer SNF, Dumas-Saunders-Villard 2001).

``smith_normal_form`` also returns unimodular U (rows x rows) and V
(cols x cols) with U * A * V = D.  It runs the same dense elimination on
A bordered by identity blocks, so that the row and column operations on
A are recorded in U and V as they happen.

The dense elimination takes one pivot at a time: the entry of smallest
absolute value in the working block, moved to the corner.  One division
step reduces every other entry of its column, then of its row; a nonzero
remainder is smaller than the pivot, so the block is searched again.  Every
multiplier is thus an entry over the least entry of the whole block, not
over a pivot that some row's remainder happened to leave, which keeps
coefficient growth small even on dense matrices.  Before the pivot is
frozen it must also divide the rest of the block; adding the first row
that it does not divide to the pivot row repairs that, and is exactly
what makes the diagonal a divisibility chain.  Entries are Python
integers throughout: intermediate values can exceed any machine word even
on small inputs, so nothing here ever touches floating point or fixed
width arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be natural numbers")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], rows_n=None, cols_n=None):
        data = [tuple(int(x) for x in row) for row in rows]
        if rows_n is None:
            rows_n = len(data)
        if cols_n is None:
            cols_n = len(data[0]) if data else 0
        if any(len(row) != cols_n for row in data):
            raise ValueError("a row length does not match the column count")
        if len(data) != rows_n and cols_n:  # rows of no entries may be left out
            raise ValueError("row count does not match the dimensions")
        flat = tuple(x for row in data for x in row)
        return cls(rows_n, cols_n, flat)

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int):
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __repr__(self):
        return f"IntMatrix({self.to_rows()!r})"


@dataclass(frozen=True)
class SNFResult:
    """U * A * V = D with U, V unimodular and D the Smith normal form."""

    U: IntMatrix
    V: IntMatrix
    D: IntMatrix
    invariant_factors: tuple[int, ...]


def smith_normal_form(matrix: IntMatrix) -> SNFResult:
    m, n = matrix.rows, matrix.cols
    # [[A, I_m], [I_n, 0]]: row operations on A reach U in the top right,
    # column operations on A reach V in the bottom left.
    bordered = [
        list(matrix.row(i)) + [int(i == k) for k in range(m)] for i in range(m)
    ]
    bordered.extend([int(i == j) for j in range(n)] + [0] * m for i in range(n))
    factors = _diagonalize(bordered, m, n)
    return SNFResult(
        U=IntMatrix.from_rows((row[n:] for row in bordered[:m]), m, m),
        V=IntMatrix.from_rows((row[:n] for row in bordered[m:]), n, n),
        D=IntMatrix.from_rows((row[:n] for row in bordered[:m]), m, n),
        invariant_factors=factors,
    )


def invariant_factors(matrix: IntMatrix) -> tuple[int, ...]:
    """The nonzero diagonal of the Smith normal form, without transforms."""
    rows = {}
    for i in range(matrix.rows):
        row = {j: x for j, x in enumerate(matrix.row(i)) if x}
        if row:
            rows[i] = row
    return _sparse_invariant_factors(rows)


def _sparse_invariant_factors(rows: dict[int, dict[int, int]]) -> tuple[int, ...]:
    """Invariant factors of the matrix whose nonzero entries ``rows`` holds.

    ``rows`` maps a row index to that row's ``{column: entry}``, with no
    zero entries; the rows are consumed.  Row and column indices only
    name lines, so any matrix with the same entries up to the order of
    its rows and columns, or its transpose, has the same factors.
    """
    units = _eliminate_unit_pivots(rows)
    columns = sorted({j for row in rows.values() for j in row})
    remainder = [[row.get(j, 0) for j in columns] for row in rows.values()]
    return (1,) * units + _diagonalize(remainder, len(remainder), len(columns))


def _eliminate_unit_pivots(rows: dict[int, dict[int, int]]) -> int:
    """Take every +-1 pivot out of the sparse rows in place; return how many.

    A pivot at (p, c) clears column c from the other rows, after which row
    p and column c split off as a block of their own.  Rows are visited
    shortest first, and each takes its unit entry in the shortest column,
    which keeps the fill low; passes repeat until one finds no unit entry.
    """
    where = defaultdict(set)  # column -> rows with a nonzero entry there
    for i, row in rows.items():
        for j in row:
            where[j].add(i)
    units = 0
    found = True
    while found:
        found = False
        for p in sorted(rows, key=lambda i: len(rows[i])):
            pivot_row = rows.get(p)
            if pivot_row is None:
                continue
            candidates = [j for j, x in pivot_row.items() if x == 1 or x == -1]
            if not candidates:
                continue
            found = True
            units += 1
            c = min(candidates, key=lambda j: len(where[j]))
            del rows[p]
            for j in pivot_row:
                where[j].discard(p)
            pivot = pivot_row.pop(c)
            for i in where.pop(c):
                row = rows[i]
                q = row.pop(c) * pivot  # row[c] / pivot, as pivot is +-1
                for j, x in pivot_row.items():
                    value = row.get(j, 0) - q * x
                    if value:
                        if j not in row:
                            where[j].add(i)
                        row[j] = value
                    elif j in row:
                        del row[j]
                        where[j].discard(i)
                if not row:
                    del rows[i]
    return units


def _diagonalize(d: list[list[int]], m: int, n: int) -> tuple[int, ...]:
    """Bring the leading m x n block of ``d`` to Smith form in place.

    Row operations act on whole rows and column operations on whole
    columns, so whatever ``d`` holds right of or below the block records
    them; the pivot search and every test look only inside the block.
    Returns the invariant factors.
    """

    def add_row(dst, src, q):
        # row dst += q * row src
        drow = d[dst]
        for j, x in enumerate(d[src]):
            if x:
                drow[j] += q * x

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    pivot, best = (i, j), abs(x)
        if pivot is None:
            break
        i, j = pivot
        d[t], d[i] = d[i], d[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
        p = d[t][t]
        # one division step on every other entry of column t, then of row
        # t; a remainder is smaller than the pivot, so it sends the loop
        # back to the search
        clean = True
        for i in range(t + 1, m):
            if d[i][t]:
                add_row(i, t, -(d[i][t] // p))
                clean = clean and not d[i][t]
        if not clean:
            continue
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // p
                for row in d:
                    if row[t]:
                        row[j] -= q * row[t]
                clean = clean and not d[t][j]
        if not clean:
            continue
        # the pivot must divide the rest; else pull up the first row that
        # it does not, whose remainder the next search takes
        offender = None
        for i in range(t + 1, m):
            row = d[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            t += 1
        else:
            add_row(t, offender, 1)

    for i in range(limit):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
    return tuple(d[i][i] for i in range(limit) if d[i][i])
