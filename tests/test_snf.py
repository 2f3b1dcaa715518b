"""Smith normal form: exactness, unimodularity, divisibility.

The determinant oracle is an independent fraction-free Bareiss expansion,
and the invariant factors are cross-checked against the gcd-of-minors
characterization on the seeded random suites: for k = 1 and k = full rank
on dense matrices, and for every k on the sparse unit-heavy ones, where
the transform-free ``invariant_factors`` must also agree with
``smith_normal_form`` and give the same factors for the transpose.
"""

import random
from itertools import combinations
from math import gcd, prod

import pytest

from effhom import IntMatrix, invariant_factors, smith_normal_form, snf


def bareiss_det(rows):
    """Exact determinant by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcd(a: IntMatrix, k: int) -> int:
    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = [[a.entry(i, j) for j in cols] for i in rows]
            g = gcd(g, bareiss_det(sub))
    return abs(g)


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a . b, skipping zero entries: the oracle for U . A . V = D."""
    assert a.cols == b.rows, "matrix shapes do not compose"
    n = b.cols
    right = [[(j, x) for j, x in enumerate(b.row(k)) if x] for k in range(b.rows)]
    out = []
    for i in range(a.rows):
        acc = [0] * n
        for k, x in enumerate(a.row(i)):
            if x:
                for j, y in right[k]:
                    acc[j] += x * y
        out.extend(acc)
    return IntMatrix(a.rows, n, tuple(out))


def is_diagonal(d: IntMatrix) -> bool:
    return all(
        d.entry(i, j) == 0 for i in range(d.rows) for j in range(d.cols) if i != j
    )


def assert_snf_contract(a: IntMatrix):
    result = smith_normal_form(a)
    u, v, d = result.U, result.V, result.D
    assert u.rows == u.cols == a.rows
    assert v.rows == v.cols == a.cols
    assert matmul(matmul(u, a), v) == d
    assert abs(bareiss_det(u.to_rows())) == 1
    assert abs(bareiss_det(v.to_rows())) == 1
    assert is_diagonal(d)
    diag = [d.entry(i, i) for i in range(min(d.rows, d.cols))]
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    # nonzero entries lead and form a divisibility chain
    assert diag[: len(nonzero)] == nonzero
    for first, second in zip(nonzero, nonzero[1:]):
        assert second % first == 0
    assert result.invariant_factors == tuple(nonzero)
    return result


class TestGoldens:
    def test_two_by_two(self):
        # gcd of entries is 2 and |det| = 8, so the factors are (2, 4)
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert assert_snf_contract(a).invariant_factors == (2, 4)

    def test_zero_matrix(self):
        a = IntMatrix.zeros(3, 2)
        result = assert_snf_contract(a)
        assert result.invariant_factors == ()
        assert result.D == IntMatrix.zeros(3, 2)

    def test_identity(self):
        a = IntMatrix.identity(3)
        assert assert_snf_contract(a).invariant_factors == (1, 1, 1)

    def test_single_negative_entry(self):
        a = IntMatrix.from_rows([[-6]])
        result = assert_snf_contract(a)
        assert result.invariant_factors == (6,)

    def test_rank_deficient(self):
        a = IntMatrix.from_rows([[2, 4], [1, 2]])
        assert assert_snf_contract(a).invariant_factors == (1,)

    @pytest.mark.parametrize("rows", [
        [[0, 0], [0, 0], [0, 0]],
        [[1, 0], [0, 1]],
        [[2, 0, 0], [0, 2, 0]],
        [[1, 0], [0, 6], [0, 0]],
    ])
    def test_a_smith_form_takes_no_operation(self, rows):
        # already diagonal, non-negative and a divisibility chain: the first
        # smallest entry is each pivot in place, so the transforms are identities
        a = IntMatrix.from_rows(rows)
        result = assert_snf_contract(a)
        assert (result.U, result.D, result.V) == (
            IntMatrix.identity(a.rows), a, IntMatrix.identity(a.cols)
        )

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 3), (3, 0)):
            result = assert_snf_contract(IntMatrix.zeros(rows, cols))
            assert result.invariant_factors == ()


class TestSeededSuite:
    def test_hundred_random_matrices(self):
        rng = random.Random(1729)
        for _ in range(100):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [
                    [rng.randint(-50, 50) for _ in range(cols)]
                    for _ in range(rows)
                ],
                rows,
                cols,
            )
            result = assert_snf_contract(a)
            factors = result.invariant_factors
            # spot oracles: gcd of entries, and gcd of full-rank minors
            entry_gcd = 0
            for x in a.entries:
                entry_gcd = gcd(entry_gcd, x)
            if factors:
                assert factors[0] == abs(entry_gcd)
                product = 1
                for f in factors:
                    product *= f
                assert product == minor_gcd(a, len(factors))
            else:
                assert entry_gcd == 0


    def test_invariant_factors_match_snf_and_minors(self):
        rng = random.Random(2001)
        shapes = [(0, 0), (0, 4), (5, 0)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
        for t, (rows, cols) in enumerate(shapes):
            # mostly zeros and units, with a few larger entries
            data = [
                [rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3, 6)) for _ in range(cols)]
                for _ in range(rows)
            ]
            if rows and cols and t % 3 == 0:
                for row in data:
                    row[rng.randrange(cols)] = 0
                data[rng.randrange(rows)] = [0] * cols
            a = IntMatrix.from_rows(data, rows, cols)
            factors = invariant_factors(a)
            assert factors == assert_snf_contract(a).invariant_factors, data
            transposed = IntMatrix.from_rows(zip(*data), cols, rows)
            assert invariant_factors(transposed) == factors, data
            # the k-th determinantal divisor is d1 * ... * dk, and 0 past the rank
            product = 1
            for k in range(1, min(rows, cols) + 1):
                product = product * factors[k - 1] if k <= len(factors) else 0
                assert minor_gcd(a, k) == product, (data, k)

    def test_dense_sixty_by_sixty(self):
        # only a few unit pivots come out, which leaves a dense remainder
        rng = random.Random(1)
        rows = [[rng.randint(-3, 3) for _ in range(60)] for _ in range(60)]
        factors = invariant_factors(IntMatrix.from_rows(rows))
        assert prod(factors) == abs(bareiss_det(rows))
        assert factors[0] == gcd(*(x for row in rows for x in row))

    def test_dense_forty_by_forty_transforms(self):
        rng = random.Random(1)
        rows = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
        assert len(assert_snf_contract(IntMatrix.from_rows(rows)).invariant_factors) == 40

    def test_invariant_factors_goldens(self):
        assert invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)
        assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 6]])) == (2, 6)
        assert invariant_factors(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
        assert invariant_factors(IntMatrix.identity(4)) == (1, 1, 1, 1)
        assert invariant_factors(IntMatrix.zeros(3, 2)) == ()
        # one unit pivots out; the remainder diag(-2, 5) gives (1, 10), as
        # Z/2 + Z/5 is Z/10
        a = IntMatrix.from_rows([[1, 1, 0], [1, -1, 0], [0, 0, 5]])
        assert invariant_factors(a) == (1, 1, 10)


def simplex_boundaries(n: int) -> list[IntMatrix]:
    """The boundary matrices of the n-simplex, edges onto vertices first."""
    faces = [list(combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    matrices = []
    for low, high in zip(faces, faces[1:]):
        position = {face: r for r, face in enumerate(low)}
        rows = [[0] * len(high) for _ in low]
        for col, face in enumerate(high):
            for t in range(len(face)):
                rows[position[face[:t] + face[t + 1 :]]][col] = (-1) ** t
        matrices.append(IntMatrix.from_rows(rows))
    return matrices


class TestUnitPivots:
    def test_the_dense_loop_gets_nothing_left(self, monkeypatch):
        # the answers do not show whether the +-1 pivots were taken; the
        # shape of what reaches the dense loop does
        shapes = []
        diagonalize = snf._diagonalize

        def recorded(d, m, n):
            shapes.append((m, n))
            return diagonalize(d, m, n)

        monkeypatch.setattr(snf, "_diagonalize", recorded)
        minus_identity = IntMatrix(
            20, 20, tuple(-int(i == j) for i in range(20) for j in range(20))
        )
        assert invariant_factors(minus_identity) == (1,) * 20
        assert [invariant_factors(b) for b in simplex_boundaries(6)] == [
            (1,) * rank for rank in (6, 15, 20, 15, 6, 1)
        ]
        assert shapes == [(0, 0)] * 7


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError, match="^matrix dimensions must be natural"):
            IntMatrix(-1, 0, ())

    def test_ragged_rows_raise(self):
        # three entries would fit 3 x 1, but the rows hold 1, 2 and 0 of them
        with pytest.raises(ValueError, match="^a row length does not match the column"):
            IntMatrix.from_rows([[1], [2, 3], []])
        with pytest.raises(ValueError, match="^a row length does not match the column"):
            IntMatrix.from_rows([[1, 2]], 1, 3)
        with pytest.raises(ValueError, match="^row count does not match the dimensions$"):
            IntMatrix.from_rows([[1], [2]], 3, 1)
        # a matrix with no columns may leave out its empty rows
        assert IntMatrix.from_rows([], 4, 0) == IntMatrix.zeros(4, 0)

    def test_no_rows_is_0_by_0(self):
        assert IntMatrix.from_rows([]) == IntMatrix(0, 0, ())

    def test_large_entries_stay_exact(self):
        big = 10**40
        a = IntMatrix.from_rows([[big, 1], [1, big]])
        result = assert_snf_contract(a)
        assert result.invariant_factors[0] == 1
        assert result.invariant_factors[1] == big * big - 1
