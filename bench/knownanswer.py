"""Finite-type complexes whose homology is known by construction.

Two families, both given as raw integer matrices so the benchmark can check
them without the library:

* ``simplex_boundary(n)``: the boundary of the n-simplex, a sphere S^(n-1)
  with H_0 = H_(n-1) = Z and every other group zero.  Entries are sparse
  +-1 values.
* ``prescribed(rng, ...)``: a direct sum of elementary complexes (Z alone,
  and Z --k--> Z), each degree then conjugated by a seeded product of
  elementary unimodular operations.  Conjugation keeps the homology, so
  the answer is the one prescribed, while the matrices become dense.

A complex is ``KnownComplex(ranks, matrices, expected)``: ``ranks[k]`` is
the rank in degree ``k`` (degrees ``0 .. len(ranks) - 1``, zero outside),
``matrices[k]`` is the ``ranks[k] x ranks[k + 1]`` matrix of the
differential from degree ``k + 1`` to ``k`` as a list of rows, and
``expected[k]`` is ``(betti, torsion)`` with torsion in invariant-factor
form (each entry divides the next).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

#: Multipliers of the Z --k--> Z pieces; k = 1 adds rank without homology.
TORSION_CHOICES = (1, 1, 2, 3, 4, 6, 10, 12, 30, 60, 210)


@dataclass(frozen=True)
class KnownComplex:
    name: str
    ranks: tuple[int, ...]
    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    expected: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def size(self) -> int:
        return sum(self.ranks)


def simplex_boundary(n: int) -> KnownComplex:
    """Boundary of the n-simplex (n + 1 vertices): the sphere S^(n-1)."""
    faces = [list(itertools.combinations(range(n + 1), k + 1)) for k in range(n)]
    index = [{face: j for j, face in enumerate(level)} for level in faces]
    matrices = []
    for k in range(n - 1):
        rows = [[0] * len(faces[k + 1]) for _ in faces[k]]
        for j, face in enumerate(faces[k + 1]):
            for t in range(len(face)):
                rows[index[k][face[:t] + face[t + 1 :]]][j] = (-1) ** t
        matrices.append(_freeze(rows))
    expected = [(0, ())] * n
    expected[0] = expected[n - 1] = (1, ())
    return KnownComplex(
        f"S^{n - 1}", tuple(len(level) for level in faces), tuple(matrices), tuple(expected)
    )


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant-factor form of the group Z/o_1 + ... + Z/o_m (o_j > 0)."""
    by_prime: dict[int, list[int]] = {}
    for order in orders:
        for p, e in _factor(order):
            by_prime.setdefault(p, []).append(p**e)
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for j, q in enumerate(powers):
            factors[length - 1 - j] *= q
    return tuple(factors)


#: Elementary operations per generator in the conjugation of each degree.
OPS_PER_GENERATOR = 3


def prescribed(rng: random.Random, degrees: int, size: int, max_rank: int) -> KnownComplex:
    """A complex of total rank ``size`` over ``degrees`` degrees, known homology.

    Pieces are drawn at random: a free generator (adds Z), a unit map
    Z --1--> Z (adds rank only) or a torsion map Z --k--> Z with k in 2..210
    (adds Z/k).  No degree gets more than ``max_rank`` generators, which
    needs ``size <= degrees * max_rank``.  Each degree is then conjugated
    by ``OPS_PER_GENERATOR`` elementary operations per generator.
    """
    if size > degrees * max_rank:
        raise ValueError("size does not fit under max_rank")
    pieces = []  # (degree, k): k == 0 is a free generator in `degree`,
    # otherwise a map from degree + 1 to degree by k
    ranks = [0] * degrees
    used = 0
    while used < size:
        if size - used >= 2 and degrees > 1 and rng.random() < 0.7:
            low = rng.randrange(degrees - 1)
            if ranks[low] < max_rank and ranks[low + 1] < max_rank:
                ranks[low] += 1
                ranks[low + 1] += 1
                pieces.append((low, rng.choice(TORSION_CHOICES)))
                used += 2
            continue
        degree = rng.randrange(degrees)
        if ranks[degree] < max_rank:
            ranks[degree] += 1
            pieces.append((degree, 0))
            used += 1
    ranks = [0] * degrees
    base = [[] for _ in range(degrees - 1)]  # (row, col, k) per differential
    for degree, k in pieces:
        if k == 0:
            ranks[degree] += 1
            continue
        row, col = ranks[degree], ranks[degree + 1]
        ranks[degree] += 1
        ranks[degree + 1] += 1
        base[degree].append((row, col, k))
    forward, inverse = [], []
    for n in ranks:
        p, q = _unimodular(rng, n, OPS_PER_GENERATOR * n)
        forward.append(p)
        inverse.append(q)
    matrices = []
    for k in range(degrees - 1):
        d = [[0] * ranks[k + 1] for _ in range(ranks[k])]
        for row, col, factor in base[k]:
            d[row][col] = factor
        matrices.append(_freeze(_matmul(_matmul(forward[k], d), inverse[k + 1])))
    expected = []
    for degree in range(degrees):
        free = sum(1 for d, k in pieces if d == degree and k == 0)
        orders = [k for d, k in pieces if d == degree and k > 1]
        expected.append((free, invariant_factors(orders)))
    return KnownComplex(
        "prescribed", tuple(ranks), tuple(matrices), tuple(expected)
    )


def permuted(c: KnownComplex, rng: random.Random) -> KnownComplex:
    """The same complex with each degree's basis shuffled (same homology)."""
    orders = [rng.sample(range(n), n) for n in c.ranks]
    matrices = tuple(
        tuple(tuple(m[r][j] for j in orders[k + 1]) for r in orders[k])
        for k, m in enumerate(c.matrices)
    )
    return KnownComplex(c.name, c.ranks, matrices, c.expected)


def euler_characteristic(ranks) -> int:
    return sum((-1) ** k * n for k, n in enumerate(ranks))


def composes_to_zero(c: KnownComplex) -> bool:
    """d(k) . d(k+1) = 0 for every pair of consecutive raw matrices."""
    for k in range(len(c.matrices) - 1):
        low, high = c.matrices[k], c.matrices[k + 1]
        if any(any(v for v in row) for row in _matmul(low, high)):
            return False
    return True


def determinantal_factors(rows) -> tuple[int, ...]:
    """Invariant factors from gcds of minors: d_k = D_k / D_(k-1).

    Exponential in the matrix size; for small matrices only.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    factors, previous = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def _unimodular(rng, n, count):
    """Seeded product of elementary operations and its exact inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    if n < 2:
        return p, q
    for _ in range(count):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -2))
        # P <- E P with E = I + c e_ab (row a += c row b); Q <- Q E^-1
        pa, pb = p[a], p[b]
        for j in range(n):
            pa[j] += c * pb[j]
        for row in q:
            row[b] -= c * row[a]
    return p, q


def _matmul(a, b):
    if not a:
        return []
    cols = len(b[0]) if b else 0
    inner = len(b)
    out = []
    for row in a:
        out.append([sum(row[t] * b[t][j] for t in range(inner) if row[t]) for j in range(cols)])
    return out


def _det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _factor(n: int):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _freeze(rows):
    return tuple(tuple(row) for row in rows)
