"""Homology groups of the finite-type instances.

Expected groups are frozen from hand kernel/image computations:

* the rank-one complex with alternating x->2x / 0 differential: at an even
  degree the incoming map is zero (kernel Z) and the outgoing image is 2Z,
  so the group is Z/2; at an odd degree the incoming doubling is injective,
  so there are no cycles at all;
* the cone of an identity morphism is acyclic, and its homology must agree
  with the contracting homotopy produced for it.
* the known-answer complexes below are cell structures written out by
  hand (the torus, the Klein bottle and the projective plane as two
  triangles on a square with its edges glued, the boundary of the
  6-simplex) or a diagonal map, whose groups are textbook facts.
"""

import random
import re
import sys
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import effhom.homology
import effhom.snf
from effhom import (
    COUNTABLE,
    ZERO,
    Z,
    Comb,
    DirectSum,
    ChainComplex,
    FiniteFree,
    HomAlgError,
    HomologyGroup,
    IntMatrix,
    MembershipError,
    ModMorphism,
    NotFiniteTypeError,
    Pair,
    differential_columns,
    differential_matrix,
    direct_sum_complex,
    enumerate_basis,
    from_generator_images,
    generator,
    homology_at,
    homology_via_effective_homology,
    homology_window,
    invariant_factors,
    module_rank,
    zero_map,
)
from effhom.instances import (
    cc2,
    cc2_to_null,
    cone_example,
    fcc1,
    zxznat,
)

from test_snf import matmul

TRIVIAL = HomologyGroup(0)
Z_MOD_2 = HomologyGroup(0, (2,))


class TestHomologyGroup:
    def test_str_forms(self):
        assert str(TRIVIAL) == "0"
        assert str(HomologyGroup(1)) == "Z"
        assert str(HomologyGroup(2)) == "Z^2"
        assert str(Z_MOD_2) == "Z/2"
        assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HomologyGroup(-1)
        with pytest.raises(ValueError):
            HomologyGroup(0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, (4, 2))


class TestBasis:
    def test_finite_free(self):
        assert enumerate_basis(FiniteFree(2)) == [
            Comb(((0, 1),)),
            Comb(((1, 1),)),
        ]
        assert module_rank(FiniteFree(2)) == 2

    def test_sum_ordering(self):
        zz = DirectSum(Z, Z)
        assert enumerate_basis(zz) == [
            Pair(Comb(((0, 1),)), Comb(())),
            Pair(Comb(()), Comb(((0, 1),))),
        ]

    def test_zero(self):
        assert enumerate_basis(ZERO) == []

    def test_infinite_rejected(self):
        with pytest.raises(NotFiniteTypeError):
            enumerate_basis(COUNTABLE)
        with pytest.raises(NotFiniteTypeError):
            module_rank(DirectSum(Z, COUNTABLE))


class TestDifferentialMatrix:
    def test_fcc1_even(self):
        assert differential_matrix(fcc1(), 0) == IntMatrix.from_rows([[2]])

    def test_fcc1_odd(self):
        assert differential_matrix(fcc1(), 1) == IntMatrix.from_rows([[0]])

    def test_bottom_cone_matrix_from_basis_images(self):
        bottom = cone_example().reduction.bottom
        # oracle: apply the differential to both basis pairs and read the
        # coordinates by hand; at index 1, (1,0) -> (0,1) and (0,1) -> (0,2)
        assert differential_matrix(bottom, 1) == IntMatrix.from_rows([[0, 0], [1, 2]])

    def test_infinite_type_rejected(self):
        with pytest.raises(NotFiniteTypeError):
            differential_matrix(cc2(), 0)


class TestHomologyValues:
    def test_fcc1_alternates(self):
        for i in range(-4, 5):
            expected = Z_MOD_2 if i % 2 == 0 else TRIVIAL
            assert homology_at(fcc1(), i) == expected, i

    def test_bottom_cone_is_acyclic(self):
        bottom = cone_example().reduction.bottom
        for i in range(-4, 5):
            assert homology_at(bottom, i) == TRIVIAL, i

    def test_transfer_matches_bottom(self):
        for i in range(-4, 5):
            assert homology_via_effective_homology(zxznat(), i) == homology_at(
                fcc1(), i
            )

    def test_transfer_through_null(self):
        for i in (-2, 0, 3):
            assert homology_via_effective_homology(cc2_to_null(), i) == TRIVIAL

    def test_cone_example_is_acyclic_via_transfer(self):
        for i in range(-4, 5):
            assert homology_via_effective_homology(cone_example(), i) == TRIVIAL

    def test_infinite_type_rejected(self):
        with pytest.raises(NotFiniteTypeError):
            homology_at(cc2(), 0)


class TestBasisOrderInvariance:
    def test_summand_order_does_not_change_groups(self):
        bottom = cone_example().reduction.bottom
        one_way = direct_sum_complex(fcc1(), bottom)
        other_way = direct_sum_complex(bottom, fcc1())
        for i in range(-3, 4):
            assert homology_at(one_way, i) == homology_at(other_way, i), i

    def test_sum_nesting_does_not_change_groups(self):
        bottom = cone_example().reduction.bottom
        left = direct_sum_complex(direct_sum_complex(fcc1(), bottom), fcc1())
        right = direct_sum_complex(fcc1(), direct_sum_complex(bottom, fcc1()))
        for i in range(-2, 3):
            assert homology_at(left, i) == homology_at(right, i), i


def size(desc):
    """The rank of a finite-type module, summed over its leaves."""
    if isinstance(desc, DirectSum):
        return size(desc.left) + size(desc.right)
    return desc.rank


def coordinates(element, desc):
    """Dense coordinates of ``element``, leaf by leaf, left to right."""
    if isinstance(desc, DirectSum):
        return coordinates(element.left, desc.left) + coordinates(element.right, desc.right)
    x = [0] * desc.rank
    for g, c in element.terms:
        x[g] = c
    return x


def from_coordinates(x, desc):
    if isinstance(desc, DirectSum):
        n = size(desc.left)
        return Pair(from_coordinates(x[:n], desc.left), from_coordinates(x[n:], desc.right))
    return Comb(tuple((g, c) for g, c in enumerate(x) if c))


def finite_complex(modules, matrices):
    """Complex with ``modules[k]`` in degree k, zero elsewhere.

    An entry of ``modules`` is a module description or a rank.
    ``matrices[k]`` lists the rows of d(k): C_(k+1) -> C_k, so column j is
    the image of the j-th basis element of degree k + 1.
    """
    modules = [FiniteFree(m) if isinstance(m, int) else m for m in modules]

    def module(i):
        return modules[i] if 0 <= i < len(modules) else ZERO

    def diff(i):
        source, target = module(i + 1), module(i)
        if not 0 <= i < len(matrices):
            return zero_map(source, target)
        rows = matrices[i]

        def act(e):
            x = coordinates(e, source)
            return from_coordinates([sum(a * b for a, b in zip(row, x)) for row in rows], target)

        return ModMorphism(source, target, act)

    return ChainComplex(module, diff, declared_finite_type=True)


def groups(cc, degrees):
    one_by_one = [homology_at(cc, i) for i in degrees]
    assert homology_window(cc, degrees) == one_by_one
    return one_by_one


# A square with corners P0 P1 P2 P3 (counter-clockwise) cut along the
# diagonal c = P0P2 into the triangles L = [P0, P1, P2] and U = [P0, P3, P2].
# Edges: a = P0P1 (bottom), b = P1P2 (right); the top and left edges are
# glued to a and b according to the surface.  Rows of d(1) are a, b, c and
# its columns L, U.


class TestKnownAnswers:
    def test_torus(self):
        # top = a, left = b: all corners are one vertex, dL = dU = a + b - c
        torus = finite_complex([1, 3, 2], [[[0, 0, 0]], [[1, 1], [1, 1], [-1, -1]]])
        assert groups(torus, range(-1, 4)) == [
            TRIVIAL, HomologyGroup(1), HomologyGroup(2), HomologyGroup(1), TRIVIAL,
        ]

    def test_klein_bottle(self):
        # top = -a (reversed), left = b: dL = a + b - c, dU = -a + b - c
        klein = finite_complex([1, 3, 2], [[[0, 0, 0]], [[1, -1], [1, 1], [-1, -1]]])
        assert groups(klein, range(-1, 4)) == [
            TRIVIAL, HomologyGroup(1), HomologyGroup(1, (2,)), TRIVIAL, TRIVIAL,
        ]

    def test_projective_plane(self):
        # antipodal gluing: vertices v = P0 = P2 and w = P1 = P3, a: v -> w,
        # b: w -> v, c a loop at v; dL = a + b - c, dU = a + b + c
        rp2 = finite_complex(
            [2, 3, 2],
            [[[-1, 1, 0], [1, -1, 0]], [[1, 1], [1, 1], [-1, 1]]],
        )
        assert groups(rp2, range(-1, 4)) == [
            TRIVIAL, HomologyGroup(1), Z_MOD_2, TRIVIAL, TRIVIAL,
        ]

    def test_torsion_past_the_digit_limit_is_written_out(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        cc = finite_complex([1, 1], [[[10**5000]]])
        assert str(homology_at(cc, 0)) == "Z/1" + "0" * 5000
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_diagonal_torsion(self):
        cc = finite_complex([2, 2], [[[2, 0], [0, 6]]])
        assert groups(cc, range(-1, 3)) == [
            TRIVIAL, HomologyGroup(0, (2, 6)), TRIVIAL, TRIVIAL,
        ]

    def test_sphere_from_shuffled_simplex_boundary(self):
        # faces of the 6-simplex of dimension 0..5: the sphere S^5
        faces = [list(combinations(range(7), k + 1)) for k in range(6)]
        rng = random.Random(6)
        # a signed permutation of every degree's basis
        perms = [rng.sample(range(len(level)), len(level)) for level in faces]
        signs = [[rng.choice((1, -1)) for _ in level] for level in faces]
        matrices = []
        for k in range(5):
            position = {face: r for r, face in enumerate(faces[k])}
            old = [[0] * len(faces[k + 1]) for _ in faces[k]]
            for col, face in enumerate(faces[k + 1]):
                for t in range(len(face)):
                    old[position[face[:t] + face[t + 1 :]]][col] = (-1) ** t
            matrices.append(
                [
                    [
                        signs[k][r] * signs[k + 1][c] * old[perms[k][r]][perms[k + 1][c]]
                        for c in range(len(faces[k + 1]))
                    ]
                    for r in range(len(faces[k]))
                ]
            )
        sphere = finite_complex([len(level) for level in faces], matrices)
        expected = [TRIVIAL] * 8
        expected[1] = expected[6] = HomologyGroup(1)
        assert groups(sphere, range(-1, 7)) == expected

    def test_differentials_that_do_not_compose_to_zero(self):
        cc = finite_complex([1, 1, 1], [[[1]], [[1]]])
        with pytest.raises(HomAlgError, match="do not compose to zero"):
            homology_at(cc, 1)


# -- prescribed homology ----------------------------------------------------
#
# A complex with a known answer is a direct sum of the elementary complexes
# Z in one degree (a free class), Z --m--> Z across two degrees (Z/m in the
# lower one, nothing when m = 1) and 0, with the basis of each degree then
# changed by a seeded product of elementary unimodular matrices.  A basis
# change P in degree k multiplies d(k-1) by P on the right and d(k) by P^-1
# on the left, so d(k-1) d(k) stays zero and the groups stay the prescribed
# ones.


def torsion_chain(orders):
    """Invariant factors of Z/m1 + Z/m2 + ..., as Z/a + Z/b = Z/gcd + Z/lcm."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(x for x in d if x > 1)


def prescribed(length, free, arrows, rng, mixes):
    """Ranks, matrices and groups of degrees 0 .. length - 1.

    ``free`` lists the degree of each Z; ``arrows`` holds ``(k, m)`` for each
    Z --m--> Z from degree k + 1 to degree k.
    """
    ranks = [0] * length

    def new(k):
        ranks[k] += 1
        return ranks[k] - 1

    for k in free:
        new(k)
    entries = [(k, new(k), new(k + 1), m) for k, m in arrows]
    matrices = [[[0] * ranks[k + 1] for _ in range(ranks[k])] for k in range(length - 1)]
    for k, r, c, m in entries:
        matrices[k][r][c] = m
    for _ in range(mixes):
        k = rng.randrange(length)
        if ranks[k] < 2:
            continue
        a, b = rng.sample(range(ranks[k]), 2)
        q = rng.choice((-2, -1, 1, 2))
        # P = I + q E(b, a): column a += q column b, then row b -= q row a
        if k > 0:
            for row in matrices[k - 1]:
                row[a] += q * row[b]
        if k < length - 1:
            m = matrices[k]
            m[b] = [x - q * y for x, y in zip(m[b], m[a])]
    groups = [
        HomologyGroup(free.count(k), torsion_chain(m for j, m in arrows if j == k))
        for k in range(length)
    ]
    return ranks, matrices, groups


def nested(sizes, rng):
    """A direct sum of ``FiniteFree`` leaves of these ranks, in a seeded nesting."""
    if len(sizes) == 1:
        return FiniteFree(sizes[0])
    cut = rng.randrange(1, len(sizes))
    return DirectSum(nested(sizes[:cut], rng), nested(sizes[cut:], rng))


@st.composite
def prescribed_complexes(draw):
    """(modules, matrices, groups) of a prescribed complex on degrees 0 .. n - 1.

    Each module is a direct sum of up to four leaves, zero leaves included.
    """
    length = draw(st.integers(1, 5))
    free = draw(st.lists(st.integers(0, length - 1), max_size=4))
    arrows = []
    if length > 1:
        arrows = draw(
            st.lists(st.tuples(st.integers(0, length - 2), st.integers(1, 12)), max_size=6)
        )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    ranks, matrices, groups = prescribed(length, free, arrows, rng, 4 * (len(free) + len(arrows)))
    modules = []
    for rank in ranks:
        cuts = sorted(draw(st.lists(st.integers(0, rank), max_size=3)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [rank])]
        modules.append(nested(sizes, rng))
    return modules, matrices, groups


def reference_matrix(cc, i):
    """d(i) densely: the image of each basis vector, in coordinates."""
    source, target = cc.module_at(i + 1), cc.module_at(i)
    n = size(source)
    d = cc.diff_at(i)
    columns = [
        coordinates(d(from_coordinates([int(j == k) for j in range(n)], source)), target)
        for k in range(n)
    ]
    rows = size(target)
    return IntMatrix(rows, n, tuple(columns[j][r] for r in range(rows) for j in range(n)))


def reference_groups(cc, degrees):
    """The groups from dense matrices, and the first degree where d d != 0."""
    groups = []
    for i in degrees:
        incoming, outgoing = reference_matrix(cc, i - 1), reference_matrix(cc, i)
        if any(matmul(incoming, outgoing).entries):
            return groups, i
        in_factors, out_factors = invariant_factors(incoming), invariant_factors(outgoing)
        groups.append(
            HomologyGroup(
                incoming.cols - len(in_factors) - len(out_factors),
                tuple(f for f in out_factors if f > 1),
            )
        )
    return groups, None


class TestPrescribedHomology:
    @given(prescribed_complexes())
    def test_prescribed_groups_come_out(self, complex_):
        modules, matrices, expected = complex_
        cc = finite_complex(modules, matrices)
        window = range(-1, len(modules) + 1)
        assert homology_window(cc, window) == [TRIVIAL] + expected + [TRIVIAL]

    @given(prescribed_complexes(), st.data())
    def test_sparse_path_matches_dense_reference(self, complex_, data):
        modules, matrices, _ = complex_
        nonempty = [m for m in matrices if m and m[0]]
        if nonempty and data.draw(st.booleans()):
            # one changed entry, which mostly breaks d d = 0
            m = data.draw(st.sampled_from(nonempty))
            row = m[data.draw(st.integers(0, len(m) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] += data.draw(st.sampled_from((-1, 1, 3)))
        cc = finite_complex(modules, matrices)
        for i in range(-2, len(modules) + 1):
            assert differential_matrix(cc, i) == reference_matrix(cc, i), i
        window = range(-1, len(modules) + 1)
        expected, failing = reference_groups(cc, window)
        if failing is None:
            assert homology_window(cc, window) == expected
        else:
            with pytest.raises(HomAlgError, match=f"around degree {failing}$"):
                homology_window(cc, window)

    def test_known_answer_at_size(self):
        # total rank 240 over 8 degrees, with mixed torsion
        rng = random.Random(7)
        free = [rng.randrange(8) for _ in range(40)]
        arrows = [(rng.randrange(7), rng.choice((1, 2, 3, 4, 6, 9, 10))) for _ in range(100)]
        ranks, matrices, expected = prescribed(8, free, arrows, rng, 600)
        assert sum(ranks) == 240
        cc = finite_complex(ranks, matrices)
        assert homology_window(cc, range(-1, 9)) == [TRIVIAL] + expected + [TRIVIAL]

    def test_known_answer_with_dense_torsion(self, monkeypatch):
        # total rank 200 over 5 degrees, torsion orders up to 210, mixed
        # until the remainder after the unit pivots is dense
        rng = random.Random(1)
        free = [rng.randrange(5) for _ in range(20)]
        orders = (2, 3, 4, 5, 6, 7, 10, 12, 30, 60, 210)
        arrows = [(rng.randrange(4), rng.choice(orders)) for _ in range(90)]
        ranks, matrices, expected = prescribed(5, free, arrows, rng, 600)
        assert sum(ranks) == 200 and max(m for _, m in arrows) == 210
        remainders = []
        diagonalize = effhom.snf._diagonalize

        def recorded(d, m, n):
            remainders.append((m, n, sum(1 for row in d for x in row if x)))
            return diagonalize(d, m, n)

        monkeypatch.setattr(effhom.snf, "_diagonalize", recorded)
        cc = finite_complex(ranks, matrices)
        assert homology_window(cc, range(-1, 6)) == [TRIVIAL] + expected + [TRIVIAL]
        m, n, nonzero = max(remainders)
        assert min(m, n) >= 30 and nonzero >= m * n // 2, remainders


class TestComposesToZero:
    # d(0) = [[1, 1, 2], [0, 3, -1]] kills (-7, 1, 3): every entry of the
    # product is a sum of nonzero partial products that cancel
    D0 = [[1, 1, 2], [0, 3, -1]]

    def test_partial_products_that_cancel(self):
        cc = finite_complex([2, 3, 1], [self.D0, [[-7], [1], [3]]])
        assert groups(cc, range(-1, 4)) == [TRIVIAL] * 5

    def test_a_single_nonzero_entry_raises(self):
        # d(0) (-9, 1, 4) = (0, -1)
        cc = finite_complex([2, 3, 1], [self.D0, [[-9], [1], [4]]])
        with pytest.raises(HomAlgError, match="around degree 1"):
            homology_window(cc, range(-1, 4))


def fresh(cc):
    """A complex with the differentials of ``cc`` and nothing kept yet."""
    return ChainComplex(cc.module_family, cc.diff_family, declared_finite_type=True)


class TestHomologyWindow:
    def test_each_differential_built_and_factored_once(self, monkeypatch):
        calls = {"columns": [], "factors": 0}
        build = effhom.homology.differential_columns
        factor = effhom.homology._sparse_invariant_factors

        def counted_build(cc, i):
            calls["columns"].append(i)
            return build(cc, i)

        def counted_factor(rows):
            calls["factors"] += 1
            return factor(rows)

        def counted(run):
            calls.update(columns=[], factors=0)
            run()
            return calls

        monkeypatch.setattr(effhom.homology, "differential_columns", counted_build)
        monkeypatch.setattr(effhom.homology, "_sparse_invariant_factors", counted_factor)
        # fcc1() is cached, so earlier tests may have factored its differentials
        cc = fresh(fcc1())
        expected = [Z_MOD_2 if i % 2 == 0 else TRIVIAL for i in range(-3, 4)]
        assert counted(lambda: homology_window(cc, range(-3, 4))) == {
            "columns": list(range(-4, 4)), "factors": 8,
        }
        # the factors are kept on the complex; the columns are read again
        assert counted(lambda: homology_window(cc, range(-3, 4))) == {
            "columns": list(range(-4, 4)), "factors": 0,
        }
        one_by_one = []
        assert counted(lambda: one_by_one.extend(homology_at(cc, i) for i in range(-3, 4))) == {
            "columns": [j for i in range(-3, 4) for j in (i - 1, i)], "factors": 0,
        }
        assert one_by_one == expected
        assert homology_window(cc, range(-3, 5)) == expected + [Z_MOD_2]
        assert calls["factors"] == 1  # only d(4) is new

    def test_repeated_calls_still_check_composition(self):
        cc = finite_complex([1, 1, 1], [[[1]], [[1]]])
        assert homology_at(cc, 0) == TRIVIAL
        for _ in range(2):
            with pytest.raises(HomAlgError, match="around degree 1$"):
                homology_at(cc, 1)
            with pytest.raises(HomAlgError, match="around degree 1$"):
                homology_window(cc, [0, 1, 2])

    def test_a_bad_image_raises_on_every_call_and_keeps_no_factors(self):
        # d(0): Z -> Z sends x0 to x3, which Z does not have
        def module(i):
            return Z if i in (0, 1) else ZERO

        def diff(i):
            if i == 0:
                return ModMorphism(Z, Z, lambda e: Comb(((3, 1),)))
            return zero_map(module(i + 1), module(i))

        cc = ChainComplex(module, diff)
        for run in [lambda: homology_at(cc, 0)] * 2 + [lambda: homology_window(cc, [1, 0])]:
            with pytest.raises(MembershipError, match="x3 is not a member of Z"):
                run()
            assert 0 not in cc._factors

    @given(prescribed_complexes(), st.randoms(use_true_random=False))
    def test_any_degree_order_matches_the_window(self, complex_, rng):
        modules, matrices, expected = complex_
        window = list(range(-1, len(modules) + 1))
        expected = [TRIVIAL] + expected + [TRIVIAL]
        assert homology_window(finite_complex(modules, matrices), window) == expected
        descending, shuffled = window[::-1], rng.sample(window, len(window))
        cc = finite_complex(modules, matrices)
        assert [homology_at(cc, i) for i in descending] == expected[::-1]
        assert homology_window(cc, window) == expected
        cc = finite_complex(modules, matrices)
        by_degree = dict(zip(window, expected))
        assert [homology_at(cc, i) for i in shuffled] == [by_degree[i] for i in shuffled]
        assert homology_window(cc, window) == expected

    @pytest.mark.parametrize("i", [3, 1])
    def test_an_infinite_neighbour_is_refused(self, i):
        # Z[N] at degree 2 only: it is at i - 1 for degree 3 and at i + 1 for 1
        def module(j):
            return COUNTABLE if j == 2 else Z

        cc = ChainComplex(module, lambda j: zero_map(module(j + 1), module(j)))
        with pytest.raises(NotFiniteTypeError, match="^module at degree 2 is not"):
            homology_window(cc, [i])
        assert homology_window(cc, [0, 4]) == [HomologyGroup(1)] * 2

    def test_first_failing_degree_raises(self):
        cc = finite_complex([1, 1, 1], [[[1]], [[1]]])
        with pytest.raises(HomAlgError, match="around degree 1"):
            homology_window(cc, [0, 1, 2])


# -- the direct read of generator images ------------------------------------
#
# A ``from_generator_images`` differential between leaves has its columns in
# hand: the image of x_j is column j.  ``differential_columns`` reads them
# instead of applying the map to each basis element, and must agree with the
# applied path of a caller's ``ModMorphism`` on the same matrices, bad images
# included.


def images_complex(ranks, matrices, log=None):
    """``finite_complex(ranks, matrices)`` with ``from_generator_images`` maps.

    The image of x_j under d(k) is column j of ``matrices[k]``; each image
    read appends ``(k, j)`` to ``log`` when one is given.
    """

    def module(i):
        return FiniteFree(ranks[i]) if 0 <= i < len(ranks) else ZERO

    def diff(i):
        source, target = module(i + 1), module(i)
        if not 0 <= i < len(matrices):
            return zero_map(source, target)
        rows = matrices[i]

        def image(j):
            if log is not None:
                log.append((i, j))
            return Comb(tuple((r, row[j]) for r, row in enumerate(rows) if row[j]))

        return from_generator_images(source, target, image)

    return ChainComplex(module, diff, declared_finite_type=True)


def outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def one_image_complex(image):
    """Z in degrees 0 and 1, d(0) the generator-image map x_g -> ``image``."""

    def module(i):
        return Z if i in (0, 1) else ZERO

    def diff(i):
        if i == 0:
            return from_generator_images(Z, Z, lambda g: image)
        return zero_map(module(i + 1), module(i))

    return ChainComplex(module, diff)


class TestDirectRead:
    @seed(7031)
    @settings(max_examples=60, deadline=None)
    @given(prescribed_complexes(), st.data())
    def test_direct_read_matches_the_applied_path(self, complex_, data):
        modules, matrices, _ = complex_
        ranks = [size(m) for m in modules]
        nonempty = [m for m in matrices if m and m[0]]
        if nonempty and data.draw(st.booleans()):
            m = data.draw(st.sampled_from(nonempty))
            row = m[data.draw(st.integers(0, len(m) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] += data.draw(st.sampled_from((-1, 1, 3)))
        read, applied = images_complex(ranks, matrices), finite_complex(ranks, matrices)
        for i in range(-2, len(ranks) + 1):
            assert differential_columns(read, i) == differential_columns(applied, i), i
            assert differential_matrix(read, i) == differential_matrix(applied, i), i
        window = range(-1, len(ranks) + 1)
        expected = outcome(lambda: homology_window(applied, window))
        assert outcome(lambda: homology_window(read, window)) == expected

    @pytest.mark.parametrize("image", [Pair(Comb(()), Comb(())), 5, Comb(((3, 1),))])
    def test_a_bad_image_raises_as_an_application_does(self, image):
        cc = one_image_complex(image)
        with pytest.raises(MembershipError) as applied:
            cc.diff_at(0)(generator(0))
        if isinstance(image, Comb):
            assert str(applied.value) == "x3 is not a member of Z"
        message = f"^{re.escape(str(applied.value))}$"
        runs = [lambda: differential_columns(cc, 0), lambda: homology_at(cc, 0)] * 2
        for run in runs + [lambda: homology_window(cc, [1, 0])]:
            with pytest.raises(MembershipError, match=message):
                run()
            assert 0 not in cc._factors

    @pytest.mark.parametrize("source, target", [(COUNTABLE, Z), (Z, COUNTABLE)])
    def test_an_infinite_end_is_refused(self, source, target):
        def module(i):
            return (target, source)[i] if i in (0, 1) else ZERO

        def diff(i):
            if i == 0:
                return from_generator_images(source, target, lambda g: Comb(()))
            return zero_map(module(i + 1), module(i))

        cc = ChainComplex(module, diff)
        with pytest.raises(NotFiniteTypeError, match="^Z\\[N\\] is not of finite type$"):
            differential_columns(cc, 0)

    def test_each_image_read_once_per_column_build_and_never_applied(self, monkeypatch):
        ranks, matrices, expected = prescribed(
            4, [0, 2, 3], [(0, 3), (1, 1), (2, 2), (0, 1)], random.Random(5), 30
        )
        log = []
        cc = images_complex(ranks, matrices, log)
        interior = {id(cc.diff_at(k)) for k in range(len(matrices))}
        applied = []
        call = ModMorphism.__call__

        def recorded(m, e):
            applied.append(id(m))
            return call(m, e)

        monkeypatch.setattr(ModMorphism, "__call__", recorded)
        every = sorted((k, j) for k in range(len(matrices)) for j in range(ranks[k + 1]))
        for _ in range(2):  # the columns are not kept, so each call reads again
            log.clear()
            window = range(-1, len(ranks) + 1)
            assert homology_window(cc, window) == [TRIVIAL] + expected + [TRIVIAL]
            assert sorted(log) == every
        # the zero map d(-1) out of degree 0 is still applied; no interior map is
        assert id(cc.diff_at(-1)) in applied and not interior & set(applied)

