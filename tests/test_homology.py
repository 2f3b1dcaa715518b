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
from itertools import combinations

import pytest

import effhom.homology
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
    NotFiniteTypeError,
    Pair,
    differential_matrix,
    direct_sum_complex,
    enumerate_basis,
    from_generator_images,
    homology_at,
    homology_via_effective_homology,
    homology_window,
    module_rank,
    normalize,
    zero_map,
)
from effhom.instances import (
    cc2,
    cc2_to_null,
    cone_example,
    fcc1,
    zxznat,
)

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


def finite_complex(ranks, matrices):
    """Complex with ``ranks[k]`` generators in degree k, zero elsewhere.

    ``matrices[k]`` lists the rows of d(k): C_(k+1) -> C_k, so column j is
    the image of the j-th generator of degree k + 1.
    """

    def module(i):
        return FiniteFree(ranks[i] if 0 <= i < len(ranks) else 0)

    def diff(i):
        source, target = module(i + 1), module(i)
        if not 0 <= i < len(matrices):
            return zero_map(source, target)
        rows = matrices[i]
        return from_generator_images(
            source,
            target,
            lambda j: normalize([(row[j], r) for r, row in enumerate(rows)], target),
        )

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


class TestHomologyWindow:
    def test_each_differential_built_and_factored_once(self, monkeypatch):
        calls = {"matrix": [], "factors": 0}
        build = effhom.homology.differential_matrix
        factor = effhom.homology.invariant_factors

        def counted_build(cc, i):
            calls["matrix"].append(i)
            return build(cc, i)

        def counted_factor(matrix):
            calls["factors"] += 1
            return factor(matrix)

        monkeypatch.setattr(effhom.homology, "differential_matrix", counted_build)
        monkeypatch.setattr(effhom.homology, "invariant_factors", counted_factor)
        got = homology_window(fcc1(), range(-3, 4))
        assert got == [Z_MOD_2 if i % 2 == 0 else TRIVIAL for i in range(-3, 4)]
        assert calls == {"matrix": list(range(-4, 4)), "factors": 8}

    def test_first_failing_degree_raises(self):
        cc = finite_complex([1, 1, 1], [[[1]], [[1]]])
        with pytest.raises(HomAlgError, match="around degree 1"):
            homology_window(cc, [0, 1, 2])
