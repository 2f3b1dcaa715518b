"""Canonical elements and the module-level algebra."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from effhom import (
    COUNTABLE,
    ZERO,
    Z,
    Comb,
    DirectSum,
    FiniteFree,
    MembershipError,
    Pair,
    Sampler,
    from_generator_images,
    generator,
    identity,
    normalize,
    scaling,
)
from effhom.instances import cc2
from effhom.modules import join, leaves, split

ZZ = DirectSum(Z, Z)


def comb(*terms):
    return Comb(tuple(terms))


class TestDescriptors:
    def test_zero_equals_rank_zero(self):
        assert ZERO == FiniteFree(0)
        assert hash(ZERO) == hash(FiniteFree(0))

    def test_negative_rank_is_refused(self):
        with pytest.raises(ValueError, match="^rank must be a natural number$"):
            FiniteFree(-1)

    def test_finite_type(self):
        assert FiniteFree(3).is_finite_type()
        assert not COUNTABLE.is_finite_type()
        assert DirectSum(Z, Z).is_finite_type()
        assert not DirectSum(Z, COUNTABLE).is_finite_type()

    def test_membership(self):
        assert Z.contains(comb((0, 5)))
        assert not Z.contains(comb((1, 5)))
        assert not ZERO.contains(comb((0, 1)))
        assert COUNTABLE.contains(comb((40, 1)))
        assert ZZ.contains(Pair(comb((0, 1)), comb()))
        assert not ZZ.contains(comb((0, 1)))
        with pytest.raises(MembershipError):
            Z.require(comb((3, 1)))
        with pytest.raises(MembershipError):
            Z.require(Pair(comb((0, 1)), comb()))

    def test_zero_elements(self):
        assert Z.zero() == comb()
        assert ZZ.zero() == Pair(comb(), comb())
        assert ZZ.zero().is_zero()


#: A coefficient and generator index past the interpreter's 4,300-digit
#: int <-> str limit, and its text.
HUGE, HUGE_TEXT = 10**4400, "1" + "0" * 4400
#: The digit limit now: None where the interpreter has none.
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


class TestPastTheDigitLimit:
    """Text and messages of elements with integers past the digit limit."""

    @pytest.mark.parametrize("call, message", [
        (lambda: Z.require(comb((1, HUGE))), f"{HUGE_TEXT}*x1 is not a member of Z"),
        (lambda: identity(Z)(comb((1, HUGE))), f"{HUGE_TEXT}*x1 is not a member of Z"),
        (lambda: ZZ.require(comb((1, HUGE))), f"{HUGE_TEXT}*x1 is not a member of (Z (+) Z)"),
        (lambda: split(comb((1, HUGE)), ZZ), f"{HUGE_TEXT}*x1 is not a member of (Z (+) Z)"),
        (lambda: normalize([(1, HUGE)], Z), f"generator x{HUGE_TEXT} is not valid for Z"),
    ], ids=["require", "identity", "sum-require", "split", "normalize"])
    def test_membership_message_writes_the_integer(self, call, message):
        limit = digit_limit()
        with pytest.raises(MembershipError) as info:
            call()
        assert str(info.value) == message
        assert digit_limit() == limit

    def test_repr_writes_the_integer(self):
        limit = digit_limit()
        assert repr(Pair(comb((0, -HUGE)), comb())) == f"(-{HUGE_TEXT}*x0, 0)"
        assert digit_limit() == limit


class TestNormalize:
    def test_sorts_and_orders(self):
        assert normalize([(7, 4), (8, 0)], COUNTABLE) == comb((0, 8), (4, 7))

    def test_cancellation(self):
        assert normalize([(3, 1), (-3, 1)], COUNTABLE) == comb()

    def test_merges_like_terms(self):
        # hand merge: x2 collects 2 + 5, x0 keeps 1
        assert normalize([(2, 2), (1, 0), (5, 2)], COUNTABLE) == comb((0, 1), (2, 7))

    def test_rejects_out_of_range(self):
        with pytest.raises(MembershipError):
            normalize([(1, 4)], FiniteFree(2))
        with pytest.raises(MembershipError):
            normalize([(1, -1)], COUNTABLE)
        with pytest.raises(MembershipError):
            normalize([(1, 0)], ZZ)


CONE_SHAPE = DirectSum(DirectSum(Z, COUNTABLE), Z)
NESTED = [
    (Z, comb((0, 4))),
    (ZZ, Pair(comb((0, 1)), comb())),
    (CONE_SHAPE, Pair(Pair(comb((0, -10)), comb((0, -8), (4, -7))), comb((0, 5)))),
    (
        DirectSum(ZZ, DirectSum(COUNTABLE, DirectSum(ZERO, FiniteFree(3)))),
        Pair(Pair(comb(), comb((0, 2))), Pair(comb((9, 1)), Pair(comb(), comb((2, -3))))),
    ),
]


class TestLeafWalk:
    def test_leaves_left_to_right(self):
        assert leaves(COUNTABLE) == [COUNTABLE]
        assert leaves(CONE_SHAPE) == [Z, COUNTABLE, Z]
        assert leaves(DirectSum(Z, DirectSum(ZERO, COUNTABLE))) == [Z, ZERO, COUNTABLE]

    @pytest.mark.parametrize("desc, e", NESTED)
    def test_split_follows_leaves(self, desc, e):
        assert [leaf for leaf, _ in split(e, desc)] == list(leaves(desc))

    @pytest.mark.parametrize("desc, e", NESTED)
    def test_join_inverts_split(self, desc, e):
        assert join(desc, iter(p for _, p in split(e, desc))) == e

    def test_split_order_of_parts(self):
        e = NESTED[2][1]
        assert [p for _, p in split(e, CONE_SHAPE)] == [
            comb((0, -10)),
            comb((0, -8), (4, -7)),
            comb((0, 5)),
        ]

    def test_split_refuses_comb_for_pair(self):
        with pytest.raises(MembershipError):
            split(comb((0, 1)), ZZ)
        with pytest.raises(MembershipError):
            split(Pair(comb(), comb((0, 1))), DirectSum(Z, ZZ))


class TestArithmetic:
    def test_add_inverse(self):
        e = comb((0, 8), (4, 7))
        assert e + (-e) == comb()

    def test_add_identity_on_pair(self):
        e = Pair(Pair(comb((0, 5)), comb((0, 8), (4, 7))), comb((0, 3)))
        shape = DirectSum(DirectSum(Z, COUNTABLE), Z)
        assert e + shape.zero() == e

    def test_add_merges(self):
        assert comb((0, 8), (4, 7)) + comb((4, 1)) == comb((0, 8), (4, 8))

    def test_neg(self):
        assert -comb((0, 8), (4, 7)) == comb((0, -8), (4, -7))

    def test_scale(self):
        e = comb((0, 8), (4, 7))
        assert 0 * e == comb()
        assert -2 * comb((3, 5)) == comb((3, -10))
        assert (0 * Pair(e, e)) == Pair(comb(), comb())

    def test_shape_mismatch(self):
        with pytest.raises(MembershipError):
            comb((0, 1)) + Pair(comb(), comb())
        with pytest.raises(MembershipError):
            Pair(comb(), comb()) + comb((0, 1))

    def test_adding_a_non_element_is_a_type_error(self):
        with pytest.raises(TypeError):
            Comb(()) + 1
        with pytest.raises(TypeError):
            Pair(comb(), comb()) + 1

    @pytest.mark.parametrize(
        "scale",
        [
            lambda: comb((0, 8)) * 1.5,
            lambda: 2.5 * comb((0, 8)),
            lambda: Fraction(1, 2) * comb((0, 8)),
            lambda: Pair(comb((0, 8)), comb()) * 0.5,
            lambda: scaling(COUNTABLE, 0.5)(comb((0, 8))),
        ],
        ids=["comb*float", "float*comb", "fraction*comb", "pair*float", "scaling"],
    )
    def test_scaling_by_a_non_integer_is_a_type_error(self, scale):
        # coefficients are integers: no element is scaled by a float or a
        # fraction, which would leave the module
        with pytest.raises(TypeError):
            scale()

    def test_canonical_constructor_guards(self):
        with pytest.raises(ValueError):
            Comb(((0, 0),))
        with pytest.raises(ValueError):
            Comb(((3, 1), (1, 2)))
        with pytest.raises(ValueError):
            Comb(((2, 1), (2, 2)))

    def test_a_lone_negative_generator_index_is_refused(self):
        # generator indices are natural: the first term's index is checked too
        with pytest.raises(ValueError, match="^generator indices must be strictly"):
            Comb(((-1, 1),))
        assert Comb(((0, 1),)) == generator(0)

    def test_generator(self):
        assert generator(4) == comb((4, 1))
        with pytest.raises(MembershipError):
            generator(-1)


raw_terms = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(0, 30)), max_size=8
)
combs = raw_terms.map(lambda t: normalize(t, COUNTABLE))


def assert_canonical(e):
    prev = -1
    for g, c in e.terms:
        assert g > prev and c != 0
        prev = g


@given(raw_terms)
def test_normalize_is_canonical(terms):
    assert_canonical(normalize(terms, COUNTABLE))


@given(combs, combs)
def test_add_commutative_and_canonical(a, b):
    assert a + b == b + a
    assert_canonical(a + b)


@given(combs, combs, combs)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(combs)
def test_neg_involution(a):
    assert -(-a) == a
    assert (a + (-a)).is_zero()


@given(st.integers(-20, 20), combs)
def test_scale_distributes(c, a):
    assert c * a + a == (c + 1) * a


@given(
    st.integers(0, 40),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 60)), max_size=8),
)
def test_finite_membership_reads_the_ends(rank, raw):
    # the definition: every generator of the combination is below the rank
    c = normalize(raw, COUNTABLE)
    assert FiniteFree(rank).contains(c) == all(0 <= g < rank for g, _ in c.terms)


def passes_the_constructor(e):
    # the validating constructor accepts the terms and rebuilds the same value
    assert Comb(e.terms) == e


def folded(g):
    """x(2k) -> x(k) and x(2k+1) -> -x(k), so images of paired generators cancel."""
    return generator(g // 2) * (1 if g % 2 == 0 else -1)


FOLD = from_generator_images(COUNTABLE, COUNTABLE, folded)


def interleave(a, b):
    """The combination whose fold is ``a - b``."""
    raw = [(c, 2 * g) for g, c in a.terms] + [(c, 2 * g + 1) for g, c in b.terms]
    return normalize(raw, COUNTABLE)


@given(raw_terms, combs, combs, st.integers(-20, 20))
def test_library_results_are_canonical(raw, a, b, c):
    difference, cancelled = FOLD(interleave(a, b)), FOLD(interleave(a, a))
    assert difference == a - b and cancelled.is_zero()
    # the differential of cc2 at an even and an odd index: the parity filters
    parity = [cc2().diff_at(i)(a) for i in (0, 1)]
    assert parity[0] + parity[1] == a
    results = (normalize(raw, COUNTABLE), a + b, a + (-a), -a, c * a, difference, cancelled)
    for e in results + tuple(parity):
        passes_the_constructor(e)


@given(
    st.integers(0, 10**6),
    st.integers(1, 10**12),
    st.integers(1, 12),
    st.integers(0, 40),
    st.sampled_from([ZERO, FiniteFree(3), COUNTABLE, CONE_SHAPE]),
)
def test_sampled_elements_are_canonical(seed, coeff_bound, support, max_gen, desc):
    s = Sampler(coeff_bound=coeff_bound, max_support=support, max_generator=max_gen)
    for _, part in split(s.element(random.Random(seed), desc), desc):
        passes_the_constructor(part)


@given(combs.filter(lambda e: len(e.terms) >= 2), st.data())
def test_constructor_rejects_what_is_not_canonical(e, data):
    terms = list(e.terms)
    i = data.draw(st.integers(0, len(terms) - 2))
    swapped = terms[:i] + [terms[i + 1], terms[i]] + terms[i + 2 :]
    repeated = terms[: i + 1] + [terms[i]] + terms[i + 1 :]
    zeroed = terms[:i] + [(terms[i][0], 0)] + terms[i + 1 :]
    for bad in (swapped, repeated, zeroed):
        with pytest.raises(ValueError):
            Comb(tuple(bad))
