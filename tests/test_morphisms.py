"""Morphism construction and the pointwise algebra laws."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from effhom import (
    COUNTABLE,
    Z,
    Comb,
    DirectSum,
    MembershipError,
    ModMorphism,
    Pair,
    Sampler,
    ShapeMismatchError,
    direct_sum_map,
    from_generator_images,
    generator,
    identity,
    inj1,
    inj2,
    normalize,
    pair,
    proj1,
    proj2,
    scaling,
    zero_map,
)
from effhom.instances import cc2

E = Comb(((0, 8), (4, 7)))


def keep_even(j):
    return generator(j) if j % 2 == 0 else Comb(())


class TestGeneratorImages:
    def test_identity_images(self):
        phi = from_generator_images(COUNTABLE, COUNTABLE, generator)
        assert phi(E) == E

    def test_parity_rule_keeps_even(self):
        phi = from_generator_images(COUNTABLE, COUNTABLE, keep_even)
        assert phi(E) == E

    def test_parity_rule_drops_odd(self):
        phi = from_generator_images(COUNTABLE, COUNTABLE, keep_even)
        assert phi(Comb(((1, 3), (2, 5)))) == Comb(((2, 5),))

    def test_bad_image_raises_at_application(self):
        phi = from_generator_images(COUNTABLE, Z, lambda j: generator(j))
        with pytest.raises(MembershipError):
            phi(generator(3))

    def test_sum_source_rejected(self):
        with pytest.raises(ShapeMismatchError):
            from_generator_images(DirectSum(Z, Z), Z, generator)

    def test_sum_target_rejected(self):
        with pytest.raises(ShapeMismatchError):
            from_generator_images(Z, DirectSum(Z, Z), generator)

    def test_pair_image_raises_at_application(self):
        phi = from_generator_images(
            COUNTABLE, COUNTABLE, lambda j: Pair(generator(j), Comb(()))
        )
        with pytest.raises(MembershipError):
            phi(generator(3))


# x0 -> x1, which is not a member of Z.  In `g*f` (an outer zero map) and
# `f+g` (BAD - BAD) the bad term is discarded or cancels before the outer
# boundary, so only the leaf's own check can catch it.
BAD = from_generator_images(Z, Z, lambda j: generator(j + 1))


@pytest.mark.parametrize(
    "composite",
    [
        zero_map(Z, Z) * BAD,
        BAD * scaling(Z, 2),
        BAD - BAD,
        pair(BAD, identity(Z)),
        direct_sum_map(identity(Z), BAD),
    ],
    ids=["g*f", "f*g", "f+g", "pair", "direct_sum_map"],
)
def test_bad_image_inside_composite_raises_at_application(composite):
    x = generator(0)
    if isinstance(composite.source, DirectSum):
        x = Pair(x, x)
    with pytest.raises(MembershipError):
        composite(x)


class TestFolds:
    """The units of the algebra are folded out when a composite is built."""

    def test_zero_skips_a_raw_action(self):
        seen = []
        raw = ModMorphism(Z, Z, lambda e: seen.append(e) or e)
        assert (zero_map(Z, Z) * (scaling(Z, 2) * raw))(generator(0)) == Comb(())
        assert seen == []

    def test_zero_still_runs_generator_images(self):
        seen = []
        checked = from_generator_images(Z, Z, lambda j: seen.append(j) or generator(0))
        assert (zero_map(Z, Z) * (scaling(Z, 2) * checked))(generator(0)) == Comb(())
        assert seen == [0]

    def test_inner_zero_folds_every_outer_map(self):
        seen = []
        loud = ModMorphism(Z, Z, lambda e: seen.append(e) or e)
        checked = from_generator_images(
            COUNTABLE, Z, lambda j: seen.append(j) or generator(j)
        )
        f = scaling(Z, 3)
        for m in (loud * zero_map(Z, Z), checked * zero_map(Z, COUNTABLE)):
            assert m + f is f  # only a zero map vanishes from a sum
            assert m(generator(0)) == Comb(())
        assert seen == []

    def test_units_vanish(self):
        f, z = scaling(Z, 3), zero_map(Z, Z)
        assert identity(Z) * f is f
        assert f * identity(Z) is f
        assert f + z is f
        assert z + f is f
        assert f - z is f
        assert -z is z

    def test_a_callers_morphism_is_no_unit(self):
        f = scaling(Z, 3)
        assert ModMorphism(Z, Z, lambda e: e) * f is not f
        assert f + ModMorphism(Z, Z, lambda e: Comb(())) is not f

    def test_shapes_are_checked_before_folding(self):
        with pytest.raises(ShapeMismatchError):
            identity(Z) * zero_map(Z, COUNTABLE)
        with pytest.raises(ShapeMismatchError):
            zero_map(Z, Z) * zero_map(Z, COUNTABLE)
        with pytest.raises(ShapeMismatchError):
            zero_map(Z, Z) + zero_map(Z, COUNTABLE)


class TestApplication:
    def test_identity(self):
        assert identity(COUNTABLE)(E) == E

    def test_doubling(self):
        assert scaling(Z, 2)(Comb(((0, 5),))) == Comb(((0, 10),))

    def test_zero(self):
        assert zero_map(COUNTABLE, Z)(E) == Comb(())

    def test_membership_checked_on_input(self):
        with pytest.raises(MembershipError):
            scaling(Z, 2)(E)


class TestAlgebra:
    def test_zero_absorbs_composition(self):
        f = scaling(COUNTABLE, 3)
        z = zero_map(COUNTABLE, Z)
        assert (z * f)(E) == Comb(())

    def test_additive_inverse(self):
        f = scaling(COUNTABLE, 3)
        assert (f + (-f))(E) == Comb(())

    def test_compose_doubling_twice(self):
        twice = scaling(Z, 2)
        assert (twice * twice)(Comb(((0, 3),))) == Comb(((0, 12),))

    def test_compose_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            scaling(Z, 2) * zero_map(Z, COUNTABLE)

    def test_add_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            scaling(Z, 2) + zero_map(Z, COUNTABLE)

    def test_a_non_morphism_operand_is_a_type_error(self):
        f = scaling(Z, 2)
        with pytest.raises(TypeError):
            f * 3
        with pytest.raises(TypeError):
            f + 3


class TestSumShuffling:
    def test_proj1(self):
        zc = DirectSum(Z, COUNTABLE)
        e = Pair(Comb(((0, 5),)), E)
        assert proj1(zc)(e) == Comb(((0, 5),))
        assert proj2(zc)(e) == E

    def test_pair_with_zero(self):
        f = pair(identity(Z), zero_map(Z, COUNTABLE))
        a = Comb(((0, 4),))
        assert f(a) == Pair(a, Comb(()))

    def test_inj(self):
        zz = DirectSum(Z, Z)
        a = Comb(((0, 2),))
        assert inj1(zz)(a) == Pair(a, Comb(()))
        assert inj2(zz)(a) == Pair(Comb(()), a)

    def test_componentwise_sum_map(self):
        f = direct_sum_map(scaling(Z, 2), identity(COUNTABLE))
        e = Pair(Comb(((0, 3),)), generator(1))
        assert f(e) == Pair(Comb(((0, 6),)), generator(1))

    @pytest.mark.parametrize(
        "build, desc", [(proj1, Z), (inj2, COUNTABLE)], ids=["proj1", "inj2"]
    )
    def test_shuffling_needs_a_direct_sum(self, build, desc):
        with pytest.raises(ShapeMismatchError) as info:
            build(desc)
        assert str(info.value) == f"{desc} is not a direct sum"

    def test_pair_requires_common_source(self):
        with pytest.raises(ShapeMismatchError):
            pair(identity(Z), identity(COUNTABLE))


combs = st.lists(
    st.tuples(st.integers(-20, 20), st.integers(0, 12)), max_size=6
).map(lambda t: normalize(t, COUNTABLE))

image_tables = st.dictionaries(st.integers(0, 12), combs, max_size=8)


@given(image_tables, st.integers(-10, 10), combs, combs)
def test_sampled_linearity(table, c, u, v):
    phi = from_generator_images(
        COUNTABLE, COUNTABLE, lambda j: table.get(j, Comb(()))
    )
    assert phi(c * u + v) == c * phi(u) + phi(v)


@given(st.integers(-9, 9), combs)
def test_pointwise_contracts(c, u):
    f = scaling(COUNTABLE, c)
    g = from_generator_images(COUNTABLE, COUNTABLE, keep_even)
    assert (g * f)(u) == g(f(u))
    assert (f + g)(u) == f(u) + g(u)
    assert (-f)(u) == -(f(u))


def folded(images, element):
    """Reference: the image as a left fold of ``+``, one generator at a time."""
    out = Comb(())
    for g, c in element.terms:
        out = out + c * images(g)
    return out


wide_combs = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(0, 999)), max_size=200
).map(lambda t: normalize(t, COUNTABLE))


@given(st.lists(combs, min_size=1, max_size=4), wide_combs)
def test_accumulation_matches_fold(pool, u):
    # x_j and x_(j + len(pool)) have opposite images, so terms cancel often
    # and u + shift(u) maps to zero
    n = len(pool)

    def images(j):
        return (-1) ** (j // n) * pool[j % n]

    phi = from_generator_images(COUNTABLE, COUNTABLE, images)
    assert phi(u) == folded(images, u)
    cancelling = u + Comb(tuple((g + n, c) for g, c in u.terms))
    assert phi(cancelling) == folded(images, cancelling) == Comb(())


# Random expression trees, each built twice: from the library's morphisms,
# which fold, and from opaque copies of the same leaves, which carry no tag
# and so fold nothing.
ZC = DirectSum(Z, COUNTABLE)
MODULES = (Z, COUNTABLE, ZC)


def good_images(target):
    if target == Z:
        return lambda j: Comb(((0, j + 1),))
    return lambda j: Comb(((j, 1), (j + 1, -2)))


def leaf_pool(source, target):
    pool = [zero_map(source, target)]
    if source == target:
        pool += [identity(source), scaling(source, -2), scaling(source, 3)]
    if source == target == COUNTABLE:
        pool += [cc2().diff_at(0), cc2().diff_at(1)]
    if source == target == Z:
        pool.append(BAD)
    if source == ZC and target != ZC:
        pool.append(proj1(ZC) if target == Z else proj2(ZC))
    elif target == ZC and source != ZC:
        pool.append(inj1(ZC) if source == Z else inj2(ZC))
    elif source != ZC:
        pool.append(from_generator_images(source, target, good_images(target)))
    return pool


def opaque(m):
    return ModMorphism(m.source, m.target, m.action)


def trees(draw, source, target, depth):
    ops = ["leaf"]
    if depth:
        ops += ["*", "+", "-"]
        if target == ZC:
            ops.append("pair")
            if source == ZC:
                ops.append("direct_sum_map")
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        m = draw(st.sampled_from(leaf_pool(source, target)))
        return m, opaque(m)
    if op == "-":
        f, f_ = trees(draw, source, target, depth - 1)
        return -f, -f_
    if op == "*":
        middle = draw(st.sampled_from(MODULES))
        f, f_ = trees(draw, middle, target, depth - 1)
        g, g_ = trees(draw, source, middle, depth - 1)
        return f * g, f_ * g_
    if op == "+":
        f, f_ = trees(draw, source, target, depth - 1)
        g, g_ = trees(draw, source, target, depth - 1)
        return f + g, f_ + g_
    if op == "pair":
        f, f_ = trees(draw, source, Z, depth - 1)
        g, g_ = trees(draw, source, COUNTABLE, depth - 1)
        return pair(f, g), pair(f_, g_)
    f, f_ = trees(draw, Z, Z, depth - 1)
    g, g_ = trees(draw, COUNTABLE, COUNTABLE, depth - 1)
    return direct_sum_map(f, g), direct_sum_map(f_, g_)


def outcome(m, x):
    try:
        return m(x)
    except MembershipError:
        return MembershipError


@given(
    st.data(),
    st.sampled_from(MODULES),
    st.sampled_from(MODULES),
    st.integers(0, 2**32),
)
def test_folding_keeps_every_value(data, source, target, seed):
    folding, unfolded = trees(data.draw, source, target, 4)
    z, y = zero_map(target, target), zero_map(source, source)
    # a BAD anywhere below the outer zero must still raise; over an inner
    # zero nothing can, as a generator-image map reads no image on 0
    discarded, kept = z * folding, opaque(z) * unfolded
    fed_zero, fed_zero_ = folding * y, unfolded * opaque(y)
    for x in Sampler(seed=seed, samples=4).elements(source, "fold"):
        assert outcome(folding, x) == outcome(unfolded, x)
        assert outcome(discarded, x) == outcome(kept, x)
        assert outcome(fed_zero, x) == outcome(fed_zero_, x)
