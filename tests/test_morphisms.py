"""Morphism construction and the pointwise algebra laws."""

import gc
import sys
import weakref

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effhom import (
    COUNTABLE,
    Z,
    Comb,
    DirectSum,
    FiniteFree,
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
from effhom import instances
from effhom.instances import cc2, h_top
from effhom.modules import basis, join, leaves, split
from effhom.morphisms import _IDENTITY, _lower, _periodic

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
ZZ = DirectSum(Z, Z)


@pytest.mark.parametrize(
    "composite",
    [
        zero_map(Z, Z) * BAD,
        BAD * scaling(Z, 2),
        BAD - BAD,
        pair(BAD, identity(Z)),
        direct_sum_map(identity(Z), BAD),
        proj1(ZZ) * direct_sum_map(BAD, identity(Z)),
        zero_map(ZZ, Z) * direct_sum_map(BAD, identity(Z)),
        -direct_sum_map(BAD, identity(Z)),
        _lower(identity(Z), BAD, identity(Z)),
    ],
    ids=[
        "g*f", "f*g", "f+g", "pair", "direct_sum_map", "proj1*sum", "z*sum", "-sum", "lower"
    ],
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

    def test_a_projection_of_a_sum_map_runs_one_side(self):
        seen = []
        counting = ModMorphism(Z, Z, lambda e: seen.append(e) or e)
        m = proj1(ZZ) * direct_sum_map(scaling(Z, 2), counting)
        assert m(Pair(generator(0), generator(0))) == Comb(((0, 2),))
        assert seen == []

    def test_a_sum_map_of_zeros_is_a_zero(self):
        f = scaling(ZC, 3)
        assert direct_sum_map(zero_map(Z, Z), zero_map(COUNTABLE, COUNTABLE)) + f is f
        assert f + pair(zero_map(ZC, Z), proj2(ZC) * zero_map(ZC, ZC)) is f

    def test_h_top_runs_only_its_nonzero_leaves(self):
        # htop(0) is (x, y, z) -> (z, -k(y), 0) with k a parity map of the
        # catalog, so only a nonzero Z[N] leaf runs a catalog leaf action
        h = h_top().at(0)
        elements = basis(h.source, [1, 3, 1])
        assert [catalog_leaf_runs(h, x) for x in elements] == [0, 1, 1, 1, 0]

    def test_shapes_are_checked_before_folding(self):
        with pytest.raises(ShapeMismatchError):
            identity(Z) * zero_map(Z, COUNTABLE)
        with pytest.raises(ShapeMismatchError):
            zero_map(Z, Z) * zero_map(Z, COUNTABLE)
        with pytest.raises(ShapeMismatchError):
            zero_map(Z, Z) + zero_map(Z, COUNTABLE)


def catalog_leaf_runs(m, x):
    """How many leaf actions of ``effhom.instances`` run while ``m(x)`` runs."""
    runs = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == instances.__file__:
            runs.append(code.co_name == "<lambda>")

    sys.setprofile(profile)
    try:
        m(x)
    finally:
        sys.setprofile(None)
    return sum(runs)


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

    @pytest.mark.parametrize("applied", [False, True], ids=["unapplied", "applied"])
    def test_grid_map_is_freed_without_the_collector(self, applied):
        # a grid map that referred to itself, as a compiled action kept on the
        # map would, is a cycle that only the collector frees: most grid maps
        # are dropped unapplied, and each would wait for a collection
        m = direct_sum_map(scaling(Z, 2), identity(COUNTABLE))
        assert m._grid is not None
        gc.disable()
        try:
            if applied:
                assert m(Pair(generator(0), E)) == Pair(2 * generator(0), E)
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            gc.enable()


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


# Random expression trees over nested direct sums, each applied by the
# library and by `interpret`, which follows the definitions of the
# constructors and knows nothing of grids or folds.
A, B = FiniteFree(2), FiniteFree(3)
WIDE = dict(max_support=200, max_generator=1000, coeff_bound=10**12)


def descriptions(n):
    """Every description with ``n`` leaves, each leaf A, B or Z[N]."""
    if n == 1:
        return [A, B, COUNTABLE]
    return [
        DirectSum(left, right)
        for k in range(1, n)
        for left in descriptions(k)
        for right in descriptions(n - k)
    ]


DESCRIPTIONS = [descriptions(n) for n in range(1, 5)]


def any_description(draw):
    return draw(st.sampled_from(DESCRIPTIONS[draw(st.integers(0, 3))]))


def even_part(e):
    return Comb(tuple(t for t in e.terms if t[0] % 2 == 0))


def images_into(target, bad):
    """Generator images in the leaf ``target``; a bad map sends x1 to a pair."""

    def images(j):
        if bad and j == 1:
            return Pair(Comb(()), Comb(()))
        if isinstance(target, FiniteFree):
            return normalize([(1, j % target.rank), (2, (j + 1) % target.rank)], target)
        return normalize([(1, j), (-1, j + 1)], target)

    return images


def mixing(source, target):
    """A caller's linear map: the sum of all source leaves, cut to each target
    leaf and multiplied by its position."""
    shape = leaves(target)

    def act(e):
        total = Comb(())
        for _, part in split(e, source):
            total = total + part
        return join(target, iter([
            (k + 1) * Comb(tuple(t for t in total.terms if leaf.contains(Comb((t,)))))
            for k, leaf in enumerate(shape)
        ]))

    return act


def shifted(e, desc, p):
    """S e for the shift S of period ``p``: x_n -> x_{n+p} on each countable leaf."""
    return join(desc, iter([
        part if leaf.is_finite_type() else Comb(tuple((g + p, c) for g, c in part.terms))
        for leaf, part in split(e, desc)
    ]))


def leaf_trees(draw, source, target, closures):
    """A leaf; with ``closures`` also the maps that composites keep as closures:
    generator images, which check themselves, and a caller's map on a sum.
    A zero folds a whole product away, so it is drawn one time in six.
    "even" is a caller's map; "parity" is the same map declared with period 2."""
    kinds = []
    if not isinstance(source, DirectSum) and not isinstance(target, DirectSum):
        if source == target:
            kinds += ["scaling", "even", "parity"]
        kinds.append("mixing")
        if closures:
            kinds += ["images", "bad images"]
    elif closures:
        kinds.append("mixing")
    if source == target:
        kinds.append("identity")
    zero = draw(st.integers(0, 5)) == 5 or not kinds
    kind = "zero" if zero else draw(st.sampled_from(kinds))
    factor = draw(st.integers(-3, 3)) if kind == "scaling" else None
    return (kind, source, target, factor)


def trees_between(draw, closures, source, target, depth):
    """A tree ``(op, source, target, *parts)`` of a map ``source -> target``.

    The shuffles of sums end on smaller sums, so only ``*``, ``+``, ``-`` and
    the projections onto ``target``, which may grow them, spend ``depth``.
    """
    ops = ["*", "+", "-", "proj1", "proj2"] if depth else []
    if isinstance(source, DirectSum):
        ops += ["after proj1", "after proj2"]
    if isinstance(target, DirectSum):
        ops += ["pair", "inj1", "inj2"]
        if isinstance(source, DirectSum):
            ops.append("direct_sum_map")
    ops.append("leaf")
    op = draw(st.sampled_from(ops))
    if op == "leaf":
        return leaf_trees(draw, source, target, closures)
    if op == "pair":
        f = trees_between(draw, closures, source, target.left, depth)
        return (op, source, target, f, trees_between(draw, closures, source, target.right, depth))
    if op in ("inj1", "inj2"):
        part = target.left if op == "inj1" else target.right
        return (op, source, target, trees_between(draw, closures, source, part, depth))
    if op in ("after proj1", "after proj2"):
        part = source.left if op == "after proj1" else source.right
        return (op, source, target, trees_between(draw, closures, part, target, depth))
    if op == "direct_sum_map":
        f = trees_between(draw, closures, source.left, target.left, depth)
        g = trees_between(draw, closures, source.right, target.right, depth)
        return (op, source, target, f, g)
    depth -= 1
    if op == "-":
        return (op, source, target, trees_between(draw, closures, source, target, depth))
    if op == "+":
        f = trees_between(draw, closures, source, target, depth)
        return (op, source, target, f, trees_between(draw, closures, source, target, depth))
    if op == "*":
        middle = any_description(draw)
        f = trees_between(draw, closures, middle, target, depth)
        return (op, source, target, f, trees_between(draw, closures, source, middle, depth))
    other = any_description(draw)
    total = DirectSum(target, other) if op == "proj1" else DirectSum(other, target)
    return (op, source, target, trees_between(draw, closures, source, total, depth))


def build(tree):
    """The library's morphism for ``tree``."""
    op, source, target, *parts = tree
    if op == "zero":
        return zero_map(source, target)
    if op == "identity":
        return identity(source)
    if op == "mixing":
        return ModMorphism(source, target, mixing(source, target))
    if op in ("images", "bad images"):
        return from_generator_images(source, target, images_into(target, op == "bad images"))
    if op == "scaling":
        return scaling(source, parts[0])
    if op == "even":
        return ModMorphism(source, source, even_part)
    if op == "parity":
        return _periodic(ModMorphism(source, source, even_part), 2)
    maps = [build(p) for p in parts]
    if op == "-":
        return -maps[0]
    if op == "+":
        return maps[0] + maps[1]
    if op == "*":
        return maps[0] * maps[1]
    if op in ("proj1", "proj2"):
        return (proj1 if op == "proj1" else proj2)(maps[0].target) * maps[0]
    if op in ("inj1", "inj2"):
        return (inj1 if op == "inj1" else inj2)(target) * maps[0]
    if op in ("after proj1", "after proj2"):
        return maps[0] * (proj1 if op == "after proj1" else proj2)(source)
    return (pair if op == "pair" else direct_sum_map)(*maps)


def interpret(tree, x):
    """The image of ``x`` under ``tree``, every node evaluated on its input."""
    op, source, target, *parts = tree
    if op == "zero":
        return target.zero()
    if op == "identity":
        return x
    if op == "mixing":
        return mixing(source, target)(x)
    if op == "scaling":
        return parts[0] * x
    if op in ("even", "parity"):
        return even_part(x)
    if op in ("images", "bad images"):
        images, out = images_into(target, op == "bad images"), Comb(())
        for g, c in x.terms:
            image = images(g)
            if not isinstance(image, Comb):
                raise MembershipError("a generator image is not a combination")
            out = out + c * image
        return target.require(out)
    if op == "-":
        return -interpret(parts[0], x)
    if op == "+":
        return interpret(parts[0], x) + interpret(parts[1], x)
    if op == "*":
        return interpret(parts[0], interpret(parts[1], x))
    if op == "proj1":
        return interpret(parts[0], x).left
    if op == "proj2":
        return interpret(parts[0], x).right
    if op == "inj1":
        return Pair(interpret(parts[0], x), target.right.zero())
    if op == "inj2":
        return Pair(target.left.zero(), interpret(parts[0], x))
    if op == "after proj1":
        return interpret(parts[0], x.left)
    if op == "after proj2":
        return interpret(parts[0], x.right)
    if op == "pair":
        return Pair(interpret(parts[0], x), interpret(parts[1], x))
    return Pair(interpret(parts[0], x.left), interpret(parts[1], x.right))


def interpreted(tree, x):
    try:
        return tree[2].require(interpret(tree, x))
    except MembershipError:
        return MembershipError


def with_periods(tree):
    """``tree`` with a period on every leaf: a leaf without one becomes
    "parity" where it maps a leaf to itself, and "zero" elsewhere."""
    op, source, target, *parts = tree
    if op in ("zero", "identity", "scaling", "parity"):
        return tree
    if op in ("mixing", "even", "images", "bad images"):
        same = source == target and not isinstance(source, DirectSum)
        return ("parity" if same else "zero", source, target, None)
    return (op, source, target, *map(with_periods, parts))


@seed(1004)
@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2**32))
def test_grids_match_an_interpreter_of_the_definitions(data, sampler_seed):
    source, target = any_description(data.draw), any_description(data.draw)
    tree = trees_between(data.draw, data.draw(st.booleans()), source, target, 3)
    m = build(tree)
    sizes = [2] * len(leaves(source))  # x0, x1 of each leaf: the bad image is x1's
    elements = basis(source, sizes)
    for bounds in ({}, WIDE):
        elements += Sampler(seed=sampler_seed, samples=1, **bounds).elements(source, "grid")
    periodic_tree = with_periods(tree)
    periodic = build(periodic_tree)
    for x in elements:
        assert outcome(m, x) == interpreted(tree, x)
        assert outcome(periodic, x) == interpreted(periodic_tree, x)
    # a tree with a period on every leaf has period 1 or 2, and every period
    # is true, M S = S M; a fold may also give the first tree one
    assert periodic._period in (1, 2)
    for f in (m, periodic):
        if (period := f._period) is not None:
            for x in elements:
                assert f(shifted(x, source, period)) == shifted(f(x), target, period)


def test_periods_combine_by_lcm():
    # a caller's map has no period, unless declared (three); the catalog's
    # parity map has 2
    mine = ModMorphism(COUNTABLE, COUNTABLE, lambda e: e)
    three = _periodic(ModMorphism(COUNTABLE, COUNTABLE, lambda e: e), 3)
    two = instances._parity_map(0)
    both = DirectSum(COUNTABLE, COUNTABLE)
    bad = from_generator_images(COUNTABLE, COUNTABLE, generator)
    periods = [
        (identity(both), 1), (zero_map(Z, COUNTABLE), 1), (scaling(COUNTABLE, 5), 1),
        (two * three, 6), (two + three, 6), (two - two, 2), (-three, 3),
        (pair(two, three), 6), (direct_sum_map(two, three), 6),
        (proj1(both) * direct_sum_map(two, three), 2), (inj2(both) * three, 3),
        (zero_map(COUNTABLE, COUNTABLE) * mine, 1), (mine, None), (two * mine, None),
        (scaling(COUNTABLE, 2) * bad, None), (pair(two, bad), None),
        (direct_sum_map(mine, two), None),
    ]
    sampler = Sampler(seed=3, samples=8, **WIDE)
    for m, period in periods:
        assert m._period == period, (m, period)
        if period is not None:
            for x in sampler.elements(m.source, "lcm"):
                assert m(shifted(x, m.source, period)) == shifted(m(x), m.target, period)


# The identity, projection and injection grids of a direct sum, checked
# against slices of `eye`, the diagonal of the leaf identities of the whole
# sum, which states each layout apart from how the library builds it.
NESTED_SUMS = [
    DirectSum(DirectSum(Z, COUNTABLE), Z),
    DirectSum(Z, DirectSum(COUNTABLE, Z)),
    DirectSum(DirectSum(Z, Z), DirectSum(COUNTABLE, FiniteFree(2))),
]


def eye(desc):
    """The leaf of each diagonal entry of the identity grid of ``desc``, None off it."""
    parts = leaves(desc)
    return [[leaf if j == i else None for j in range(len(parts))] for i, leaf in enumerate(parts)]


def layout(m):
    """The leaf of each entry of ``m``'s grid, None for a zero block; every
    entry is the identity of its row's leaf and of its column's."""
    rows, columns = leaves(m.target), leaves(m.source)
    assert len(m._grid) == len(rows)
    for row, r in zip(m._grid, rows):
        assert len(row) == len(columns)
        for x, c in zip(row, columns):
            assert x is None or (x._tag is _IDENTITY and x.source == r == c and x._period == 1)
    return [[x and x.source for x in row] for row in m._grid]


@pytest.mark.parametrize("desc", NESTED_SUMS, ids=str)
def test_sum_grids_keep_their_layout(desc):
    # an identity on a sum lays out its grid on first use only, here in - and +
    for combine in (lambda m: -m, lambda m: m + m):
        one = identity(desc)
        assert one._grid is None
        combine(one)
        assert layout(one) == eye(desc)
    for d in [desc] + [side for side in (desc.left, desc.right) if isinstance(side, DirectSum)]:
        whole, n = eye(d), len(leaves(d.left))
        shuffles = [
            (proj1, whole[:n]), (proj2, whole[n:]),
            (inj1, [row[:n] for row in whole]), (inj2, [row[n:] for row in whole]),
        ]
        for shuffle, grid in shuffles:
            m = shuffle(d)
            assert m._period == 1 and layout(m) == grid, shuffle.__name__

    one, left = ("identity", desc, desc, None), ("identity", desc.left, desc.left, None)
    cases = [
        (-identity(desc), ("-", desc, desc, one)),
        (identity(desc) + identity(desc), ("+", desc, desc, one, one)),
        (
            pair(identity(desc), zero_map(desc, Z)),
            ("pair", desc, DirectSum(desc, Z), one, ("zero", desc, Z, None)),
        ),
        (
            proj1(desc) * inj1(desc),
            ("proj1", desc.left, desc.left, ("inj1", desc.left, desc, left)),
        ),
    ]
    for m, tree in cases:
        sizes = [2] * len(leaves(m.source))
        elements = basis(m.source, sizes)
        for bounds in ({}, WIDE):
            elements += Sampler(seed=29, samples=4, **bounds).elements(m.source, "sums")
        for x in elements:
            assert outcome(m, x) == interpreted(tree, x)
