"""The cone construction, its reduction, and the derived contraction.

The contraction formula k(i)(x, y) = (g(i+1)(y) - h(i)(x), 0) is a derived
obligation, so before the sampled checker is trusted the formula is
validated against an independent oracle: the composite d.k + k.d on the
cone expands term by term through the underlying reduction morphisms into

    first  component: (d.h + h.d + g.f)(x) + (g.d' - d.g)(y)
    second component: (f.g)(y) - (f.h)(x)

and the oracle evaluates that expansion directly on random elements,
comparing it against both the production code path and the identity.
"""

import gc
import weakref

import pytest

from effhom import (
    COUNTABLE,
    ChainComplex,
    ChainMorphism,
    Comb,
    DirectSum,
    ModMorphism,
    Pair,
    Sampler,
    ShapeMismatchError,
    Z,
    bottom_morphism,
    check_chain_morphism,
    check_contracting,
    check_nilpotency,
    check_reduction_laws,
    cone,
    cone_contraction,
    cone_effective_homology,
    cone_reduction,
    direct_sum_complex,
    direct_sum_map,
    from_generator_images,
    generator,
    homology_window,
    identity,
    identity_chain_morphism,
    inj1,
    normalize,
    null_complex,
    pair,
    parse_element,
    proj1,
    proj2,
    run_law,
    scaling,
    zero_chain_morphism,
    zero_homotopy,
    zero_map,
)
from effhom.morphisms import _lower
from effhom.reduction import HomotopyOperator, Reduction
from effhom.instances import (
    _parity_map,
    alpha_pi1,
    cc1,
    cc2_to_null,
    cone_example,
    idz2x0,
    sum12,
    zxznat,
)

SAMPLER = Sampler(seed=7)
WIDE = Sampler(seed=7, coeff_bound=10**12, max_support=200, max_generator=1000)
WINDOW = range(-8, 9)


class TestCone:
    def test_golden_differential(self):
        top = cone(alpha_pi1())
        x = parse_element("(5, 7*x4+8*x0, 3)", top.module_at(3))
        y = top.diff_at(2)(x)
        assert y == parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))

    def test_golden_composite_vanishes(self):
        top = cone(alpha_pi1())
        y = parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        assert top.diff_at(1)(y) == top.module_at(1).zero()

    def test_cone_of_zero_between_nulls(self):
        c = cone(zero_chain_morphism(null_complex(), null_complex()))
        for i in (-2, 0, 5):
            zero = c.module_at(i + 1).zero()
            assert c.diff_at(i)(zero) == c.module_at(i).zero()

    def test_nilpotency_given_commuting_morphism(self):
        assert check_chain_morphism(alpha_pi1(), WINDOW, SAMPLER).ok
        assert check_nilpotency(cone(alpha_pi1()), WINDOW, SAMPLER).ok

    def test_lower_block_is_the_pair_of_its_rows(self):
        # one grid when every block has one; the pair of the rows when b checks
        # its own images; each is (x, y) -> (a x, b x + c y)
        a, c = _parity_map(1), scaling(Z, 3)
        def coefficient_sum(e):
            return normalize([(sum(v for _, v in e.terms), 0)], Z)

        total = ModMorphism(COUNTABLE, Z, coefficient_sum)
        weights = from_generator_images(COUNTABLE, Z, lambda k: Comb(((0, k + 1),)))
        domain = DirectSum(COUNTABLE, Z)
        p1, p2 = proj1(domain), proj2(domain)
        for b in (total, weights):
            m = _lower(a, b, c)
            assert (m._grid is None) == (b is weights) and m._period is None
            expected = pair(a * p1, b * p1 + c * p2)
            for x in WIDE.elements(domain, "lower"):
                assert m(x) == expected(x)
        assert _lower(a, zero_map(COUNTABLE, Z), c)._period == 2

    @pytest.mark.parametrize("b", [
        zero_map(COUNTABLE, COUNTABLE), zero_map(Z, Z), from_generator_images(Z, Z, generator)
    ])
    def test_lower_refuses_a_block_of_another_shape(self, b):
        # b must run from a's source, Z, to c's target, Z[N]
        with pytest.raises(ShapeMismatchError, match="is not Z -> Z\\[N\\]"):
            _lower(identity(Z), b, identity(COUNTABLE))

    def test_one_complex_per_morphism(self):
        # a homotopy is checked only on the complex it acts on, so every
        # construction that takes the cone of a morphism must meet one object
        alpha = alpha_pi1()
        assert cone(alpha) is cone(alpha)
        r1, r2 = zxznat().reduction, idz2x0().reduction
        assert cone_reduction(r1, r2, alpha).top is cone(alpha)
        r = zxznat().reduction
        assert cone_contraction(r).over is cone(r.f)
        other = ChainMorphism(alpha.source, alpha.target, alpha.at)
        assert cone(other) is not cone(alpha)

    def test_repeated_contractions_keep_no_cone(self):
        # each cone_reduction builds a fresh bottom morphism; neither its cone
        # nor the cone of a dropped morphism may outlive the objects using it
        r1, r2 = zxznat().reduction, idz2x0().reduction
        alpha = alpha_pi1()
        fresh = ChainMorphism(alpha.source, alpha.target, alpha.at)
        reduction = cone_reduction(r1, r2, fresh)
        reduction.bottom.diff_at(0)  # as any use does, build a component
        top, bottom = weakref.ref(reduction.top), weakref.ref(reduction.bottom)
        assert top() is cone(fresh)
        del reduction
        gc.collect()
        assert bottom() is None
        fresh_ref = weakref.ref(fresh)
        del fresh
        gc.collect()
        assert fresh_ref() is None and top() is None

    def test_first_component_is_negated_top_differential(self):
        top = cone(alpha_pi1())
        src = alpha_pi1().source
        for i in (-2, 1, 4):
            for e in SAMPLER.elements(top.module_at(i + 1), f"sign@{i}"):
                out = top.diff_at(i)(e)
                assert out.left == -(src.diff_at(i)(e.left))


class TestBottomMorphism:
    def test_induced_identity(self):
        a = bottom_morphism(zxznat().reduction, idz2x0().reduction, alpha_pi1())
        five = Comb(((0, 5),))
        for i in (-3, 0, 2):
            assert a.at(i)(five) == five

    def test_zero_induces_zero(self):
        zero = zero_chain_morphism(zxznat().reduction.top, idz2x0().reduction.top)
        a = bottom_morphism(zxznat().reduction, idz2x0().reduction, zero)
        assert a.at(1)(Comb(((0, 4),))) == Comb(())

    def test_commutes_with_bottom_differentials(self):
        a = bottom_morphism(zxznat().reduction, idz2x0().reduction, alpha_pi1())
        assert check_chain_morphism(a, WINDOW, SAMPLER).ok

    def test_alpha_must_run_between_the_tops(self):
        # alpha leaves a complex that is not r1.top: the cone over it would be
        # no reduction (20 dh+hd+gf=id violations on -2..2, 4 samples, seed 1)
        x = ChainComplex(lambda i: COUNTABLE, lambda i: zero_map(COUNTABLE, COUNTABLE))
        alpha = ChainMorphism(x, cc1(), lambda i: zero_map(COUNTABLE, Z))
        r1, r2 = cc2_to_null().reduction, idz2x0().reduction
        for build in (bottom_morphism, cone_reduction):
            with pytest.raises(ShapeMismatchError, match="r1.top to r2.top"):
                build(r1, r2, alpha)
        with pytest.raises(ShapeMismatchError):
            cone_effective_homology(cc2_to_null(), idz2x0(), alpha)


class TestConeReduction:
    def test_laws_on_the_example(self):
        r = cone_reduction(zxznat().reduction, idz2x0().reduction, alpha_pi1())
        report = check_reduction_laws(r, WINDOW, SAMPLER)
        assert report.ok, report.to_text()

    def test_fg_identity_on_bottom_pairs(self):
        r = cone_example().reduction
        y = parse_element("(5, 7)", r.bottom.module_at(2))
        assert r.f.at(2)(r.g.at(2)(y)) == y

    def test_reduction_morphisms_are_chain_morphisms(self):
        r = cone_example().reduction
        assert check_chain_morphism(r.f, WINDOW, SAMPLER, law="f:fd=df").ok
        assert check_chain_morphism(r.g, WINDOW, SAMPLER, law="g:fd=df").ok

    @pytest.mark.parametrize("sampler", [SAMPLER, WIDE], ids=["default", "wide"])
    def test_laws_with_nonzero_cross_terms(self, sampler):
        # f2.alpha.h1, h2.alpha.g1 and h2.alpha.h1 are all nonzero here, so a
        # wrong sign on any one of them breaks dh+hd+gf=id
        r, top = zxznat().reduction, sum12()

        def b(i):
            return from_generator_images(
                COUNTABLE, Z, lambda k: Comb(((0, 2 - i % 2),) if k == 0 else ())
            )

        def c(i):
            return from_generator_images(Z, COUNTABLE, lambda k: Comb(((0, 1 + i % 2),)))

        def e(i):
            return from_generator_images(
                COUNTABLE,
                COUNTABLE,
                lambda k: generator(k + 1) if (k - i) % 2 else COUNTABLE.zero(),
            )

        def alpha_at(i):
            p1, p2 = proj1(top.module_at(i)), proj2(top.module_at(i))
            return pair(b(i) * p2, c(i) * p1 + e(i) * p2)

        alpha = ChainMorphism(top, top, alpha_at)
        assert check_chain_morphism(alpha, WINDOW, sampler).ok
        report = check_reduction_laws(cone_reduction(r, r, alpha), WINDOW, sampler)
        assert report.ok, report.to_text()

    @pytest.mark.parametrize("sampler", [SAMPLER, WIDE], ids=["default", "wide"])
    def test_laws_with_nonzero_cross_terms_of_period_maps(self, sampler, monkeypatch):
        # The same three cross terms, built only from parity maps and scalings:
        # every law has period 2, so each is decided on x0, x1 of each Z[N] leaf
        # and draws nothing, and a wrong sign on a cross term fails that decision.
        # C(t) is Z[N] with d(i) = k(i) = the parity map of i + t, k contracting
        # it, and r(t) reduces C(t) (+) C(t) onto C(t) with h = 0 (+) k.
        def reduction(t):
            c = ChainComplex(lambda i: COUNTABLE, lambda i: _parity_map(i + t))
            top = direct_sum_complex(c, c)
            zero = zero_map(COUNTABLE, COUNTABLE)
            return Reduction(
                top, c,
                ChainMorphism(top, c, lambda i: proj1(top.module_at(i))),
                ChainMorphism(c, top, lambda i: inj1(top.module_at(i))),
                HomotopyOperator(top, lambda i: direct_sum_map(zero, _parity_map(i + t))),
            )

        r0, r1 = reduction(0), reduction(1)

        def alpha_at(i):
            # each block n * P(i + 1): f2.alpha.h1 = 3 P(i), h2.alpha.g1 = 5 P(i + 1)
            # and h2.alpha.h1 = -7 P(i) on the Z[N] leaves they join
            def block(n):
                return scaling(COUNTABLE, n) * _parity_map(i + 1)

            p1, p2 = proj1(r0.top.module_at(i)), proj2(r0.top.module_at(i))
            return pair(block(2) * p1 + block(3) * p2, block(5) * p1 + block(-7) * p2)

        alpha = ChainMorphism(r0.top, r1.top, alpha_at)
        r = cone_reduction(r0, r1, alpha)
        for i in WINDOW:
            assert r.f.at(i)._period == r.g.at(i)._period == r.h.at(i)._period == 2
        drawn, elements = [], Sampler.elements

        def counted(self, desc, label):
            drawn.append(label)
            return elements(self, desc, label)

        monkeypatch.setattr(Sampler, "elements", counted)
        assert check_chain_morphism(alpha, WINDOW, sampler).ok
        report = check_reduction_laws(r, WINDOW, sampler)
        assert report.ok and drawn == [], report.to_text()

    def test_trivial_inputs(self):
        null = null_complex()
        trivial = Reduction(
            null,
            null,
            identity_chain_morphism(null),
            identity_chain_morphism(null),
            zero_homotopy(null),
        )
        r = cone_reduction(trivial, trivial, identity_chain_morphism(null))
        assert check_reduction_laws(r, range(-2, 3), SAMPLER).ok


class TestConeEffectiveHomology:
    def test_example_instance(self):
        eh = cone_example()
        assert check_reduction_laws(eh.reduction, WINDOW, SAMPLER).ok

    @pytest.mark.parametrize("n, group", [(2, "Z/2"), (3, "0"), (4, "Z/2"), (6, "Z/2")])
    def test_cone_of_a_multiple_meets_kunneth(self, n, group):
        # The cone of n on C = sum12 is C (x) (Z -n-> Z), up to a shift. H(C) is
        # Z/2 in even degrees and 0 in odd ones, so Kunneth, H(C) (x) Z/n in one
        # degree and Tor(H(C), Z/n) in the next, gives Z/2 in every degree for
        # an even n and 0 for an odd one.  n on a sum has no grid, so each block
        # of the reduction is a closure.  Its cross terms vanish, as n commutes
        # with zxznat's h; test_lower_block_is_the_pair_of_its_rows pins them.
        top, window = sum12(), range(-6, 7)
        alpha = ChainMorphism(top, top, lambda i: scaling(top.module_at(i), n))
        r = cone_effective_homology(zxznat(), zxznat(), alpha).reduction
        assert r.f.at(0)._grid is None and r.h.at(0)._grid is None
        assert [str(g) for g in homology_window(r.bottom, window)] == [group] * len(window)
        for sampler in (Sampler(), WIDE):
            report = check_reduction_laws(r, window, sampler)
            assert report.ok, report.to_text()
            assert check_nilpotency(r.top, window, sampler).ok

    def test_bottom_grading_is_pair_of_rank_one(self):
        eh = cone_example()
        for i in (-4, 0, 3):
            desc = eh.reduction.bottom.module_at(i)
            assert str(desc) == "(Z (+) Z)"

    def test_trivial_null_inputs(self):
        null = null_complex()
        trivial = Reduction(
            null,
            null,
            identity_chain_morphism(null),
            identity_chain_morphism(null),
            zero_homotopy(null),
        )
        from effhom import effective_homology

        eh = effective_homology(trivial)
        out = cone_effective_homology(eh, eh, identity_chain_morphism(null))
        assert str(out.reduction.bottom.module_at(0)) == "(0 (+) 0)"


def expansion_oracle(r, i, element):
    """Independent evaluation of (d.k + k.d) via the reduction morphisms."""
    x, y = element.left, element.right
    top, bottom, f, g, h = r.top, r.bottom, r.f, r.g, r.h
    first = (
        top.diff_at(i)(h.at(i)(x))
        + h.at(i - 1)(top.diff_at(i - 1)(x))
        + g.at(i)(f.at(i)(x))
        + g.at(i)(bottom.diff_at(i)(y))
        - top.diff_at(i)(g.at(i + 1)(y))
    )
    second = f.at(i + 1)(g.at(i + 1)(y)) - f.at(i + 1)(h.at(i)(x))
    return Pair(first, second)


class TestConeContraction:
    def test_formula_against_expansion_oracle(self):
        r = zxznat().reduction
        over = cone(r.f)
        k = cone_contraction(r)
        checked = 0
        for i in range(-6, 7):
            for e in SAMPLER.elements(over.module_at(i), f"oracle@{i}"):
                direct = over.diff_at(i)(k.at(i)(e)) + k.at(i - 1)(
                    over.diff_at(i - 1)(e)
                )
                expanded = expansion_oracle(r, i, e)
                assert direct == expanded
                assert direct == e
                checked += 1
        assert checked >= 100

    def test_contracts_cone_of_f(self):
        r = zxznat().reduction
        k = cone_contraction(r)
        assert check_contracting(cone(r.f), k, WINDOW, SAMPLER).ok

    def test_squares_to_zero(self):
        r = zxznat().reduction
        over = cone(r.f)
        k = cone_contraction(r)
        for i in (-2, 0, 3):
            zero = over.module_at(i + 2).zero()
            for e in SAMPLER.elements(over.module_at(i), f"kk@{i}"):
                assert k.at(i + 1)(k.at(i)(e)) == zero

    def test_zero_first_component_specialization(self):
        r = zxznat().reduction
        over = cone(r.f)
        k = cone_contraction(r)
        desc = over.module_at(2)
        y = Comb(((0, 3),))
        e = Pair(desc.left.zero(), y)
        out = k.at(2)(e)
        assert out == Pair(r.g.at(3)(y), over.module_at(3).right.zero())

    def test_golden_sample(self):
        r = zxznat().reduction
        over = cone(r.f)
        k = cone_contraction(r)
        e = parse_element("(5, 7*x4+8*x0, 3)", over.module_at(2))
        out = over.diff_at(2)(k.at(2)(e)) + k.at(1)(over.diff_at(1)(e))
        assert out == e

    def test_equals_the_hand_formula(self):
        # the formula cone_contraction wrote out before it became compose
        r = zxznat().reduction
        over = cone(r.f)

        def old_at(i):
            domain = over.module_at(i)
            p1, p2 = proj1(domain), proj2(domain)
            first = r.g.at(i + 1) * p2 - r.h.at(i) * p1
            return pair(first, zero_map(domain, r.bottom.module_at(i + 2)))

        old, new = HomotopyOperator(over, old_at), cone_contraction(r)
        section = run_law("old=new", WINDOW, SAMPLER, lambda i: (old.at(i), new.at(i)))
        assert section.violations == 0
        assert len(section.records) == len(WINDOW) * SAMPLER.samples
