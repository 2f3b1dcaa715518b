"""Reduction laws, contracting homotopies, perturbation, pre-images."""

from dataclasses import replace

import pytest

from effhom import (
    COUNTABLE,
    Z,
    ChainMorphism,
    Comb,
    HomotopyOperator,
    LawViolationError,
    NotACycleError,
    Pair,
    PreimageVerificationError,
    Reduction,
    Sampler,
    ShapeMismatchError,
    acyclic_to_null_effective_homology,
    check_contracting,
    check_homotopy_squares_to_zero,
    check_reduction_laws,
    compose,
    direct_sum_map,
    identity,
    is_cycle,
    null_complex,
    pair,
    parse_element,
    perturb_homotopy,
    preimage,
    proj1,
    run_law,
    zero_homotopy,
    zero_map,
)
from effhom.reduction import _onto_null
from effhom.instances import (
    cc1,
    cc2,
    cc2_to_null,
    cone_example,
    fcc1,
    h2_bottom,
    h_top,
    hcc2,
    idz2x0,
    sum12,
    zxznat,
)

SAMPLER = Sampler(seed=7)
WINDOW = range(-8, 9)


class TestReductionLaws:
    def test_identity_reduction_passes(self):
        report = check_reduction_laws(idz2x0().reduction, WINDOW, SAMPLER)
        assert report.ok, report.to_text()

    def test_projection_reduction_passes(self):
        report = check_reduction_laws(zxznat().reduction, WINDOW, SAMPLER)
        assert report.ok, report.to_text()

    def test_zero_homotopy_breaks_law_two(self):
        top, bottom = sum12(), fcc1()
        f = ChainMorphism(top, bottom, lambda i: proj1(top.module_at(i)))
        g = ChainMorphism(
            bottom, top, lambda i: pair(identity(Z), zero_map(Z, COUNTABLE))
        )
        broken = Reduction(top, bottom, f, g, zero_homotopy(top))
        report = check_reduction_laws(broken, range(-2, 3), SAMPLER)
        by_law = {s.law: s.violations for s in report.sections}
        assert by_law["dh+hd+gf=id"] > 0
        # the other four laws degenerate and still hold
        assert by_law["fg=id"] == by_law["fh=0"] == by_law["hg=0"] == by_law["hh=0"] == 0
        # every counterexample has a nonzero second component: gf kills it
        for record in report.sections[1].counterexamples():
            assert "x" in record.input

    def test_law_one_exact_on_all_samples(self):
        for eh in (idz2x0(), zxznat(), cone_example(), cc2_to_null()):
            section = check_reduction_laws(eh.reduction, WINDOW, SAMPLER).sections[0]
            assert section.law == "fg=id" and section.violations == 0


class TestContracting:
    def test_hcc2_contracts_cc2(self):
        assert check_contracting(cc2(), hcc2(), WINDOW, SAMPLER).ok

    def test_hcc2_squares_to_zero(self):
        h = hcc2()
        for i in (-3, 0, 4):
            for e in SAMPLER.elements(COUNTABLE, f"hh@{i}"):
                assert h.at(i + 1)(h.at(i)(e)) == Comb(())

    def test_squares_to_zero_refuses_a_homotopy_over_another_complex(self):
        # an equal but distinct copy of cc2, which hcc2 does not act on
        assert check_homotopy_squares_to_zero(cc2(), hcc2(), WINDOW, SAMPLER).ok
        with pytest.raises(ShapeMismatchError, match="complex it is checked on"):
            check_homotopy_squares_to_zero(replace(cc2()), hcc2(), WINDOW, SAMPLER)

    def test_contracting_refuses_a_homotopy_over_another_complex(self):
        # an equal but distinct copy of cc2, which hcc2 does not act on
        with pytest.raises(ShapeMismatchError, match="complex it is checked on"):
            check_contracting(replace(cc2()), hcc2(), WINDOW, SAMPLER)

    def test_bottom_h2_contracts_everywhere(self):
        bottom = cone_example().reduction.bottom
        assert check_contracting(bottom, h2_bottom(), WINDOW, SAMPLER).ok

    def test_golden_single_samples(self):
        # same composites the acceptance suite pins, one sample each
        bottom = cone_example().reduction.bottom
        e = parse_element("(5, 7)", bottom.module_at(2))
        h2 = h2_bottom()
        out = bottom.diff_at(2)(h2.at(2)(e)) + h2.at(1)(bottom.diff_at(1)(e))
        assert out == e


class TestAcyclicToNull:
    def test_cc2_is_acyclic(self):
        eh = acyclic_to_null_effective_homology(cc2(), hcc2())
        assert eh.reduction.bottom is null_complex()
        assert check_reduction_laws(eh.reduction, WINDOW, SAMPLER).ok

    def test_null_complex_with_zero_homotopy(self):
        # building the value without an exception is the check
        acyclic_to_null_effective_homology(
            null_complex(), zero_homotopy(null_complex())
        )

    def test_cc1_with_zero_homotopy_rejected(self):
        with pytest.raises(LawViolationError) as exc:
            acyclic_to_null_effective_homology(cc1(), zero_homotopy(cc1()))
        assert exc.value.report.violations > 0

    def test_rejection_reports_the_five_reduction_laws(self):
        # a contraction is checked as its reduction onto null
        with pytest.raises(LawViolationError) as exc:
            acyclic_to_null_effective_homology(cc1(), zero_homotopy(cc1()))
        sections = exc.value.report.sections
        assert [s.law for s in sections] == [
            "fg=id", "dh+hd+gf=id", "fh=0", "hg=0", "hh=0",
        ]
        assert [s.violations > 0 for s in sections] == [False, True, False, False, False]

    def test_homotopy_over_another_complex_is_refused(self):
        # an equal but distinct copy of cc2: hcc2 would contract it pointwise
        with pytest.raises(ShapeMismatchError, match="complex it contracts"):
            acyclic_to_null_effective_homology(replace(cc2()), hcc2())


class TestPerturb:
    def test_zero_bottom_homotopy_is_identity_perturbation(self):
        r = cone_example().reduction
        perturbed = perturb_homotopy(r, zero_homotopy(r.bottom))
        for i in (-2, 0, 3):
            for e in SAMPLER.elements(r.top.module_at(i), f"perturb@{i}"):
                assert perturbed.at(i)(e) == r.h.at(i)(e)

    def test_bottom_homotopy_over_another_complex_is_refused(self):
        # zxznat ends at fcc1, not at the equal-shaped cc1
        with pytest.raises(ShapeMismatchError, match="complex it contracts"):
            perturb_homotopy(zxznat().reduction, zero_homotopy(cc1()))

    def test_transported_homotopy_contracts_the_top(self):
        top = cone_example().reduction.top
        assert check_contracting(top, h_top(), WINDOW, SAMPLER).ok

    @pytest.mark.parametrize(
        "sampler",
        [
            Sampler(),
            Sampler(coeff_bound=10**12, max_support=200, max_generator=1000),
        ],
        ids=["default", "wide"],
    )
    def test_htop_equals_the_hand_formula(self, sampler):
        # the formula perturb_homotopy wrote out before it became compose
        r, h2 = cone_example().reduction, h2_bottom()
        old = HomotopyOperator(
            r.top, lambda i: r.h.at(i) + r.g.at(i + 1) * h2.at(i) * r.f.at(i)
        )
        new = h_top()
        section = run_law("old=new", WINDOW, sampler, lambda i: (old.at(i), new.at(i)))
        assert section.violations == 0
        assert len(section.records) == len(WINDOW) * sampler.samples


class TestCompose:
    def test_with_the_bottom_contraction_is_a_reduction(self):
        r = cone_example().reduction
        composite = compose(r, _onto_null(r.bottom, h2_bottom()))
        assert composite.top is r.top and composite.bottom is null_complex()
        assert check_reduction_laws(composite, WINDOW, SAMPLER).ok

    def test_reductions_that_do_not_meet_are_rejected(self):
        # zxznat ends at fcc1 and idz2x0 starts at cc1: equal shapes, two complexes
        with pytest.raises(ShapeMismatchError):
            compose(zxznat().reduction, idz2x0().reduction)


class TestCycles:
    def test_golden_cycle(self):
        top = cone_example().reduction.top
        x = parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        assert is_cycle(top, 1, x)

    def test_zero_is_cycle(self):
        top = cone_example().reduction.top
        assert is_cycle(top, 1, top.module_at(2).zero())

    def test_golden_non_cycle(self):
        top = cone_example().reduction.top
        x = parse_element("(5, 7*x4+8*x0, 3)", top.module_at(3))
        assert not is_cycle(top, 2, x)


class TestPreimage:
    def test_golden_preimage(self):
        top = cone_example().reduction.top
        x = parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        z = preimage(top, h_top(), 2, x)
        assert z == parse_element("(5, 8*x0+7*x4, 0)", top.module_at(3))
        assert top.diff_at(2)(z) == x

    def test_zero_preimage(self):
        top = cone_example().reduction.top
        zero = top.module_at(2).zero()
        assert preimage(top, h_top(), 2, zero) == top.module_at(3).zero()

    def test_homotopy_over_another_complex_is_refused(self):
        zero = COUNTABLE.zero()
        assert preimage(cc2(), hcc2(), 0, zero) == zero
        with pytest.raises(ShapeMismatchError, match="complex it is checked on"):
            preimage(replace(cc2()), hcc2(), 0, zero)

    def test_zero_homotopy_fails_verification(self):
        top = cone_example().reduction.top
        x = parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        with pytest.raises(PreimageVerificationError) as exc:
            preimage(top, zero_homotopy(top), 2, x)
        assert exc.value.candidate == top.module_at(3).zero()

    def test_non_cycle_rejected_with_boundary(self):
        top = cone_example().reduction.top
        x = parse_element("(5, 7*x4+8*x0, 3)", top.module_at(3))
        with pytest.raises(NotACycleError) as exc:
            preimage(top, h_top(), 3, x)
        assert exc.value.boundary == parse_element(
            "(-10, -8*x0-7*x4, 5)", top.module_at(2)
        )

    def test_boundaries_are_solvable(self):
        # d(y) is always a cycle, so random y generate test cycles for free
        top = cone_example().reduction.top
        for i in (-3, 0, 2, 5):
            for y in SAMPLER.elements(top.module_at(i + 1), f"bdry@{i}"):
                x = top.diff_at(i)(y)
                z = preimage(top, h_top(), i, x)
                assert top.diff_at(i)(z) == x


class TestHomotopyShape:
    def test_operator_shape_validated(self):
        bad = HomotopyOperator(cc2(), lambda i: zero_map(COUNTABLE, Z))
        message = (
            "homotopy component at degree 0 has shape Z[N] -> Z, expected Z[N] -> Z[N]"
        )
        for _ in range(2):  # a component that fails its check is not kept
            with pytest.raises(ShapeMismatchError) as info:
                bad.at(0)
            assert str(info.value) == message

    def test_component_kept(self):
        h = h_top()
        assert h.at(0) is h.at(0)

    def test_componentwise_operator_matches_diagram(self):
        # the projection reduction's homotopy: zero on the first summand
        h = zxznat().reduction.h
        e = Pair(Comb(((0, 9),)), parse_element("x2+x3", COUNTABLE))
        out = h.at(2)(e)
        assert out == Pair(Comb(()), parse_element("x2", COUNTABLE))
        assert h.at(1)(e) == Pair(Comb(()), parse_element("x3", COUNTABLE))

    def test_direct_sum_map_used_by_homotopy(self):
        m = direct_sum_map(zero_map(Z, Z), identity(COUNTABLE))
        e = Pair(Comb(((0, 4),)), parse_element("x5", COUNTABLE))
        assert m(e) == Pair(Comb(()), parse_element("x5", COUNTABLE))
