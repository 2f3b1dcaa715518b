"""Chain complexes, law checking, direct sums, finite-type bottoms."""

import pytest

from effhom import (
    COUNTABLE,
    Z,
    ChainComplex,
    ChainMorphism,
    Comb,
    Pair,
    Sampler,
    NotFiniteTypeError,
    Reduction,
    ShapeMismatchError,
    check_chain_morphism,
    check_nilpotency,
    direct_sum_complex,
    identity,
    effective_homology,
    identity_chain_morphism,
    null_complex,
    parse_element,
    proj1,
    scaling,
    zero_homotopy,
    zero_map,
)
from effhom.instances import alpha_pi1, cc1, cc2, fcc1, sum12

SAMPLER = Sampler(seed=7)
WINDOW = range(-8, 9)


def as_int(n):
    return Comb(((0, n),)) if n else Comb(())


class TestDiffAt:
    def test_cc1_even_doubles(self):
        assert cc1().diff_at(2)(as_int(5)) == as_int(10)
        assert cc1().diff_at(0)(as_int(1)) == as_int(2)
        assert cc1().diff_at(-2)(as_int(3)) == as_int(6)

    def test_cc1_odd_kills(self):
        assert cc1().diff_at(1)(as_int(5)) == as_int(0)
        assert cc1().diff_at(-1)(as_int(5)) == as_int(0)

    def test_cc2_parity_rule(self):
        e = parse_element("7*x4+8*x0", COUNTABLE)
        assert cc2().diff_at(2)(e) == e
        assert cc2().diff_at(1)(parse_element("x0", COUNTABLE)) == Comb(())
        x1 = parse_element("x1", COUNTABLE)
        assert cc2().diff_at(1)(x1) == x1

    def test_null(self):
        assert null_complex().diff_at(3)(Comb(())) == Comb(())

    def test_degree_totality_far_from_zero(self):
        from effhom.instances import cone_example

        eh = cone_example().reduction
        for cc in (cc1(), cc2(), sum12(), null_complex(), eh.top, eh.bottom):
            for i in (-(10**6), -317, 0, 10**6):
                d = cc.diff_at(i)
                assert d(cc.module_at(i + 1).zero()) == cc.module_at(i).zero()

    def test_incompatible_family_rejected(self):
        broken = ChainComplex(lambda i: Z, lambda i: zero_map(COUNTABLE, Z))
        message = "differential at index 0 has shape Z[N] -> Z, expected Z -> Z"
        for _ in range(2):  # a component that fails its check is not kept
            with pytest.raises(ShapeMismatchError) as info:
                broken.diff_at(0)
            assert str(info.value) == message

    def test_component_kept_per_object_and_degree(self):
        calls = []

        def diff(i):
            calls.append(i)
            return scaling(Z, 2)

        cc = ChainComplex(lambda i: Z, diff)
        assert cc.diff_at(0) is cc.diff_at(0)
        assert cc.diff_at(1) is not cc.diff_at(0)
        assert calls == [0, 1]
        # replace() makes fcc1 a new object with its own components
        assert fcc1().diff_at(0) is not cc1().diff_at(0)

    def test_family_that_raises_is_called_again(self):
        calls = []

        def diff(i):
            calls.append(i)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return scaling(Z, 2)

        cc = ChainComplex(lambda i: Z, diff)
        with pytest.raises(RuntimeError):
            cc.diff_at(0)
        assert cc.diff_at(0)(as_int(3)) == as_int(6)
        assert calls == [0, 0]


class TestNilpotency:
    def test_cc2_passes(self):
        assert check_nilpotency(cc2(), range(-4, 5), SAMPLER).ok

    def test_all_instances_pass_on_default_window(self):
        for cc in (cc1(), fcc1(), cc2(), sum12(), null_complex()):
            report = check_nilpotency(cc, WINDOW, SAMPLER)
            assert report.ok, report.to_text()

    def test_identity_differential_fails_everywhere(self):
        broken = ChainComplex(lambda i: Z, lambda i: identity(Z))
        report = check_nilpotency(broken, range(-2, 3), SAMPLER)
        failed_degrees = {r.degree for r in report.counterexamples()}
        assert failed_degrees == set(range(-2, 3))

    def test_null_passes(self):
        assert check_nilpotency(null_complex(), range(-3, 4), SAMPLER).ok


class TestChainMorphism:
    def test_projection_commutes(self):
        assert check_chain_morphism(alpha_pi1(), WINDOW, SAMPLER).ok

    def test_identity_commutes(self):
        assert check_chain_morphism(identity_chain_morphism(cc2()), WINDOW, SAMPLER).ok

    def test_swapped_parity_target_fails(self):
        # same projection but into a target whose differential doubles at
        # odd indices instead of even ones
        swapped = ChainComplex(
            lambda i: Z,
            lambda i: scaling(Z, 2) if i % 2 else zero_map(Z, Z),
        )
        src = sum12()
        bad = ChainMorphism(src, swapped, lambda i: proj1(src.module_at(i)))
        report = check_chain_morphism(bad, range(-2, 3), SAMPLER)
        assert report.violations > 0
        # brute force over small first-component multiples of x0 finds one
        witness = None
        for n in range(1, 4):
            a = Pair(as_int(n), Comb(()))
            lhs = bad.at(0)(src.diff_at(0)(a))
            rhs = swapped.diff_at(0)(bad.at(1)(a))
            if lhs != rhs:
                witness = a
                break
        assert witness is not None

    def test_component_shape_validated(self):
        bad = ChainMorphism(cc1(), cc2(), lambda i: identity(Z))
        message = (
            "chain morphism component at degree 0 has shape Z -> Z, expected Z -> Z[N]"
        )
        for _ in range(2):  # a component that fails its check is not kept
            with pytest.raises(ShapeMismatchError) as info:
                bad.at(0)
            assert str(info.value) == message

    def test_component_kept(self):
        f = alpha_pi1()
        assert f.at(3) is f.at(3)


class TestDirectSum:
    def test_componentwise_action(self):
        s = sum12()
        e = parse_element("(5, 7*x4+8*x0)", s.module_at(3))
        out = s.diff_at(2)(e)
        assert out == parse_element("(10, 7*x4+8*x0)", s.module_at(2))

    def test_odd_degree(self):
        s = sum12()
        e = parse_element("(5, x1)", s.module_at(2))
        assert s.diff_at(1)(e) == parse_element("(0, x1)", s.module_at(1))

    def test_sum_with_null_acts_like_original(self):
        s = direct_sum_complex(cc1(), null_complex())
        for i in (-2, 0, 3):
            a = as_int(7)
            out = s.diff_at(i)(Pair(a, Comb(())))
            assert out == Pair(cc1().diff_at(i)(a), Comb(()))

    def test_sampled_componentwise_law(self):
        s = sum12()
        for i in (-1, 0, 2):
            for e in SAMPLER.elements(s.module_at(i + 1), f"sum@{i}"):
                out = s.diff_at(i)(e)
                assert out == Pair(
                    cc1().diff_at(i)(e.left), cc2().diff_at(i)(e.right)
                )


class TestFiniteType:
    def test_cc2_infinite(self):
        one = identity_chain_morphism(cc2())
        r = Reduction(cc2(), cc2(), one, one, zero_homotopy(cc2()))
        with pytest.raises(NotFiniteTypeError) as exc:
            effective_homology(r)
        assert str(exc.value) == (
            f"bottom complex is infinite type at degrees {tuple(range(-8, 9))}"
        )


class TestReportFormat:
    def test_text_lines(self):
        report = check_nilpotency(null_complex(), range(0, 1), Sampler(seed=3, samples=2))
        text = report.to_text().splitlines()
        assert text[0] == "law=dd=0 degree=0 sample=0 verdict=pass"
        assert text[-1] == "law=dd=0 degrees=0..0 samples=2 seed=3 violations=0"

    def test_failure_line_carries_input_and_output(self):
        broken = ChainComplex(lambda i: Z, lambda i: identity(Z))
        report = check_nilpotency(broken, range(0, 1), Sampler(seed=3, samples=2))
        line = report.to_text().splitlines()[0]
        assert 'verdict=fail input="' in line and 'output="' in line

    def test_json_mirrors_text(self):
        report = check_nilpotency(null_complex(), range(0, 1), Sampler(seed=3, samples=2))
        data = report.to_json()
        assert data["violations"] == 0
        law = data["laws"][0]
        assert law["law"] == "dd=0"
        assert law["degrees"] == {"lo": 0, "hi": 0}
        assert law["samples"] == 2 and law["seed"] == 3
        assert [r["verdict"] for r in law["records"]] == ["pass", "pass"]
