"""The shipped catalog: every instance behaves as documented."""

from functools import cache

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_morphisms import WIDE, shifted

from effhom import (
    COUNTABLE,
    DEFAULT_DEGREES,
    ZERO,
    Z,
    Comb,
    DirectSum,
    EffectiveHomology,
    Sampler,
    check_contracting,
    check_nilpotency,
    check_reduction_laws,
    from_generator_images,
    generator,
    normalize,
    parse_element,
)
from effhom import reduction
from effhom.instances import (
    CATALOG,
    HOMOTOPIES,
    alpha_pi1,
    cc1,
    cc2,
    cc2_to_null,
    cone_example,
    fcc1,
    h1_bottom,
    h2_bottom,
    h_top,
    hcc2,
    idz2x0,
    null_complex,
    resolve_complex,
    resolve_effective_homology,
    resolve_homotopy,
    sum12,
    zxznat,
)

SAMPLER = Sampler(seed=7)
WINDOW = range(-8, 9)


def as_int(n):
    return Comb(((0, n),)) if n else Comb(())


class TestNullComplex:
    def test_grading(self):
        for i in (-3, 0, 7):
            assert null_complex().module_at(i) == ZERO

    def test_differential(self):
        assert null_complex().diff_at(5)(Comb(())) == Comb(())

    def test_finite_type(self):
        assert all(null_complex().module_at(i).is_finite_type() for i in WINDOW)


class TestCC1:
    def test_even_doubles(self):
        assert cc1().diff_at(0)(as_int(1)) == as_int(2)

    def test_odd_kills(self):
        assert cc1().diff_at(1)(as_int(1)) == as_int(0)

    def test_nilpotent_by_construction(self):
        for e in SAMPLER.elements(Z, "cc1"):
            assert cc1().diff_at(0)(cc1().diff_at(1)(e)) == Comb(())

    def test_fcc1_is_the_declared_presentation(self):
        assert not cc1().declared_finite_type
        assert fcc1().declared_finite_type
        for i in (-5, 0, 5):
            assert cc1().module_at(i) == fcc1().module_at(i) == Z


class TestIdZ2x0:
    def test_law_two_degenerates_to_identity(self):
        r = idz2x0().reduction
        a = as_int(5)
        for i in (-2, 0, 3):
            out = (
                r.top.diff_at(i + 1)(r.h.at(i + 1)(a))
                + r.h.at(i)(r.top.diff_at(i)(a))
                + r.g.at(i + 1)(r.f.at(i + 1)(a))
            )
            assert out == a

    def test_laws_pass(self):
        assert check_reduction_laws(idz2x0().reduction, WINDOW, SAMPLER).ok

    def test_bottom_finite(self):
        assert idz2x0().reduction.bottom is fcc1()


class TestCC2:
    def test_even_degree_keeps_even_generators(self):
        e = parse_element("7*x4+8*x0", COUNTABLE)
        assert cc2().diff_at(2)(e) == e

    def test_odd_degree_table(self):
        assert cc2().diff_at(1)(parse_element("x0", COUNTABLE)) == Comb(())
        x1 = parse_element("x1", COUNTABLE)
        assert cc2().diff_at(1)(x1) == x1

    def test_infinite_type(self):
        assert not any(cc2().module_at(i).is_finite_type() for i in WINDOW)


def parity_reference(i):
    """The parity map of degree i defined on generators."""
    return from_generator_images(
        COUNTABLE, COUNTABLE, lambda j: generator(j) if j % 2 == i % 2 else Comb(())
    )


@given(
    st.integers(-9, 9),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 40)), max_size=8),
)
@example(i=0, raw=[])
@example(i=1, raw=[])
def test_parity_maps_match_generator_images(i, raw):
    e = normalize(raw, COUNTABLE)
    expected = parity_reference(i)(e)
    assert cc2().diff_at(i)(e) == expected
    assert hcc2().at(i)(e) == expected


class TestHcc2:
    def test_contracts(self):
        assert check_contracting(cc2(), hcc2(), WINDOW, SAMPLER).ok

    def test_squares_to_zero(self):
        for i in (-1, 0, 2):
            for e in SAMPLER.elements(COUNTABLE, f"sq@{i}"):
                assert hcc2().at(i + 1)(hcc2().at(i)(e)) == Comb(())

    def test_acyclic_packaging(self):
        for sampler in (SAMPLER, Sampler()):
            assert check_reduction_laws(cc2_to_null().reduction, WINDOW, sampler).ok


class TestZxZnat:
    def test_law_one_on_integers(self):
        r = zxznat().reduction
        assert r.f.at(0)(r.g.at(0)(as_int(5))) == as_int(5)

    def test_law_two_componentwise(self):
        r = zxznat().reduction
        a = parse_element("(5, 7*x4+8*x0)", r.top.module_at(2))
        out = (
            r.top.diff_at(2)(r.h.at(2)(a))
            + r.h.at(1)(r.top.diff_at(1)(a))
            + r.g.at(2)(r.f.at(2)(a))
        )
        assert out == a

    def test_laws_pass(self):
        for sampler in (SAMPLER, Sampler()):
            assert check_reduction_laws(zxznat().reduction, WINDOW, sampler).ok


class TestAlphaPi1:
    def test_projects(self):
        src = sum12()
        e = parse_element("(5, 7*x4+8*x0)", src.module_at(2))
        assert alpha_pi1().at(2)(e) == as_int(5)

    def test_zero_maps_to_zero(self):
        src = sum12()
        assert alpha_pi1().at(0)(src.module_at(0).zero()) == Comb(())


class TestConeExample:
    def test_top_grading_shape(self):
        top = cone_example().reduction.top
        assert top.module_at(2) == DirectSum(DirectSum(Z, COUNTABLE), Z)

    def test_golden_differentials(self):
        top = cone_example().reduction.top
        x = parse_element("(5, 7*x4+8*x0, 3)", top.module_at(3))
        y = top.diff_at(2)(x)
        assert y == parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        assert top.diff_at(1)(y) == top.module_at(1).zero()

    def test_laws_pass(self):
        assert check_reduction_laws(cone_example().reduction, WINDOW, SAMPLER).ok


class TestBottomHomotopies:
    def test_h1_golden_composite_is_zero(self):
        bottom = cone_example().reduction.bottom
        e = parse_element("(5, 7)", bottom.module_at(2))
        h1 = h1_bottom()
        out = bottom.diff_at(2)(h1.at(2)(e)) + h1.at(1)(bottom.diff_at(1)(e))
        assert out == bottom.module_at(2).zero()

    def test_h2_golden_composite_is_identity(self):
        bottom = cone_example().reduction.bottom
        e = parse_element("(5, 7)", bottom.module_at(2))
        h2 = h2_bottom()
        out = bottom.diff_at(2)(h2.at(2)(e)) + h2.at(1)(bottom.diff_at(1)(e))
        assert out == e

    def test_h2_contracts_h1_does_not(self):
        bottom = cone_example().reduction.bottom
        assert check_contracting(bottom, h2_bottom(), WINDOW, SAMPLER).ok
        report = check_contracting(bottom, h1_bottom(), WINDOW, SAMPLER)
        assert report.violations >= 1


class TestHTop:
    def test_golden_contraction(self):
        top = cone_example().reduction.top
        x = parse_element("(5, 7*x4+8*x0, 3)", top.module_at(2))
        ht = h_top()
        out = top.diff_at(2)(ht.at(2)(x)) + ht.at(1)(top.diff_at(1)(x))
        assert out == x

    def test_golden_image(self):
        top = cone_example().reduction.top
        x = parse_element("(-10, -8*x0-7*x4, 5)", top.module_at(2))
        assert h_top().at(2)(x) == parse_element("(5, 8*x0+7*x4, 0)", top.module_at(3))

    def test_contracts_everywhere(self):
        top = cone_example().reduction.top
        assert check_contracting(top, h_top(), WINDOW, SAMPLER).ok


class TestBuildsSampleNoLaw:
    def test_no_build_runs_a_law(self, monkeypatch):
        calls = []
        run_law = reduction.run_law

        def counted(name, *args):
            calls.append(name)
            return run_law(name, *args)

        monkeypatch.setattr(reduction, "run_law", counted)
        # fresh builds; the cached instances stay the ones other tests hold
        zxznat.__wrapped__()
        cc2_to_null.__wrapped__()
        assert calls == []

    def test_builds_keep_their_reductions_and_laws(self):
        assert cc2_to_null().reduction.top is cc2()
        assert cc2_to_null().reduction.bottom is null_complex()
        assert cc2_to_null().reduction.h is hcc2()
        assert zxznat().reduction.top is sum12()
        assert zxznat().reduction.bottom is fcc1()
        for eh in (zxznat(), cc2_to_null()):
            report = check_reduction_laws(eh.reduction, DEFAULT_DEGREES, Sampler())
            assert report.ok
            assert len(report.sections) == 5


class TestCatalogWiring:
    def test_every_complex_instance_is_nilpotent(self):
        for ident in ("null", "cc1", "fcc1", "cc2", "sum12", "cone-example",
                      "cone-example.bottom"):
            cc = resolve_complex(ident)
            assert check_nilpotency(cc, WINDOW, SAMPLER).ok, ident

    def test_effective_homology_ids(self):
        for ident in ("idz2x0", "zxznat", "cone-example"):
            assert isinstance(resolve_effective_homology(ident), EffectiveHomology)

    def test_homotopy_homes(self):
        for name in HOMOTOPIES:
            home, h = resolve_homotopy(name)
            assert h.over is resolve_complex(home), name

    def test_catalog_ids_are_stable(self):
        assert set(CATALOG) == {
            "null", "cc1", "fcc1", "cc2", "sum12", "idz2x0", "zxznat",
            "cone-example", "cone-example.bottom",
        }
        assert set(HOMOTOPIES) == {"hcc2", "h1", "h2", "htop"}

    def test_instances_are_cached_constants(self):
        assert cc1() is cc1()
        assert cone_example() is cone_example()
        assert resolve_complex("cone-example") is cone_example().reduction.top


@cache
def catalog_maps():
    """Every component the catalog builds on the window, by name."""
    eh = {i: e.load() for i, e in CATALOG.items() if e.kind == "effective-homology"}
    complexes = {i: resolve_complex(i) for i in CATALOG}
    complexes.update({f"{i}.bottom": e.reduction.bottom for i, e in eh.items()})
    families = {f"{i}.d": cc.diff_at for i, cc in complexes.items()}
    for i, e in eh.items():
        r = e.reduction
        families.update({f"{i}.f": r.f.at, f"{i}.g": r.g.at, f"{i}.h": r.h.at})
    families.update({name: load().at for name, (_, load, _) in HOMOTOPIES.items()})
    families["alpha_pi1"] = alpha_pi1().at
    return [(f"{name}({i})", at(i)) for name, at in families.items() for i in WINDOW]


@seed(25)
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32))
def test_every_catalog_map_commutes_with_its_shift(sampler_seed):
    """M S = S M for the shift S of each catalog map's period: a law of two
    of them is decided on one period of each countable leaf."""
    for bounds in ({}, WIDE):
        sampler = Sampler(seed=sampler_seed, samples=2, **bounds)
        for name, m in catalog_maps():
            p = m._period
            assert p is not None, name
            for x in sampler.elements(m.source, name):
                assert m(shifted(x, m.source, p)) == shifted(m(x), m.target, p), name
