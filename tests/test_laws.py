"""Golden law reports and the law engine's equation contract.

The golden text and JSON pin the reports of four failing checks and one
passing h.h = 0 section byte for byte, on a two-degree window; they are
the reports the checkers gave before they became equations for
``run_law``.
"""

import ast
import importlib
import json
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import effhom.complexes
import effhom.reduction
from effhom import (
    COUNTABLE,
    DEFAULT_DEGREES,
    Z,
    ChainComplex,
    ChainMorphism,
    DirectSum,
    FiniteFree,
    LawRecord,
    LawReport,
    LawSection,
    MembershipError,
    ModMorphism,
    Pair,
    Reduction,
    Sampler,
    ShapeMismatchError,
    check_chain_morphism,
    check_contracting,
    check_homotopy_squares_to_zero,
    check_nilpotency,
    check_reduction_laws,
    format_element,
    from_generator_images,
    generator,
    identity,
    pair,
    proj1,
    run_law,
    scaling,
    zero_homotopy,
    zero_map,
)
from effhom.instances import (
    CATALOG,
    HOMOTOPIES,
    cc2,
    cc2_to_null,
    cone_example,
    fcc1,
    h1_bottom,
    hcc2,
    resolve_complex,
    resolve_effective_homology,
    sum12,
    zxznat,
)
from effhom.laws import equals_zero

SAMPLER = Sampler(seed=7, samples=2)
WINDOW = range(0, 2)

NILP_TEXT = """\
law=dd=0 degree=0 sample=0 verdict=fail input="5" output="5"
law=dd=0 degree=0 sample=1 verdict=fail input="7" output="7"
law=dd=0 degree=1 sample=0 verdict=fail input="-11" output="-11"
law=dd=0 degree=1 sample=1 verdict=fail input="-15" output="-15"
law=dd=0 degrees=0..1 samples=2 seed=7 violations=4"""
NILP_JSON = (
    '{"violations": 4, "laws": [{"law": "dd=0", "degrees": {"lo": 0, "hi": 1}, '
    '"samples": 2, "seed": 7, "violations": 4, "records": ['
    '{"degree": 0, "sample": 0, "verdict": "fail", "input": "5", "output": "5"}, '
    '{"degree": 0, "sample": 1, "verdict": "fail", "input": "7", "output": "7"}, '
    '{"degree": 1, "sample": 0, "verdict": "fail", "input": "-11", "output": "-11"}, '
    '{"degree": 1, "sample": 1, "verdict": "fail", "input": "-15", "output": "-15"}'
    ']}]}'
)
CM_TEXT = """\
law=fd=df degree=0 sample=0 verdict=fail input="(-14, -16*x4)" output="-28"
law=fd=df degree=0 sample=1 verdict=fail input="(-18, -9*x1+4*x15)" output="-36"
law=fd=df degree=1 sample=0 verdict=fail input="(12, -11*x2-14*x9-16*x11)" output="-24"
law=fd=df degree=1 sample=1 verdict=fail input="(-13, 6*x1+5*x2+12*x6)" output="26"
law=fd=df degrees=0..1 samples=2 seed=7 violations=4"""
CM_JSON = (
    '{"violations": 4, "laws": [{"law": "fd=df", "degrees": {"lo": 0, "hi": 1}, '
    '"samples": 2, "seed": 7, "violations": 4, "records": ['
    '{"degree": 0, "sample": 0, "verdict": "fail", "input": "(-14, -16*x4)", "output": "-28"}, '
    '{"degree": 0, "sample": 1, "verdict": "fail", "input": "(-18, -9*x1+4*x15)", "output": "-36"}, '
    '{"degree": 1, "sample": 0, "verdict": "fail", "input": "(12, -11*x2-14*x9-16*x11)", "output": "-24"}, '
    '{"degree": 1, "sample": 1, "verdict": "fail", "input": "(-13, 6*x1+5*x2+12*x6)", "output": "26"}'
    ']}]}'
)
RED_TEXT = """\
law=dh+hd+gf=id degree=0 sample=0 verdict=fail input="(18, -13*x2+7*x5)" output="(18, 0)"
law=dh+hd+gf=id degree=0 sample=1 verdict=fail input="(-12, x2+11*x3+12*x4+3*x8-16*x14)" output="(-12, 0)"
law=dh+hd+gf=id degree=1 sample=0 verdict=fail input="(11, -19*x4-16*x5+11*x6+19*x14)" output="(11, 0)"
law=dh+hd+gf=id degree=1 sample=1 verdict=fail input="(-9, 3*x12)" output="(-9, 0)"
law=dh+hd+gf=id degrees=0..1 samples=2 seed=7 violations=4"""
RED_JSON = (
    '{"violations": 4, "laws": [{"law": "dh+hd+gf=id", "degrees": {"lo": 0, "hi": 1}, '
    '"samples": 2, "seed": 7, "violations": 4, "records": ['
    '{"degree": 0, "sample": 0, "verdict": "fail", "input": "(18, -13*x2+7*x5)", "output": "(18, 0)"}, '
    '{"degree": 0, "sample": 1, "verdict": "fail", "input": "(-12, x2+11*x3+12*x4+3*x8-16*x14)", "output": "(-12, 0)"}, '
    '{"degree": 1, "sample": 0, "verdict": "fail", "input": "(11, -19*x4-16*x5+11*x6+19*x14)", "output": "(11, 0)"}, '
    '{"degree": 1, "sample": 1, "verdict": "fail", "input": "(-9, 3*x12)", "output": "(-9, 0)"}'
    ']}]}'
)
CONTR_TEXT = """\
law=dh+hd=id degree=0 sample=0 verdict=fail input="(11, -3)" output="(0, 0)"
law=dh+hd=id degree=0 sample=1 verdict=fail input="(20, -5)" output="(0, 0)"
law=dh+hd=id degree=1 sample=0 verdict=fail input="(-11, 11)" output="(0, 0)"
law=dh+hd=id degree=1 sample=1 verdict=fail input="(-4, -17)" output="(0, 0)"
law=dh+hd=id degrees=0..1 samples=2 seed=7 violations=4"""
CONTR_JSON = (
    '{"violations": 4, "laws": [{"law": "dh+hd=id", "degrees": {"lo": 0, "hi": 1}, '
    '"samples": 2, "seed": 7, "violations": 4, "records": ['
    '{"degree": 0, "sample": 0, "verdict": "fail", "input": "(11, -3)", "output": "(0, 0)"}, '
    '{"degree": 0, "sample": 1, "verdict": "fail", "input": "(20, -5)", "output": "(0, 0)"}, '
    '{"degree": 1, "sample": 0, "verdict": "fail", "input": "(-11, 11)", "output": "(0, 0)"}, '
    '{"degree": 1, "sample": 1, "verdict": "fail", "input": "(-4, -17)", "output": "(0, 0)"}'
    ']}]}'
)
HH_TEXT = """\
law=hh=0 degree=0 sample=0 verdict=pass
law=hh=0 degree=0 sample=1 verdict=pass
law=hh=0 degree=1 sample=0 verdict=pass
law=hh=0 degree=1 sample=1 verdict=pass
law=hh=0 degrees=0..1 samples=2 seed=7 violations=0"""
HH_JSON = (
    '{"violations": 0, "laws": [{"law": "hh=0", "degrees": {"lo": 0, "hi": 1}, '
    '"samples": 2, "seed": 7, "violations": 0, "records": ['
    '{"degree": 0, "sample": 0, "verdict": "pass"}, '
    '{"degree": 0, "sample": 1, "verdict": "pass"}, '
    '{"degree": 1, "sample": 0, "verdict": "pass"}, '
    '{"degree": 1, "sample": 1, "verdict": "pass"}'
    ']}]}'
)


def identity_differential():
    return ChainComplex(lambda i: Z, lambda i: identity(Z))


def swapped_parity_morphism():
    # the projection sum12 -> cc1, but into a target that doubles at odd
    # indices instead of even ones
    swapped = ChainComplex(
        lambda i: Z, lambda i: scaling(Z, 2) if i % 2 else zero_map(Z, Z)
    )
    src = sum12()
    return ChainMorphism(src, swapped, lambda i: proj1(src.module_at(i)))


def zero_homotopy_reduction():
    top, bottom = sum12(), fcc1()
    f = ChainMorphism(top, bottom, lambda i: proj1(top.module_at(i)))
    g = ChainMorphism(bottom, top, lambda i: pair(identity(Z), zero_map(Z, COUNTABLE)))
    return Reduction(top, bottom, f, g, zero_homotopy(top))


def section(report, law):
    (match,) = [s for s in report.sections if s.law == law]
    return LawReport((match,))


GOLDEN = {
    "nilpotency": (
        lambda: check_nilpotency(identity_differential(), WINDOW, SAMPLER),
        NILP_TEXT,
        NILP_JSON,
    ),
    "chain-morphism": (
        lambda: check_chain_morphism(swapped_parity_morphism(), WINDOW, SAMPLER),
        CM_TEXT,
        CM_JSON,
    ),
    "reduction": (
        lambda: section(
            check_reduction_laws(zero_homotopy_reduction(), WINDOW, SAMPLER),
            "dh+hd+gf=id",
        ),
        RED_TEXT,
        RED_JSON,
    ),
    "contracting": (
        lambda: check_contracting(
            cone_example().reduction.bottom, h1_bottom(), WINDOW, SAMPLER
        ),
        CONTR_TEXT,
        CONTR_JSON,
    ),
    "hh": (
        lambda: check_homotopy_squares_to_zero(cc2(), hcc2(), WINDOW, SAMPLER),
        HH_TEXT,
        HH_JSON,
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_text(name):
    report, text, _ = GOLDEN[name]
    assert report().to_text() == text


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_json(name):
    report, _, data = GOLDEN[name]
    assert json.dumps(report().to_json()) == data


def expected_json(report):
    """The JSON data of a report, built from its sections and records."""
    return {
        "violations": sum(1 for s in report.sections for r in s.records if not r.ok),
        "laws": [
            {
                "law": s.law,
                "degrees": {"lo": s.lo, "hi": s.hi},
                "samples": s.sampler.samples,
                "seed": s.sampler.seed,
                "violations": sum(1 for r in s.records if not r.ok),
                "records": [
                    {"degree": r.degree, "sample": r.sample, "verdict": "pass"}
                    if r.ok
                    else {
                        "degree": r.degree,
                        "sample": r.sample,
                        "verdict": "fail",
                        "input": r.input,
                        "output": r.output,
                    }
                    for r in s.records
                ],
            }
            for s in report.sections
        ],
    }


def odd_names_report():
    # a law name and failure strings that json.dumps must escape
    name = 'q"b\\s\u00e9\u2200'
    failures = (LawRecord(name, -1, 0, False, 'in "\\\n', "\u00fc\U0001d400"),)
    return LawReport((LawSection(name, -1, 0, Sampler(seed=-3, samples=1), failures),))


def mixed_verdicts_report():
    # the law of TestSection.test_records_put_each_failure_at_its_pair:
    # each degree of -1..0 holds passes and failures
    images = [generator(0), -generator(0), Z.zero()]
    lhs = from_generator_images(FiniteFree(3), Z, images.__getitem__)
    sampler = Sampler(seed=2, coeff_bound=1)
    return LawReport((run_law("cancel", range(-1, 1), sampler, lambda i: equals_zero(lhs)),))


REPORTS = {
    "empty": lambda: LawReport(()),
    "passing": lambda: check_homotopy_squares_to_zero(cc2(), hcc2(), WINDOW, SAMPLER),
    "one-degree": lambda: check_nilpotency(cc2(), [3], SAMPLER),
    "failing-h1": GOLDEN["contracting"][0],
    "merged-chain-morphism": lambda: check_chain_morphism(
        zxznat().reduction.f, WINDOW, SAMPLER, law="f:fd=df"
    ).merged(
        check_chain_morphism(zxznat().reduction.g, WINDOW, SAMPLER, law="g:fd=df")
    ),
    "odd-names": odd_names_report,
    "mixed-verdicts": mixed_verdicts_report,
}


@pytest.mark.parametrize("name", REPORTS)
def test_json_text_is_json_dumps_indent_2(name):
    report = REPORTS[name]()
    expected = expected_json(report)
    assert report.to_json_text() == json.dumps(expected, indent=2)
    assert report.to_json() == expected


def test_reduction_hh_section_is_the_shared_equation():
    report = check_reduction_laws(cc2_to_null().reduction, WINDOW, SAMPLER)
    assert section(report, "hh=0").to_text() == HH_TEXT


class TestRunLaw:
    def test_samples_come_from_lhs_source_under_the_law_label(self):
        lhs = scaling(COUNTABLE, 3)
        out = run_law("triple", [4], SAMPLER, lambda i: (lhs, identity(COUNTABLE)))
        drawn = SAMPLER.elements(COUNTABLE, "triple@4")
        assert [r.input for r in out.records] == [
            format_element(a, COUNTABLE) for a in drawn
        ]

    def test_failure_output_is_lhs_of_the_sample(self):
        lhs, rhs = scaling(Z, 3), scaling(Z, 2)
        out = run_law("x", [0], SAMPLER, lambda i: (lhs, rhs))
        (a, b) = SAMPLER.elements(Z, "x@0")
        assert [r.output for r in out.records] == [
            format_element(3 * a, Z), format_element(3 * b, Z)
        ]

    def test_equal_sides_pass(self):
        d = scaling(Z, 2)
        out = run_law("x", range(-1, 2), SAMPLER, lambda i: (d + d, scaling(Z, 4)))
        assert out.violations == 0 and len(out.records) == 6

    def test_sides_of_different_shape_are_refused(self):
        with pytest.raises(ShapeMismatchError):
            run_law("x", [0], SAMPLER, lambda i: (identity(Z), zero_map(Z, COUNTABLE)))

    def test_empty_window_is_refused(self):
        with pytest.raises(ValueError):
            run_law("x", [], SAMPLER, lambda i: (identity(Z), identity(Z)))

    def test_window_with_gaps_is_refused(self):
        # its report would read degrees=1..5, and a replay would check 2 and 4 too
        def sides(i):
            return identity(Z), identity(Z)

        with pytest.raises(ValueError, match="1..5 has gaps"):
            run_law("x", [1, 3, 5], SAMPLER, sides)
        out = run_law("x", [1, 0, 1], SAMPLER, sides)
        assert (out.lo, out.hi) == (0, 1)

class TestSection:
    """A section keeps its failures; ``records`` is read off the window."""

    def test_a_decided_law_keeps_no_record(self):
        # the span x0 .. x10 of Z[N] decides dd=0 on cc2 without a draw;
        # 200,000 stored pass records held about 35 MB under tracemalloc
        cc, sampler = cc2(), Sampler(samples=100_000, max_generator=10)
        tracemalloc.start()
        try:
            (section,) = check_nilpotency(cc, range(0, 2), sampler).sections
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert section.failures == () and section.violations == 0
        records = section.records
        assert len(records) == 200_000 and records[-1] == LawRecord("dd=0", 1, 99_999, True)

    def test_records_put_each_failure_at_its_pair(self):
        # lhs - rhs sends x0 to x0 and x1 to -x0: some samples fail, some pass
        source = FiniteFree(3)
        images = [generator(0), -generator(0), Z.zero()]
        lhs = from_generator_images(source, Z, images.__getitem__)
        sampler = Sampler(seed=2, coeff_bound=1)
        out = run_law("cancel", range(-1, 1), sampler, lambda i: equals_zero(lhs))
        failed = {(r.degree, r.sample): r for r in out.failures}
        assert 0 < len(failed) == out.violations < 2 * sampler.samples
        assert [(r.degree, r.sample) for r in out.failures] == sorted(failed)
        assert all(not r.ok for r in out.failures)
        assert out.records == tuple(
            failed.get(p, LawRecord("cancel", *p, True))
            for p in product(range(-1, 1), range(sampler.samples))
        )
        assert out.counterexamples() == list(out.failures)
        assert LawReport((out, out)).counterexamples() == 2 * list(out.failures)


def per_sample_law(name, degrees, sampler, sides):
    """The oracle: ``run_law`` with every sample applied whole."""
    window = sorted(set(degrees))
    failures = []
    for i in window:
        lhs, rhs = sides(i)
        for j, a in enumerate(sampler.elements(lhs.source, f"{name}@{i}")):
            out = lhs(a)
            if out != rhs.action(a):
                failure = format_element(a, lhs.source), format_element(out, lhs.target)
                failures.append(LawRecord(name, i, j, False, *failure))
    return LawSection(name, window[0], window[-1], sampler, tuple(failures))


def catalog_checks():
    """Every law check the CLI offers on the catalog, by ``instance:law``."""
    checks = {}
    for ident, entry in CATALOG.items():
        checks[f"{ident}:nilpotency"] = lambda s, ident=ident: check_nilpotency(
            resolve_complex(ident), DEFAULT_DEGREES, s
        )
        if entry.kind == "effective-homology":
            checks[f"{ident}:chain-morphism"] = lambda s, ident=ident: check_chain_morphism(
                resolve_effective_homology(ident).reduction.f, DEFAULT_DEGREES, s, "f:fd=df"
            ).merged(
                check_chain_morphism(
                    resolve_effective_homology(ident).reduction.g, DEFAULT_DEGREES, s, "g:fd=df"
                )
            )
            checks[f"{ident}:reduction"] = lambda s, ident=ident: check_reduction_laws(
                resolve_effective_homology(ident).reduction, DEFAULT_DEGREES, s
            )
    for name, (home, load, _) in HOMOTOPIES.items():
        checks[f"{home}:contracting:{name}"] = lambda s, home=home, load=load: (
            check_contracting(resolve_complex(home), load(), DEFAULT_DEGREES, s)
        )
    return checks


CATALOG_CHECKS = catalog_checks()
#: The default sampler draws from at most 19 basis elements of any catalog
#: module, fewer than its 32 samples; 33 generators of Z[N] are not.
EQUIVALENCE_SAMPLERS = {"basis": Sampler(), "per-sample": Sampler(max_generator=32)}


class TestBasisEquivalence:
    """``run_law`` on basis elements gives the reports of whole samples."""

    @pytest.mark.parametrize("sampler", EQUIVALENCE_SAMPLERS)
    @pytest.mark.parametrize("check", CATALOG_CHECKS)
    def test_catalog_reports_equal_the_per_sample_oracle(self, monkeypatch, check, sampler):
        run = CATALOG_CHECKS[check]
        s = EQUIVALENCE_SAMPLERS[sampler]
        report = run(s)
        for module in (effhom.complexes, effhom.reduction):
            monkeypatch.setattr(module, "run_law", per_sample_law)
        expected = run(s)
        assert report.to_text() == expected.to_text()
        assert report.violations == (32 * 17 if check.endswith(":h1") else 0)

    def test_cancelling_disagreements_pass_as_whole_samples(self):
        # lhs - rhs sends x0 to x0 and x1 to -x0, so x0 + x1 and -x0 - x1 pass
        source = FiniteFree(3)
        images = [generator(0), -generator(0), Z.zero()]
        lhs = from_generator_images(source, Z, images.__getitem__)
        sampler = Sampler(seed=2, coeff_bound=1)
        out = run_law("cancel", [0], sampler, lambda i: equals_zero(lhs))
        expected = per_sample_law("cancel", [0], sampler, lambda i: equals_zero(lhs))
        assert LawReport((out,)).to_text() == LawReport((expected,)).to_text()
        drawn = sampler.elements(source, "cancel@0")
        cancelled = [
            j for j, a in enumerate(drawn) if a.coefficient(0) == a.coefficient(1) != 0
        ]
        assert cancelled and all(out.records[j].ok for j in cancelled)
        assert 0 < out.violations < sampler.samples


class TestBasisContract:
    def test_bad_generator_image_raises_on_every_call(self):
        # x1 and x2 have images outside Z; the error names one generator's image
        bad = from_generator_images(FiniteFree(3), Z, generator)
        for _ in range(3):
            with pytest.raises(MembershipError, match=r"^x[12] is not a member of Z$"):
                run_law("bad", [0], Sampler(), lambda i: equals_zero(bad))

    def test_bad_image_no_sample_touches_raises_on_every_call(self):
        # x30's image x5 is outside Z; no sample of this sampler holds x30,
        # but the span x0 .. x30 has 31 < 32 elements, so x30 is applied
        bad = from_generator_images(
            FiniteFree(31), Z, lambda g: generator(5) if g == 30 else Z.zero()
        )
        sampler = Sampler(seed=1, max_support=1)
        drawn = sampler.elements(bad.source, "bad@0")
        assert all(a.coefficient(30) == 0 for a in drawn)
        for _ in range(3):
            with pytest.raises(MembershipError, match=r"^x5 is not a member of Z$"):
                run_law("bad", [0], sampler, lambda i: equals_zero(bad))

    @staticmethod
    def counted_identity_law(sampler):
        """Calls of one ``lhs`` in each of two runs of ``lhs = id`` on Z (+) Z[N]."""
        source = DirectSum(Z, COUNTABLE)
        calls = []
        lhs = ModMorphism(source, source, lambda e: calls.append(e) or e)
        counts = []
        for _ in range(2):
            del calls[:]
            out = run_law("id", range(3), sampler, lambda i: (lhs, identity(source)))
            assert out.violations == 0 and len(out.records) == 3 * sampler.samples
            counts.append(len(calls))
        return counts

    def test_basis_path_applies_lhs_once_per_span_element(self):
        # 1 + 17 basis elements to draw from, fewer than 32 samples per degree;
        # the second run applies as often as the first, so no verdict outlives a run
        first, second = self.counted_identity_law(Sampler(seed=5))
        assert first == second == 3 * 18

    def test_sample_path_applies_lhs_once_per_sample(self):
        # 1 + 33 basis elements to draw from, at least 32 samples
        assert self.counted_identity_law(Sampler(seed=5, max_generator=32)) == [3 * 32] * 2


class TestDraws:
    """``Sampler.elements`` runs only where the span does not decide a law."""

    @staticmethod
    def draws(monkeypatch, sampler):
        """The labels ``Sampler.elements`` draws for the cone example's reduction laws."""
        labels = []
        elements = Sampler.elements

        def counted(self, desc, label):
            labels.append(label)
            return elements(self, desc, label)

        monkeypatch.setattr(Sampler, "elements", counted)
        reduction = resolve_effective_homology("cone-example").reduction
        assert check_reduction_laws(reduction, DEFAULT_DEGREES, sampler).ok
        return labels

    def test_span_smaller_than_samples_draws_nothing(self, monkeypatch):
        # the top Z (+) Z[N] (+) Z spans 19 and the bottom Z (+) Z spans 2
        assert self.draws(monkeypatch, Sampler()) == []

    def test_span_at_least_samples_draws_once_per_law_and_degree(self, monkeypatch):
        # the top is Z (+) Z[N] (+) Z: the sides of dh+hd+gf=id and hh=0 have
        # period 2, so it spans 1 + 2 + 1, as many as the samples, and they draw;
        # fh=0 folds to a zero map of period 1, spanning 3, and the bottom
        # Z (+) Z of fg=id and hg=0 spans 2, so those draw nothing
        labels = self.draws(monkeypatch, Sampler(samples=4))
        top = ("dh+hd+gf=id", "hh=0")
        assert sorted(labels) == sorted(f"{law}@{i}" for law in top for i in DEFAULT_DEGREES)

    def test_period_span_draws_nothing_on_the_cone_top(self, monkeypatch):
        # one period of Z[N] is x0, x1 however many generators a sample draws from
        assert self.draws(monkeypatch, Sampler(max_generator=1000)) == []

    def test_period_less_part_takes_the_full_span(self):
        # scaling has period 1, but a composite with a generator-image map has
        # none: x10, past one period, is applied, and its image raises every time
        bad = from_generator_images(
            COUNTABLE, COUNTABLE, lambda g: Pair(Z.zero(), Z.zero()) if g == 10 else generator(g)
        )
        lhs, rhs = scaling(COUNTABLE, 3) * bad, scaling(COUNTABLE, 3)
        assert lhs._period is None and rhs._period == 1
        for _ in range(3):
            with pytest.raises(MembershipError, match="^image of x10 is"):
                run_law("bad", [0], Sampler(), lambda i: (lhs, rhs))

    @pytest.mark.parametrize("max_generator, drawn", [(16, ["id@0"]), (15, [])])
    def test_span_equal_to_samples_draws(self, monkeypatch, max_generator, drawn):
        # a caller's map has no period, so Z[N] spans x0 .. x{max_generator}:
        # 17 elements for 17 samples draw them, and 16 decide the law on the span
        labels = []
        elements = Sampler.elements

        def counted(self, desc, label):
            labels.append(label)
            return elements(self, desc, label)

        monkeypatch.setattr(Sampler, "elements", counted)
        sampler = Sampler(samples=17, max_generator=max_generator)
        same = ModMorphism(COUNTABLE, COUNTABLE, lambda e: e)
        out = run_law("id", [0], sampler, lambda i: (same, identity(COUNTABLE)))
        assert labels == drawn and out.violations == 0


def test_traced_boundaries_resolve():
    """Every boundary the benchmark tracer wraps exists under its name.

    ``bench/tracing.py`` is parsed, not imported, so the check neither runs
    nor writes anything under ``bench/``.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text())
    (boundaries,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets)
    ]
    entries = ast.literal_eval(boundaries)
    assert entries
    for module_name, owner, attr, _ in entries:
        module = importlib.import_module(f"effhom.{module_name}")
        if owner is None:
            assert callable(getattr(module, attr)), (module_name, attr)
        else:
            assert attr in vars(getattr(module, owner)), (module_name, owner, attr)
