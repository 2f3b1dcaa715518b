"""The law engine: equations of morphisms, sampled and reported.

Every law is an equation ``lhs = rhs`` between two morphisms with one
source and one target, built per degree with the morphism algebra
(``*``, ``+``, ``-``, ``identity``, ``zero_map``); for example the
homotopy law of a reduction is ``d*h + h*d + g*f = identity``.
``run_law`` is the only code that samples, compares and formats a law.
At each degree it draws samples ``a`` from ``lhs.source`` and records a
pass when ``lhs(a) == rhs(a)``; a failure records ``a`` and ``lhs(a)``,
both formatted in the element grammar.

The engine relies on the linearity contract of ``effhom.morphisms``:
every morphism M satisfies M(sum of c*x) = sum of c*M(x).  So two sides
agree on a sample when they agree on each basis element in its support,
and when the sampler can draw from fewer basis elements than samples,
``run_law`` applies each side once per basis element a sample touches,
not once per sample.  The verdicts are those of applying every sample
whole: a sample that touches a disagreeing basis element is applied
whole, so a cancellation still passes and a failure records ``lhs(a)``.

A report gathers one section per law; a section records a verdict for
every (degree, sample) pair plus the sampler settings, so a failed run can
be replayed exactly.  The text serialization is line oriented: one line
per sample and one summary line per law, in the form

    law=<name> degree=<d> sample=<k> verdict=pass
    law=<name> degree=<d> sample=<k> verdict=fail input="..." output="..."
    law=<name> degrees=<lo>..<hi> samples=<n> seed=<s> violations=<k>
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

from .errors import ShapeMismatchError
from .grammar import format_element
from .modules import Comb, Element, join, leaves, split
from .morphisms import ModMorphism, identity, zero_map
from .sampling import Sampler


@dataclass(frozen=True)
class LawRecord:
    law: str
    degree: int
    sample: int
    ok: bool
    input: str | None = None
    output: str | None = None


@dataclass(frozen=True)
class LawSection:
    law: str
    lo: int
    hi: int
    sampler: Sampler
    records: tuple[LawRecord, ...]

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def counterexamples(self) -> list[LawRecord]:
        return [r for r in self.records if not r.ok]

    def summary(self) -> str:
        return (
            f"law={self.law} degrees={self.lo}..{self.hi} "
            f"samples={self.sampler.samples} seed={self.sampler.seed} "
            f"violations={self.violations}"
        )


@dataclass(frozen=True)
class LawReport:
    sections: tuple[LawSection, ...]

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def violations(self) -> int:
        return sum(section.violations for section in self.sections)

    def counterexamples(self) -> list[LawRecord]:
        return [r for section in self.sections for r in section.counterexamples()]

    def to_text(self) -> str:
        lines = []
        for section in self.sections:
            for r in section.records:
                line = f"law={r.law} degree={r.degree} sample={r.sample} verdict="
                if r.ok:
                    line += "pass"
                else:
                    line += f'fail input="{r.input}" output="{r.output}"'
                lines.append(line)
            lines.append(section.summary())
        return "\n".join(lines)

    def to_json(self) -> dict:
        """The report as JSON data, read back from ``to_json_text``."""
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2)``, written directly."""
        laws = ",\n".join(map(_section_json, self.sections))
        laws = f"[\n{laws}\n  ]" if laws else "[]"
        return f'{{\n  "violations": {self.violations},\n  "laws": {laws}\n}}'

    def merged(self, *others: "LawReport") -> "LawReport":
        sections = list(self.sections)
        for other in others:
            sections.extend(other.sections)
        return LawReport(tuple(sections))


def _string(value: str | None) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def _section_json(s: LawSection) -> str:
    records = ",\n".join(map(_record_json, s.records))
    records = f"[\n{records}\n      ]" if records else "[]"
    return (
        f'    {{\n      "law": {_string(s.law)},\n'
        f'      "degrees": {{\n        "lo": {s.lo},\n        "hi": {s.hi}\n      }},\n'
        f'      "samples": {s.sampler.samples},\n      "seed": {s.sampler.seed},\n'
        f'      "violations": {s.violations},\n      "records": {records}\n    }}'
    )


def _record_json(r: LawRecord) -> str:
    head = (
        f'        {{\n          "degree": {r.degree},\n'
        f'          "sample": {r.sample},\n          "verdict": '
    )
    if r.ok:
        return head + '"pass"\n        }'
    return (
        f'{head}"fail",\n          "input": {_string(r.input)},\n'
        f'          "output": {_string(r.output)}\n        }}'
    )


def equals_zero(lhs: ModMorphism) -> tuple[ModMorphism, ModMorphism]:
    """The equation ``lhs = 0``."""
    return lhs, zero_map(lhs.source, lhs.target)


def equals_identity(lhs: ModMorphism) -> tuple[ModMorphism, ModMorphism]:
    """The equation ``lhs = id``."""
    return lhs, identity(lhs.source)


def run_law(
    name: str,
    degrees,
    sampler: Sampler,
    sides: Callable[[int], tuple[ModMorphism, ModMorphism]],
) -> LawSection:
    """Sample the equation ``sides(i)`` at every degree ``i`` of a window.

    When the sampler draws from fewer basis elements of ``lhs.source`` than
    it draws samples, each basis element the samples touch is checked once
    per degree, and only a sample that touches a disagreeing one is applied
    whole; otherwise every sample is applied whole.  The calls of ``lhs``
    validate each element and its image, so ``rhs`` is evaluated by its
    action alone.
    """
    window = sorted(set(degrees))
    if not window:
        raise ValueError("degree window must be nonempty")
    records = []
    for i in window:
        lhs, rhs = sides(i)
        if lhs.source != rhs.source or lhs.target != rhs.target:
            raise ShapeMismatchError(
                f"law {name} at degree {i} compares {lhs.source} -> {lhs.target} "
                f"with {rhs.source} -> {rhs.target}"
            )
        samples = sampler.elements(lhs.source, f"{name}@{i}")
        shape = leaves(lhs.source)
        on_basis = sum(map(sampler._population, shape)) < sampler.samples
        agrees = _basis_agreement(lhs, rhs, len(shape)) if on_basis else None
        for j, a in enumerate(samples):
            if agrees is not None and agrees(a):
                records.append(LawRecord(name, i, j, True))
                continue
            out = lhs(a)
            if out == rhs.action(a):
                records.append(LawRecord(name, i, j, True))
            else:
                failure = format_element(a, lhs.source), format_element(out, lhs.target)
                records.append(LawRecord(name, i, j, False, *failure))
    return LawSection(name, window[0], window[-1], sampler, tuple(records))


def _basis_agreement(
    lhs: ModMorphism, rhs: ModMorphism, width: int
) -> Callable[[Element], bool]:
    """Whether ``lhs`` and ``rhs`` agree on every basis element in a sample's support.

    A basis element is a generator of one of the ``width`` leaves of
    ``lhs.source``.  Each is applied the first time a sample touches it,
    before the sample is judged, so a bad image raises from the call on its
    own generator; its verdict is kept only as long as the returned function.
    """
    source = lhs.source
    zeros = [Comb._canonical(())] * width
    known: dict[tuple[int, int], bool] = {}

    def agrees(a: Element) -> bool:
        source.require(a)
        support = [(k, g) for k, (_, comb) in enumerate(split(a, source)) for g, _ in comb.terms]
        for k, g in support:
            if (k, g) not in known:
                parts = zeros.copy()
                parts[k] = Comb._canonical(((g, 1),))
                e = join(source, iter(parts))
                known[k, g] = lhs(e) == rhs.action(e)
        return all(known[key] for key in support)

    return agrees
