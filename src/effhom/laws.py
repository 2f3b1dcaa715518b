"""The law engine: equations of morphisms, sampled and reported.

Every law is an equation ``lhs = rhs`` between two morphisms with one
source and one target, built per degree with the morphism algebra
(``*``, ``+``, ``-``, ``identity``, ``zero_map``); for example the
homotopy law of a reduction is ``d*h + h*d + g*f = identity``.
``run_law`` is the only code that samples, compares and formats a law.
At each degree it draws samples ``a`` from ``lhs.source``, and a sample
passes when ``lhs(a) == rhs(a)``; a failure records ``a`` and ``lhs(a)``,
both formatted in the element grammar.

The engine relies on the linearity contract of ``effhom.morphisms``:
every morphism M satisfies M(sum of c*x) = sum of c*M(x).  The samples of
a degree are combinations of its *span*, the basis elements the sampler
draws from, so when the two sides agree on the span every sample passes.
When both sides have a period p (see ``effhom.morphisms``), the span of
a countable leaf is cut to x0 .. x{p-1}: they commute with the shift S of
period p, so agreement on x_r gives M(x_{qp+r}) = S^q M(x_r) = N(x_{qp+r})
for every q, and the cut span decides the law exactly.  A side without a
period keeps the sampler's whole span.  When the span is smaller than the
sample count, ``run_law`` decides that first, applying each side once per
span element, and draws no sample when it holds.  Otherwise, or when a
span element disagrees, every sample is applied whole, so a cancellation
still passes and a failure records ``lhs(a)``.

A report gathers one section per law; a section keeps its failures and
the sampler settings, so a failed run can be replayed exactly.  ``records``
and the writers walk its window, a pass wherever no failure is kept, and a
writer yields the text of one degree at a time.  The text has one line per
sample and one summary line per law, in the form

    law=<name> degree=<d> sample=<k> verdict=pass
    law=<name> degree=<d> sample=<k> verdict=fail input="..." output="..."
    law=<name> degrees=<lo>..<hi> samples=<n> seed=<s> violations=<k>
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from math import lcm
from typing import Callable

from .errors import ShapeMismatchError
from .grammar import format_element
from .modules import basis, leaves
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
    failures: tuple[LawRecord, ...]  # in (degree, sample) order

    def _walk(self):
        """Each degree of the window with its lazy (sample, failure or None) pairs."""
        failed = {(r.degree, r.sample): r for r in self.failures}
        samples = range(self.sampler.samples)
        for i in range(self.lo, self.hi + 1):
            yield i, zip(samples, map(failed.get, zip(repeat(i), samples)))

    @property
    def records(self) -> tuple[LawRecord, ...]:
        """One verdict per (degree, sample) pair of the window, built anew."""
        verdicts = ((i, j, r) for i, pairs in self._walk() for j, r in pairs)
        return tuple(r or LawRecord(self.law, i, j, True) for i, j, r in verdicts)

    @property
    def violations(self) -> int:
        return len(self.failures)

    def counterexamples(self) -> list[LawRecord]:
        return list(self.failures)

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
        return "".join(self._text_pieces())[:-1]

    def to_json(self) -> dict:
        """The report as JSON data, read back from ``to_json_text``."""
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json(), indent=2)``, written directly."""
        return "".join(self._json_pieces())[:-1]

    def _text_pieces(self):
        """``to_text()`` and a newline: each degree of a law, then its summary."""
        for s in self.sections:
            for i, pairs in s._walk():
                head = f"law={s.law} degree={i} sample="
                yield "".join(
                    f"{head}{j} verdict=pass\n" if r is None else
                    f'{head}{j} verdict=fail input="{r.input}" output="{r.output}"\n'
                    for j, r in pairs
                )
            yield s.summary() + "\n"

    def _json_pieces(self):
        """``to_json_text()`` and a newline; a law's header rides on its first degree."""
        text = f'{{\n  "violations": {self.violations},\n  "laws": ['
        for n, s in enumerate(self.sections):
            text += ("," if n else "") + (
                f'\n    {{\n      "law": {json.dumps(s.law)},\n      "degrees": {{\n'
                f'        "lo": {s.lo},\n        "hi": {s.hi}\n      }},\n'
                f'      "samples": {s.sampler.samples},\n      "seed": {s.sampler.seed},\n'
                f'      "violations": {s.violations},\n      "records": ['
            )
            for i, pairs in s._walk():
                head = f'\n        {{\n          "degree": {i},\n          "sample": '
                yield text + ("," if i > s.lo else "") + ",".join(
                    f'{head}{j},\n          "verdict": "pass"\n        }}' if r is None else
                    f'{head}{j},\n          "verdict": "fail",\n          "input": '
                    f'{json.dumps(r.input)},\n          "output": {json.dumps(r.output)}'
                    "\n        }"
                    for j, r in pairs
                )
                text = ""
            text += "\n      ]\n    }" if s.lo <= s.hi else "]\n    }"
        yield text + ("\n  ]\n}\n" if self.sections else "]\n}\n")

    def merged(self, *others: "LawReport") -> "LawReport":
        sections = list(self.sections)
        for other in others:
            sections.extend(other.sections)
        return LawReport(tuple(sections))


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

    The span of a degree is x0 .. x{n-1} of each leaf of ``lhs.source``,
    where n is the leaf's ``Sampler._population``; when both sides have a
    period p, n is at most p on a countable leaf.  When the span has fewer
    elements than ``sampler.samples``, both sides are applied to every span
    element first, and if they agree on all of them every sample passes
    without being drawn.  Otherwise every sample is drawn and applied whole.
    The calls of ``lhs`` validate each element and its image, so ``rhs`` is
    evaluated by its action alone.
    """
    window = sorted(set(degrees))
    if not window:
        raise ValueError("degree window must be nonempty")
    if window[-1] - window[0] + 1 != len(window):  # the report names it lo..hi
        raise ValueError(f"degree window {window[0]}..{window[-1]} has gaps")
    failures = []
    for i in window:
        lhs, rhs = sides(i)
        if lhs.source != rhs.source or lhs.target != rhs.target:
            raise ShapeMismatchError(
                f"law {name} at degree {i} compares {lhs.source} -> {lhs.target} "
                f"with {rhs.source} -> {rhs.target}"
            )
        shape = leaves(lhs.source)
        sizes = [sampler._population(leaf) for leaf in shape]
        if lhs._period and rhs._period:  # both commute with the shift of period p
            p = lcm(lhs._period, rhs._period)
            sizes = [n if x.is_finite_type() else min(n, p) for x, n in zip(shape, sizes)]
        # a list, not a generator: every span element is applied, so a bad
        # image raises from the call on its own generator
        if sum(sizes) < sampler.samples and all(
            [lhs(e) == rhs.action(e) for e in basis(lhs.source, sizes)]
        ):
            continue
        for j, a in enumerate(sampler.elements(lhs.source, f"{name}@{i}")):
            out = lhs(a)
            if out != rhs.action(a):
                failure = format_element(a, lhs.source), format_element(out, lhs.target)
                failures.append(LawRecord(name, i, j, False, *failure))
    return LawSection(name, window[0], window[-1], sampler, tuple(failures))
