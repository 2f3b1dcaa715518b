"""Independent answers for every output the benchmark checks.

Nothing here imports the library.  Elements of the cone-example top are
held as ``(a, b, c)`` with ``a`` and ``c`` integers and ``b`` a dict
``{generator: coefficient}`` without zero entries; that is the degree-i
module ((Z (+) Z[N]) (+) Z) of the cone of the projection sum12 -> cc1.

Derived by hand from the paper's definitions:

* the cone differential from degree i+1 to degree i is
  ``(a, b, c) -> (-2a if i even else 0, -keep_i(b), a + (2c if i odd else 0))``
  where ``keep_i`` keeps the generators whose parity is that of ``i``;
* the transported contraction ``htop`` at degree i is
  ``(a, b, c) -> (c, -keep_i(b), 0)``.

Both reproduce the paper's golden values, which ``GOLDEN`` records.
"""

from __future__ import annotations

import json
import random
import re

#: (degree, input, d(input), htop(d(input))) from the paper's cone example.
GOLDEN = (2, "(5, 7*x4+8*x0, 3)", "(-10, -8*x0-7*x4, 5)", "(5, 8*x0+7*x4, 0)")

_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?x(\d+)")


def _keep(b: dict, i: int) -> dict:
    return {g: c for g, c in b.items() if g % 2 == i % 2}


def cone_diff(i: int, e):
    """Cone differential d(i): degree i+1 -> degree i."""
    a, b, c = e
    first = -2 * a if i % 2 == 0 else 0
    last = a + (2 * c if i % 2 else 0)
    return (first, {g: -v for g, v in _keep(b, i).items()}, last)


def htop(i: int, e):
    """Transported contraction htop(i): degree i -> degree i+1."""
    a, b, c = e
    return (c, {g: -v for g, v in _keep(b, i).items()}, 0)


def random_element(rng: random.Random, support: int, max_gen: int, coeff: int):
    """Element with 1..support generators below max_gen, |coefficients| <= coeff."""
    k = rng.randint(1, min(support, max_gen + 1))
    gens = rng.sample(range(max_gen + 1), k)

    def c():
        return rng.choice((1, -1)) * rng.randint(1, coeff)

    return (c(), {g: c() for g in gens}, c())


def comb_text(b: dict) -> str:
    if not b:
        return "0"
    out = []
    for g in sorted(b):
        c = b[g]
        body = f"x{g}" if abs(c) == 1 else f"{abs(c)}*x{g}"
        out.append(("-" if c < 0 else "+" if out else "") + body)
    return "".join(out)


def element_text(e) -> str:
    a, b, c = e
    return f"({a}, {comb_text(b)}, {c})"


def parse_comb(text: str) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out, pos = {}, 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad combination {text!r}")
        pos = m.end()
        c = int(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        out[int(m.group(3))] = out.get(int(m.group(3)), 0) + c
    if pos != len(text):
        raise ValueError(f"bad combination {text!r}")
    return {g: c for g, c in out.items() if c}


def parse_element(text: str):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a 3-tuple: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 3:
        raise ValueError(f"not a 3-tuple: {text!r}")
    return (int(parts[0]), parse_comb(parts[1]), int(parts[2]))


# -- law reports -------------------------------------------------------------

#: Laws each catalog check reports, in order.
CHECK_LAWS = {
    "reduction": ("fg=id", "dh+hd+gf=id", "fh=0", "hg=0", "hh=0"),
    "contracting:htop": ("dh+hd=id",),
    "contracting:h1": ("dh+hd=id",),
    "chain-morphism": ("f:fd=df", "g:fd=df"),
    "nilpotency": ("dd=0",),
    "contracting:hcc2": ("dh+hd=id",),
}

_RECORD = re.compile(
    r'^law=(\S+) degree=(-?\d+) sample=(\d+) verdict=(pass|fail)'
    r'(?: input="([^"]*)" output="([^"]*)")?$'
)
_SUMMARY = re.compile(
    r"^law=(\S+) degrees=(-?\d+)\.\.(-?\d+) samples=(\d+) seed=(-?\d+) violations=(\d+)$"
)


def check_text_report(text, laws, lo, hi, samples, seed, expect_fail) -> tuple[int, str]:
    """Validate a text report; returns (records, problem or "")."""
    sections = []  # (law, records)
    current = []
    for line in text.splitlines():
        m = _RECORD.match(line)
        if m:
            current.append((m.group(1), int(m.group(2)), m.group(4) == "pass", m.group(5), m.group(6)))
            continue
        m = _SUMMARY.match(line)
        if not m:
            return 0, f"unparsable line {line[:80]!r}"
        summary = (m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4)), int(m.group(5)), int(m.group(6)))
        sections.append((summary, current))
        current = []
    if current:
        return 0, "records after the last summary"
    return _check_sections(sections, laws, lo, hi, samples, seed, expect_fail)


def check_json_report(text, laws, lo, hi, samples, seed, expect_fail) -> tuple[int, str]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return 0, f"json does not parse: {exc}"
    sections = []
    for s in doc["laws"]:
        summary = (s["law"], s["degrees"]["lo"], s["degrees"]["hi"], s["samples"], s["seed"], s["violations"])
        records = [
            (s["law"], r["degree"], r["verdict"] == "pass", r.get("input"), r.get("output"))
            for r in s["records"]
        ]
        sections.append((summary, records))
    n, problem = _check_sections(sections, laws, lo, hi, samples, seed, expect_fail)
    if not problem and doc["violations"] != sum(s[0][5] for s in sections):
        problem = "total violations disagree with the sections"
    return n, problem


def _check_sections(sections, laws, lo, hi, samples, seed, expect_fail):
    if tuple(s[0][0] for s in sections) != tuple(laws):
        return 0, f"laws {[s[0][0] for s in sections]} != {list(laws)}"
    total = 0
    per_law = (hi - lo + 1) * samples
    for (law, slo, shi, ssamples, sseed, violations), records in sections:
        if (slo, shi, ssamples, sseed) != (lo, hi, samples, seed):
            return 0, f"{law}: settings {(slo, shi, ssamples, sseed)} not replayable"
        if len(records) != per_law:
            return 0, f"{law}: {len(records)} records, expected {per_law}"
        fails = [r for r in records if not r[2]]
        if violations != len(fails):
            return 0, f"{law}: summary says {violations} violations, records {len(fails)}"
        if expect_fail:
            # h1 on the bottom cone: d.h1 + h1.d is zero, so every nonzero
            # sample fails with output (0, 0); the sampler never draws zero.
            if len(fails) != len(records):
                return 0, f"{law}: {len(fails)} of {len(records)} samples fail, expected all"
            for r in fails:
                if r[4] != "(0, 0)" or r[3] in (None, "(0, 0)"):
                    return 0, f"{law}: unexpected counterexample {r[3]} -> {r[4]}"
        elif fails:
            return 0, f"{law}: {len(fails)} unexpected violations"
        total += len(records)
    return total, ""


def catalog_homology(instance: str, lo: int, hi: int) -> list[str]:
    """Expected groups: the cone of an isomorphism is acyclic; zxznat has fcc1's homology."""
    if instance == "cone-example":
        return ["0"] * (hi - lo + 1)
    return ["Z/2" if i % 2 == 0 else "0" for i in range(lo, hi + 1)]
