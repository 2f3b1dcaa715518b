"""The benchmark's workloads: seeded rounds of operations, each with its oracle.

``setup(workload, seed)`` loads the whole instance catalog, replays the
paper's golden values through the command line, and returns a generator
of seeded rounds of operations.  An operation is an
``Op``: ``call`` is the library call being measured and ``verify`` checks
its result against an answer the benchmark computed without the library.

Every round of a workload holds the same operation templates in the same
numbers, shuffled; only their arguments change with the round and the
seed.  The counts are chosen so that the median and 90th percentile of
one round's latencies fall inside a group of operations of one kind,
not on the boundary between two groups, which keeps those percentiles
steady from seed to seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import effhom
import effhom.cli
import effhom.homology
import effhom.instances
import effhom.reduction
from effhom import Comb, FiniteFree, Pair, Sampler

import knownanswer
import oracles

WORKLOADS = ("catalog", "wide", "homology")

#: Window and sample count of the catalog checks (the CLI defaults).
CHECK_WINDOW = (-8, 8)
CHECK_SAMPLES = 32

#: Catalog checks: (instance, law, expected to fail).
CATALOG_CHECKS = (
    ("cone-example", "reduction", False),
    ("cone-example", "contracting:htop", False),
    ("cone-example.bottom", "contracting:h1", True),
    ("zxznat", "chain-morphism", False),
    ("cc2", "nilpotency", False),
)

#: Large-element sampler bounds of the ``wide`` workload.
WIDE_SUPPORT, WIDE_MAX_GEN, WIDE_COEFF = 200, 1000, 10**12

#: Prescribed-homology complexes: degrees, total rank and per-degree cap.
#: The cap keeps them below the SNF blow-up cliff (see README.md).
PRESCRIBED_DEGREES, PRESCRIBED_SIZE, PRESCRIBED_MAX_RANK = 5, 36, 9


@dataclass
class Op:
    kind: str  # "check", "query" or "homology"
    label: str
    call: Callable[[], object]
    #: result -> (pointwise law checks in it, problem or "")
    verify: Callable[[object], tuple[int, str]]
    #: a law check that must report violations (h1 is not contracting)
    expect_fail: bool = False


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``effhom <argv>`` in process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = effhom.cli.main(argv)
    return code, out.getvalue()


# -- setup ------------------------------------------------------------------


def load_catalog() -> None:
    inst = effhom.instances
    for ident, entry in inst.CATALOG.items():
        inst.resolve_complex(ident)
        if entry.kind == "effective-homology":
            inst.resolve_effective_homology(ident)
    for name in inst.HOMOTOPIES:
        inst.resolve_homotopy(name)


def preflight() -> list[str]:
    """The paper's golden values and a small law check, through the command
    line; one problem per case, empty when the case passed."""
    degree, x, dx, hdx = oracles.GOLDEN
    cases = (
        (["eval", "cone-example", "diff", str(degree), x], dx),
        (["preimage", "cone-example", str(degree), dx, "--h", "htop"], hdx),
        (["homology", "fcc1", "-2..2"], "\n".join(
            f"H_{i} = {'Z/2' if i % 2 == 0 else '0'}" for i in range(-2, 3)
        )),
    )
    problems = []
    for argv, expected in cases:
        code, out = run_cli(argv)
        ok = code == 0 and out.strip() == expected
        problems.append("" if ok else f"golden {' '.join(argv[:3])}: exit {code}, {out.strip()!r}")
    # A small check whose report is written out, so that every workload
    # also passes through the law reports.
    argv = ["check", "cc2", "nilpotency", "--degrees", "0..1", "--samples", "2", "--seed", "1"]
    code, out = run_cli(argv)
    _, problem = oracles.check_text_report(out, oracles.CHECK_LAWS["nilpotency"], 0, 1, 2, 1, False)
    problems.append(f"preflight check: exit {code}, {problem}" if code or problem else "")
    return problems


def setup(workload: str, seed: int) -> tuple[Callable[[int], list[Op]], list[str]]:
    """Catalog, preflight and the workload's round generator.

    Returns ``make_round`` and the preflight's problems, one per case.
    ``make_round(r)`` builds round ``r`` from the workload, the seed and
    ``r`` alone, so every round of a run has inputs of its own and the
    same seed gives the same rounds.
    """
    load_catalog()
    problems = preflight()
    make = {"catalog": _catalog_round, "wide": _wide_round, "homology": _homology_round}[
        workload
    ]

    def make_round(r: int) -> list[Op]:
        rng = random.Random(f"{workload}|{seed}|{r}")
        ops = make(rng)
        rng.shuffle(ops)
        return ops

    return make_round, problems


# -- catalog: the command line on the paper's instances ----------------------

#: Copies per round of each catalog template.  Every check runs once per
#: format, and ``contracting:htop`` in json ``CATALOG_EXTRA_HTOP`` more
#: times: the median then falls among the queries and the 90th percentile
#: in the middle of the json htop checks.
CATALOG_QUERIES = {"eval-diff": 10, "eval-htop": 10, "preimage": 10}
CATALOG_EXTRA_HTOP = 3


def _catalog_round(rng: random.Random) -> list[Op]:
    ops = []
    lo, hi = CHECK_WINDOW
    checks = [(c, fmt) for c in CATALOG_CHECKS for fmt in ("text", "json")]
    checks += [(CATALOG_CHECKS[1], "json")] * CATALOG_EXTRA_HTOP
    for (instance, law, expect_fail), fmt in checks:
        seed = rng.randrange(10**6)
        argv = ["check", instance, law, "--degrees", f"{lo}..{hi}",
                "--seed", str(seed), "--format", fmt]
        ops.append(Op("check", f"check {instance} {law} {fmt}", _cli_call(argv),
                      _report_verifier(law, seed, fmt, expect_fail), expect_fail))
    for _ in range(CATALOG_QUERIES["eval-diff"]):
        i = rng.randint(lo, hi)
        w = oracles.random_element(rng, 5, 16, 20)
        argv = ["eval", "cone-example", "diff", str(i), oracles.element_text(w)]
        ops.append(Op("query", "eval diff", _cli_call(argv),
                      _text_verifier(oracles.element_text(oracles.cone_diff(i, w)))))
    for _ in range(CATALOG_QUERIES["eval-htop"]):
        i = rng.randint(lo, hi)
        x = oracles.random_element(rng, 5, 16, 20)
        argv = ["eval", "cone-example", "h:htop", str(i), oracles.element_text(x)]
        ops.append(Op("query", "eval h:htop", _cli_call(argv),
                      _text_verifier(oracles.element_text(oracles.htop(i, x)))))
    for _ in range(CATALOG_QUERIES["preimage"]):
        i = rng.randint(lo, hi)
        x = oracles.cone_diff(i, oracles.random_element(rng, 5, 16, 20))
        argv = ["preimage", "cone-example", str(i), oracles.element_text(x), "--h", "htop"]
        ops.append(Op("query", "preimage", _cli_call(argv), _preimage_text_verifier(i, x)))
    for instance, fmt in (("cone-example", "text"), ("zxznat", "json")):
        lo_h = rng.randint(-100, 60)
        argv = ["homology", instance, f"{lo_h}..{lo_h + 40}", "--format", fmt]
        expected = oracles.catalog_homology(instance, lo_h, lo_h + 40)
        ops.append(Op("homology", f"homology {instance} {fmt}", _cli_call(argv),
                      _homology_text_verifier(lo_h, expected, fmt)))
    return ops


def _cli_call(argv):
    return lambda: run_cli(argv)


def _report_verifier(law, seed, fmt, expect_fail):
    lo, hi = CHECK_WINDOW
    check = oracles.check_json_report if fmt == "json" else oracles.check_text_report

    def verify(result):
        code, out = result
        if code != (1 if expect_fail else 0):
            return 0, f"exit code {code}"
        return check(out, oracles.CHECK_LAWS[law], lo, hi, CHECK_SAMPLES, seed, expect_fail)

    return verify


def _text_verifier(expected: str):
    def verify(result):
        code, out = result
        if code != 0 or out.strip() != expected:
            return 0, f"exit {code}: got {out.strip()[:80]!r}, expected {expected[:80]!r}"
        return 0, ""

    return verify


def _preimage_text_verifier(i, x):
    def verify(result):
        code, out = result
        if code != 0:
            return 0, f"exit code {code}"
        try:
            z = oracles.parse_element(out)
        except ValueError as exc:
            return 0, str(exc)
        return 0, _preimage_problem(i, x, z)

    return verify


def _preimage_problem(i, x, z) -> str:
    if oracles.cone_diff(i, z) != x:
        return f"d(z) != x at degree {i}"
    if z != oracles.htop(i, x):
        return f"z != htop(x) at degree {i}"
    return ""


def _homology_text_verifier(lo, expected, fmt):
    def verify(result):
        code, out = result
        if code != 0:
            return 0, f"exit code {code}"
        if fmt == "json":
            got = [(g["degree"], g["group"]) for g in json.loads(out)["groups"]]
        else:
            got = [tuple(line[2:].split(" = ")) for line in out.strip().splitlines()]
            got = [(int(d), g) for d, g in got]
        if got != list(zip(range(lo, lo + len(expected)), expected)):
            return 0, f"groups {got[:3]}... differ from the known answer"
        return 0, ""

    return verify


# -- wide: the same reductions through the API with large elements ----------

#: Copies per round of each wide template.
WIDE_COUNTS = {"preimage": 6, "contracting:hcc2": 6, "contracting:htop": 5, "reduction": 3}


def _wide_round(rng: random.Random) -> list[Op]:
    inst, red = effhom.instances, effhom.reduction
    eh = inst.resolve_effective_homology("cone-example")
    top = inst.resolve_complex("cone-example")
    htop = inst.resolve_homotopy("htop")[1]
    cc2 = inst.resolve_complex("cc2")
    hcc2 = inst.resolve_homotopy("hcc2")[1]
    ops = []

    def sampler():
        return Sampler(seed=rng.randrange(10**6), samples=CHECK_SAMPLES,
                       coeff_bound=WIDE_COEFF, max_support=WIDE_SUPPORT,
                       max_generator=WIDE_MAX_GEN)

    def check(law, run):
        degree = rng.randint(*CHECK_WINDOW)
        window = range(degree, degree + 1)
        s = sampler()
        ops.append(Op("check", f"check {law}", lambda: run(window, s),
                      _api_report_verifier(oracles.CHECK_LAWS[law], CHECK_SAMPLES)))

    for _ in range(WIDE_COUNTS["contracting:htop"]):
        check("contracting:htop", lambda w, s: red.check_contracting(top, htop, w, s))
    for _ in range(WIDE_COUNTS["reduction"]):
        check("reduction", lambda w, s: red.check_reduction_laws(eh.reduction, w, s))
    for _ in range(WIDE_COUNTS["contracting:hcc2"]):
        check("contracting:hcc2", lambda w, s: red.check_contracting(cc2, hcc2, w, s))
    for _ in range(WIDE_COUNTS["preimage"]):
        i = rng.randint(*CHECK_WINDOW)
        w = oracles.random_element(rng, WIDE_SUPPORT, WIDE_MAX_GEN, WIDE_COEFF)
        x = oracles.cone_diff(i, w)
        element = to_library(x)
        ops.append(Op("query", "preimage",
                      lambda i=i, e=element: red.preimage(top, htop, i, e),
                      _api_preimage_verifier(i, x)))
    return ops


def to_library(e):
    """Oracle element (a, b, c) as a library element of the cone top."""
    a, b, c = e

    def rank_one(v):
        return Comb(((0, v),)) if v else Comb(())

    return Pair(Pair(rank_one(a), Comb(tuple(sorted(b.items())))), rank_one(c))


def from_library(element):
    (a, b), c = (element.left.left, element.left.right), element.right
    return (a.coefficient(0), dict(b.terms), c.coefficient(0))


def _api_report_verifier(laws, samples):
    def verify(report):
        names = tuple(s.law for s in report.sections)
        if names != tuple(laws):
            return 0, f"laws {names} != {laws}"
        records = 0
        for s in report.sections:
            if len(s.records) != samples or s.lo != s.hi:
                return 0, f"{s.law}: {len(s.records)} records, expected {samples}"
            if s.violations:
                return 0, f"{s.law}: {s.violations} unexpected violations"
            records += len(s.records)
        return records, ""

    return verify


def _api_preimage_verifier(i, x):
    return lambda z: (0, _preimage_problem(i, x, from_library(z)))


# -- homology: known-answer finite-type complexes ---------------------------

#: Copies per round: simplex boundaries (n + 1 vertices -> S^(n-1)), each
#: with its own seeded basis order, and prescribed-homology complexes.
#: The prescribed ones are cheaper than S^4 and as many as the S^5 and
#: S^6 together, so the median falls in the middle of the S^4 and the
#: 90th percentile among the S^5.
HOMOLOGY_COUNTS = {5: 18, 6: 5, 7: 1, "prescribed": 6}


def _homology_round(rng: random.Random) -> list[Op]:
    known = []
    for n in (5, 6, 7):
        base = knownanswer.simplex_boundary(n)
        known += [knownanswer.permuted(base, rng) for _ in range(HOMOLOGY_COUNTS[n])]
    for _ in range(HOMOLOGY_COUNTS["prescribed"]):
        known.append(knownanswer.prescribed(
            rng, PRESCRIBED_DEGREES, PRESCRIBED_SIZE, PRESCRIBED_MAX_RANK
        ))
    ops = []
    for c in known:
        if not knownanswer.composes_to_zero(c):
            raise ValueError(f"generated {c.name} is not a complex")
        betti = sum((-1) ** k * b for k, (b, _) in enumerate(c.expected))
        if betti != knownanswer.euler_characteristic(c.ranks):
            raise ValueError(f"generated {c.name} breaks the Euler characteristic")
        cc = to_chain_complex(c)
        ops.append(Op("homology", c.name,
                      lambda cc=cc, n=len(c.ranks): [
                          effhom.homology.homology_at(cc, i) for i in range(n)],
                      _groups_verifier(c.expected)))
    return ops


def to_chain_complex(c: knownanswer.KnownComplex) -> effhom.ChainComplex:
    """Library complex with the raw matrices as differentials (zero outside)."""
    n = len(c.ranks)

    def module(i):
        return FiniteFree(c.ranks[i] if 0 <= i < n else 0)

    columns = [
        [effhom.normalize([(m[r][j], r) for r in range(len(m)) if m[r][j]], module(k))
         for j in range(c.ranks[k + 1])]
        for k, m in enumerate(c.matrices)
    ]

    def diff(i):
        if 0 <= i < n - 1:
            return effhom.from_generator_images(module(i + 1), module(i), columns[i].__getitem__)
        return effhom.zero_map(module(i + 1), module(i))

    return effhom.ChainComplex(module, diff, declared_finite_type=True)


def _groups_verifier(expected):
    def verify(groups):
        got = tuple((g.betti_rank, g.torsion) for g in groups)
        if got != tuple(expected):
            return 0, f"homology {got} != known {tuple(expected)}"
        return 0, ""

    return verify
