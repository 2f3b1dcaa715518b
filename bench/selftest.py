"""Tests of the benchmark's own generators, oracles and accounting.

    python3 bench/selftest.py            # from the repository root

Standard library ``unittest`` only.  The known-answer complexes are
checked against oracles that do not use the library (d.d = 0 on the raw
matrices, the Euler characteristic, determinantal divisors), the cone
oracle against the paper's golden values, and the report checkers against
tampered reports, so none of them can pass vacuously.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import knownanswer  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class KnownAnswerTest(unittest.TestCase):
    def test_invariant_factors(self):
        self.assertEqual(knownanswer.invariant_factors([2, 3]), (6,))
        self.assertEqual(knownanswer.invariant_factors([2, 2]), (2, 2))
        self.assertEqual(knownanswer.invariant_factors([4, 6]), (2, 12))
        self.assertEqual(knownanswer.invariant_factors([1, 1]), ())
        self.assertEqual(knownanswer.invariant_factors([210, 2, 6]), (2, 6, 210))

    def test_determinantal_factors(self):
        self.assertEqual(knownanswer.determinantal_factors([[2, 4], [6, 8]]), (2, 4))
        self.assertEqual(knownanswer.determinantal_factors([[0, 0], [0, 0]]), ())
        self.assertEqual(knownanswer.determinantal_factors([[1, 2, 3], [2, 4, 6]]), (1,))

    def test_simplex_boundaries(self):
        for n in range(2, 8):
            c = knownanswer.simplex_boundary(n)
            self.assertTrue(knownanswer.composes_to_zero(c))
            self.assertEqual(
                knownanswer.euler_characteristic(c.ranks),
                sum((-1) ** k * b for k, (b, _) in enumerate(c.expected)),
            )

    def test_prescribed_complexes_compose_to_zero(self):
        shape = (workloads.PRESCRIBED_DEGREES, workloads.PRESCRIBED_SIZE,
                 workloads.PRESCRIBED_MAX_RANK)
        for seed in range(20):
            c = knownanswer.prescribed(random.Random(seed), *shape)
            self.assertEqual(c.size, shape[1])
            self.assertLessEqual(max(c.ranks), shape[2])
            self.assertTrue(knownanswer.composes_to_zero(c))
            self.assertEqual(
                knownanswer.euler_characteristic(c.ranks),
                sum((-1) ** k * b for k, (b, _) in enumerate(c.expected)),
            )

    def test_prescribed_matches_determinantal_divisors(self):
        # torsion of H_k = invariant factors > 1 of d_k, and
        # betti_k = rank_k - rank d_(k-1) - rank d_k, both from minors.
        for seed in range(12):
            c = knownanswer.prescribed(random.Random(seed), 3, 8, 4)
            factors = [knownanswer.determinantal_factors(m) for m in c.matrices]
            for k, (betti, torsion) in enumerate(c.expected):
                out = factors[k] if k < len(factors) else ()
                into = factors[k - 1] if k else ()
                self.assertEqual(tuple(f for f in out if f > 1), torsion)
                self.assertEqual(c.ranks[k] - len(into) - len(out), betti)

    def test_conjugation_keeps_matrices_dense(self):
        c = knownanswer.prescribed(random.Random(0), 5, 36, 9)
        nonzero = sum(1 for m in c.matrices for row in m for v in row if v)
        cells = sum(len(m) * len(m[0]) for m in c.matrices if m)
        self.assertGreater(nonzero / cells, 0.3)

    def test_library_agrees_on_small_complexes(self):
        import effhom

        cases = [knownanswer.simplex_boundary(n) for n in (3, 4)]
        cases += [knownanswer.prescribed(random.Random(s), 4, 16, 6) for s in range(4)]
        for c in cases:
            cc = workloads.to_chain_complex(knownanswer.permuted(c, random.Random(1)))
            got = tuple(
                (g.betti_rank, g.torsion)
                for g in (effhom.homology_at(cc, i) for i in range(len(c.ranks)))
            )
            self.assertEqual(got, c.expected)


class ConeOracleTest(unittest.TestCase):
    def test_golden_values(self):
        degree, x, dx, hdx = oracles.GOLDEN
        got = oracles.cone_diff(degree, oracles.parse_element(x))
        self.assertEqual(oracles.element_text(got), dx)
        got = oracles.htop(degree, oracles.parse_element(dx))
        self.assertEqual(oracles.element_text(got), hdx)

    def test_complex_and_contraction(self):
        rng = random.Random(3)
        for _ in range(200):
            i = rng.randint(-8, 8)
            w = oracles.random_element(rng, 30, 100, 10**12)
            self.assertEqual(oracles.cone_diff(i - 1, oracles.cone_diff(i, w)), (0, {}, 0))
            # d.h + h.d = id at degree i + 1
            dh = oracles.cone_diff(i + 1, oracles.htop(i + 1, w))
            hd = oracles.htop(i, oracles.cone_diff(i, w))
            total = (dh[0] + hd[0], {}, dh[2] + hd[2])
            for g in set(dh[1]) | set(hd[1]):
                v = dh[1].get(g, 0) + hd[1].get(g, 0)
                if v:
                    total[1][g] = v
            self.assertEqual(total, w)

    def test_text_round_trip(self):
        rng = random.Random(4)
        for _ in range(100):
            e = oracles.random_element(rng, 6, 20, 30)
            self.assertEqual(oracles.parse_element(oracles.element_text(e)), e)
        self.assertEqual(oracles.parse_element("(0, 0, 0)"), (0, {}, 0))


class ReportCheckerTest(unittest.TestCase):
    def _report(self, law, fmt, seed=5, instance="cone-example"):
        argv = ["check", instance, law, "--degrees", "-1..1", "--samples", "4",
                "--seed", str(seed), "--format", fmt]
        return workloads.run_cli(argv)

    def test_accepts_real_reports(self):
        for fmt, check in (("text", oracles.check_text_report), ("json", oracles.check_json_report)):
            code, out = self._report("reduction", fmt)
            self.assertEqual(code, 0)
            n, problem = check(out, oracles.CHECK_LAWS["reduction"], -1, 1, 4, 5, False)
            self.assertEqual((n, problem), (60, ""))
            code, out = self._report("contracting:h1", fmt, instance="cone-example.bottom")
            self.assertEqual(code, 1)
            n, problem = check(out, oracles.CHECK_LAWS["contracting:h1"], -1, 1, 4, 5, True)
            self.assertEqual((n, problem), (12, ""))

    def test_rejects_tampered_reports(self):
        _, out = self._report("contracting:htop", "text")
        laws = oracles.CHECK_LAWS["contracting:htop"]
        lines = out.splitlines()
        dropped = "\n".join(lines[1:])
        self.assertTrue(oracles.check_text_report(dropped, laws, -1, 1, 4, 5, False)[1])
        failed = out.replace("verdict=pass", 'verdict=fail input="x" output="y"', 1)
        self.assertTrue(oracles.check_text_report(failed, laws, -1, 1, 4, 5, False)[1])
        self.assertTrue(oracles.check_text_report(out, laws, -1, 1, 4, 6, False)[1])
        # a passing report does not satisfy a check that must fail
        self.assertTrue(oracles.check_text_report(out, laws, -1, 1, 4, 5, True)[1])
        _, out = self._report("contracting:htop", "json")
        self.assertTrue(oracles.check_json_report(out[:-2], laws, -1, 1, 4, 5, False)[1])


class AccountingTest(unittest.TestCase):
    def test_every_round_verifies(self):
        for workload in workloads.WORKLOADS:
            make_round, preflight = workloads.setup(workload, 7)
            self.assertFalse(any(preflight), preflight)
            ops = make_round(0)
            self.assertEqual([op.label for op in ops], [op.label for op in make_round(0)])
            for op in ops if workload != "catalog" else ops[:12]:
                elapsed, records, problem = run.execute(op)
                self.assertEqual(problem, "", op.label)

    def test_wrong_answer_is_counted(self):
        make_round, _ = workloads.setup("catalog", 7)
        op = next(op for op in make_round(0) if op.label == "eval diff")
        wrong = workloads.Op(op.kind, op.label, lambda: (0, "(1, x1, 1)"), op.verify)
        self.assertNotEqual(run.execute(wrong)[2], "")

    def test_time_limit_is_a_failure(self):
        import signal

        previous = signal.signal(signal.SIGALRM, run._on_alarm)
        limit = run.OP_LIMIT_S
        run.OP_LIMIT_S = 0.2
        try:
            slow = workloads.Op("query", "slow", lambda: time.sleep(5), lambda r: (0, ""))
            elapsed, _, problem = run.execute(slow)
        finally:
            run.OP_LIMIT_S = limit
            signal.signal(signal.SIGALRM, previous)
        self.assertIn("OpTimeout", problem)
        self.assertLess(elapsed, 2)


def _traced(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


class TraceTest(unittest.TestCase):
    def test_counts_repeat_across_processes(self):
        for workload in workloads.WORKLOADS:
            first, second = _traced(workload, 21), _traced(workload, 21)
            for name in tracing.DETERMINISTIC:
                self.assertEqual(first[name], second[name], f"{workload} {name}")
                self.assertGreater(first[name], 0, f"{workload} {name}")

    def test_tracer_restores_the_library(self):
        import effhom

        call = effhom.ModMorphism.__call__
        main = effhom.cli.main
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(effhom.ModMorphism.__call__, call)
        workloads.run_cli(["eval", "cone-example", "diff", "2", "(5, 7*x4+8*x0, 3)"])
        tracer.uninstall()
        self.assertIs(effhom.ModMorphism.__call__, call)
        self.assertIs(effhom.cli.main, main)
        metrics = tracer.snapshot()
        self.assertEqual(metrics["cli.calls"], 1)
        self.assertEqual(metrics["grammar.parse_calls"], 1)
        self.assertGreaterEqual(metrics["morphisms.apply_calls"], metrics["morphisms.apply_outer"])
        self.assertEqual(metrics["morphisms.apply_outer"], 1)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_library(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
