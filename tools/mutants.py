"""Single-operator mutants of library modules, each run against tier-1.

    python3 tools/mutants.py src/effhom/morphisms.py [more modules ...]

A mutant changes one operator of one module:

- ``+`` and ``-`` swap, and so do ``*`` and ``//`` (also in ``+=`` and the like);
- a unary minus is dropped;
- a comparison flips: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in``;
- an integer constant 0, 1 or 2 is raised by one.

The repository is copied into a scratch directory (``--workdir``, or a new
temporary one), each mutant is written there over its module with
``ast.unparse``, and tier-1 runs on the copy with ``-x``, the module's own
test file first.  Hypothesis runs without shrinking and without its example
database there, so a killed mutant fails fast and leaves nothing behind.
A mutant that passes tier-1 survives.  The unmutated ``ast.unparse`` of each
module must pass first.

A mutant is named ``<module>::<function>: <change> #<k>``, with ``k``
counting the same change in the same function, so names outlive edits
elsewhere in the module.  The run fails when a survivor is not listed in
``tools/mutants_survivors.txt``, one ``<name> -- <reason>`` a line.
"""

from __future__ import annotations

import argparse
import ast
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SURVIVORS = ROOT / "tools" / "mutants_survivors.txt"

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}

# Tier-1 under a Hypothesis profile that neither shrinks nor stores examples.
RUNNER = """
import sys
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None, phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""

#: How a mutant's tier-1 verdict is printed.
LABELS = {"passed": "SURVIVED", "failed": "killed", "timeout": "timeout"}

#: Address space of one tier-1 run; a mutant that grows past it is killed.
MEMORY_LIMIT = 2 << 30


class Mutator(ast.NodeTransformer):
    """Names every mutation site in walk order, and applies the one at ``target``."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.names: list[str] = []
        self._scope: list[str] = []
        self._seen: Counter = Counter()

    def _site(self, node, change: str, mutated):
        where = ".".join(self._scope) or "<module>"
        self._seen[where, change] += 1
        self.names.append(f"{where}: {change} #{self._seen[where, change]}")
        return mutated() if len(self.names) - 1 == self.target else node

    def _scoped(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _swap(self, node, make):
        self.generic_visit(node)
        op = type(node.op)
        if op not in SWAPS:
            return node
        change = f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"
        return self._site(node, change, lambda: make(SWAPS[op]()))

    def visit_BinOp(self, node):
        return self._swap(node, lambda op: ast.BinOp(node.left, op, node.right))

    def visit_AugAssign(self, node):
        return self._swap(node, lambda op: ast.AugAssign(node.target, op, node.value))

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.USub):
            return node
        return self._site(node, "drop unary -", lambda: node.operand)

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if type(op) in FLIPS:
                flipped = FLIPS[type(op)]
                ops = node.ops[:i] + [flipped()] + node.ops[i + 1 :]
                change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[flipped]}"
                node = self._site(node, change, lambda: ast.Compare(node.left, ops, node.comparators))
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and node.value in (0, 1, 2):
            change = f"{node.value} -> {node.value + 1}"
            return self._site(node, change, lambda: ast.Constant(node.value + 1))
        return node


def mutants(source: str):
    """(name, mutated source) of every mutant of ``source``."""
    probe = Mutator()
    probe.visit(ast.parse(source))
    for k, name in enumerate(probe.names):
        tree = Mutator(k).visit(ast.parse(source))
        yield name, ast.unparse(ast.fix_missing_locations(tree))


def known_survivors() -> dict[str, str]:
    known = {}
    for n, line in enumerate(SURVIVORS.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(" -- ")
        if not reason.strip():
            sys.exit(f"{SURVIVORS.name}:{n}: a listed survivor needs its reason")
        known[name.strip()] = reason.strip()
    return known


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def tier1(workdir: Path, first: Path, timeout: float) -> str:
    """``passed``, ``failed`` or ``timeout`` for tier-1 on the copy."""
    tests = ["tests"] if not (workdir / first).exists() else [str(first), "tests"]
    argv = [sys.executable, "-c", RUNNER, "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=workdir, capture_output=True, timeout=timeout,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path)
    parser.add_argument("--workdir", type=Path, help="scratch directory for the copy")
    args = parser.parse_args(argv)
    known = known_survivors()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mutants-"))
    copy = workdir / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"))
    survivors, total, start = [], 0, time.perf_counter()
    try:
        for module in args.modules:
            relative = module.resolve().relative_to(ROOT)
            target, source = copy / relative, (ROOT / relative).read_text()
            first = Path("tests") / f"test_{relative.stem}.py"
            target.write_text(ast.unparse(ast.parse(source)))
            began = time.perf_counter()
            if tier1(copy, first, timeout=1800) != "passed":
                print(f"{relative}: tier-1 fails on the unmutated ast.unparse")
                return 1
            timeout = max(60.0, 5 * (time.perf_counter() - began))
            for name, mutated in mutants(source):
                total += 1
                target.write_text(mutated)
                verdict = tier1(copy, first, timeout)
                full = f"{relative}::{name}"
                if verdict == "passed":
                    survivors.append(full)
                print(f"{LABELS[verdict]:>8}  {full}", flush=True)
            target.write_text(source)
    finally:
        shutil.rmtree(copy)
        if args.workdir is None:
            shutil.rmtree(workdir)

    new = [s for s in survivors if s not in known]
    print(
        f"{total} mutants, {len(survivors)} survived ({len(survivors) - len(new)} listed), "
        f"{time.perf_counter() - start:.0f} s"
    )
    for name in new:
        print(f"unlisted survivor: {name}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
