"""Benchmark of the effhom library and command line; standard library only.

    python3 bench/run.py --workload catalog|wide|homology --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
the same tree.  One client in one process runs a closed loop of seeded
operations (see ``workloads.py``) and checks every result against an
answer computed without the library.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it repeat every figure by name and unit, including those
not listed in BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics, untraced.  The machine is
shared, and other tenants slow it down by up to 1.9x for seconds to
minutes at a time.  So after every operation the run times a fixed piece
of pure-Python work, ``reference.chunk()``, and states latencies in
units of that chunk's mean time over the same round (``ref``), which a
slow spell stretches as much as the operations.  Each figure is
computed per round and the run reports its median over the rounds:

* ``op_p50_ref`` / ``op_p90_ref``: median and 90th percentile of the
  latency of one operation within a round, in chunks;
* ``ops_per_kref``: operations of a round per 1000 chunk times of their
  latency;
* ``setup_s``: median wall time of ``SETUP_RUNS`` fresh processes, one
  after each round, that import the library, build the catalog
  (including zxznat's construction-time law check), replay the golden
  values and generate the workload's first round of inputs;
* ``peak_rss_mb``: peak resident memory of the measuring process.

The same figures in wall time (``op_p50_ms``, ``op_p90_ms``,
``ops_per_s``) and the chunk's own time (``ref_ms``) are printed too.

``--trace 1`` traces the setup and one round of operations at the
library's module boundaries (``tracing.py``) and reports the per-layer
metrics.  It then replays that round alternately untraced and traced
until the time is up: the traced work counts must repeat exactly, and
``trace.overhead_ratio`` is the traced time of a round over its
untraced time.  Spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 9
#: An operation running longer than this counts as failed.
OP_LIMIT_S = 30.0


class OpTimeout(Exception):
    pass


def _load_library() -> None:
    """Import effhom from this tree's ``src``; exit with a message if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import effhom
    except ImportError as exc:
        sys.exit(f"bench: cannot import effhom from {src}: {exc}")
    if not Path(effhom.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: effhom was imported from {effhom.__file__}, not {src}")


def _on_alarm(signum, frame):
    raise OpTimeout(f"over the {OP_LIMIT_S:.0f} s limit")


def execute(op) -> tuple[float, int, str]:
    """Run one operation under the time limit; (seconds, records, problem)."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # counted as a failure, the run goes on
        return time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    records, problem = op.verify(result)
    return elapsed, records, problem


class Tally:
    """Attempted operations and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, label: str, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")


def _setup_process(workload: str, seed: int) -> tuple[float, str]:
    """Wall time of one fresh ``--setup-only`` process, and its problem."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        return elapsed, f"setup process exited {done.returncode}: {done.stderr[-200:]}"
    return elapsed, ""


def _settle() -> None:
    """Collect garbage and move everything set up so far out of the GC's way."""
    gc.collect()
    gc.freeze()


def _quantiles(values):
    """Median and 90th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def run_untraced(args, workloads, tally) -> tuple[dict, dict]:
    make_round, preflight = workloads.setup(args.workload, args.seed)
    for problem in preflight:
        tally.add("preflight", problem)
    warm_up = make_round(0)
    _settle()
    for op in warm_up:  # checked, not timed
        tally.add(op.label, execute(op)[2])
        reference.chunk()
    setups: list[float] = []

    def set_up_once():
        elapsed, problem = _setup_process(args.workload, args.seed)
        setups.append(elapsed)
        tally.add("setup", problem)

    latencies: dict[str, list[float]] = {}
    # (p50, p90, operations per second, mean reference chunk) of each round
    per_round = []
    records = 0
    expected_failures = 0  # checks that had to find violations and did
    measured = 0.0  # seconds spent in rounds, not in set-up processes
    r = 0
    while not per_round or measured < args.seconds:
        ops = make_round(r + 1)
        round_start = time.perf_counter()
        times, refs = [], []
        for op in ops:
            elapsed, n, problem = execute(op)
            tally.add(op.label, problem)
            latencies.setdefault(op.kind, []).append(elapsed)
            records += n
            expected_failures += op.expect_fail and not problem
            times.append(elapsed)
            t0 = time.perf_counter()
            reference.chunk()
            refs.append(time.perf_counter() - t0)
        measured += time.perf_counter() - round_start
        per_round.append((*_quantiles(times), len(ops) / sum(times), statistics.fmean(refs)))
        r += 1
        if len(setups) < SETUP_RUNS:  # spread over the run, like the rounds
            set_up_once()
    while len(setups) < SETUP_RUNS:
        set_up_once()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ref": (statistics.median(p50 / ref for p50, _, _, ref in per_round), "ref"),
        "op_p90_ref": (statistics.median(p90 / ref for _, p90, _, ref in per_round), "ref"),
        "ops_per_kref": (
            statistics.median(rate * ref * 1e3 for _, _, rate, ref in per_round), "1/kref"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    every = [t for ts in latencies.values() for t in ts]
    info = {
        "rounds": (r, "count"),
        "ops": (len(every), "count"),
        "ref_ms": (statistics.median(p[3] for p in per_round) * 1e3, "ms"),
        "op_p50_ms": (statistics.median(p[0] for p in per_round) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(p[1] for p in per_round) * 1e3, "ms"),
        "ops_per_s": (statistics.median(p[2] for p in per_round), "1/s"),
    }
    for name, value in zip(("all", *latencies), (every, *latencies.values())):
        k50, k90 = _quantiles(value)
        info[f"{name}_p50_ms"] = (k50 * 1e3, "ms")
        info[f"{name}_p90_ms"] = (k90 * 1e3, "ms")
        info[f"{name}_samples"] = (len(value), "count")
    if "check" in latencies:
        info["checks_per_s"] = (records / sum(latencies["check"]), "1/s")
        info["expected_failures"] = (expected_failures, "count")
    info["failed_frac"] = (len(tally.problems) / tally.attempted, "ratio")
    return metrics, info


def run_traced(args, workloads, tally) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    make_round, preflight = workloads.setup(args.workload, args.seed)
    for problem in preflight:
        tally.add("preflight", problem)
    ops = make_round(0)
    _settle()
    first = None
    reference = None
    plain, traced = [], []
    start = time.perf_counter()
    while first is None or time.perf_counter() - start < args.seconds:
        before = {k: tracer.snapshot()[k] for k in tracing.DETERMINISTIC}
        t0 = time.perf_counter()
        for j, op in enumerate(ops):
            tracer.op = j
            tally.add(op.label, execute(op)[2])
        traced.append(time.perf_counter() - t0)
        after = tracer.snapshot()
        counts = {k: after[k] - before[k] for k in tracing.DETERMINISTIC}
        counts["snf.max_out_bits"] = after["snf.max_out_bits"]
        if first is None:
            first, reference = after, counts
        elif counts != reference:
            tally.add("trace", f"counts differ between traced rounds: {counts} != {reference}")
        tracer.uninstall()
        t0 = time.perf_counter()
        for op in ops:
            tally.add(op.label, execute(op)[2])
        plain.append(time.perf_counter() - t0)
        tracer.install()
    tracer.uninstall()
    out = ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    metrics = {name: (value, _unit(name)) for name, value in first.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio"
    )
    info = {"traced_rounds": (len(traced), "count"), "spans_file": (str(out.relative_to(ROOT)), "path")}
    return metrics, info


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "ratio" if name == "morphisms.calls_per_check" else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "wide", "homology"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the catalog and the inputs, then exit")
    args = parser.parse_args(argv)
    _load_library()
    import workloads

    if args.setup_only:
        make_round, preflight = workloads.setup(args.workload, args.seed)
        make_round(0)
        return 1 if any(preflight) else 0
    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics, info = run(args, workloads, tally)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload:<9} {name:<32} {value} {unit}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
