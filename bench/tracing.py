"""Spans and counts at the library's module boundaries, from outside it.

``Tracer.install()`` wraps the public functions and methods listed in
``BOUNDARIES`` with timing wrappers and ``uninstall()`` puts the originals
back.  A wrapped function is replaced in every ``effhom`` module that
imported it by name, so calls between modules are seen too.

For every call the tracer keeps one span: its boundary name, start, end,
the span that was open when it started, and the id of the benchmark
operation it belongs to.  Spans stay in memory (the first ``SPAN_CAP`` of
them) and are written once, by ``write``.  Independently of the cap it
accumulates, per layer (the ``effhom`` module owning the boundary):

* ``self``: span time minus the time of the traced spans nested in it;
* ``busy``: time inside at least one span of the layer;
* per-boundary call counts and busy time, plus work counts taken from
  the arguments and results at the boundary (terms merged, records
  produced, matrix cells, ...).

``snapshot()`` turns these into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "modules",
    "morphisms",
    "grammar",
    "complexes",
    "reduction",
    "cone",
    "laws",
    "sampling",
    "instances",
    "snf",
    "homology",
    "cli",
)

#: (module, owner class or None, attribute, boundary name).  The layer is
#: the module; the boundary name is what spans and counts are keyed by.
BOUNDARIES = (
    ("modules", "FreeModule", "require", "modules.require"),
    ("modules", "Comb", "__add__", "modules.add"),
    ("morphisms", "ModMorphism", "__call__", "morphisms.apply"),
    ("grammar", None, "parse_element", "grammar.parse"),
    ("grammar", None, "format_element", "grammar.format"),
    ("complexes", "ChainComplex", "diff_at", "complexes.build"),
    ("complexes", "ChainMorphism", "at", "complexes.build"),
    ("complexes", None, "check_nilpotency", "complexes.check"),
    ("complexes", None, "check_chain_morphism", "complexes.check"),
    ("reduction", "HomotopyOperator", "at", "reduction.build"),
    ("reduction", None, "check_reduction_laws", "reduction.check"),
    ("reduction", None, "check_contracting", "reduction.check"),
    ("reduction", None, "check_homotopy_squares_to_zero", "reduction.check"),
    ("reduction", None, "preimage", "reduction.preimage"),
    ("cone", None, "cone", "cone.construct"),
    ("cone", None, "cone_reduction", "cone.construct"),
    ("cone", None, "cone_effective_homology", "cone.construct"),
    ("cone", None, "cone_contraction", "cone.construct"),
    ("laws", None, "run_law", "laws.run"),
    ("laws", "LawReport", "to_text", "laws.report"),
    ("laws", "LawReport", "to_json", "laws.report"),
    ("sampling", "Sampler", "elements", "sampling.elements"),
    ("instances", None, "resolve_complex", "instances.load"),
    ("instances", None, "resolve_effective_homology", "instances.load"),
    ("instances", None, "resolve_homotopy", "instances.load"),
    ("snf", None, "smith_normal_form", "snf.call"),
    ("homology", None, "homology_at", "homology.call"),
    ("homology", None, "differential_matrix", "homology.matrix"),
    ("homology", None, "homology_via_effective_homology", "homology.transfer"),
    ("cli", None, "main", "cli.call"),
)

#: Work counts that must repeat exactly between traced runs of one seed.
DETERMINISTIC = (
    "morphisms.apply_calls",
    "modules.comb_adds",
    "laws.records",
    "snf.cells",
    "snf.max_out_bits",
)


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for x in matrix.entries), default=0)


#: Spans kept in memory; later ones are counted and timed but not kept.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.boundary_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.next_id = 0
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, *_ in BOUNDARIES:
            importlib.import_module(f"effhom.{module_name}")
        modules = [
            m for name, m in sys.modules.items()
            if name == "effhom" or name.startswith("effhom.")
        ]
        for module_name, owner, attr, boundary in BOUNDARIES:
            module = sys.modules[f"effhom.{module_name}"]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, boundary, module_name))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, boundary, module_name)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, boundary, layer):
        counter = _COUNTERS.get(boundary)
        classify = _build_layer if boundary.endswith(".build") else None
        stack, depth, perf = self._stack, self._depth, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            lay = classify(args[0], layer) if classify else layer
            parent = stack[-1][0] if stack else -1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            depth[boundary] += 1
            depth[lay] += 1
            frame = [sid, 0.0]  # id, time of traced children
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                tracer.layer_self[lay] += elapsed - frame[1]
                depth[boundary] -= 1
                depth[lay] -= 1
                if not depth[boundary]:
                    tracer.boundary_busy[boundary] += elapsed
                if not depth[lay]:
                    tracer.layer_busy[lay] += elapsed
                tracer.calls[boundary] += 1
                if lay == "cone" and classify:
                    tracer.counts["cone.component_builds"] += 1
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, boundary, start, end, parent, tracer.op))
            if counter is not None:
                counter(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """Every per-layer metric, from what has been traced so far."""
        c, calls = self.counts, self.calls
        out = {
            "modules.require_calls": calls["modules.require"],
            "modules.require_s": self.boundary_busy["modules.require"],
            "modules.comb_adds": calls["modules.add"],
            "modules.terms_merged": c["modules.terms_merged"],
            "modules.add_s": self.boundary_busy["modules.add"],
            "morphisms.apply_calls": calls["morphisms.apply"],
            "morphisms.apply_outer": c["morphisms.apply_outer"],
            "complexes.component_builds": calls["complexes.build"],
            "complexes.build_s": self.boundary_busy["complexes.build"],
            "reduction.component_builds": calls["reduction.build"],
            "cone.component_builds": c["cone.component_builds"],
            "reduction.preimage_calls": calls["reduction.preimage"],
            "reduction.preimage_s": self.boundary_busy["reduction.preimage"],
            "sampling.elements_calls": calls["sampling.elements"],
            "sampling.terms_sampled": c["sampling.terms_sampled"],
            "sampling.busy_s": self.layer_busy["sampling"],
            "laws.records": c["laws.records"],
            "laws.report_s": self.boundary_busy["laws.report"],
            "grammar.parse_calls": calls["grammar.parse"],
            "grammar.format_calls": calls["grammar.format"],
            "grammar.busy_s": self.layer_busy["grammar"],
            "cli.calls": calls["cli.call"],
            "instances.load_s": self.layer_busy["instances"],
            "homology.calls": calls["homology.call"],
            "homology.matrix_s": self.boundary_busy["homology.matrix"],
            "homology.matrix_cells": c["homology.matrix_cells"],
            "snf.calls": calls["snf.call"],
            "snf.cells": c["snf.cells"],
            "snf.busy_s": self.layer_busy["snf"],
            "snf.max_out_bits": c["snf.max_out_bits"],
        }
        records = c["laws.records"]
        out["morphisms.calls_per_check"] = (
            calls["morphisms.apply"] / records if records else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "spans_total": self.next_id,
                    "spans_kept": len(self.spans),
                    "spans": self.spans,
                },
                fh,
            )


# -- work counters at boundaries ---------------------------------------


def _count_add(tracer, args, result):
    a, b = args
    tracer.counts["modules.terms_merged"] += len(a.terms) + len(getattr(b, "terms", ()))


def _count_apply(tracer, args, result):
    if not tracer._depth["morphisms.apply"]:
        tracer.counts["morphisms.apply_outer"] += 1


def _build_layer(owner, default: str) -> str:
    """Component builds of objects the cone module made belong to ``cone``."""
    family = getattr(owner, "family", None) or getattr(owner, "diff_family", None)
    return "cone" if getattr(family, "__module__", None) == "effhom.cone" else default


def _count_records(tracer, args, result):
    tracer.counts["laws.records"] += len(result.records)


def _count_elements(tracer, args, result):
    tracer.counts["sampling.terms_sampled"] += sum(_terms(e) for e in result)


def _terms(e) -> int:
    terms = getattr(e, "terms", None)
    if terms is not None:
        return len(terms)
    return _terms(e.left) + _terms(e.right)


def _count_matrix(tracer, args, result):
    tracer.counts["homology.matrix_cells"] += result.rows * result.cols


def _count_snf(tracer, args, result):
    matrix = args[0]
    tracer.counts["snf.cells"] += matrix.rows * matrix.cols
    bits = max(_bits(result.U), _bits(result.V), _bits(result.D))
    if bits > tracer.counts["snf.max_out_bits"]:
        tracer.counts["snf.max_out_bits"] = bits


_COUNTERS = {
    "modules.add": _count_add,
    "morphisms.apply": _count_apply,
    "laws.run": _count_records,
    "sampling.elements": _count_elements,
    "homology.matrix": _count_matrix,
    "snf.call": _count_snf,
}
