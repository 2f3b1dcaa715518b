"""The traced benchmark run (``bench/run.py --trace 1``) still works.

``bench/tracing.py`` names each boundary by module, owner class and
attribute, and its tracer replaces ``cls.__dict__[attr]`` or the module
attribute when it is installed.  A boundary renamed, deleted or moved to
a base class breaks only the traced run, which the test suite never
makes, so this checks every entry without installing the tracer.

The traced run also replays one round on the same objects and requires
its ``DETERMINISTIC`` counts to repeat, so whatever a complex keeps
between calls must not change the work a repeated call counts.
"""

import importlib
import importlib.util
import os

import pytest

import effhom.homology
import effhom.reduction
from effhom import (
    ZERO,
    ChainComplex,
    FiniteFree,
    Sampler,
    from_generator_images,
    normalize,
    zero_map,
)
from effhom.instances import resolve_complex, resolve_homotopy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
BOUNDARIES = tracing.BOUNDARIES


@pytest.mark.parametrize(
    "module_name, owner, attr",
    [entry[:3] for entry in BOUNDARIES],
    ids=[f"{m}.{o + '.' if o else ''}{a}" for m, o, a, _ in BOUNDARIES],
)
def test_boundary_resolves(module_name, owner, attr):
    module = importlib.import_module(f"effhom.{module_name}")
    if owner is None:
        assert callable(getattr(module, attr, None))
    else:
        # the tracer reads the class's own __dict__: an inherited method is missed
        assert callable(getattr(module, owner).__dict__.get(attr))


def projective_plane() -> ChainComplex:
    """RP^2 as two triangles on a square: Z^2 <- Z^3 <- Z^2 in degrees 0..2."""
    ranks = (2, 3, 2)
    images = (
        [[(-1, 0), (1, 1)], [(1, 0), (-1, 1)], []],  # the edges a, b, c
        [[(1, 0), (1, 1), (-1, 2)], [(1, 0), (1, 1), (1, 2)]],  # the triangles
    )

    def module(i):
        return FiniteFree(ranks[i]) if 0 <= i < len(ranks) else ZERO

    def diff(i):
        if 0 <= i < len(images):
            columns = [normalize(terms, module(i)) for terms in images[i]]
            return from_generator_images(module(i + 1), module(i), columns.__getitem__)
        return zero_map(module(i + 1), module(i))

    return ChainComplex(module, diff, declared_finite_type=True)


def test_traced_homology_passes_repeat_their_counts():
    cc = projective_plane()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        deltas = []
        for _ in range(2):
            before = tracer.snapshot()
            groups = [str(effhom.homology.homology_at(cc, i)) for i in range(-1, 4)]
            after = tracer.snapshot()
            deltas.append({k: after[k] - before[k] for k in tracing.DETERMINISTIC})
    finally:
        tracer.uninstall()
    assert groups == ["0", "Z", "Z/2", "0", "0"]
    assert deltas[0]["morphisms.apply_calls"] > 0
    assert deltas[0] == deltas[1]


def test_traced_law_checks_repeat_their_counts():
    # what a law check keeps (components on cached instances) must not change
    # the work a repeated check counts; run_law itself keeps nothing between
    # calls.  htop is decided on the span and draws no sample; h1 disagrees
    # on the span, so every sample is drawn and applied whole.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for home, name, violations in (
            ("cone-example", "htop", 0),
            ("cone-example.bottom", "h1", 5 * 32),
        ):
            cc, h = resolve_complex(home), resolve_homotopy(name)[1]
            deltas = []
            for _ in range(2):
                before = tracer.snapshot()
                report = effhom.reduction.check_contracting(cc, h, range(-2, 3), Sampler(seed=1))
                after = tracer.snapshot()
                deltas.append({k: after[k] - before[k] for k in tracing.DETERMINISTIC})
            assert report.violations == violations
            assert deltas[0]["morphisms.apply_calls"] > 0
            assert deltas[0]["laws.records"] == 5 * 32
            assert deltas[0] == deltas[1]
    finally:
        tracer.uninstall()
