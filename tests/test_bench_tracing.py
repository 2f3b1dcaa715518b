"""The traced benchmark run (``bench/run.py --trace 1``) can still wrap its boundaries.

``bench/tracing.py`` names each boundary by module, owner class and
attribute, and its tracer replaces ``cls.__dict__[attr]`` or the module
attribute when it is installed.  A boundary renamed, deleted or moved to
a base class breaks only the traced run, which the test suite never
makes, so this checks every entry without installing the tracer.
"""

import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _tracing().BOUNDARIES


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
