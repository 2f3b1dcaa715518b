"""The ``>>>`` examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import effhom

# ``effhom.__main__`` runs the command line on import, so it is left out
MODULES = ["effhom"] + sorted(
    f"effhom.{m.name}"
    for m in pkgutil.iter_modules(effhom.__path__)
    if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
