"""The demos run clean and print exactly what they printed when pinned."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = {
    "01_elements_and_morphisms.py":
        "14e2e79f43574710c0ef4a31ba34566f975b358e67601dcd4014e8b0b153337b",
    "02_complexes_and_law_checks.py":
        "3c760d6ba4d427e3645c6373e8cd1e3aa74458f288a35cb38c8fa6160fced102",
    "03_cone_effective_homology.py":
        "a2766c07db28a19ff6a59c9f77a990ed2bfe45e2042422a8f25fcd79801675df",
    "04_integer_homology.py":
        "fdeaf4e1646d09be8fd889c55adba3fcb119e8343bd10c1e17765395dc1c2fc2",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[name]
