"""A fixed piece of pure-Python work that sets the benchmark's unit of time.

The measuring host is shared: other tenants slow every process on it by
up to about 1.9x, in spells of seconds to minutes, so raw latencies of
runs made minutes apart differ more than a change worth measuring.  The
benchmark therefore runs ``chunk()`` after every operation and reports
latencies in units of its mean time over the same round (``ref``).

``chunk`` uses no part of the library and does the kind of work the
library does: small integer matrices (products, fraction-free
elimination, gcds), dict arithmetic on sparse combinations, and text
formatting and parsing.  So a slow spell stretches both alike.  On the
2-CPU host, over five minutes, 15 s windows of raw latency of S^4
homology and of catalog queries varied by 1.88x and 1.77x; their ratios
to ``chunk`` varied by 1.05x and 1.06x.

``chunk`` is part of the benchmark's definition: changing it, or the
``knownanswer`` and ``oracles`` functions it calls, changes the unit.
"""

from __future__ import annotations

import gc
import random

import knownanswer
import oracles


def chunk() -> None:
    """The same work on every call: about 1.5 ms on the 2-CPU host.

    The collector is off meanwhile, so garbage the operations left is
    collected on their time, not the chunk's.
    """
    gc.disable()
    try:
        _work()
    finally:
        gc.enable()


def _work() -> None:
    rng = random.Random(0)
    for _ in range(4):
        c = knownanswer.prescribed(rng, 3, 8, 4)
        for m in c.matrices:
            knownanswer.determinantal_factors(m)
    for _ in range(40):
        w = oracles.random_element(rng, 5, 16, 20)
        oracles.parse_element(oracles.element_text(oracles.cone_diff(3, w)))
