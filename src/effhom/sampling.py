"""Seeded random elements for the law checkers.

Universally quantified laws over infinite generator families cannot be
decided, so they are tested on random elements.  Streams are derived from
``(seed, label)`` with the label naming the law and the degree, which
keeps every (law, degree) sequence reproducible and independent of how
checks are grouped or parallelized.  So a degree whose law is decided on
its span (see ``effhom.laws``) may skip its draws without moving any
other degree's stream.

A stream is defined by rejection on ``getrandbits``: a draw below ``n``
takes ``n.bit_length()`` bits and redraws while the result is ``>= n``.
That is how ``random`` implements ``randint`` and ``choice``, so the
support size ``randint(1, s)`` and each coefficient
``choice((1, -1)) * randint(1, bound)`` are the stdlib draws, value for
value, without their call layers.  The generators of a combination are
``rng.sample(range(population), support)``, drawn by ``_sample``, which
takes ``random.sample``'s steps on ``_below``.  Through ``random.sample``
the population is a ``range``, whose ``len()`` must fit in ``sys.maxsize``;
the bounds on ``max_generator`` and on a leaf's rank keep that limit, so
the stream stays defined as the stdlib's.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from math import ceil, log

from .modules import Comb, Element, FiniteFree, FreeModule, join, leaves


def _below(bits, n: int) -> int:
    """Uniform in ``[0, n)`` for ``n > 0``, consuming ``bits`` as ``random`` does."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _sample(bits, n: int, k: int) -> list[int]:
    """``random.sample(range(n), k)``, step for step, as an unordered list.

    A pool of ``n`` swaps when it is smaller than a set of ``k``; otherwise
    a draw is redrawn while it is already taken.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        result = []
        for i in range(k):
            j = _below(bits, n - i)
            result.append(pool[j])
            pool[j] = pool[n - i - 1]
        return result
    selected = set()
    for _ in range(k):
        j = _below(bits, n)
        while j in selected:
            j = _below(bits, n)
        selected.add(j)
    return list(selected)


#: Largest ``samples``.  ``elements`` builds a degree's whole list before its
#: law is checked, and a report, printed a degree at a time, writes a line per
#: sample.  A law that holds on its span draws nothing (``cc2`` nilpotency has
#: period 2, so it is decided on x0, x1), but a failing one draws every sample:
#: one degree of ``h1`` contracting ``cone-example.bottom`` at 100,000 samples
#: takes about 2 s and 84 MB peak RSS (Python 3.11, 2 CPUs), so the bound keeps
#: a bad ``--samples`` from running until it is killed.  The CLI default is 32.
MAX_SAMPLES = 100_000


@dataclass(frozen=True)
class Sampler:
    """Random element source with the default desk-scale bounds."""

    seed: int = 0
    samples: int = 32
    coeff_bound: int = 20
    max_support: int = 5
    max_generator: int = 16

    def __post_init__(self):
        for name, least in (
            ("samples", 1),
            ("coeff_bound", 1),
            ("max_support", 1),
            ("max_generator", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be at most {MAX_SAMPLES}")
        # the stream is rng.sample's, which takes len() of range(max_generator + 1)
        if self.max_generator >= sys.maxsize:
            raise ValueError(f"max_generator must be at most {sys.maxsize - 1}")

    def elements(self, desc: FreeModule, label: str) -> list[Element]:
        rng = random.Random(f"{self.seed}|{label}")
        shape = leaves(desc)
        return [self._element(rng, desc, shape) for _ in range(self.samples)]

    def element(self, rng: random.Random, desc: FreeModule) -> Element:
        """One member of ``desc``, its leaves drawn left to right."""
        return self._element(rng, desc, leaves(desc))

    def _element(self, rng: random.Random, desc: FreeModule, shape) -> Element:
        return join(desc, (self._combination(rng, leaf) for leaf in shape))

    def _population(self, leaf: FreeModule) -> int:
        """How many generators of ``leaf`` a draw picks from: x0 .. x{n-1}."""
        return leaf.rank if isinstance(leaf, FiniteFree) else self.max_generator + 1

    def _combination(self, rng: random.Random, desc: FreeModule) -> Comb:
        population = self._population(desc)
        # rng.sample's len() of the range; max_generator is bounded already
        if population > sys.maxsize:
            raise ValueError(
                f"cannot sample the leaf {desc}: its rank must be at most {sys.maxsize}"
            )
        if population == 0:
            return Comb._canonical(())
        bits, bound = rng.getrandbits, self.coeff_bound
        support = 1 + _below(bits, min(self.max_support, population))
        width = bound.bit_length()
        terms = []
        for g in sorted(_sample(bits, population, support)):
            # _below(bits, 2), then _below(bits, bound), written out per term
            negative = bits(2)
            while negative >= 2:
                negative = bits(2)
            magnitude = bits(width)
            while magnitude >= bound:
                magnitude = bits(width)
            magnitude += 1
            terms.append((g, -magnitude if negative else magnitude))
        return Comb._canonical(tuple(terms))
