"""Seeded random elements for the law checkers.

Universally quantified laws over infinite generator families cannot be
decided, so they are tested on random elements.  Streams are derived from
``(seed, label)`` with the label naming the law and the degree, which
keeps every (law, degree) sequence reproducible and independent of how
checks are grouped or parallelized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .modules import Comb, Element, FiniteFree, FreeModule, join, leaves


@dataclass(frozen=True)
class Sampler:
    """Random element source with the default desk-scale bounds."""

    seed: int = 0
    samples: int = 32
    coeff_bound: int = 20
    max_support: int = 5
    max_generator: int = 16

    def elements(self, desc: FreeModule, label: str) -> list[Element]:
        rng = random.Random(f"{self.seed}|{label}")
        return [self.element(rng, desc) for _ in range(self.samples)]

    def element(self, rng: random.Random, desc: FreeModule) -> Element:
        """One member of ``desc``, its leaves drawn left to right."""
        return join(desc, (self._combination(rng, leaf) for leaf in leaves(desc)))

    def _combination(self, rng: random.Random, desc: FreeModule) -> Comb:
        if isinstance(desc, FiniteFree):
            population = desc.rank
        else:
            population = self.max_generator + 1
        if population == 0:
            return Comb(())
        support = rng.randint(1, min(self.max_support, population))
        gens = sorted(rng.sample(range(population), support))
        return Comb(tuple((g, self._coefficient(rng)) for g in gens))

    def _coefficient(self, rng: random.Random) -> int:
        return rng.choice((1, -1)) * rng.randint(1, self.coeff_bound)
