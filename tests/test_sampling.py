"""The sampled streams: ``Sampler`` draws what the stdlib draws would."""

import random
import sys

import pytest

from effhom import COUNTABLE, Comb, DirectSum, FiniteFree, Pair, Sampler, Z
from effhom.sampling import MAX_SAMPLES, _sample

SHAPES = {
    "zero": FiniteFree(0),
    "Z^3": FiniteFree(3),
    "Z[N]": COUNTABLE,
    "nested": DirectSum(DirectSum(Z, COUNTABLE), FiniteFree(40)),
}

#: (coeff_bound, max_support, max_generator)
BOUNDS = {
    "defaults": (20, 5, 16),
    "wide": (10**12, 200, 1000),
    "ones": (1, 1, 0),
    "odd": (3, 7, 5),
}


def reference_element(rng, desc, s):
    """The stream as written with ``randint``, ``choice`` and ``sample``."""
    if isinstance(desc, DirectSum):
        left = reference_element(rng, desc.left, s)
        return Pair(left, reference_element(rng, desc.right, s))
    population = desc.rank if isinstance(desc, FiniteFree) else s.max_generator + 1
    if population == 0:
        return Comb(())
    support = rng.randint(1, min(s.max_support, population))
    gens = sorted(rng.sample(range(population), support))
    return Comb(
        tuple((g, rng.choice((1, -1)) * rng.randint(1, s.coeff_bound)) for g in gens)
    )


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bounds", BOUNDS)
def test_stream_equals_stdlib_draws(bounds, shape):
    coeff_bound, max_support, max_generator = BOUNDS[bounds]
    desc = SHAPES[shape]
    samples = 8 if bounds == "wide" else 32  # wide elements hold hundreds of terms
    for seed in range(50):
        s = Sampler(
            seed=seed,
            samples=samples,
            coeff_bound=coeff_bound,
            max_support=max_support,
            max_generator=max_generator,
        )
        rng = random.Random(f"{seed}|law@3")
        expected = [reference_element(rng, desc, s) for _ in range(samples)]
        assert s.elements(desc, "law@3") == expected, (seed, bounds, shape)


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples", 0),
        ("coeff_bound", 0),
        ("max_support", 0),
        ("max_generator", -1),
        ("max_generator", sys.maxsize),
        ("samples", MAX_SAMPLES + 1),
    ],
)
def test_bad_bound_raises_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        Sampler(**{field: value})


def test_finite_leaf_rank_is_bounded_by_maxsize():
    # the stream is rng.sample's, which takes len() of range(rank), so the
    # largest leaf is sys.maxsize
    s = Sampler(samples=3)
    largest = FiniteFree(sys.maxsize)
    rng = random.Random("0|x")
    expected = [reference_element(rng, largest, s) for _ in range(3)]
    assert s.elements(largest, "x") == expected
    too_large = DirectSum(Z, FiniteFree(sys.maxsize + 1))
    message = rf"Z\^{sys.maxsize + 1}: its rank must be at most {sys.maxsize}"
    with pytest.raises(ValueError, match=message):
        s.elements(too_large, "x")


#: (n, k): both branches of random.sample on each side of its set-size edge,
#: which is 21 for k <= 5, 21 + 4**3 = 85 for k = 6 and 21 + 4**5 = 1045 for
#: k = 86, plus k = n and n = 1
DRAWS = [
    (21, 5), (22, 5),
    (85, 6), (86, 6),
    (1045, 86), (1046, 86),
    (17, 17), (22, 22), (200, 200),
    (1, 1),
    (sys.maxsize, 5),
]


@pytest.mark.parametrize("n, k", DRAWS)
def test_sample_equals_stdlib_sample(n, k):
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = _sample(ours.getrandbits, n, k)
        assert len(drawn) == k
        assert set(drawn) == set(theirs.sample(range(n), k)), (n, k, seed)
        # the two streams stand at the same place afterwards
        assert ours.getrandbits(32) == theirs.getrandbits(32)
