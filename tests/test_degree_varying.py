"""Laws on a finite complex whose module changes from degree to degree.

Every other complex the tests build is Z or Z[N] (or a sum of them) in
every degree, so a degree index shifted by one still composes there, and
still agrees.  P below has rank ((7i) mod 5) + 1 + [i > 0] at degree i, so
no two neighbouring degrees share a module: a shifted index raises a shape
mismatch or breaks a law.
"""

import re

import pytest

from effhom import (
    Z,
    ChainComplex,
    DirectSum,
    FiniteFree,
    NotACycleError,
    Reduction,
    Sampler,
    acyclic_to_null_effective_homology,
    check_chain_morphism,
    check_contracting,
    check_nilpotency,
    check_reduction_laws,
    cone,
    cone_contraction,
    cone_reduction,
    format_element,
    from_generator_images,
    generator,
    identity_chain_morphism,
    preimage,
    zero_homotopy,
    zero_map,
)

WINDOW = range(-6, 7)
SAMPLER = Sampler(seed=3)


def rank(i):
    return (7 * i) % 5 + 1 + (i > 0)


def varying_complex():
    """P: d(i) sends x_k to 2 x_(k mod rank(i)) for even i and is zero for odd i."""

    def diff(i):
        factor, r = 2 if i % 2 == 0 else 0, rank(i)
        return from_generator_images(
            FiniteFree(rank(i + 1)), FiniteFree(r), lambda k: factor * generator(k % r)
        )

    return ChainComplex(lambda i: FiniteFree(rank(i)), diff, declared_finite_type=True)


def identity_reduction(p):
    one = identity_chain_morphism(p)
    return Reduction(p, p, one, one, zero_homotopy(p))


def test_neighbouring_degrees_differ():
    assert [rank(i) for i in range(-3, 4)] == [5, 2, 4, 1, 4, 6, 3]
    assert all(rank(i) != rank(i + 1) for i in range(-9, 9))


def test_differential_and_identity_laws():
    p = varying_complex()
    assert check_nilpotency(p, WINDOW, SAMPLER).ok
    assert check_chain_morphism(identity_chain_morphism(p), WINDOW, SAMPLER).ok


def test_cone_reduction_of_the_identity():
    p = varying_complex()
    r = identity_reduction(p)
    reduction = cone_reduction(r, r, identity_chain_morphism(p))
    report = check_reduction_laws(reduction, WINDOW, SAMPLER).merged(
        check_nilpotency(reduction.top, WINDOW, SAMPLER),
        check_nilpotency(reduction.bottom, WINDOW, SAMPLER),
        check_chain_morphism(reduction.f, WINDOW, SAMPLER),
        check_chain_morphism(reduction.g, WINDOW, SAMPLER),
    )
    assert report.ok, report.counterexamples()[:3]


def test_cone_contraction_contracts():
    r = identity_reduction(varying_complex())
    k = cone_contraction(r)
    assert k.over is cone(r.f)
    assert check_contracting(k.over, k, WINDOW, SAMPLER).ok
    eh = acyclic_to_null_effective_homology(k.over, k)
    assert eh.reduction.h is k


def test_preimage_of_sampled_boundaries_and_not_of_the_rest():
    r = identity_reduction(varying_complex())
    k = cone_contraction(r)
    cc = k.over
    solved = refused = 0
    for i in WINDOW:
        d = cc.diff_at(i)
        for y in Sampler(seed=i, samples=4).elements(cc.module_at(i + 1), "boundary"):
            x = d(y)
            assert d(preimage(cc, k, i, x)) == x
            solved += 1
            if x != cc.module_at(i).zero():
                # y is no cycle, as the cone is acyclic
                boundary = format_element(x, cc.module_at(i))
                message = f"^element at degree {i + 1} has nonzero boundary {re.escape(boundary)}$"
                with pytest.raises(NotACycleError, match=message):
                    preimage(cc, k, i + 1, y)
                refused += 1
    assert solved == 4 * len(WINDOW) and refused > len(WINDOW)


def test_preimage_reads_the_zero_of_the_boundary_degree():
    # every leaf's zero is the same empty combination, so only modules of
    # different shapes tell the zero of degree i - 1 from its neighbours'
    shapes = [Z, DirectSum(Z, Z), DirectSum(Z, DirectSum(Z, Z))]
    cc = ChainComplex(
        lambda i: shapes[i % 3], lambda i: zero_map(shapes[(i + 1) % 3], shapes[i % 3])
    )
    h = zero_homotopy(cc)
    for i in WINDOW:
        assert preimage(cc, h, i, cc.module_at(i).zero()) == cc.module_at(i + 1).zero()
