"""Exact homological algebra over the integers.

Free modules of finite and countable type, chain complexes graded over
all the integers, sampled law checking, reductions and effective
homology, the mapping cone with its reduction, and a Smith normal form
engine with a transform-free invariant-factor path for homology groups of
finite-type complexes.
"""

from .complexes import (
    ChainComplex,
    ChainMorphism,
    check_chain_morphism,
    check_nilpotency,
    direct_sum_complex,
    identity_chain_morphism,
    null_complex,
    zero_chain_morphism,
)
from .cone import (
    bottom_morphism,
    cone,
    cone_contraction,
    cone_effective_homology,
    cone_reduction,
)
from .errors import (
    HomAlgError,
    LawViolationError,
    MembershipError,
    NotACycleError,
    NotFiniteTypeError,
    ParseError,
    PreimageVerificationError,
    ShapeMismatchError,
)
from .grammar import format_element, parse_element
from .homology import (
    HomologyGroup,
    differential_columns,
    differential_matrix,
    enumerate_basis,
    homology_at,
    homology_window,
    homology_via_effective_homology,
    module_rank,
)
from .laws import LawRecord, LawReport, LawSection, run_law
from .modules import (
    COUNTABLE,
    ZERO,
    Z,
    Comb,
    CountableFree,
    DirectSum,
    Element,
    FiniteFree,
    FreeModule,
    Pair,
    generator,
    normalize,
)
from .morphisms import (
    ModMorphism,
    direct_sum_map,
    from_generator_images,
    identity,
    inj1,
    inj2,
    pair,
    proj1,
    proj2,
    scaling,
    zero_map,
)
from .reduction import (
    DEFAULT_DEGREES,
    EffectiveHomology,
    HomotopyOperator,
    Reduction,
    acyclic_to_null_effective_homology,
    check_contracting,
    check_homotopy_squares_to_zero,
    check_reduction_laws,
    compose,
    effective_homology,
    is_cycle,
    perturb_homotopy,
    preimage,
    sampled_effective_homology,
    zero_homotopy,
)
from .sampling import Sampler
from .snf import IntMatrix, SNFResult, invariant_factors, smith_normal_form

__version__ = "0.1.0"
