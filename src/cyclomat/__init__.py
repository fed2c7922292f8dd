"""Exact arithmetic for cyclotomic numbers, cyclotomic matrices, and power
difference sets over finite fields.

The package builds F_{p^n} with a deterministic generator, computes the
ell x ell table of cyclotomic numbers from the cosets of the ell-th powers,
and verifies the exact matrix and group-ring identities the table satisfies.
The difference-set layer decides whether the subgroup of ell-th powers is a
difference set via four cross-checked criteria and certifies every exact
consequence on a hit.
"""

from .errors import (
    CompositeP,
    ContextTooLarge,
    CyclomatError,
    DimensionMismatch,
    EllOne,
    EllTooSmall,
    EvenP,
    InternalError,
    InvalidDegree,
    InvalidEll,
    InvalidJobs,
    IoFailure,
    KEven,
    NoModulusAvailable,
    NotADifferenceSet,
    NotAGenerator,
    OutOfDomain,
    RangeTooLarge,
    ReducibleModulus,
    ZeroElement,
)
from .field import (
    FieldCtx,
    build_field,
    factorize,
    find_irreducible,
    is_irreducible,
    is_prime,
)
from .intmat import IntMatrix, IntPoly
from .cyclotomy import (
    CycloCtx,
    DerivedMatrices,
    build_matrices,
    shifted_matrix,
    verify_elementary_laws,
)
from .schur import (
    column_permutation_survey,
    regular_rep,
    run_identity_suite,
    verify_column_products,
    verify_commutator,
    verify_inner_product_identity,
    verify_matrix_product_law,
    verify_regular_representation,
    verify_structure_constants,
    verify_sum_of_squares,
    verify_traces,
    verify_transposed_product_law,
)
from .diffset import (
    DiffSetReport,
    ModifiedDiffSetReport,
    build_report,
    check_schoenberg_condition,
    is_diffset_bruteforce,
    is_diffset_gram,
    is_diffset_lehmer,
    is_diffset_sumsq,
    iter_search,
    modified_diffset,
    passes_prefilter,
    search,
    verify_congruences,
    verify_determinants,
    verify_gram_identities,
    verify_spectral,
)
from .report import Check, VerifySuiteResult

__version__ = "0.1.0"
