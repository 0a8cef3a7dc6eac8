"""Exact convex sets of probability distributions over finite metric spaces.

The library models finitely generated convex sets of finitely supported
distributions, the Hausdorff-Kantorovich metric on them, the equational
theory of convex semilattices with its canonical term forms, a proof
checker for quantitative deductions, and constructive derivations whose
bounds match the computed distances exactly.  All arithmetic is exact,
over Python ints and `fractions.Fraction`; floats never appear.
"""

from .convex import (
    ConvexSet,
    functor_map,
    in_hull,
    monad_mult,
    monad_unit,
    nearest_point,
    oplus,
    plus_p,
    unique_base,
    wms,
)
from .core import (
    Coupling,
    Dist,
    FiniteMetricSpace,
    as_fraction,
    convex_combine,
    dirac,
    format_fraction,
    pushforward,
    validate_space,
)
from .deduction import (
    AXIOMS,
    RULES,
    CheckResult,
    Derivation,
    QuantEquation,
    check_derivation,
    derivation_from_json_dict,
    derivation_to_json_dict,
    derivation_to_json_text,
    equation_from_json_dict,
    equation_to_json_dict,
    metric_hypotheses,
)
from .errors import (
    AxiomViolation,
    BadProbability,
    DomainError,
    DuplicateLabel,
    EmptyInput,
    EmptySet,
    FileNotFound,
    MalformedInput,
    MarginalMismatch,
    OutOfRange,
    ParseError,
    SpaceMismatch,
    TooDeep,
    TooLarge,
    UnknownPoint,
    WeightsNotNormalized,
)
from .lifting import (
    directed_hausdorff,
    hausdorff,
    hk_directed,
    hk_distance,
)
from .presentation import (
    EMAlgebra,
    LawReport,
    QuantConvexSemilattice,
    check_monad_laws,
    corrupt_alpha,
    eval_canonical,
    free_em_algebra,
    functor_F,
    functor_G,
    roundtrip_FG,
    roundtrip_GF,
)
from .proofs import (
    canon_proof,
    derive_hk,
    derive_kantorovich,
    prove_dist,
    tightest_derivable,
)
from .syntax import Gen, Oplus, PlusP, Term, parse_term, print_term, substitute
from .terms import (
    dist_term,
    normalize,
    nu,
    term_distance,
    term_equal_mod_theory,
)
from .transport import (
    TransportResult,
    kantorovich,
    kantorovich_bruteforce,
    kantorovich_metric,
    optimal_transport,
    solve_transport,
    transport_cost,
)

__all__ = [name for name in dir() if not name.startswith("_")]
