"""Exact computation for 3-dimensional vector-valued modular forms.

The library builds the order-3 modular differential system attached to a
triple of leading exponents (A, B, C) at level N, solves it by the Frobenius
recursion in exact rational arithmetic, analyses the p-adic valuations of the
coefficients, and classifies the representation data (congruence small levels,
level-7 primitives, induced families, unbounded-denominator primes).
"""

from .arith import (
    INFINITY,
    ValuationValue,
    bernoulli,
    int_valuation,
    is_prime,
    prime_factors,
    rational_str,
    sigma_k,
    valuation_p,
)
from .mde import (
    DerivedBasis,
    MDESystem,
    MinimalVector,
    build_mde,
    component_series,
    derived_basis,
    indicial_phi,
    minimal_vector,
    ode_residual,
    phi_j,
)
from .qseries import (
    QExpansion,
    eisenstein,
    modular_derivative,
)
from .reps import (
    Classification,
    FamilyResult,
    InvalidTripleError,
    RepTriple,
    classify_triple,
    enumerate_level,
    gamma02_family,
    gamma3_family,
    ubd_criterion,
    validate_triple,
)
from .valuation import (
    DenominatorProfile,
    FormulaInapplicable,
    PrimeCase,
    PrimeStats,
    ValuationReport,
    classify_prime,
    denominator_profile,
    predicted_valuation,
    verify_formula,
    z_n_value,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Classification",
    "DenominatorProfile",
    "DerivedBasis",
    "FamilyResult",
    "FormulaInapplicable",
    "InvalidTripleError",
    "MDESystem",
    "MinimalVector",
    "PrimeCase",
    "PrimeStats",
    "QExpansion",
    "RepTriple",
    "ValuationReport",
    "ValuationValue",
    "bernoulli",
    "build_mde",
    "classify_prime",
    "classify_triple",
    "component_series",
    "denominator_profile",
    "derived_basis",
    "eisenstein",
    "enumerate_level",
    "gamma02_family",
    "gamma3_family",
    "indicial_phi",
    "int_valuation",
    "is_prime",
    "minimal_vector",
    "modular_derivative",
    "ode_residual",
    "phi_j",
    "predicted_valuation",
    "prime_factors",
    "rational_str",
    "sigma_k",
    "ubd_criterion",
    "validate_triple",
    "valuation_p",
    "verify_formula",
    "z_n_value",
]
