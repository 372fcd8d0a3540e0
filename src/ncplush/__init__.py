"""Noncommutative polynomial calculus and plurisubharmonicity certificates.

The package decides whether a symmetric noncommutative polynomial has a
positive semidefinite complex hessian under all matrix substitutions,
returning either the canonical decomposition

    p = sum_i d_i f_i' f_i + sum_j e_j k_j k_j' + F + F'

with analytic pieces and an exact re-expansion, or a concrete matrix-tuple
counterexample with a verified negative eigenvalue.
"""

from .calculus import (
    complex_hessian,
    deriv_xj,
    deriv_xjt,
    full_derivative,
    full_hessian,
    nth_derivative,
)
from .classify import (
    Counterexample,
    Decomposition,
    PlushVerdict,
    Violation,
    decide_plush,
    find_witness,
    structural_screen,
    verdict_to_dict,
    verify_decomposition,
)
from .errors import NcError
from .freealg import (
    MatrixTuple,
    NcPoly,
    direct_sum,
    evaluate,
    format_poly,
    parse_poly,
)
from .ldlt import LdltFactorization, Obstruction, ldlt_factor
from .mmr import (
    BorderVector,
    MiddleMatrix,
    block_view,
    build_mmr,
    check_degree_bound,
    expand_mmr,
)
from .numeval import (
    SamplePolicy,
    eval_middle_matrix,
    min_eigenvalue,
    random_tuple,
)
from .wed import (
    WedClass,
    antiderivative,
    is_complex_hessian,
    is_directional_derivative,
    levi_class,
)

__version__ = "0.1.0"

__all__ = [
    "BorderVector",
    "Counterexample",
    "Decomposition",
    "LdltFactorization",
    "MatrixTuple",
    "MiddleMatrix",
    "NcError",
    "NcPoly",
    "Obstruction",
    "PlushVerdict",
    "SamplePolicy",
    "Violation",
    "WedClass",
    "antiderivative",
    "block_view",
    "build_mmr",
    "check_degree_bound",
    "complex_hessian",
    "decide_plush",
    "deriv_xj",
    "deriv_xjt",
    "direct_sum",
    "eval_middle_matrix",
    "evaluate",
    "expand_mmr",
    "find_witness",
    "format_poly",
    "full_derivative",
    "full_hessian",
    "is_complex_hessian",
    "is_directional_derivative",
    "ldlt_factor",
    "levi_class",
    "min_eigenvalue",
    "nth_derivative",
    "parse_poly",
    "random_tuple",
    "structural_screen",
    "verdict_to_dict",
    "verify_decomposition",
]
