"""Exact operator matrices on the Hardy space of the symmetrized polydisk.

Antisymmetrized monomial bases indexed by strict partitions, finite
symmetric Laurent symbols with exact rational-complex coefficients,
closed-form Toeplitz/Hankel/dual operator matrices, and mechanical
verification of operator identities (Brown-Halmos relations, analyticity
characterizations, compactness diagnostics, gamma-tuple structure) on
finite windows.
"""

from .compactness import (
    asymptotic_classify,
    commutator_decay,
    el_projection,
    eta,
    f_l_projection,
    finite_rank_truncation,
    truncation_support,
)
from .dual import (
    BlockReport,
    block_decomposition_check,
    dual_bh_residual_column,
    dual_bh_residuals,
)
from .errors import DegeneracyError, DomainError, MarginError, NotToeplitzError
from .gamma import (
    GammaTuple,
    check_gamma_isometry,
    check_gamma_unitary,
    point_in_bgamma,
    point_in_gamma,
    s_toeplitz_solve,
    synth_gamma_unitary,
)
from .operators import (
    ClassifyReport,
    DualToeplitz,
    FiniteRank,
    Hankel,
    Laurent,
    MatrixWindow,
    OperatorSpec,
    OpSum,
    Report,
    ShiftY,
    Toeplitz,
    assemble,
    bh_residual_column,
    bh_residual_entry,
    bh_residuals,
    classify_analytic,
    lift_verify,
    norm_estimate,
    product_defect,
    recover_symbol,
)
from .partitions import (
    Partition,
    SignedPartition,
    Window,
    analytic_window,
    antisymmetrize,
    dual_window,
    enumerate_window,
    orbit_permutations,
    shift,
)
from .scalars import ComplexRational
from .symbols import Symbol, elementary, multiply, unit, zero_symbol

__version__ = "0.1.0"

__all__ = [
    "BlockReport",
    "ClassifyReport",
    "ComplexRational",
    "DegeneracyError",
    "DomainError",
    "DualToeplitz",
    "FiniteRank",
    "GammaTuple",
    "Hankel",
    "Laurent",
    "MarginError",
    "MatrixWindow",
    "NotToeplitzError",
    "OperatorSpec",
    "OpSum",
    "Partition",
    "Report",
    "ShiftY",
    "SignedPartition",
    "Symbol",
    "Toeplitz",
    "Window",
    "analytic_window",
    "antisymmetrize",
    "assemble",
    "asymptotic_classify",
    "bh_residual_column",
    "bh_residual_entry",
    "bh_residuals",
    "block_decomposition_check",
    "check_gamma_isometry",
    "check_gamma_unitary",
    "classify_analytic",
    "commutator_decay",
    "dual_bh_residual_column",
    "dual_bh_residuals",
    "dual_window",
    "el_projection",
    "elementary",
    "enumerate_window",
    "eta",
    "f_l_projection",
    "finite_rank_truncation",
    "lift_verify",
    "multiply",
    "norm_estimate",
    "orbit_permutations",
    "point_in_bgamma",
    "point_in_gamma",
    "product_defect",
    "recover_symbol",
    "s_toeplitz_solve",
    "shift",
    "synth_gamma_unitary",
    "truncation_support",
    "unit",
    "zero_symbol",
]
