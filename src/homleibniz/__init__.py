"""Exact-arithmetic cohomology and deformation theory of multiplicative
n-Hom-Leibniz algebras and their morphisms."""

from .algebra import (
    HomNaryAlgebra,
    Morphism,
    Representation,
    Violation,
    adjoint_representation,
    check_hom_leibniz,
    check_morphism,
    check_multiplicative,
    check_representation,
    pullback_representation,
    yau_twist,
)
from .cochain import (
    Cochain,
    CochainComplex,
    CochainSpace,
    ConstraintViolation,
    DEFAULT_CONVENTION,
    NotACochainComplex,
    SignConvention,
    all_conventions,
    calibration_report,
)
from .deformation import (
    MorphismDeformation,
    NotValidBelow,
    ObstructionCochain,
    TruncatedDeformation,
    algebra_order_residual,
    infinitesimal,
    is_valid_through,
    morphism_order_residual,
    multiplicativity_violations,
    obstruction,
    solve_extension,
)
from .documents import (
    DocumentError,
    parse_algebra,
    parse_deformation,
    parse_morphism,
    parse_representation,
    serialize_algebra,
    serialize_deformation,
    serialize_morphism,
    serialize_representation,
)
from .linalg import Matrix, Q, SubspaceBasis, kernel_basis, rank, solve
from .morphism_complex import (
    HypothesisNotMet,
    MorphismCochain,
    MorphismComplex,
)
from .report import RunReport

__all__ = [name for name in dir() if not name.startswith("_")]
