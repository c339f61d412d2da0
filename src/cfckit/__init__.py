"""cfckit: continuous functional calculus for complex matrices, numerically,
over the scalar rings C, R and R>=0, with junk-value semantics, quasispectra,
minimal unitization, and an interpolation-based uniqueness oracle.
"""

__version__ = "0.1.0"

from .cfc import (
    CfcOutcome,
    ScalarFunction,
    SpectralPlan,
    builtin_function,
    cfc,
    cfc_builtin,
    cfc_n,
    neg_part,
    plan,
    pos_part,
)
from .eigen import cluster_with_labels
from .matrix_core import (
    PredicateReport,
    StarSubalgebra,
    adjoint,
    elemental_subalgebra,
    is_nonneg,
    is_selfadjoint,
    is_star_normal,
    operator_norm,
)
from .oracle import LawReport, StarPolynomial, cfc_oracle, check_laws
from .scalars import ScalarRing, embed, restrict_scalar, truncated_sub
from .spectrum import (
    QuasiregularWitness,
    SpectrumResult,
    is_quasiregular,
    quasispectrum_intrinsic,
    quasispectrum_via_unitization,
    spectrum,
)
from .unitization import (
    UnitizationElement,
    uni_mul,
    uni_norm,
    uni_represent,
    uni_star,
)

__all__ = [
    "CfcOutcome", "ScalarFunction", "SpectralPlan", "builtin_function", "cfc",
    "cfc_builtin", "cfc_n", "neg_part", "plan", "pos_part", "cluster_with_labels",
    "PredicateReport", "StarSubalgebra", "adjoint", "elemental_subalgebra",
    "is_nonneg", "is_selfadjoint", "is_star_normal", "operator_norm",
    "LawReport", "StarPolynomial", "cfc_oracle", "check_laws", "ScalarRing",
    "embed", "restrict_scalar", "truncated_sub",
    "QuasiregularWitness", "SpectrumResult", "is_quasiregular",
    "quasispectrum_intrinsic", "quasispectrum_via_unitization", "spectrum",
    "UnitizationElement", "uni_mul", "uni_norm", "uni_represent", "uni_star",
]
