"""Exact invariants of arc spaces and jet schemes of affine varieties."""

from .analysis import (
    BtrReport,
    FiberDimension,
    JetEmbeddingDimension,
    MatherReport,
    OracleCheck,
    StabilizationReport,
    btr_check,
    divisorial_arc,
    embdim_arc,
    embdim_jet,
    fiber_dim_formula,
    jet_codim,
    mather_discrepancy_check,
    oracle_check,
)
from .arcs import Arc, GenericComponent, JetPoint, generic_arc, make_arc, push_arc
from .errors import JetspaceError
from .exact import (
    BaseField,
    FieldElement,
    RATIONALS,
    SparsePolynomial,
    matrix_rank,
    transcendence_degree,
)
from .geometry import (
    DifferentialPresentation,
    MorphismPresentation,
    VarietyPresentation,
    jacobian_ideal_generators,
    omega_presentation,
    relative_omega_presentation,
)
from .invariants import (
    InvariantProfile,
    fitting_minor_oracle,
    refined_profile_of_omega,
    smith_orders,
)
from .jets import JetIdeal, jet_ideal, jet_jacobian_corank
from .series import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    OrderValue,
    SeriesExpression,
    TruncatedSeries,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BaseField",
    "BtrReport",
    "DEFAULT_PRECISION",
    "DifferentialPresentation",
    "FiberDimension",
    "FieldElement",
    "GenericComponent",
    "InvariantProfile",
    "JetEmbeddingDimension",
    "JetIdeal",
    "JetPoint",
    "JetspaceError",
    "MatherReport",
    "MorphismPresentation",
    "OracleCheck",
    "OrderValue",
    "PRECISION_CAP",
    "RATIONALS",
    "SeriesExpression",
    "SparsePolynomial",
    "StabilizationReport",
    "TruncatedSeries",
    "VarietyPresentation",
    "btr_check",
    "divisorial_arc",
    "embdim_arc",
    "embdim_jet",
    "fiber_dim_formula",
    "fitting_minor_oracle",
    "generic_arc",
    "jacobian_ideal_generators",
    "jet_codim",
    "jet_ideal",
    "jet_jacobian_corank",
    "make_arc",
    "mather_discrepancy_check",
    "matrix_rank",
    "omega_presentation",
    "oracle_check",
    "push_arc",
    "refined_profile_of_omega",
    "relative_omega_presentation",
    "smith_orders",
    "transcendence_degree",
]
