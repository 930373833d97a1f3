"""confsym: numerical verification of scale and conformal symmetries of
classical fields.

The package checks, identity by identity, how dilations and special
conformal transformations act on scalar, vector, field-strength and spinor
fields: coordinate maps and their Jacobians, conformal Killing vectors,
stress tensors and their improvements, scale/conformal currents and their
(non)conservation, the three-dimensional dual-scalar formulation, and the
reduction to inverse-square conformal mechanics.
"""

from .errors import (
    ConfsymError,
    DimensionMismatch,
    FieldDomainError,
    LightConePoint,
    NonTimelikePoint,
    OffShellParameters,
    ParseError,
    SemanticError,
    SingularApproach,
    SingularConfiguration,
    SingularMap,
    UnsupportedDimension,
    WrongDimension,
)
from .geometry import (
    GeneratorAction,
    Metric,
    basis_generators,
    canonical_weight,
    conformal_factor,
    conformal_jacobian,
    dilation,
    inversion,
    inversion_matrix,
    killing_residual,
    killing_vector,
    large_parameter_map,
    levi_civita3,
    lorentz_rotation,
    special_conformal,
    special_conformal_map,
    translation,
)

# the one home of the version: pyproject.toml reads it from here
__version__ = "0.1.0"

__all__ = [
    "ConfsymError",
    "DimensionMismatch",
    "FieldDomainError",
    "LightConePoint",
    "NonTimelikePoint",
    "OffShellParameters",
    "ParseError",
    "SemanticError",
    "SingularApproach",
    "SingularConfiguration",
    "SingularMap",
    "UnsupportedDimension",
    "WrongDimension",
    "GeneratorAction",
    "Metric",
    "basis_generators",
    "canonical_weight",
    "conformal_factor",
    "conformal_jacobian",
    "dilation",
    "inversion",
    "inversion_matrix",
    "killing_residual",
    "killing_vector",
    "large_parameter_map",
    "levi_civita3",
    "lorentz_rotation",
    "special_conformal",
    "special_conformal_map",
    "translation",
    "__version__",
]
