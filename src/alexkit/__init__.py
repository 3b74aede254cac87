"""Numerical comparison geometry on model surfaces and discretized domains."""

__version__ = "0.1.0"

from .errors import (
    DegenerateAngleError,
    GeometryError,
    InvalidTriangleError,
    InverseRangeError,
    ResolutionError,
    TickBoundError,
    TrigDomainError,
    UndefinedModelAngleError,
    UnreachableError,
)
from .trig import (
    angle_from_sides,
    cs,
    f,
    f_inverse,
    md,
    md_inverse,
    model_side,
    sn,
)

__all__ = [
    "__version__",
    "GeometryError",
    "TrigDomainError",
    "InvalidTriangleError",
    "DegenerateAngleError",
    "UndefinedModelAngleError",
    "InverseRangeError",
    "UnreachableError",
    "ResolutionError",
    "TickBoundError",
    "sn",
    "cs",
    "md",
    "md_inverse",
    "f",
    "f_inverse",
    "model_side",
    "angle_from_sides",
]
