"""Exception types raised by the geometric kernels and space machinery."""


class GeometryError(ValueError):
    """Base class for all alexkit domain errors."""


class TrigDomainError(GeometryError):
    """Input outside the validity window of a model-surface function.

    Raised e.g. when the generalized sine vanishes or goes negative for the
    requested curvature, or when a hinge is too large to close up on the
    sphere.
    """


class InvalidTriangleError(GeometryError):
    """Side lengths violate the triangle inequality or are not finite."""


class DegenerateAngleError(GeometryError):
    """Angle requested at a vertex with a zero-length adjacent side."""


class UndefinedModelAngleError(GeometryError):
    """No model triangle exists: positive curvature and perimeter >= 2*pi/sqrt(kappa).

    Callers that evaluate comparison conditions treat this case as vacuous,
    which is why it is distinct from :class:`InvalidTriangleError`.
    """


class InverseRangeError(GeometryError):
    """Target value outside the image of the bracketed monotone function."""

    def __init__(self, message, bracket=None, values=None):
        super().__init__(message)
        self.bracket = bracket
        self.values = values


class UnreachableError(GeometryError):
    """Requested endpoints are not connected in the requested subgraph."""


class ResolutionError(GeometryError):
    """Mesh too coarse for the requested operation."""


class TickBoundError(GeometryError):
    """A geodesic would be sampled at more points than the fixed bound allows."""
