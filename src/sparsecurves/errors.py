"""Exception types shared across the package."""


class SparseCurvesError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SparseCurvesError, ValueError):
    """A parameter lies outside the admissible domain (bad alpha, genus too small, ...)."""


class PrecisionError(SparseCurvesError):
    """A certified comparison stayed undecidable at the maximum working precision."""


class DegenerateGeometryError(SparseCurvesError):
    """The piecewise-linear oracle hit coincident geometry even after perturbation."""


class DocumentError(SparseCurvesError, ValueError):
    """Malformed or inconsistent system document."""
