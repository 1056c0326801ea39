"""Exception types shared across the package."""


class SparseCurvesError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SparseCurvesError, ValueError):
    """A parameter lies outside the admissible domain (bad alpha, genus too small, ...)."""


class EnumerationCapError(SparseCurvesError):
    """Listing a necklace family would exceed the configured word cap.

    A full family never needs listing: `generate_system` describes it, and its
    totals come from the closed form.
    """


class PrecisionError(SparseCurvesError):
    """A certified comparison stayed undecidable at the maximum working precision."""


class DegenerateGeometryError(SparseCurvesError):
    """The piecewise-linear oracle hit coincident geometry even after perturbation."""


class DocumentError(SparseCurvesError, ValueError):
    """Malformed or inconsistent system document."""
