"""Exception types shared across the library."""


class TrigsumError(Exception):
    """Base class for domain errors raised by this package."""


class ExcludedAngle(TrigsumError):
    """Angle too close to a value where the construction degenerates."""


class SingularAngle(TrigsumError):
    """Angle too close to a zero of the sine denominator of a closed form."""


class SingularDenominator(TrigsumError):
    """Closed-form denominator magnitude below the singularity threshold."""


class CountOutOfRange(TrigsumError):
    """Requested segment count outside the available range."""


class DegreeTooLarge(TrigsumError):
    """Polynomial degree above the configured maximum."""


class BadRange(TrigsumError, ValueError):
    """Invalid sampling range."""


class EmptyGrid(TrigsumError):
    """Every grid point of a sweep was guarded out."""
