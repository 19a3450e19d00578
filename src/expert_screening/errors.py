"""Exception types shared across the package."""


class ScreeningError(Exception):
    """Base class for all package-specific errors."""


class LengthMismatch(ScreeningError):
    """Vectors defined over different state spaces."""


class NegativeEntry(ScreeningError):
    """A probability vector has an entry below -1e-12."""


class NotNormalized(ScreeningError):
    """A probability vector does not sum to 1 within tolerance."""


class IndexOutOfRange(ScreeningError):
    """State index outside the state space."""


class ResolutionTooLarge(ScreeningError):
    """A grid, a face enumeration or the ball sampler would exceed its cap."""


class EmptySet(ScreeningError):
    """Plausible set is empty after intersecting with the simplex."""


class DegenerateWitnesses(ScreeningError):
    """Contract witnesses coincide; a margin cannot be derived."""


class InvalidGamma(ScreeningError):
    """Comparative-contract margin outside the admissible open interval."""


class InvalidRadii(ScreeningError):
    """Ball radii violate the required strict ordering."""


class InvalidScenario(ScreeningError):
    """Scenario file failed validation; message names the offending field."""
