"""Exception types raised by the library."""


class DesorbError(Exception):
    """Base class for all library errors."""


class AngleOutOfRange(DesorbError):
    """Relative rotation angle too close to pi for the principal log branch."""


class NegativeEnergy(DesorbError):
    """Kinetic energy must be nonnegative."""


class NonFinite(DesorbError):
    """An input field or table holds NaN or infinity."""


class NotUnit(DesorbError):
    """Direction vector is not normalized."""


class DegenerateMesh(DesorbError):
    """Mesh has zero-area faces, inverted or inconsistent orientation."""


class QuadratureNotConverged(DesorbError):
    """Refining the quadrature still changes the result above tolerance."""


class RateOutOfBounds(DesorbError, ValueError):
    """A localization rate below 0 or above twice the emission rate."""


class CoincidentPoints(DesorbError):
    """Green function evaluated at source point."""


class ZeroNorm(DesorbError):
    """Amplitude normalization integral underflows."""


class BlockTooLarge(DesorbError):
    """A Monte Carlo block would draw more events than it may hold, or a
    quadrature order is past the bound that caps the memory it sizes."""


class ConfigError(DesorbError):
    """Invalid run configuration."""
