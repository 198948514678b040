"""Exception types shared across the package."""


class QhScatterError(Exception):
    """Base class for all package-specific errors."""


class BandError(QhScatterError, ValueError):
    """Energy or angle outside the open lattice band (0, pi)."""


class WindowError(QhScatterError, ValueError):
    """Site window too small for the requested object, or shape mismatch."""


class PositivityError(QhScatterError, ValueError):
    """Coupling outside (-1, 1); the diagonal metric would lose positivity."""


class DomainError(QhScatterError, ValueError):
    """Operation called outside its parameter domain."""


class ResonanceError(QhScatterError, RuntimeError):
    """Matching system singular or numerically unusable."""
