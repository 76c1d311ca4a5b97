"""Exception types shared across the package."""


class ShortfallError(Exception):
    """Base of every error the package raises on purpose."""


class ParameterError(ShortfallError, ValueError):
    """A parameter violates its constraint; the message names the field."""


class NoDensityError(ShortfallError, ValueError):
    """Raised when a density is requested at an atom of the distribution."""


class InfiniteShortfallError(ShortfallError, ValueError):
    """Raised when the expected shortfall diverges (non-integrable tail)."""


class QuadratureError(ShortfallError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""
