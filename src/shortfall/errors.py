"""Exception types shared across the package, and the checks its JSON readers share."""


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


def json_object(obj, where: str) -> dict:
    """``obj``, which its reader requires to be a JSON object."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where}: expected an object (got {obj!r})")
    return obj


def check_fields(obj, known, where: str) -> None:
    """Reject a JSON object with a key that its reader does not know."""
    unknown = sorted(set(json_object(obj, where)) - set(known))
    if unknown:
        raise ParameterError(f"{where}: unknown field(s) {unknown}")
