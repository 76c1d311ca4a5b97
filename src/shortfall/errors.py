"""Exception types shared across the package, and the checks its configs and readers share."""

import dataclasses
import numbers


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


def number(value, where: str) -> float:
    """``value`` as a float, never from a bool or a string; inf and NaN pass on to range checks."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{where}: must be a number (got {value!r})")
    return float(value)


def integer(value, where: str) -> int:
    """``value`` as an int: a whole number, which JSON may write as a float (``1e5``)."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ParameterError(f"{where}: must be an integer (got {value!r})")
    return int(value)


def sequence(value, where: str) -> tuple:
    """``value`` as a tuple: a JSON list, a tuple, a set or an array, never a string or a dict."""
    if not isinstance(value, (str, bytes, dict)):
        try:
            return tuple(value)
        except TypeError:  # not iterable: a number, or a 0-d array
            pass
    raise ParameterError(f"{where}: must be a list (got {value!r})")


def checked_numbers(cls):
    """Dataclass decorator: before ``__post_init__``, ``int`` fields pass :func:`integer` and
    ``float`` fields :func:`number`, named by ``metadata["key"]`` (a JSON key) if set."""
    rules = [(f.name, f.metadata.get("key", f.name), {"int": integer, "float": number}[f.type])
             for f in dataclasses.fields(cls) if f.type in ("int", "float")]
    post_init = vars(cls)["__post_init__"]

    def __post_init__(self):
        for name, key, rule in rules:
            object.__setattr__(self, name, rule(getattr(self, name), key))
        post_init(self)

    cls.__post_init__ = __post_init__
    return cls


def check_alpha(alpha) -> float:
    """Validate the risk level: 0 < alpha < 1/2."""
    alpha = number(alpha, "alpha")
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"alpha: must lie in (0, 1/2) (got {alpha})")
    return alpha
