"""Loss-distribution catalog.

Each family provides a CDF, a generalized-inverse quantile function
(``quantile(u) = inf{t : F(t) >= u}``), a density where one exists, and exact
inverse-transform sampling driven by the counter-based uniform stream from
:mod:`shortfall.rng`.  Sampling every family through its quantile function
keeps a single code path and makes draws reproducible bit-for-bit from the
seed alone.

Families with closed-form quantiles use them directly; the normal and
Student-t quantiles are evaluated with scipy's deterministic special-function
inverses (``ndtri`` / ``stdtrit``).

This module is the one place that names scipy, and it loads each scipy
module on first use (:func:`_lazy`).  ``sp`` (``scipy.special``) runs the
first time one of its attributes is read, and is the real module from then
on; ``scipy.signal`` is named only when an AR(1) path is filtered.
Importing :mod:`shortfall` loads neither, and a run that needs no special
function (the estimators; the Pareto, Exponential and atom families, whose
closed forms use numpy alone) never loads them.  The Monte Carlo engine
draws trial 0 in the parent process, so a pool's workers inherit what a run
loads (see :mod:`shortfall.mc`).
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import ClassVar

import numpy as np

from . import rng
from .errors import NoDensityError, ParameterError, check_fields, checked_numbers, json_object

__all__ = [
    "Normal",
    "StudentT",
    "Logistic",
    "Lognormal",
    "Pareto",
    "Exponential",
    "ScaledBernoulli",
    "AtomMix",
    "IID",
    "AR1",
    "sample",
    "ar1_path",
    "ar1_paths",
    "spec_to_json",
    "spec_from_json",
    "process_to_json",
    "process_from_json",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _lazy(name: str):
    """The module ``name``, run when one of its attributes is first read (stdlib LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


sp = _lazy("scipy.special")


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ParameterError(f"{field}: {message}")


def _family(cls):
    """Class decorator: the one home of the rules every family shares.

    Parameters are numbers; ``cdf``, ``quantile``, ``pdf`` and ``tail_quantile``
    get a float64 array of at least one dimension; a scalar argument gets a
    float.  ``quantile(0)`` is the support infimum, and raises for a family
    declared ``unbounded_below`` (the inverse is -inf there), as does any level
    outside [0, 1].  NaN levels and empty arrays pass.

    A family declared ``has_atoms`` puts mass on single points: distinct
    levels can map to one value.  A family declared ``iterative_quantile``
    inverts its cdf numerically.  :mod:`shortfall.mc` reads both traits to
    route its trials.
    """
    cls = checked_numbers(cls)
    cls.has_atoms = getattr(cls, "has_atoms", False)
    cls.iterative_quantile = getattr(cls, "iterative_quantile", False)
    unbounded_below = getattr(cls, "unbounded_below", False)
    quantile = vars(cls)["quantile"]

    @functools.wraps(quantile)
    def checked_quantile(self, u):
        if u.size:  # fmin and fmax skip NaN
            lowest = np.fmin.reduce(u, axis=None)
            if lowest < 0.0 or np.fmax.reduce(u, axis=None) > 1.0:
                raise ParameterError("u: quantile level must lie in [0, 1]")
            if unbounded_below and lowest == 0.0:
                raise ParameterError("u: quantile(0) undefined for a distribution unbounded below")
        return quantile(self, u)

    def array_in_scalar_out(method):
        @functools.wraps(method)
        def wrapper(self, x):
            arr = np.asarray(x, dtype=np.float64)
            out = method(self, np.atleast_1d(arr))
            return float(out[0]) if arr.ndim == 0 else out
        return wrapper

    cls.quantile = checked_quantile
    for name in ("cdf", "quantile", "pdf", "tail_quantile"):
        setattr(cls, name, array_in_scalar_out(vars(cls)[name]))
    return cls


@_family
@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    unbounded_below: ClassVar[bool] = True
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require(self.sigma > 0.0, "sigma", f"must be > 0 (got {self.sigma})")

    def cdf(self, t):
        return sp.ndtr((t - self.mu) / self.sigma)

    def quantile(self, u):
        return self.mu + self.sigma * sp.ndtri(u)

    def pdf(self, t):
        z = (t - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (_SQRT_2PI * self.sigma)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        return self.mu - self.sigma * sp.ndtri(w)


def _t_pdf(nu: float, t: np.ndarray) -> np.ndarray:
    lognorm = sp.gammaln((nu + 1.0) / 2.0) - sp.gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi)
    return np.exp(lognorm - ((nu + 1.0) / 2.0) * np.log1p(t * t / nu))


def _t_inverse(nu: float, p: np.ndarray) -> np.ndarray:
    """Inverse Student-t CDF with one Newton polish (stdtrit alone is ~1e-12)."""
    with np.errstate(divide="ignore", over="ignore"):
        q = sp.stdtrit(nu, p)
        pdf = _t_pdf(nu, q)
        residual = sp.stdtr(nu, q) - p
        polished = np.where(pdf > 1e-280, q - residual / np.maximum(pdf, 1e-280), q)
    return polished


def _t_tail(nu: float, w: np.ndarray) -> np.ndarray:
    """Student-t F^{-1}(1 - w), finite and accurate down to w = 1e-300.

    Where x = nu/(nu + t^2) < 1e-9, ``stdtrit`` loses accuracy and then
    range.  There the tail series 2w = x^a sqrt(1 - x) (1 + (a + 1/2)/(a + 1) x
    + O(x^2)) / (a B(a, 1/2)), a = nu/2, is inverted with its O(x) factor
    taken at the leading-order x; t = sqrt(nu (1 - x) / x) comes from powers
    of 2w, which keeps the error near the 1e-14 that rounding 1/nu alone
    causes at w = 1e-300.
    """
    a = 0.5 * nu
    scale = a * sp.beta(a, 0.5)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (2.0 * w * scale) ** (1.0 / a)
        factor = np.sqrt(1.0 - x) * (1.0 + (a + 0.5) / (a + 1.0) * x)
        far = np.sqrt(nu * (1.0 - x)) * (2.0 * w) ** (-1.0 / nu) * (scale / factor) ** (-1.0 / nu)
        return np.where(x < 1e-9, far, -_t_inverse(nu, w))


@_family
@dataclass(frozen=True)
class StudentT:
    """Student-t distribution with ``nu`` degrees of freedom (location 0, scale 1)."""

    unbounded_below: ClassVar[bool] = True
    iterative_quantile: ClassVar[bool] = True  # stdtrit and a Newton polish
    nu: float

    def __post_init__(self):
        _require(self.nu > 0.0, "nu", f"must be > 0 (got {self.nu})")

    def cdf(self, t):
        return sp.stdtr(self.nu, t)

    def quantile(self, u):
        q = _t_inverse(self.nu, np.minimum(u, 1.0 - 1e-16))
        return np.where(u == 1.0, np.inf, q)

    def pdf(self, t):
        return _t_pdf(self.nu, t)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        return _t_tail(self.nu, w)


@_family
@dataclass(frozen=True)
class Logistic:
    """Logistic distribution with the given location and scale."""

    unbounded_below: ClassVar[bool] = True
    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _require(self.scale > 0.0, "scale", f"must be > 0 (got {self.scale})")

    def cdf(self, t):
        return sp.expit((t - self.location) / self.scale)

    def quantile(self, u):
        with np.errstate(divide="ignore"):
            return self.location + self.scale * (np.log(u) - np.log1p(-u))

    def pdf(self, t):
        z = np.abs(t - self.location) / self.scale
        e = np.exp(-z)
        return e / (self.scale * (1.0 + e) ** 2)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        with np.errstate(divide="ignore"):
            return self.location + self.scale * (np.log1p(-w) - np.log(w))


@_family
@dataclass(frozen=True)
class Lognormal:
    """Lognormal: exp(N(mu, sigma^2)); support (0, inf)."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require(self.sigma > 0.0, "sigma", f"must be > 0 (got {self.sigma})")

    def cdf(self, t):
        out = np.zeros_like(t)
        pos = t > 0.0
        out[pos] = sp.ndtr((np.log(t[pos]) - self.mu) / self.sigma)
        return out

    def quantile(self, u):
        with np.errstate(divide="ignore"):
            return np.exp(self.mu + self.sigma * sp.ndtri(u))

    def pdf(self, t):
        out = np.zeros_like(t)
        pos = t > 0.0
        z = (np.log(t[pos]) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (_SQRT_2PI * self.sigma * t[pos])
        return out

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        with np.errstate(over="ignore"):
            return np.exp(self.mu - self.sigma * sp.ndtri(w))


@_family
@dataclass(frozen=True)
class Pareto:
    """Pareto distribution: F(t) = 1 - (x0/t)^lam on [x0, inf)."""

    x0: float
    lam: float

    def __post_init__(self):
        _require(self.x0 > 0.0, "x0", f"must be > 0 (got {self.x0})")
        _require(self.lam > 0.0, "lam", f"must be > 0 (got {self.lam})")

    def cdf(self, t):
        out = np.zeros_like(t)
        inside = t >= self.x0
        out[inside] = 1.0 - (self.x0 / t[inside]) ** self.lam
        return out

    def quantile(self, u):
        out = 1.0 - u  # one buffer for the whole transform; u is left alone
        with np.errstate(divide="ignore"):
            np.power(out, -1.0 / self.lam, out=out)
        out *= self.x0
        return out

    def pdf(self, t):
        out = np.zeros_like(t)
        inside = t >= self.x0
        out[inside] = self.lam * self.x0**self.lam * t[inside] ** (-self.lam - 1.0)
        return out

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        with np.errstate(divide="ignore", over="ignore"):
            return self.x0 * w ** (-1.0 / self.lam)


@_family
@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given rate; support [0, inf)."""

    rate: float = 1.0

    def __post_init__(self):
        _require(self.rate > 0.0, "rate", f"must be > 0 (got {self.rate})")

    def cdf(self, t):
        return np.where(t >= 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)), 0.0)

    def quantile(self, u):
        with np.errstate(divide="ignore"):
            return -np.log1p(-u) / self.rate

    def pdf(self, t):
        return np.where(t >= 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)), 0.0)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        with np.errstate(divide="ignore"):
            return -np.log(w) / self.rate


@_family
@dataclass(frozen=True)
class ScaledBernoulli:
    """Two-point law: mass 1-p at 0 and mass p at x > 0."""

    has_atoms: ClassVar[bool] = True
    p: float
    x: float

    def __post_init__(self):
        _require(0.0 <= self.p <= 1.0, "p", f"must lie in [0, 1] (got {self.p})")
        _require(self.x > 0.0, "x", f"must be > 0 (got {self.x})")

    def cdf(self, t):
        return np.where(t < 0.0, 0.0, np.where(t < self.x, 1.0 - self.p, 1.0))

    def quantile(self, u):
        # Generalized inverse of the two-step CDF; quantile(0) is the support
        # infimum (0, or x when p = 1).
        out = np.where(u > 1.0 - self.p, self.x, 0.0)
        if self.p >= 1.0:
            out = np.full_like(out, self.x)
        return out

    def pdf(self, t):
        raise NoDensityError("ScaledBernoulli is atomic: no density exists")

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w)."""
        out = np.where(w < self.p, self.x, 0.0)
        if self.p >= 1.0:
            out = np.full_like(out, self.x)
        return out


@_family
@dataclass(frozen=True)
class AtomMix:
    """Atom/uniform mixture used as a zero-variance fixture.

    Mass ``1 - alpha - delta`` at ``x0 < 0``, mass ``alpha`` at 0, and uniform
    density ``delta/|x0|`` on ``(x0, 0)``.
    """

    has_atoms: ClassVar[bool] = True
    x0: float
    alpha: float
    delta: float

    def __post_init__(self):
        _require(self.x0 < 0.0, "x0", f"must be < 0 (got {self.x0})")
        _require(0.0 <= self.alpha <= 1.0, "alpha", f"must lie in [0, 1] (got {self.alpha})")
        _require(0.0 <= self.delta <= 1.0, "delta", f"must lie in [0, 1] (got {self.delta})")
        _require(self.alpha + self.delta < 1.0, "alpha",
                 f"alpha + delta must be < 1 (got {self.alpha + self.delta})")

    def cdf(self, t):
        base = 1.0 - self.alpha - self.delta
        ramp = base + self.delta * (t - self.x0) / abs(self.x0)
        return np.where(t < self.x0, 0.0, np.where(t < 0.0, ramp, 1.0))

    def quantile(self, u):
        base = 1.0 - self.alpha - self.delta
        with np.errstate(invalid="ignore", divide="ignore"):
            ramp = self.x0 + (u - base) * abs(self.x0) / self.delta
        return np.where(u <= base, self.x0, np.where(u <= 1.0 - self.alpha, ramp, 0.0))

    def pdf(self, t):
        at_atom = (t == self.x0) | (t == 0.0)
        if np.any(at_atom):
            raise NoDensityError("AtomMix has atoms at x0 and 0: no density there")
        return np.where((t > self.x0) & (t < 0.0), self.delta / abs(self.x0), 0.0)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            ramp = self.x0 + (self.alpha + self.delta - w) * abs(self.x0) / self.delta
        return np.where(w <= self.alpha, 0.0,
                        np.where(w <= self.alpha + self.delta, ramp, self.x0))


DistributionSpec = (
    Normal | StudentT | Logistic | Lognormal | Pareto | Exponential | ScaledBernoulli | AtomMix
)


@dataclass(frozen=True)
class IID:
    """I.i.d. draws from a single distribution."""

    dist: DistributionSpec


@checked_numbers
@dataclass(frozen=True)
class AR1:
    """Stationary Gaussian AR(1): X_t = rho*X_{t-1} + sqrt(1-rho^2)*Z_t.

    The marginal law is standard normal for every t; geometrically beta-mixing
    with rate |rho|.
    """

    rho: float

    def __post_init__(self):
        _require(abs(self.rho) < 1.0, "rho", f"must satisfy |rho| < 1 (got {self.rho})")

    @property
    def marginal(self) -> Normal:
        return Normal(0.0, 1.0)


ProcessSpec = IID | AR1


def sample(spec: DistributionSpec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values by inverse transform of the seeded uniform stream.

    Identical ``(spec, n, seed)`` triples give bit-identical output.
    """
    return sample_matrix(spec, rng.seed_row(seed), n)[0]


def sample_matrix(spec: DistributionSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    """Row ``b`` is the quantiles of ``rng.uniforms(seeds[b], n)``; shape (len(seeds), n)."""
    _require(n >= 1, "n", f"must be >= 1 (got {n})")
    return spec.quantile(rng.uniform_matrix(seeds, n))


def ar1_path(rho: float, n: int, seed: int) -> np.ndarray:
    """Stationary standard-normal AR(1) path of length ``n``."""
    return ar1_paths(rho, rng.seed_row(seed), n)[0]


def ar1_paths(rho: float, seeds: np.ndarray, n: int) -> np.ndarray:
    """Row ``b`` is the path driven by ``rng.uniforms(seeds[b], n)``; shape (len(seeds), n)."""
    _require(abs(rho) < 1.0, "rho", f"must satisfy |rho| < 1 (got {rho})")
    _require(n >= 1, "n", f"must be >= 1 (got {n})")
    z = sp.ndtri(rng.uniform_matrix(seeds, n))
    # X_1 = Z_1 (stationary start), X_t = rho*X_{t-1} + sqrt(1-rho^2)*Z_t.
    w = z * math.sqrt(1.0 - rho * rho)
    w[..., 0] = z[..., 0]
    # scipy.signal loads scipy.stats and more: only an AR(1) path names it
    return _lazy("scipy.signal").lfilter([1.0], [1.0, -rho], w, axis=-1)


# --- JSON wire format -------------------------------------------------------

_FAMILY_BY_NAME = {
    "normal": Normal,
    "student_t": StudentT,
    "logistic": Logistic,
    "lognormal": Lognormal,
    "pareto": Pareto,
    "exponential": Exponential,
    "scaled_bernoulli": ScaledBernoulli,
    "atom_mix": AtomMix,
}
_NAME_BY_FAMILY = {cls: name for name, cls in _FAMILY_BY_NAME.items()}


def spec_to_json(spec: DistributionSpec) -> dict:
    """Serialize to ``{"family": ..., "params": {...}}``."""
    params = {f.name: getattr(spec, f.name) for f in fields(spec)}
    return {"family": _NAME_BY_FAMILY[type(spec)], "params": params}


def spec_from_json(obj: dict) -> DistributionSpec:
    check_fields(obj, ("family", "params"), "distribution")
    try:
        cls = _FAMILY_BY_NAME[obj["family"]]
    except KeyError as exc:
        raise ParameterError(f"family: unknown distribution {obj.get('family')!r}") from exc
    params = obj.get("params", {})
    check_fields(params, [f.name for f in fields(cls)], f"{obj['family']} params")
    # a parameter without a default is read as params[name]: its KeyError names it
    return cls(**{f.name: params[f.name] for f in fields(cls)
                  if f.default is MISSING or f.name in params})


def process_to_json(process: ProcessSpec) -> dict:
    if isinstance(process, IID):
        return {"kind": "iid", "dist": spec_to_json(process.dist)}
    return {"kind": "ar1", "rho": process.rho}


def process_from_json(obj: dict) -> ProcessSpec:
    kind = json_object(obj, "process").get("kind")
    if kind == "iid":
        check_fields(obj, ("kind", "dist"), "iid process")
        return IID(spec_from_json(obj["dist"]))
    if kind == "ar1":
        check_fields(obj, ("kind", "rho"), "ar1 process")
        return AR1(obj["rho"])
    raise ParameterError(f"kind: unknown process {kind!r}")
