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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special as sp

from . import rng
from .errors import NoDensityError, ParameterError

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
    "cdf",
    "quantile",
    "density",
    "ar1_path",
    "ar1_paths",
    "spec_to_json",
    "spec_from_json",
    "process_to_json",
    "process_from_json",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ParameterError(f"{field}: {message}")


def _family(cls):
    """Class decorator: ``cdf``, ``quantile``, ``pdf`` and ``tail_quantile`` get
    a float64 array of at least one dimension; a scalar argument gets a float."""
    def array_in_scalar_out(method):
        @functools.wraps(method)
        def wrapper(self, x):
            arr = np.asarray(x, dtype=np.float64)
            out = method(self, np.atleast_1d(arr))
            return float(out[0]) if arr.ndim == 0 else out
        return wrapper

    for name in ("cdf", "quantile", "pdf", "tail_quantile"):
        setattr(cls, name, array_in_scalar_out(vars(cls)[name]))
    return cls


def _check_u(u: np.ndarray) -> None:
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise ParameterError("u: quantile level must lie in [0, 1]")


@_family
@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean ``mu`` and standard deviation ``sigma``."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require(self.sigma > 0.0, "sigma", f"must be > 0 (got {self.sigma})")

    def cdf(self, t):
        return sp.ndtr((t - self.mu) / self.sigma)

    def quantile(self, u):
        _check_u(u)
        if np.any(u == 0.0):
            raise ParameterError("u: quantile(0) undefined for a distribution unbounded below")
        return self.mu + self.sigma * sp.ndtri(u)

    def pdf(self, t):
        z = (t - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (_SQRT_2PI * self.sigma)

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        return self.mu - self.sigma * sp.ndtri(w)


def _t_inverse(nu: float, p: np.ndarray) -> np.ndarray:
    """Inverse Student-t CDF with one Newton polish (stdtrit alone is ~1e-12)."""
    with np.errstate(divide="ignore", over="ignore"):
        q = sp.stdtrit(nu, p)
        lognorm = sp.gammaln((nu + 1.0) / 2.0) - sp.gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi)
        pdf = np.exp(lognorm - ((nu + 1.0) / 2.0) * np.log1p(q * q / nu))
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

    nu: float

    def __post_init__(self):
        _require(self.nu > 0.0, "nu", f"must be > 0 (got {self.nu})")

    def cdf(self, t):
        return sp.stdtr(self.nu, t)

    def quantile(self, u):
        _check_u(u)
        if np.any(u == 0.0):
            raise ParameterError("u: quantile(0) undefined for a distribution unbounded below")
        q = _t_inverse(self.nu, np.minimum(u, 1.0 - 1e-16))
        return np.where(u == 1.0, np.inf, q)

    def pdf(self, t):
        nu = self.nu
        lognorm = sp.gammaln((nu + 1.0) / 2.0) - sp.gammaln(nu / 2.0) - 0.5 * math.log(nu * math.pi)
        return np.exp(lognorm - ((nu + 1.0) / 2.0) * np.log1p(t * t / nu))

    def tail_quantile(self, w):
        """Upper-tail quantile F^{-1}(1 - w), stable for tiny w."""
        return _t_tail(self.nu, w)


@_family
@dataclass(frozen=True)
class Logistic:
    """Logistic distribution with the given location and scale."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        _require(self.scale > 0.0, "scale", f"must be > 0 (got {self.scale})")

    def cdf(self, t):
        return sp.expit((t - self.location) / self.scale)

    def quantile(self, u):
        _check_u(u)
        if np.any(u == 0.0):
            raise ParameterError("u: quantile(0) undefined for a distribution unbounded below")
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
        _check_u(u)
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
        _check_u(u)
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
        _check_u(u)
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
        _check_u(u)
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
        _check_u(u)
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


#: Families whose support is bounded below (quantile(0) = essential infimum).
_BOUNDED_BELOW = (Lognormal, Pareto, Exponential, ScaledBernoulli, AtomMix)

DistributionSpec = (
    Normal | StudentT | Logistic | Lognormal | Pareto | Exponential | ScaledBernoulli | AtomMix
)


@dataclass(frozen=True)
class IID:
    """I.i.d. draws from a single distribution."""

    dist: DistributionSpec


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
    return sample_matrix(spec, np.array([seed & rng.MASK64], dtype=np.uint64), n)[0]


def sample_matrix(spec: DistributionSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    """Row ``b`` is the quantiles of ``rng.uniforms(seeds[b], n)``; shape (len(seeds), n)."""
    if n < 1:
        raise ParameterError(f"n: must be >= 1 (got {n})")
    return spec.quantile(rng.uniform_matrix(seeds, n))


def cdf(spec: DistributionSpec, t):
    """Distribution function P(X <= t)."""
    return spec.cdf(t)


def quantile(spec: DistributionSpec, u):
    """Generalized inverse ``inf{t : F(t) >= u}`` for ``u`` in (0, 1].

    ``u = 0`` returns the support infimum for bounded-below families and
    raises for families unbounded below (where the inverse is -inf).
    """
    return spec.quantile(u)


def density(spec: DistributionSpec, t):
    """Density value at ``t``; raises :class:`NoDensityError` at atoms."""
    return spec.pdf(t)


def _ar1_from_innovations(rho: float, z: np.ndarray) -> np.ndarray:
    # X_1 = Z_1 (stationary start), X_t = rho*X_{t-1} + sqrt(1-rho^2)*Z_t.
    from scipy import signal  # deferred: importing scipy.signal loads scipy.stats and more
    w = z * math.sqrt(1.0 - rho * rho)
    w[..., 0] = z[..., 0]
    return signal.lfilter([1.0], [1.0, -rho], w, axis=-1)


def ar1_path(rho: float, n: int, seed: int) -> np.ndarray:
    """Stationary standard-normal AR(1) path of length ``n``."""
    return ar1_paths(rho, np.array([seed & rng.MASK64], dtype=np.uint64), n)[0]


def ar1_paths(rho: float, seeds: np.ndarray, n: int) -> np.ndarray:
    """Row ``b`` is the path driven by ``rng.uniforms(seeds[b], n)``; shape (len(seeds), n)."""
    _require(abs(rho) < 1.0, "rho", f"must satisfy |rho| < 1 (got {rho})")
    if n < 1:
        raise ParameterError(f"n: must be >= 1 (got {n})")
    z = sp.ndtri(rng.uniform_matrix(seeds, n))
    return _ar1_from_innovations(rho, z)


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
    params = {f.name: float(getattr(spec, f.name)) for f in fields(spec)}
    return {"family": _NAME_BY_FAMILY[type(spec)], "params": params}


def spec_from_json(obj: dict) -> DistributionSpec:
    try:
        cls = _FAMILY_BY_NAME[obj["family"]]
    except KeyError as exc:
        raise ParameterError(f"family: unknown distribution {obj.get('family')!r}") from exc
    params = obj.get("params", {})
    known = {f.name for f in fields(cls)}
    bad = set(params) - known
    if bad:
        raise ParameterError(f"params: unknown field(s) {sorted(bad)} for {obj['family']}")
    return cls(**{k: float(v) for k, v in params.items()})


def process_to_json(process: ProcessSpec) -> dict:
    if isinstance(process, IID):
        return {"kind": "iid", "dist": spec_to_json(process.dist)}
    return {"kind": "ar1", "rho": float(process.rho)}


def process_from_json(obj: dict) -> ProcessSpec:
    kind = obj.get("kind")
    if kind == "iid":
        return IID(spec_from_json(obj["dist"]))
    if kind == "ar1":
        return AR1(float(obj["rho"]))
    raise ParameterError(f"kind: unknown process {kind!r}")
