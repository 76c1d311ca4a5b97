"""Analytic and quadrature-based ground truth for the tail-risk functionals.

Three independent routes to the expected shortfall at level ``alpha``:

* :func:`es_exact` -- closed forms where the family admits one, otherwise the
  u-space quadrature below at tolerance 1e-10;
* :func:`es_by_quadrature` -- (1/alpha) * integral of the quantile function
  over (1-alpha, 1), evaluated after the substitution u = 1 - alpha*s**kappa
  (which concentrates nodes at the tail singularity) with adaptive panel
  bisection;
* :func:`es_by_distortion` -- q + (1/alpha) * integral of 1 - F(t) over t > q,
  a cdf-based cross-check oracle on the same engine (no ``scipy.integrate``).

Also provided: the asymptotic standard deviation ``sigma_es`` of the plug-in
estimator (from the first two tail moments of the excess over the
(1-alpha)-quantile, on the same u-space engine as ``es_by_quadrature``) and
the local Lipschitz constant ``lipschitz_D`` of the quantile function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    AtomMix,
    DistributionSpec,
    Exponential,
    Logistic,
    Lognormal,
    Normal,
    Pareto,
    ScaledBernoulli,
    StudentT,
    sp,
    spec_to_json,
)
from .errors import InfiniteShortfallError, ParameterError, QuadratureError, check_alpha

__all__ = [
    "VarianceResult",
    "es_exact",
    "es_by_quadrature",
    "es_by_distortion",
    "sigma_es",
    "lipschitz_D",
    "TABLE1_CATALOG",
    "table1_rows",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

_ES_TOL = 1e-10  # absolute, of the two quadrature ES routes
_SIGMA_TOL = 1e-6  # relative, of sigma_es


@dataclass(frozen=True)
class VarianceResult:
    """Asymptotic standard deviation of the plug-in estimator.

    ``value`` is sigma (``math.inf`` when the tail is not square-integrable);
    ``abs_error_bound`` is an absolute numerical-error bound on sigma, and is
    exactly 0 when divergence was decided analytically.
    """

    value: float
    abs_error_bound: float

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)

    @property
    def variance(self) -> float:
        return self.value * self.value


def _tail_index(spec: DistributionSpec) -> float:
    """Power-law tail index (Pareto lam, Student-t nu); inf for lighter tails."""
    if isinstance(spec, Pareto):
        return spec.lam
    if isinstance(spec, StudentT):
        return spec.nu
    return math.inf


def _square_integrable(spec: DistributionSpec) -> bool:
    return _tail_index(spec) > 2.0


def _require_finite_es(spec: DistributionSpec) -> None:
    if _tail_index(spec) <= 1.0:
        raise InfiniteShortfallError(
            f"infinite ES: {type(spec).__name__} tail index <= 1 has a non-integrable tail"
        )


# --- expected shortfall ------------------------------------------------------


def es_exact(spec: DistributionSpec, alpha: float) -> float:
    """Expected shortfall ES_alpha, by closed form where one is known.

    Families without a closed form (Student-t, Logistic) delegate to
    :func:`es_by_quadrature`.
    """
    alpha = check_alpha(alpha)
    _require_finite_es(spec)
    if isinstance(spec, ScaledBernoulli):
        return spec.x * min(1.0, spec.p / alpha)
    if isinstance(spec, Pareto):
        return spec.x0 * spec.lam / (alpha ** (1.0 / spec.lam) * (spec.lam - 1.0))
    if isinstance(spec, Exponential):
        return (1.0 - math.log(alpha)) / spec.rate
    if isinstance(spec, Normal):
        z = sp.ndtri(1.0 - alpha)
        return spec.mu + spec.sigma * math.exp(-0.5 * z * z) / (_SQRT_2PI * alpha)
    if isinstance(spec, Lognormal):
        z = sp.ndtri(1.0 - alpha)
        return math.exp(spec.mu + 0.5 * spec.sigma**2) * sp.ndtr(spec.sigma - z) / alpha
    if isinstance(spec, AtomMix):
        am, dm = spec.alpha, spec.delta
        if alpha <= am:
            return 0.0
        if alpha <= am + dm:
            return spec.x0 * (alpha - am) ** 2 / (2.0 * alpha * dm)
        return spec.x0 * ((alpha - am - dm) + 0.5 * dm) / alpha
    return es_by_quadrature(spec, alpha)


_MAX_PANELS, _MAX_ROUNDS = 16384, 120
_UNIT_EDGES = np.linspace(0.0, 1.0, 9)  # eight equal panels on (0, 1)
_GRADED_EDGES = np.r_[0.0, 0.5 ** np.arange(14, -1, -1)]  # see es_by_distortion


@functools.cache
def _gauss_rules():
    """The Gauss-Legendre 10- and 21-point rules: their nodes in one row, then each rule's weights."""
    (xs_l, ws_l), (xs_h, ws_h) = (np.polynomial.legendre.leggauss(n) for n in (10, 21))
    return np.concatenate([xs_l, xs_h]), ws_l, ws_h


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray):
    """High/low Gauss estimates on the panels [lo, hi], from one call of f on both rules' nodes."""
    nodes, ws_l, ws_h = _gauss_rules()
    half = 0.5 * (hi - lo)
    fx = f((0.5 * (lo + hi))[:, None] + half[:, None] * nodes)
    low = half * (fx[:, :len(ws_l)] @ ws_l)
    high = half * (fx[:, len(ws_l):] @ ws_h)
    return high, np.abs(high - low)


def _adaptive_gauss(f, edges: np.ndarray, tol: float) -> float:
    """Adaptive bisection with per-panel Gauss 10/21 error estimates.

    Starts from the panels between consecutive ``edges`` and splits every
    panel whose local error exceeds its share of ``tol`` until the summed
    error estimate is below ``tol``; each round calls ``f`` once.
    """
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, lo, hi)
    for _ in range(_MAX_ROUNDS):
        total_err = errs.sum()
        if total_err <= tol:
            return float(vals.sum())
        if not math.isfinite(total_err):
            raise QuadratureError(
                f"adaptive quadrature: the integrand is not finite on [{edges[0]:g}, {edges[-1]:g}]")
        if len(lo) > _MAX_PANELS:
            break
        bad = errs > tol / (2.0 * len(lo))
        if not bad.any():
            bad = errs == errs.max()
        mids = 0.5 * (lo[bad] + hi[bad])
        new_lo, new_hi = np.concatenate([lo[bad], mids]), np.concatenate([mids, hi[bad]])
        new_v, new_e = _panel_rule(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[~bad], new_lo]), np.concatenate([hi[~bad], new_hi])
        vals = np.concatenate([vals[~bad], new_v])
        errs = np.concatenate([errs[~bad], new_e])
    raise QuadratureError(
        f"adaptive quadrature did not reach tol={tol:g} "
        f"(error estimate {errs.sum():.3g} with {len(lo)} panels)"
    )


def _tail_kappa(spec: DistributionSpec, p: int = 1) -> float:
    # Power of the node-concentrating substitution for the p-th tail moment;
    # the p-th power of a tail with index lam has index lam/p.  Higher for
    # heavier tails so the transformed integrand stays smooth at s = 0.
    tail_index = _tail_index(spec) / p
    if 1.0 < tail_index < math.inf:
        return max(6.0, math.ceil(2.0 * tail_index / (tail_index - 1.0)))
    return 6.0


# Smallest tail probability the integrand evaluates; far below it Student-t
# tail quantiles lose accuracy.
_W_MIN = 1e-100


def _tail_moment(spec: DistributionSpec, alpha: float, tol: float,
                 p: int = 1, shift: float = 0.0) -> float:
    """(1/alpha) * integral over w in (0, alpha) of (F^{-1}(1-w) - shift)**p.

    Substituting w = alpha*s**kappa gives kappa * integral over s in (0,1) of
    (F^{-1}(1 - alpha*s**kappa) - shift)**p * s**(kappa-1), which tames the
    w -> 0 blow-up; it is evaluated by adaptive panel bisection to absolute
    error ``tol``.  Below w = _W_MIN the integrand is held at its value there;
    under a power tail of index t = lam/p the integral over (0, _W_MIN) is
    t/(t - 1) times that flat part, so the missing 1/(t - 1) share is added
    in closed form (zero for lighter tails).
    """
    kappa = _tail_kappa(spec, p)

    def integrand(s):
        w = np.maximum(alpha * s**kappa, _W_MIN)
        return kappa * (spec.tail_quantile(w) - shift) ** p * s ** (kappa - 1.0)

    flat = _W_MIN * (spec.tail_quantile(_W_MIN) - shift) ** p / alpha
    return _adaptive_gauss(integrand, _UNIT_EDGES, tol) + flat / (_tail_index(spec) / p - 1.0)


def es_by_quadrature(spec: DistributionSpec, alpha: float) -> float:
    """ES_alpha as (1/alpha) * integral of VaR_u over (1-alpha, 1), to 1e-10 absolute.

    This is the first tail moment of :func:`_tail_moment`, whose substitution
    u = 1 - alpha*s**kappa concentrates nodes at the u -> 1 singularity.
    """
    alpha = check_alpha(alpha)
    _require_finite_es(spec)
    return _tail_moment(spec, alpha, _ES_TOL)


def es_by_distortion(spec: DistributionSpec, alpha: float) -> float:
    """ES_alpha = q + (1/alpha) * integral of 1 - F(t) over t > q, q = VaR_alpha.

    The integrand calls only ``cdf``; the quantile function places q and
    top = F^{-1}(1 - alpha*max(1e4**-lam, 1e-14)), lam the tail index.  Beyond
    top, where 1 - F is lost to rounding, the power tail adds
    top*(1 - F(top))/(lam - 1) in closed form (0 for lighter tails).  The
    integral starts from 15 panels graded geometrically from q toward top,
    q + (top - q)*2**-j for j = 14 ... 0, so a power tail, which falls off
    near q, converges in one or two rounds.  Its absolute tolerance is
    1e-10 * alpha*max(1, |q|).  Where 1 - F cancels to rounding below top it raises
    QuadratureError: at alpha <= 1e-4 on Pareto(1, lam) for lam in {1.5, 2, 2.2} and on
    Student-t(2.5), at 1e-6 on Student-t(5) and Pareto(1, 4), at any alpha on Lognormal(0, 3).
    """
    alpha = check_alpha(alpha)
    _require_finite_es(spec)
    lam = _tail_index(spec)
    q = spec.tail_quantile(alpha)
    top = spec.tail_quantile(alpha * max(1e4**-lam, 1e-14))

    def survival(t):
        return 1.0 - spec.cdf(t)

    edges = q + (top - q) * _GRADED_EDGES
    body = _adaptive_gauss(survival, edges, _ES_TOL * alpha * max(1.0, abs(q)))
    tail = top * survival(top) / (lam - 1.0)
    return q + (body + tail) / alpha


# --- asymptotic variance -----------------------------------------------------


def sigma_es(spec: DistributionSpec, alpha: float) -> VarianceResult:
    """Asymptotic standard deviation sigma_ES of the plug-in estimator.

    sigma^2 = Var((X - q)^+)/alpha^2 = m2/alpha - m1^2, where q is the
    (1-alpha)-quantile and m_p the conditional p-th moment of the excess
    e(w) = F^{-1}(1-w) - q over the upper-alpha tail, both from
    :func:`_tail_moment`, to a relative tolerance tol = 1e-6 on sigma.  Since
    e is non-increasing, m2 >= w*e(w)^2/alpha for any w < alpha and
    sigma^2 >= (1-alpha)*m2/alpha >= m1^2*(1-alpha)/alpha; the largest such
    lower bound over w = alpha/2, ..., alpha/1024 sets absolute tolerances
    that keep each moment's share of the error on sigma^2 below tol/2 of it.
    Divergence (tail not square integrable: Pareto lam <= 2, Student-t
    nu <= 2) is decided analytically, never inferred from quadrature
    behavior.
    """
    alpha = check_alpha(alpha)
    if not _square_integrable(spec):
        return VarianceResult(math.inf, 0.0)
    if isinstance(spec, ScaledBernoulli):
        if spec.p > alpha:
            return VarianceResult(0.0, 0.0)
        var = spec.x**2 * (spec.p - spec.p**2) / alpha**2
        return VarianceResult(math.sqrt(var), 0.0)
    q = spec.tail_quantile(alpha)
    w = alpha * 0.5 ** np.arange(1, 11)
    floor = (1.0 - alpha) * float(np.max(w * (spec.tail_quantile(w) - q) ** 2)) / alpha**2
    tol1 = 0.25 * _SIGMA_TOL * math.sqrt(floor * (1.0 - alpha) / alpha)
    tol2 = 0.5 * _SIGMA_TOL * floor * alpha
    m1 = _tail_moment(spec, alpha, tol1, 1, q)
    m2 = _tail_moment(spec, alpha, tol2, 2, q)
    var = m2 / alpha - m1 * m1
    var_err = tol2 / alpha + 2.0 * m1 * tol1
    if var <= 0.0:
        return VarianceResult(0.0, math.sqrt(max(var_err, 0.0)))
    sigma = math.sqrt(var)
    return VarianceResult(sigma, var_err / (2.0 * sigma))


# --- Lipschitz constant of the quantile function ----------------------------


def lipschitz_D(spec: DistributionSpec, alpha: float) -> float:
    """Local Lipschitz constant D(alpha) = 1/f(F^{-1}(1-alpha)), the slope of F^{-1} at 1-alpha."""
    alpha = check_alpha(alpha)
    with np.errstate(divide="ignore"):
        value = float(1.0 / np.asarray(spec.pdf(spec.tail_quantile(alpha))))
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(
            f"alpha: density vanishes at the (1-alpha)-quantile (D undefined, got {value})"
        )
    return value


# --- Table-1 style catalog ---------------------------------------------------

TABLE1_CATALOG: list[DistributionSpec] = [
    Normal(0.0, 1.0),
    StudentT(5.0),
    Logistic(0.0, 1.0),
    Lognormal(0.0, 1.0),
    Pareto(1.0, 2.0),
    Pareto(1.0, 4.0),
    Exponential(1.0),
]


def table1_rows(alphas=(0.1, 0.05, 0.01)) -> list[dict]:
    """D(alpha) and sigma_ES for the distribution catalog, one dict per cell."""
    rows = []
    for spec in TABLE1_CATALOG:
        meta = spec_to_json(spec)
        params = ";".join(f"{k}={v:g}" for k, v in meta["params"].items())
        for alpha in alphas:
            rows.append({
                "family": meta["family"],
                "params": params,
                "alpha": float(alpha),
                "D": lipschitz_D(spec, alpha),
                "sigma": sigma_es(spec, alpha).value,
            })
    return rows
