import math

import numpy as np
import pytest
from scipy import integrate

from conftest import tail_variance_oracle
from shortfall import dist
from shortfall import functionals as fn
from shortfall.errors import (InfiniteShortfallError, NoDensityError, ParameterError,
                              QuadratureError)

CONTINUOUS_FINITE_ES = [
    dist.Normal(0.0, 1.0),
    dist.StudentT(5.0),
    dist.Logistic(0.0, 1.0),
    dist.Lognormal(0.0, 1.0),
    dist.Pareto(1.0, 2.0),
    dist.Pareto(1.0, 4.0),
    dist.Exponential(1.0),
]

# power tails; for the heaviest, most of ES lies where 1 - F(t) is lost to rounding
HEAVY_TAILS = [dist.Pareto(1.0, lam) for lam in (1.01, 1.1, 1.5, 2.2)] + [
    dist.StudentT(1.05),
    dist.StudentT(2.5),
]


# --- closed forms ----------------------------------------------------------------


def test_es_exact_bernoulli():
    assert fn.es_exact(dist.ScaledBernoulli(0.05, 2.0), 0.1) == pytest.approx(1.0)
    assert fn.es_exact(dist.ScaledBernoulli(0.2, 2.0), 0.1) == pytest.approx(2.0)


def test_es_exact_pareto():
    assert fn.es_exact(dist.Pareto(1.0, 2.0), 0.1) == pytest.approx(2.0 / math.sqrt(0.1), rel=1e-14)
    with pytest.raises(InfiniteShortfallError, match="infinite ES"):
        fn.es_exact(dist.Pareto(1.0, 1.0), 0.1)
    with pytest.raises(InfiniteShortfallError):
        fn.es_by_quadrature(dist.Pareto(1.0, 0.9), 0.1)


def test_es_exact_atom_mix_is_zero():
    assert fn.es_exact(dist.AtomMix(-0.1, 0.1, 0.02), 0.1) == 0.0


def test_es_exact_exponential():
    # hand integration of -log(1-u)/rate over (1-alpha, 1) gives (1 - log(alpha))/rate
    assert fn.es_exact(dist.Exponential(1.0), 0.1) == pytest.approx(1.0 + math.log(10.0), rel=1e-14)


def test_alpha_validation():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ParameterError, match="alpha"):
            fn.es_exact(dist.Normal(), bad)


# --- quadrature routes ------------------------------------------------------------


def test_es_quadrature_exponential():
    value = fn.es_by_quadrature(dist.Exponential(1.0), 0.1)
    assert value == pytest.approx(3.302585092994046, abs=1e-9)


def test_es_quadrature_matches_exact_pareto():
    # lam = 1.01 puts about a tenth of ES at tail probabilities below 1e-100
    for lam in (4.0, 1.01):
        spec = dist.Pareto(1.0, lam)
        assert fn.es_by_quadrature(spec, 0.1) == pytest.approx(fn.es_exact(spec, 0.1), abs=1e-9)


def test_es_quadrature_near_half_matches_conditional_mean():
    # at alpha just below 1/2, ES equals the conditional mean above the median
    spec = dist.Normal(0.0, 1.0)
    alpha = 0.499999
    q = spec.tail_quantile(alpha)
    cond_mean, _ = integrate.quad(lambda t: t * spec.pdf(t), q, np.inf,
                                  epsabs=1e-12, limit=200)
    assert fn.es_by_quadrature(spec, alpha) == pytest.approx(cond_mean / alpha, abs=1e-6)


def test_es_distortion_examples():
    assert fn.es_by_distortion(dist.ScaledBernoulli(0.05, 2.0), 0.1) == pytest.approx(1.0, abs=1e-10)
    z = 1.2815515655446004
    target = math.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * 0.1)
    assert fn.es_by_distortion(dist.Normal(0.0, 1.0), 0.1) == pytest.approx(target, abs=1e-8)
    assert fn.es_by_distortion(dist.Exponential(1.0), 0.1) == pytest.approx(3.302585092994046, abs=1e-9)


def test_es_distortion_negative_region():
    # a shifted normal puts the (1-alpha)-quantile and ES below zero
    spec = dist.Normal(-5.0, 1.0)
    assert fn.es_by_distortion(spec, 0.1) == pytest.approx(fn.es_exact(spec, 0.1), abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", CONTINUOUS_FINITE_ES + HEAVY_TAILS, ids=lambda s: repr(s))
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_three_routes_agree(spec, alpha):
    exact = fn.es_exact(spec, alpha)
    quad = fn.es_by_quadrature(spec, alpha)
    distortion = fn.es_by_distortion(spec, alpha)
    assert quad == pytest.approx(exact, abs=1e-8 * max(1.0, abs(exact)))
    assert distortion == pytest.approx(exact, abs=1e-8 * max(1.0, abs(exact)))
    assert distortion == pytest.approx(quad, abs=1e-8 * max(1.0, abs(exact)))


def test_atom_mix_routes_agree_beyond_atom_level():
    spec = dist.AtomMix(-0.5, 0.1, 0.05)
    for alpha in (0.1, 0.12, 0.2):
        exact = fn.es_exact(spec, alpha)
        assert fn.es_by_quadrature(spec, alpha) == pytest.approx(exact, abs=1e-8)
        assert fn.es_by_distortion(spec, alpha) == pytest.approx(exact, abs=1e-8)


# --- the adaptive-Gauss engine -----------------------------------------------------


@pytest.fixture
def rounds(monkeypatch):
    """Counts the engine's rounds: one call of ``_panel_rule`` each."""
    count = [0]
    panel_rule = fn._panel_rule

    def counting(f, lo, hi):
        count[0] += 1
        return panel_rule(f, lo, hi)

    monkeypatch.setattr(fn, "_panel_rule", counting)
    return count


def test_engine_calls_its_integrand_once_per_round(rounds):
    calls = []

    def integrand(x):
        calls.append(x.shape)
        return np.sqrt(x)

    value = fn._adaptive_gauss(integrand, fn._UNIT_EDGES, 1e-13)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert rounds[0] > 1 and len(calls) == rounds[0]


def test_engine_raises_at_once_on_a_non_finite_integrand():
    calls = []

    def integrand(x):
        calls.append(x.shape)
        return np.full(x.shape, np.nan)

    with pytest.raises(QuadratureError, match=r"integrand is not finite on \[0, 1\]"):
        fn._adaptive_gauss(integrand, fn._UNIT_EDGES, 1e-10)
    assert len(calls) == 1
    with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="not finite"):
        fn.es_by_quadrature(dist.Normal(1e308, 1e308), 0.1)
    with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="not finite"):
        fn.sigma_es(dist.Exponential(1e-310), 0.1)


@pytest.mark.parametrize("spec", fn.TABLE1_CATALOG, ids=lambda s: repr(s))
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_distortion_converges_in_two_rounds_on_table1_cells(rounds, spec, alpha):
    # the graded start puts the panels where the survival function falls off
    value = fn.es_by_distortion(spec, alpha)
    assert rounds[0] <= 2
    assert value == pytest.approx(fn.es_exact(spec, alpha), rel=1e-10)


# --- sigma -------------------------------------------------------------------------


def test_sigma_bernoulli_closed_form_grid():
    alphas = (0.05, 0.1, 0.3)
    ps = (0.01, 0.04, 0.09, 0.2, 0.5)
    xs = (0.5, 1.0, 2.0, 5.0, 10.0)
    for alpha in alphas:
        for p in ps:
            for x in xs:
                got = fn.sigma_es(dist.ScaledBernoulli(p, x), alpha)
                if p > alpha:
                    expected = 0.0
                else:
                    expected = math.sqrt(x * x * (p - p * p)) / alpha
                assert got.value == pytest.approx(expected, abs=1e-10)
                assert got.abs_error_bound == 0.0


def test_sigma_bernoulli_example():
    got = fn.sigma_es(dist.ScaledBernoulli(0.05, 1.0), 0.1)
    assert got.variance == pytest.approx(4.75, abs=1e-10)
    assert got.value == pytest.approx(2.179449471770337, abs=1e-10)


def test_sigma_pareto_infinite():
    for lam in (1.5, 2.0):
        res = fn.sigma_es(dist.Pareto(1.0, lam), 0.1)
        assert res.is_infinite
        assert res.abs_error_bound == 0.0
    assert fn.sigma_es(dist.StudentT(2.0), 0.1).is_infinite


def test_sigma_pareto_table_value():
    assert fn.sigma_es(dist.Pareto(1.0, 4.0), 0.1).value == pytest.approx(3.18, rel=5e-3)


@pytest.mark.parametrize("lam", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_sigma_pareto_bracket(lam, alpha):
    r = (lam + 1.0) / lam
    lower = alpha ** (1.0 - 2.0 * r) / (2.0 * lam**2 * (3.0 - 2.0 * r))
    upper = 2.0 * alpha ** (1.0 - 2.0 * r) / (lam**2 * (r - 1.0) * (3.0 - 2.0 * r))
    var = fn.sigma_es(dist.Pareto(1.0, lam), alpha).variance
    assert lower <= var <= upper


# tails just inside square-integrability, where the second moment's kappa
# (from tail index lam/2) matters; Pareto(1, 2.2) is the headline law
NEAR_LAMBDA_2 = [dist.Pareto(1.0, 2.1), dist.Pareto(1.0, 2.2), dist.StudentT(2.5)]


@pytest.mark.parametrize("spec", CONTINUOUS_FINITE_ES + NEAR_LAMBDA_2, ids=lambda s: repr(s))
def test_sigma_matches_tail_moment_oracle(spec):
    # independent reduction: sigma^2 = Var((X - q)^+)/alpha^2
    if not fn._square_integrable(spec):
        return
    for alpha in (0.05, 0.1):
        got = fn.sigma_es(spec, alpha)
        target = math.sqrt(tail_variance_oracle(spec, alpha))
        assert got.value == pytest.approx(target, rel=1e-6)
        assert got.abs_error_bound < 1e-4 * target


def test_sigma_exponential_closed_form():
    # Var((X-q)^+) = 2*alpha - alpha^2 by memorylessness, so sigma^2 = 2/alpha - 1
    for alpha in (0.05, 0.1, 0.25):
        got = fn.sigma_es(dist.Exponential(1.0), alpha)
        assert got.variance == pytest.approx(2.0 / alpha - 1.0, rel=1e-8)


def test_sigma_atom_mix():
    assert fn.sigma_es(dist.AtomMix(-0.1, 0.1, 0.02), 0.1).value == 0.0
    spec = dist.AtomMix(-0.5, 0.1, 0.05)
    got = fn.sigma_es(spec, 0.12)
    # oracle on the bounded support: Var((X - q)^+) with the ramp density,
    # atoms contribute nothing beyond q > x0
    q = spec.tail_quantile(0.12)
    m1, _ = integrate.quad(lambda t: (t - q) * 0.05 / 0.5, q, 0.0, epsabs=1e-14)
    m2, _ = integrate.quad(lambda t: (t - q) ** 2 * 0.05 / 0.5, q, 0.0, epsabs=1e-14)
    m1 += -q * 0.1  # atom of mass 0.1 at zero contributes (0 - q)
    m2 += q * q * 0.1
    target = math.sqrt((m2 - m1 * m1) / 0.12**2)
    assert got.value == pytest.approx(target, rel=1e-6)


# --- Lipschitz constant ------------------------------------------------------------


def test_lipschitz_D_values():
    assert fn.lipschitz_D(dist.Exponential(1.0), 0.1) == pytest.approx(10.0, rel=1e-12)
    assert fn.lipschitz_D(dist.Normal(0.0, 1.0), 0.1) == pytest.approx(5.70, rel=1e-3)
    assert fn.lipschitz_D(dist.Pareto(1.0, 2.0), 0.01) == pytest.approx(500.0, rel=1e-3)


def test_lipschitz_D_atomic_raises():
    with pytest.raises(NoDensityError, match="no density"):
        fn.lipschitz_D(dist.ScaledBernoulli(0.05, 1.0), 0.1)
    # the quantile overflows to inf, where the density is 0
    for spec in (dist.Pareto(1.0, 1e-3), dist.Lognormal(0.0, 1000.0)):
        with pytest.raises(ParameterError, match="density vanishes at the"):
            fn.lipschitz_D(spec, 0.1)



# --- affine behavior ---------------------------------------------------------------


@pytest.mark.parametrize("shift", [-3.0, 0.7, 12.5])
def test_translation(shift):
    base = fn.es_exact(dist.Normal(0.0, 1.0), 0.1)
    assert fn.es_exact(dist.Normal(shift, 1.0), 0.1) == pytest.approx(base + shift, rel=1e-12)
    sig0 = fn.sigma_es(dist.Normal(0.0, 1.0), 0.1).value
    sig = fn.sigma_es(dist.Normal(shift, 1.0), 0.1).value
    assert sig == pytest.approx(sig0, rel=1e-7)


@pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
def test_positive_scaling(scale):
    base = fn.es_exact(dist.Normal(0.0, 1.0), 0.1)
    assert fn.es_exact(dist.Normal(0.0, scale), 0.1) == pytest.approx(scale * base, rel=1e-12)
    sig0 = fn.sigma_es(dist.Normal(0.0, 1.0), 0.1).value
    sig = fn.sigma_es(dist.Normal(0.0, scale), 0.1).value
    assert sig == pytest.approx(scale * sig0, rel=1e-7)


# --- table catalog -----------------------------------------------------------------


def test_table1_row_shape():
    rows = fn.table1_rows([0.1])
    assert len(rows) == 7
    infinities = [r for r in rows if math.isinf(r["sigma"])]
    assert len(infinities) == 1
    assert infinities[0]["params"] == "x0=1;lam=2"
