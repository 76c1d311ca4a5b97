import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from shortfall import dist, rng
from shortfall.errors import NoDensityError, ParameterError

CONTINUOUS = [
    dist.Normal(0.0, 1.0),
    dist.StudentT(5.0),
    dist.Logistic(0.0, 1.0),
    dist.Lognormal(0.0, 1.0),
    dist.Pareto(1.0, 2.0),
    dist.Pareto(1.0, 4.0),
    dist.Exponential(1.0),
]
ATOMIC = [dist.ScaledBernoulli(0.05, 1.0), dist.ScaledBernoulli(1.0, 3.0)]


# --- pointwise values ----------------------------------------------------------


def test_pareto_cdf_values():
    p = dist.Pareto(1.0, 2.0)
    assert p.cdf(2.0) == pytest.approx(0.75, abs=1e-15)
    assert p.cdf(0.5) == 0.0
    assert p.cdf(1.0) == 0.0


def test_bernoulli_cdf_quantile():
    sb = dist.ScaledBernoulli(0.05, 1.0)
    assert sb.cdf(0.3) == pytest.approx(0.95)
    assert sb.quantile(0.96) == 1.0
    assert sb.quantile(0.95) == 0.0
    assert sb.quantile(0.5) == 0.0
    assert dist.ScaledBernoulli(1.0, 2.5).tail_quantile(1.0) == 2.5  # p = 1: the atom at x only


def test_quantile_values():
    assert dist.Pareto(1.0, 2.0).quantile(0.99) == pytest.approx(10.0, rel=1e-12)
    assert dist.Normal(0.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_density_values():
    assert dist.Exponential(1.0).pdf(-1.0) == 0.0
    assert dist.Pareto(1.0, 2.0).pdf(2.0) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(NoDensityError, match="no density"):
        dist.ScaledBernoulli(0.05, 1.0).pdf(1.0)


def test_atom_mix_shape():
    am = dist.AtomMix(-0.1, 0.1, 0.02)
    assert am.cdf(-0.2) == 0.0
    assert am.cdf(-0.1) == pytest.approx(0.88)
    assert am.cdf(-0.05) == pytest.approx(0.89)
    assert am.cdf(0.0) == 1.0
    assert am.quantile(0.5) == -0.1
    assert am.quantile(0.89) == pytest.approx(-0.05)
    assert am.quantile(0.95) == 0.0
    assert am.pdf(-0.05) == pytest.approx(0.2)
    assert am.pdf(-0.5) == 0.0
    with pytest.raises(NoDensityError):
        am.pdf(-0.1)


# --- parameter and domain validation -------------------------------------------


@pytest.mark.parametrize(
    "ctor, field",
    [
        (lambda: dist.Normal(0.0, -1.0), "sigma"),
        (lambda: dist.StudentT(0.0), "nu"),
        (lambda: dist.Logistic(0.0, 0.0), "scale"),
        (lambda: dist.Pareto(-1.0, 2.0), "x0"),
        (lambda: dist.Pareto(1.0, -2.0), "lam"),
        (lambda: dist.Exponential(0.0), "rate"),
        (lambda: dist.ScaledBernoulli(1.5, 1.0), "p"),
        (lambda: dist.ScaledBernoulli(0.5, -1.0), "x"),
        (lambda: dist.AtomMix(0.1, 0.1, 0.02), "x0"),
        (lambda: dist.AtomMix(-0.1, 0.9, 0.2), "alpha"),
        (lambda: dist.AR1(1.0), "rho"),
    ],
)
def test_invalid_parameters_name_field(ctor, field):
    with pytest.raises(ParameterError, match=field):
        ctor()


def test_quantile_at_zero():
    for spec in (dist.Normal(), dist.StudentT(5.0), dist.Logistic()):
        for zero in (0.0, -0.0):
            with pytest.raises(ParameterError, match="undefined"):
                spec.quantile(zero)
    assert dist.Pareto(1.0, 2.0).quantile(0.0) == dist.Pareto(1.0, 2.0).quantile(-0.0) == 1.0
    assert dist.Exponential(1.0).quantile(0.0) == 0.0
    assert dist.Lognormal().quantile(0.0) == 0.0
    assert dist.ScaledBernoulli(0.3, 2.0).quantile(0.0) == 0.0
    assert dist.AtomMix(-0.1, 0.1, 0.02).quantile(0.0) == -0.1


@pytest.mark.parametrize("x0", [1.0, 2.5])
def test_pareto_quantile_bits_and_input_untouched(x0):
    u = rng.uniform_matrix(np.arange(4, dtype=np.uint64), 1000)
    before = u.copy()
    for lam in (2.2, 1.0, 0.5):
        got = dist.Pareto(x0, lam).quantile(u)
        assert np.array_equal(got, x0 * (1.0 - u) ** (-1.0 / lam))
        assert np.array_equal(u, before)
    edge = np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.Pareto(x0, 2.2).quantile(edge).tolist() == [x0, math.inf]
    assert edge.tolist() == [0.0, 1.0]


def test_quantile_bad_levels():
    for spec in CONTINUOUS + ATOMIC + [dist.AtomMix(-0.1, 0.1, 0.02)]:
        for u in (1.5, -0.1, np.array([0.5, 2.0]), np.array([math.nan, -0.5])):
            with pytest.raises(ParameterError, match=r"\[0, 1\]"):
                spec.quantile(u)
        assert spec.quantile(np.empty(0)).shape == (0,)  # empty arrays and NaN pass
        spec.quantile(np.array([math.nan, 0.5]))


# --- sampling ------------------------------------------------------------------


def test_degenerate_bernoulli_sample():
    assert dist.sample(dist.ScaledBernoulli(1.0, 3.0), 4, 0).tolist() == [3.0, 3.0, 3.0, 3.0]


def test_sample_reproducible():
    spec = dist.Pareto(1.0, 2.0)
    assert np.array_equal(dist.sample(spec, 1000, 9), dist.sample(spec, 1000, 9))
    assert not np.array_equal(dist.sample(spec, 1000, 9), dist.sample(spec, 1000, 10))
    with pytest.raises(ParameterError, match=r"^n: must be an integer \(got 2.5\)$"):
        dist.sample(spec, 2.5, 9)


def test_pareto_sample_mean():
    # oracle: the mean is the integral of the quantile function over (0,1)
    spec = dist.Pareto(1.0, 2.0)
    target, _ = integrate.quad(lambda u: spec.quantile(u), 0.0, 1.0,
                               epsabs=1e-10, limit=200)
    assert target == pytest.approx(2.0, abs=1e-8)
    x = dist.sample(spec, 10**6, 7)
    mc_sigma = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - target) < 3.0 * mc_sigma


def test_normal_sample_tail_fraction():
    x = dist.sample(dist.Normal(0.0, 1.0), 10**6, 7)
    target = dist.Normal(0.0, 1.0).cdf(1.28155)
    frac = (x <= 1.28155).mean()
    mc_sigma = math.sqrt(target * (1 - target) / x.size)
    assert abs(target - 0.9) < 1e-5
    assert abs(frac - target) < 3.0 * mc_sigma


def test_atom_mix_sample_masses():
    am = dist.AtomMix(-0.1, 0.1, 0.02)
    x = dist.sample(am, 10**5, 11)
    for mass, target in (((x == -0.1).mean(), 0.88), ((x == 0.0).mean(), 0.1)):
        se = math.sqrt(target * (1 - target) / x.size)
        assert abs(mass - target) < 3.0 * se


@pytest.mark.parametrize("spec", CONTINUOUS + ATOMIC, ids=lambda s: repr(s))
@pytest.mark.parametrize("seed", [101, 202, 303, 404, 505])
def test_kolmogorov_smirnov(spec, seed):
    # sup_t |F_hat(t) - F(t)| for a general (possibly atomic) law: compare
    # right limits at every distinct value and left limits just below it
    n = 10**5
    x = dist.sample(spec, n, seed)
    values, counts = np.unique(x, return_counts=True)
    ecdf_right = np.cumsum(counts) / n
    ecdf_left = ecdf_right - counts / n
    f_right = spec.cdf(values)
    f_left = spec.cdf(values - 1e-9 * np.maximum(1.0, np.abs(values)))
    ks = max(np.max(np.abs(ecdf_right - f_right)), np.max(np.abs(ecdf_left - f_left)))
    assert ks < 1.95 * 2.0 / math.sqrt(n)


# --- cdf/quantile/density consistency -------------------------------------------


@pytest.mark.parametrize("spec", CONTINUOUS, ids=lambda s: repr(s))
def test_cdf_of_quantile_continuous(spec):
    u = np.linspace(0.01, 0.99, 37)
    back = spec.cdf(spec.quantile(u))
    assert np.max(np.abs(back - u)) < 1e-12


@pytest.mark.parametrize("spec", CONTINUOUS + ATOMIC + [dist.AtomMix(-0.1, 0.1, 0.02)],
                         ids=lambda s: repr(s))
def test_cdf_of_quantile_generalized_inverse(spec):
    for u in np.linspace(0.01, 0.99, 23):
        assert spec.cdf(spec.quantile(u)) >= u - 1e-12


@pytest.mark.parametrize("spec", CONTINUOUS, ids=lambda s: repr(s))
def test_density_matches_cdf_derivative(spec):
    u = np.linspace(0.04, 0.96, 20)
    x = spec.quantile(u)
    h = 1e-4
    fd = (spec.cdf(x + h) - spec.cdf(x - h)) / (2.0 * h)
    pdf = spec.pdf(x)
    assert np.max(np.abs(fd - pdf)) < 1e-6


def test_tail_quantile_matches_quantile():
    for spec in CONTINUOUS:
        for w in (0.3, 0.05, 0.001):
            a, b = spec.tail_quantile(w), spec.quantile(1.0 - w)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


# --- AR(1) ----------------------------------------------------------------------


def test_ar1_validation():
    with pytest.raises(ParameterError, match="rho"):
        dist.ar1_path(1.2, 10, 0)


def test_ar1_rho_zero_is_iid():
    x = dist.ar1_path(0.0, 10**5, 3)
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) < 3.0 / math.sqrt(x.size)
    assert np.array_equal(x, dist.sample(dist.Normal(0.0, 1.0), 10**5, 3))


def test_ar1_autocorrelation_and_variance():
    rho = 0.5
    x = dist.ar1_path(rho, 10**6, 3)
    n = x.size
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    se_r1 = math.sqrt((1.0 - rho * rho) / n)
    assert abs(r1 - rho) < 3.0 * se_r1
    # var(sample variance) for AR(1): (2/n) * (1 + 2 rho^2/(1-rho^2)) * sigma^4
    se_var = math.sqrt(2.0 / n * (1.0 + 2.0 * rho**2 / (1.0 - rho**2)))
    assert abs(x.var() - 1.0) < 3.0 * se_var


def test_ar1_paths_batch_matches_single():
    seeds = np.array([5, 6], dtype=np.uint64)
    mat = dist.ar1_paths(0.4, seeds, 500)
    assert np.array_equal(mat[0], dist.ar1_path(0.4, 500, 5))
    assert np.array_equal(mat[1], dist.ar1_path(0.4, 500, 6))


# --- quantile inverses vs an independent bisection oracle ------------------------


@pytest.mark.parametrize("spec", [dist.Normal(0.5, 2.0), dist.StudentT(5.0),
                                  dist.Logistic(1.0, 0.7)], ids=lambda s: repr(s))
def test_quantile_against_bisection(spec):
    for u in (0.05, 0.3, 0.9, 0.995):
        lo, hi = -1e6, 1e6
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if spec.cdf(mid) >= u:
                hi = mid
            else:
                lo = mid
        assert spec.quantile(u) == pytest.approx(hi, abs=1e-9)


# --- JSON -----------------------------------------------------------------------


def test_json_roundtrip():
    for spec in CONTINUOUS + ATOMIC + [dist.AtomMix(-0.25, 0.2, 0.1)]:
        assert dist.spec_from_json(dist.spec_to_json(spec)) == spec
    for proc in (dist.IID(dist.Pareto(1.0, 2.2)), dist.AR1(0.5)):
        assert dist.process_from_json(dist.process_to_json(proc)) == proc
    with pytest.raises(ParameterError, match="family"):
        dist.spec_from_json({"family": "cauchy", "params": {}})
    with pytest.raises(ParameterError, match="params"):
        dist.spec_from_json({"family": "pareto", "params": {"x0": 1.0, "shape": 2.0}})
    with pytest.raises(ParameterError, match="unknown field.*'parms'"):
        dist.spec_from_json({"family": "pareto", "parms": {"x0": 1.0, "lam": 2.0}})
    with pytest.raises(ParameterError, match="unknown field.*'dist'"):
        dist.process_from_json({"kind": "ar1", "rho": 0.5, "dist": dist.spec_to_json(dist.Normal())})
    with pytest.raises(ParameterError, match="unknown field.*'rho'"):
        dist.process_from_json({"kind": "iid", "dist": dist.spec_to_json(dist.Normal()), "rho": 0.5})
    with pytest.raises(ParameterError, match="unknown process 'garch'"):
        dist.process_from_json({"kind": "garch"})
    with pytest.raises(ParameterError, match=r"lam: must be a number \(got '2'\)"):
        dist.spec_from_json({"family": "pareto", "params": {"x0": 1.0, "lam": "2"}})
    with pytest.raises(ParameterError, match="rho: must be a number"):
        dist.process_from_json({"kind": "ar1", "rho": True})


@pytest.mark.parametrize("build, message", [
    (lambda: dist.Pareto(1, "2"), r"^lam: must be a number \(got '2'\)$"),
    (lambda: dist.Pareto(1, True), r"^lam: must be a number \(got True\)$"),
    (lambda: dist.AR1("0.5"), r"^rho: must be a number \(got '0.5'\)$"),
])
def test_constructor_applies_number_rule(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_constructor_stores_floats():
    assert dist.Pareto(1, 2) == dist.Pareto(1.0, 2.0)
    assert all(type(v) is float for v in (dist.Pareto(1, 2).lam, dist.Normal(np.int64(0)).mu,
                                          dist.AR1(0).rho))
    assert dist.spec_to_json(dist.Pareto(1, 2)) == {"family": "pareto", "params": {"x0": 1.0, "lam": 2.0}}


@pytest.mark.parametrize("nu", [1.05, 2.2, 2.5, 5.0, 30.0])
def test_student_t_tail_quantile_finite_and_decreasing_to_1e300(nu):
    w = np.logspace(-300, math.log10(0.5), 4001)
    q = dist.StudentT(nu).tail_quantile(w)
    assert np.all(np.isfinite(q))
    assert np.all(np.diff(q) < 0)


def test_student_t_tail_quantile_matches_beta_inverse():
    # upper tail: 2w = I_x(nu/2, 1/2) with x = nu/(nu + t^2)
    for nu, w in ((2.2, 1e-200), (5.0, 1e-120), (30.0, 1e-60)):
        x = sp.betaincinv(nu / 2.0, 0.5, 2.0 * w)
        expected = math.sqrt(nu * (1.0 - x) / x)
        assert dist.StudentT(nu).tail_quantile(w) == pytest.approx(expected, rel=1e-12)
