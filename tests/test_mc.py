import math

import numpy as np
import pytest

from shortfall import corrupt, dist, estim, mc
from shortfall.errors import ParameterError


def _constant_spec(**overrides):
    base = dict(
        process=dist.IID(dist.ScaledBernoulli(1.0, 3.0)),
        estimator=estim.EstimatorConfig("plugin"),
        alpha=0.1,
        sample_sizes=(20, 40),
        delta=0.5,
        trials=200,
        master_seed=7,
        truth=3.0,
    )
    base.update(overrides)
    return mc.ExperimentSpec(**base)


# --- deviation probability -----------------------------------------------------


def test_deviation_probability_all_exact():
    assert mc.deviation_probability(np.full(50, 2.0), 2.0, 0.1) == (0.0, 0.0, 0)


def test_deviation_probability_reported_counts():
    trials = 10**6
    estimates = np.zeros(trials)
    estimates[:13637] = 2.0  # deviation 2 >= delta 1
    p, se, c = mc.deviation_probability(estimates, 0.0, 1.0)
    assert c == 13637
    assert p == pytest.approx(0.013637)
    assert se == pytest.approx(math.sqrt(0.013637 * (1 - 0.013637) / trials), rel=1e-12)
    assert se == pytest.approx(0.000116, abs=2e-6)


def test_deviation_probability_boundary_inclusive():
    estimates = np.array([1.5, 0.5, 1.0])
    p, _, c = mc.deviation_probability(estimates, 1.0, 0.5)
    assert c == 2  # |1.5-1| = |0.5-1| = 0.5 counted, inclusive
    assert p == pytest.approx(2.0 / 3.0)


def test_deviation_probability_empty():
    with pytest.raises(ParameterError):
        mc.deviation_probability([], 0.0, 1.0)


# --- trials ----------------------------------------------------------------------


def test_constant_process_trials():
    spec = _constant_spec()
    out = mc.run_trials(spec, 20, workers=1)
    assert np.allclose(out, 3.0, rtol=1e-12, atol=0.0)
    trunc = _constant_spec(estimator=estim.EstimatorConfig("truncated", m=5))
    out = mc.run_trials(trunc, 40, workers=1)
    assert np.allclose(out, 3.0, rtol=1e-12, atol=0.0)


def test_trials_deterministic_across_workers():
    spec = mc.ExperimentSpec(
        process=dist.IID(dist.Pareto(1.0, 2.2)),
        estimator=estim.EstimatorConfig("truncated", m=50),
        alpha=0.1,
        sample_sizes=(400,),
        delta=1.0,
        trials=900,
        master_seed=31,
        truth=5.0,
    )
    serial = mc.run_trials(spec, 400, workers=1)
    parallel = mc.run_trials(spec, 400, workers=2)
    assert np.array_equal(serial, parallel)


def test_trials_depend_on_master_seed():
    a = mc.run_trials(_constant_spec(process=dist.IID(dist.Exponential(1.0)),
                                     master_seed=1, truth=3.3), 20, workers=1)
    b = mc.run_trials(_constant_spec(process=dist.IID(dist.Exponential(1.0)),
                                     master_seed=2, truth=3.3), 20, workers=1)
    assert not np.array_equal(a, b)


def test_trials_order_is_trial_order():
    spec = _constant_spec(process=dist.IID(dist.Exponential(1.0)), trials=70, truth=3.3)
    full = mc.run_trials(spec, 20, workers=1)
    direct = mc.draw_trial_samples(spec.process, 20, spec.master_seed, 13, 14)
    assert estim.plugin_es(direct[0], 0.1) == pytest.approx(full[13], rel=1e-12)


def test_multi_shares_draws():
    process = dist.IID(dist.Pareto(1.0, 2.2))
    ests = (estim.EstimatorConfig("plugin"),
            estim.EstimatorConfig("truncated", m=25),
            estim.EstimatorConfig("median_of_blocks", m=25),
            estim.EstimatorConfig("trimmed"))
    results = mc.run_trials_multi(process, ests, 0.1, 100, 300, 17, workers=1)
    # truncated output clamps the same plug-in values the plugin estimator reports
    _, lo, hi = estim.truncated_es_batch(
        mc.draw_trial_samples(process, 100, 17, 0, 300), 0.1, m=25, return_interval=True
    )
    assert np.array_equal(results[1], np.minimum(np.maximum(results[0], lo), hi))


def test_estimator_precondition_reported():
    spec = _constant_spec(estimator=estim.EstimatorConfig("truncated", m=250),
                          sample_sizes=(20, 40))
    with pytest.raises(ParameterError, match="trial 0"):
        mc.run_trials(spec, 20, workers=1)


def test_corruption_applied_per_trial():
    process = dist.IID(dist.ScaledBernoulli(1.0, 3.0))
    model = corrupt.ReplaceIndices(frozenset({1}), value=1000.0)
    spec = _constant_spec(process=process, corruption=model, truth=3.0)
    out = mc.run_trials(spec, 20, workers=1)
    # one of 20 points replaced by 1000: plug-in with alpha=0.1 picks top 2
    expected = estim.plugin_es([3.0] * 19 + [1000.0], 0.1)
    assert np.allclose(out, expected)


def test_experiment_spec_validation_and_json():
    with pytest.raises(ParameterError, match="sample_sizes"):
        _constant_spec(sample_sizes=(40, 20))
    with pytest.raises(ParameterError, match="delta"):
        _constant_spec(delta=0.0)
    with pytest.raises(ParameterError, match="trials"):
        _constant_spec(trials=0)
    spec = _constant_spec(corruption=corrupt.MaxShiftGaussian(3, 5.0, 250.0))
    again = mc.ExperimentSpec.from_json(spec.to_json())
    assert again == spec


# --- curve -----------------------------------------------------------------------


def test_constant_curve_is_zero():
    curve = mc.deviation_curve(_constant_spec(), workers=1)
    assert [pt.p_hat for pt in curve.points] == [0.0, 0.0]
    assert [pt.count for pt in curve.points] == [0, 0]
    assert [pt.n for pt in curve.points] == [20, 40]


def test_curve_requires_truth():
    spec = _constant_spec(truth=math.nan)
    with pytest.raises(ParameterError, match="truth"):
        mc.deviation_curve(spec, workers=1)


def test_deviation_probability_stable_across_master_seeds():
    from shortfall import functionals as fn

    pareto = dist.Pareto(1.0, 2.2)
    truth = fn.es_exact(pareto, 0.1)
    estimates = {}
    for seed in (20260811, 555):
        spec = mc.ExperimentSpec(
            process=dist.IID(pareto), estimator=estim.EstimatorConfig("plugin"),
            alpha=0.1, sample_sizes=(3250,), delta=1.0, trials=20_000,
            master_seed=seed, truth=truth,
        )
        estimates[seed] = mc.run_trials(spec, 3250)
    assert not np.array_equal(estimates[20260811], estimates[555])
    (p1, se1, _), (p2, se2, _) = (
        mc.deviation_probability(estimates[s], truth, 1.0) for s in (20260811, 555)
    )
    assert abs(p1 - p2) <= 4.0 * math.hypot(se1, se2)


def test_truncated_large_deviation_exponential_signature():
    # heavy-tailed case at a large deviation threshold: log p_hat falls with N
    # and the drops do not shrink (up to Monte Carlo noise), the signature of
    # an exponential rate rather than a polynomial one
    from shortfall import functionals as fn

    pareto = dist.Pareto(1.0, 2.1)
    truth = fn.es_exact(pareto, 0.1)
    trunc = estim.EstimatorConfig("truncated", m=250, beta1=0.5, beta2=0.6)
    trials = 10_000
    probs = []
    for n in (1250, 2250, 3250):
        estimates = mc.run_trials_multi(dist.IID(pareto), (trunc,), 0.1, n, trials,
                                        20260811)[0]
        p, _, count = mc.deviation_probability(estimates, truth, 1.0)
        assert count > 0
        probs.append(p)
    logs = [-math.log(p) for p in probs]
    assert logs[0] < logs[1] < logs[2]
    se_logs = [math.sqrt((1.0 - p) / (p * trials)) for p in probs]
    slack = 3.0 * math.sqrt(se_logs[0] ** 2 + 2.0 * se_logs[1] ** 2 + se_logs[2] ** 2)
    assert (logs[2] - logs[1]) >= (logs[1] - logs[0]) - slack


# --- histogram ---------------------------------------------------------------------


def test_histogram_examples():
    h = mc.histogram([1.0, 1.0, 1.0], 1)
    assert h.counts.tolist() == [3]
    assert h.min == h.max == 1.0
    h = mc.histogram([0.0, 1.0, 2.0, 3.0], 2)
    assert h.counts.tolist() == [2, 2]


def test_histogram_boundary_goes_to_lower_bin():
    h = mc.histogram([0.0, 0.5, 1.0, 2.0], 2)
    # edges [0, 1, 2]; the interior boundary value 1.0 belongs to the lower bin
    assert h.counts.tolist() == [3, 1]


def test_histogram_invariants():
    x = np.random.default_rng(0).normal(size=1000)
    h = mc.histogram(x, 37)
    assert h.counts.sum() == h.trials == 1000
    assert np.all(np.diff(h.bin_edges) > 0)
    assert h.bin_edges[0] == x.min() and h.bin_edges[-1] == x.max()
    with pytest.raises(ParameterError, match="bins"):
        mc.histogram(x, 0)


# --- long-run variance oracle --------------------------------------------------------


def test_longrun_oracle_bernoulli():
    value = mc.longrun_sigma_oracle(dist.IID(dist.ScaledBernoulli(0.05, 1.0)),
                                    0.1, 10**4, 500, 7)
    se = 4.75 * math.sqrt(2.0 / 499)
    assert abs(value - 4.75) < 3.0 * se


def test_longrun_oracle_block_doubling_consistent():
    proc = dist.IID(dist.Normal(0.0, 1.0))
    a = mc.longrun_sigma_oracle(proc, 0.1, 5_000, 200, 11)
    b = mc.longrun_sigma_oracle(proc, 0.1, 10_000, 200, 12)
    se = math.sqrt((a * math.sqrt(2.0 / 199)) ** 2 + (b * math.sqrt(2.0 / 199)) ** 2)
    assert abs(a - b) < 3.0 * se


def test_longrun_oracle_ar1_exceeds_iid():
    ar = mc.longrun_sigma_oracle(dist.AR1(0.5), 0.1, 10**4, 300, 5)
    iid = mc.longrun_sigma_oracle(dist.IID(dist.Normal(0.0, 1.0)), 0.1, 10**4, 300, 5)
    assert ar > iid


def test_longrun_oracle_validation():
    with pytest.raises(ParameterError, match="blocks"):
        mc.longrun_sigma_oracle(dist.AR1(0.5), 0.1, 1000, 50, 0)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("SHORTFALL_WORKERS", "3")
    assert mc.resolve_workers(0) == 3
    monkeypatch.delenv("SHORTFALL_WORKERS")
    assert mc.resolve_workers(5) == 5
    with pytest.raises(ParameterError):
        mc.resolve_workers(-1)
    for bad in ("abc", "2.5", "-2"):
        monkeypatch.setenv("SHORTFALL_WORKERS", bad)
        with pytest.raises(ParameterError, match="SHORTFALL_WORKERS"):
            mc.resolve_workers(0)
        assert mc.resolve_workers(4) == 4  # an explicit count ignores the env var
