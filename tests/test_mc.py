import dataclasses
import hashlib
import math
import os
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from shortfall import cli, corrupt, dist, estim, mc, rng
from shortfall.errors import ParameterError


def _constant_spec(**overrides):
    base = dict(
        process=dist.IID(dist.ScaledBernoulli(1.0, 3.0)),
        estimators=(estim.EstimatorConfig("plugin"),),
        alpha=0.1,
        sample_sizes=(20, 40),
        delta=0.5,
        trials=200,
        master_seed=7,
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
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="delta: must be > 0"):
            mc.deviation_probability([1.0], 0.0, delta)


# --- trials ----------------------------------------------------------------------


def test_constant_process_trials():
    spec = _constant_spec()
    out = mc.run_trials(spec, 20, workers=1)[0]
    assert np.allclose(out, 3.0, rtol=1e-12, atol=0.0)
    trunc = _constant_spec(estimators=(estim.EstimatorConfig("truncated", m=5),))
    out = mc.run_trials(trunc, 40, workers=1)[0]
    assert np.allclose(out, 3.0, rtol=1e-12, atol=0.0)


def test_trials_deterministic_across_workers():
    spec = mc.ExperimentSpec(
        process=dist.IID(dist.Pareto(1.0, 2.2)),
        estimators=(estim.EstimatorConfig("truncated", m=50),),
        alpha=0.1,
        sample_sizes=(400,),
        delta=1.0,
        trials=900,
        master_seed=31,
    )
    serial = mc.run_trials(spec, 400, workers=1)[0]
    parallel = mc.run_trials(spec, 400, workers=2)[0]
    assert np.array_equal(serial, parallel)
    # 901 trials split unevenly over 2 and 3 workers
    uneven = [mc.run_trials_multi(spec.process, spec.estimators, 0.1, 400, 901, 31,
                                  workers=w)[0] for w in (1, 2, 3)]
    assert np.array_equal(uneven[0][:900], serial)
    assert np.array_equal(uneven[0], uneven[1]) and np.array_equal(uneven[0], uneven[2])


def test_workers_capped_at_sub_batches(monkeypatch):
    started, chunks = [], []

    class RecordingPool:
        """Records each pool's size and chunk size and runs its jobs inline, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            chunks.append(chunksize)
            return [fn(item) for item in iterable]

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    process = dist.IID(dist.Pareto(1.0, 2.2))
    ests = (estim.EstimatorConfig("plugin"),)
    tiny = mc.run_trials_multi(process, ests, 0.1, 400, 3, 5, workers=8)
    assert started == [] and tiny[0].shape == (3,)
    n = 3250
    rows = mc._SUB_BATCH_ELEMENTS // n
    trials = 3 * rows  # three full sub-batches
    pooled = mc.run_trials_multi(process, ests, 0.1, n, trials, 5, workers=8)
    assert started == [3] and chunks == [1]
    serial = mc.run_trials_multi(process, ests, 0.1, n, trials, 5, workers=1)
    assert started == [3] and np.array_equal(pooled[0], serial[0])
    # five sub-batches, the last one short: one contiguous chunk of ceil(5 / 2) per worker
    trials = 4 * rows + 1
    pooled = mc.run_trials_multi(process, ests, 0.1, n, trials, 5, workers=2)
    assert started == [3, 2] and chunks == [1, math.ceil(5 / 2)]
    serial = mc.run_trials_multi(process, ests, 0.1, n, trials, 5, workers=1)
    assert np.array_equal(pooled[0], serial[0])


def test_sub_batches_give_no_warning():
    # one block of 250 at N = 400, and levels outside the guaranteed range: the
    # configs and trial 0 warn, the 25 sub-batches of 81 trials do not
    median = estim.EstimatorConfig("median_of_blocks", m=250)
    with pytest.warns(UserWarning, match="guaranteed range"):
        truncated = estim.EstimatorConfig("truncated", m=100, beta1=0.2)
    process = dist.IID(dist.Pareto(1.0, 2.2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mc.run_trials_multi(process, (median, truncated), 0.1, 400, 2000, 5, workers=1)
    messages = [str(w.message) for w in caught]
    assert sum("one complete block" in text for text in messages) == 1
    assert not any("guaranteed range" in text for text in messages)


def test_trials_depend_on_master_seed():
    a = mc.run_trials(_constant_spec(process=dist.IID(dist.Exponential(1.0)),
                                     master_seed=1), 20, workers=1)[0]
    b = mc.run_trials(_constant_spec(process=dist.IID(dist.Exponential(1.0)),
                                     master_seed=2), 20, workers=1)[0]
    assert not np.array_equal(a, b)


def test_trials_order_is_trial_order():
    spec = _constant_spec(process=dist.IID(dist.Exponential(1.0)), trials=70)
    full = mc.run_trials(spec, 20, workers=1)[0]
    direct = mc.draw_trial_samples(spec.process, 20, spec.master_seed, 13, 14)
    assert estim.plugin_es(direct[0], 0.1) == pytest.approx(full[13], rel=1e-12)


def test_multi_shares_draws():
    process = dist.IID(dist.Pareto(1.0, 2.2))
    ests = (estim.EstimatorConfig("plugin"),
            estim.EstimatorConfig("truncated", m=25),
            estim.EstimatorConfig("median_of_blocks", m=25),
            estim.EstimatorConfig("trimmed"),
            estim.EstimatorConfig("truncated", m=25, beta1=0.6, beta2=0.6))
    results = mc.run_trials_multi(process, ests, 0.1, 100, 300, 17, workers=1)
    # truncated output clamps the same plug-in values the plugin estimator
    # reports to the clamp ends: the median of blocks and truncated at 0.6, 0.6
    lo, hi = results[2], results[4]
    assert np.array_equal(results[1], np.minimum(np.maximum(results[0], lo), hi))


_PATH_ESTIMATORS = (estim.EstimatorConfig("plugin"),
                    estim.EstimatorConfig("truncated", m=50),
                    estim.EstimatorConfig("median_of_blocks", m=50, gap=50),
                    estim.EstimatorConfig("trimmed"))


_PATH_FAMILIES = (dist.Normal(0.0, 1.0), dist.Logistic(0.0, 1.0), dist.Lognormal(0.0, 1.0),
                  dist.Exponential(1.0), dist.Pareto(1.0, 2.2), dist.StudentT(2.5))


def _attacks(family, n: int = 400) -> dict:
    """Corruptions the uniform path must carry: values inside, above and below the samples, ties."""
    x = mc.draw_trial_samples(dist.IID(family), n, 23, 0, 1)[0]
    inside = float(np.median(x))
    bottom = float(family.quantile(rng.unit(np.array([0])))[0])  # of the grid of levels
    return {
        "max_shift_3": corrupt.MaxShiftGaussian(3, 5.0, 250.0),
        "max_shift_quarter": corrupt.MaxShiftGaussian(n // 4, inside, 1.0),
        "replace_largest": corrupt.ReplaceLargest(5, inside),
        "inside": corrupt.ReplaceIndices(frozenset({1, 7, n}), inside),
        "above": corrupt.ReplaceIndices(frozenset({2, 9}), 1e300),
        "below_support": corrupt.ReplaceIndices(frozenset({3}), -1e308),
        "tie": corrupt.ReplaceIndices(frozenset({1}), float(x[5])),  # point 6 of trial 0
        "bottom_tie": corrupt.ReplaceIndices(frozenset({2}), bottom),
    }


_PATH_CASES = [
    pytest.param(dist.IID(dist.Pareto(1.0, 2.2)), corrupt.NoCorruption(), False, id="iid"),
    # atoms: selecting among the uniforms would change the bits of these two
    pytest.param(dist.IID(dist.ScaledBernoulli(0.08, 0.1)), corrupt.NoCorruption(), True,
                 id="scaled_bernoulli"),
    pytest.param(dist.IID(dist.AtomMix(-1.0, 0.05, 0.3)), corrupt.NoCorruption(), True, id="atom_mix"),
    pytest.param(dist.AR1(0.5), corrupt.NoCorruption(), True, id="ar1"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.MaxShiftGaussian(3, 5.0, 250.0), False,
                 id="max_shift"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.ReplaceLargest(2, 1e3), False,
                 id="replace_largest"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.ReplaceIndices(frozenset({1, 7}), 1e3), False,
                 id="replace_indices"),
    # Student-t keeps its uniforms at any k: at N = 400, half the points and every point
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.MaxShiftGaussian(200, 5.0, 250.0), False,
                 id="max_shift_half"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.MaxShiftGaussian(400, 5.0, 250.0), False,
                 id="max_shift_all"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.ReplaceIndices(frozenset(range(1, 401)), 1.5),
                 False, id="replace_all"),
    # corrupted trials of an iterative quantile keep their uniforms, with stand-ins; closed
    # forms build their corrupted samples
    *(pytest.param(dist.IID(family), model, not family.iterative_quantile,
                   id=f"{type(family).__name__.lower()}-{name}")
      for family in _PATH_FAMILIES for name, model in _attacks(family).items()),
]


@pytest.mark.parametrize("process, model, sample_path", _PATH_CASES)
def test_engine_estimates_are_the_estimators_on_the_drawn_samples(monkeypatch, process, model,
                                                                  sample_path):
    n, trials = 400, 200  # three sub-batches, so two workers both run
    draw = mc.draw_trial_samples
    samples = draw(process, n, 23, 0, trials, model)
    want = estim.evaluate_many(_PATH_ESTIMATORS, samples, 0.1)
    drawn = []
    monkeypatch.setattr(mc, "draw_trial_samples", lambda *args: drawn.append(args) or draw(*args))
    for workers in (1, 2):
        got = mc.run_trials_multi(process, _PATH_ESTIMATORS, 0.1, n, trials, 23, model, workers)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert bool(drawn) == sample_path  # seen from this process, so at one worker
    assert bool(drawn) == sample_path


@pytest.mark.parametrize("process, model, sample_path", [
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.NoCorruption(), False, id="uniforms"),
    pytest.param(dist.IID(dist.StudentT(2.5)), corrupt.MaxShiftGaussian(3, 5.0, 250.0), False,
                 id="stand_ins"),
    pytest.param(dist.IID(dist.Pareto(1.0, 2.2)), corrupt.MaxShiftGaussian(3, 5.0, 250.0), True,
                 id="samples"),
])
def test_clamp_ends_are_truncated_estimators_at_equal_betas(monkeypatch, process, model,
                                                            sample_path):
    # min(max(x, L), L) = L, so the engine gives the clamp ends beside the estimate
    n, trials, m = 400, 200, 50
    ests = [estim.EstimatorConfig("truncated", m=m, beta1=b1, beta2=b2)
            for b1, b2 in ((0.5, 0.6), (0.5, 0.5), (0.6, 0.6))]
    draw = mc.draw_trial_samples
    samples = draw(process, n, 23, 0, trials, model)
    want = np.array([estim.truncated_es_interval(x, 0.1, m, 0.5, 0.6) for x in samples]).T
    drawn = []
    monkeypatch.setattr(mc, "draw_trial_samples", lambda *args: drawn.append(args) or draw(*args))
    for workers in (1, 2):
        got = mc.run_trials_multi(process, ests, 0.1, n, trials, 23, model, workers)
        assert np.array(got).tobytes() == want.tobytes()
    assert bool(drawn) == sample_path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estim.truncated_es_interval(samples[0], 0.1, m, beta1=0.2)
    assert len(caught) == 1 and "guaranteed range" in str(caught[0].message)


@pytest.mark.parametrize("family", _PATH_FAMILIES, ids=lambda f: type(f).__name__.lower())
@pytest.mark.parametrize("attack", list(_attacks(dist.Normal(0.0, 1.0))))
def test_stand_ins_give_the_bits_of_the_corrupted_samples(family, attack):
    # also where the engine builds the samples instead (see the engine test)
    n, trials = 400, 81
    model = _attacks(family)[attack]
    seeds = rng.split_array(23, n, np.arange(trials, dtype=np.uint64))
    u = rng.uniform_matrix(seeds, n)
    cells = corrupt.changed_cells(u, model, rng.split_from(seeds, mc.CORRUPTION_STREAM), family.quantile)
    table = mc._stand_ins(u, cells, family)
    assert table is not None
    calls = []
    transform = partial(mc._dedupe, _recorded(family.quantile, calls), *table)
    got = estim.evaluate_many(_PATH_ESTIMATORS, u, 0.1, transform)
    samples = mc.draw_trial_samples(dist.IID(family), n, 23, 0, trials, model)
    want = estim.evaluate_many(_PATH_ESTIMATORS, samples, 0.1)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # the quantile sees each point once, and no key of the table
    points = np.concatenate(calls)
    assert np.unique(points).size == points.size and not np.isin(points, table[0]).any()


def test_stand_ins_search_once_per_distinct_inside_value():
    # one value inside the samples on k cells of every row: one window of 5 bins (one level
    # each side) goes through the quantile, not 5 * k * rows, beside the row maxima
    family, n, rows = dist.StudentT(2.5), 400, 81
    model = corrupt.ReplaceIndices(frozenset(range(1, n + 1, 40)), 1.5)
    seeds = rng.split_array(23, n, np.arange(rows, dtype=np.uint64))
    u = rng.uniform_matrix(seeds, n)
    cells = corrupt.changed_cells(u, model, rng.split_from(seeds, mc.CORRUPTION_STREAM), family.quantile)
    calls = []
    recording = SimpleNamespace(cdf=family.cdf, quantile=_recorded(family.quantile, calls))
    table = mc._stand_ins(u, cells, recording)
    assert table is not None and cells[2].size == model.k * rows
    assert [points.size for points in calls] == [rows, 5]
    assert np.unique(u[cells[0], cells[1]]).size == 1  # the one value has one key
    assert mc._dedupe(family.quantile, *table, u[cells[0], cells[1]]).tolist() == [1.5] * cells[2].size


def test_reaching_levels_widen_only_where_one_level_misses():
    # a cdf 8 bins (4 levels) high above 1/2 sends those values to the wide window, which
    # finds the levels that one level each side of the true cdf's bin finds
    family = dist.StudentT(2.5)
    values = np.linspace(-3.0, 3.0, 41)
    level, reached = mc._reaching_levels(values, family)
    calls = []
    shifted = SimpleNamespace(cdf=lambda v: family.cdf(v) + np.where(v > 0.0, 8 * 2.0**-53, 0.0),
                              quantile=_recorded(family.quantile, calls))
    got = mc._reaching_levels(values, shifted)
    assert got[0].tobytes() == level.tobytes() and got[1].tobytes() == reached.tobytes()
    assert [points.shape for points in calls] == [(5, values.size),
                                                  (4 * mc._LEVEL_REACH + 1, np.count_nonzero(values > 0))]


def test_stand_ins_decline_a_key_they_cannot_give():
    family = dist.Normal(0.0, 1.0)
    u = rng.uniform_matrix(np.arange(3, dtype=np.uint64), 400)
    below, level = family.quantile(np.array([0.75 - 2.0**-52, 0.75]))
    first = np.nextafter(below, np.inf)
    second = np.nextafter(first, np.inf)
    assert second < level  # two values that both need the one float below 0.75
    rows, cols = np.array([0, 2]), np.array([4, 9])
    keys = u.copy()
    table = mc._stand_ins(keys, (rows, cols, np.array([first, first])), family)
    assert keys[rows, cols].tolist() == [np.nextafter(0.75, 0.0)] * 2
    assert mc._dedupe(family.quantile, *table, keys[rows, cols]).tolist() == [first, first]
    # the bottom of the grid: a tie keeps unit(0), a value below it takes the float under it
    bottom = rng.unit(np.array([0]))[0]
    keys = u.copy()
    values = np.array([family.quantile(bottom), -1e308])
    table = mc._stand_ins(keys, (rows, cols, values), family)
    assert keys[rows, cols].tolist() == [bottom, np.nextafter(bottom, 0.0)]
    assert mc._dedupe(family.quantile, *table, keys[rows, cols]).tolist() == values.tolist()
    # values above their rows take keys from 2 up, ranked by value; equal values share one
    keys, above = u.copy(), np.array([1e3, 2e3, 1e3])
    table = mc._stand_ins(keys, (np.array([0, 0, 2]), np.array([4, 9, 9]), above), family)
    assert keys[[0, 0, 2], [4, 9, 9]].tolist() == [2.0, 4.0, 2.0]
    assert mc._dedupe(family.quantile, *table, keys[[0, 0, 2], [4, 9, 9]]).tolist() == above.tolist()
    # between the quantiles of 1/2 - 2**-54 and 1/2 no float is free; two values below
    # the grid both need the float under unit(0)
    assert family.quantile(0.5) == 0.0 and family.quantile(0.5 - 2.0**-54) < -1e-17
    for values in ([first, second], [-1e-17, 1e3], [-1e308, -1e300]):
        keys = u.copy()
        assert mc._stand_ins(keys, (rows, cols, np.array(values)), family) is None
        assert keys.tobytes() == u.tobytes()  # a decline leaves u as drawn


def test_declined_sub_batch_keeps_the_sample_path_bits(monkeypatch):
    # shocks this narrow fall between the quantiles of two adjacent levels
    family = dist.StudentT(2.5)
    below, level = family.quantile(np.array([0.75 - 2.0**-52, 0.75]))
    model = corrupt.MaxShiftGaussian(3, 0.5 * (below + level), 1e-16)
    process, n, trials = dist.IID(family), 400, 200
    want = estim.evaluate_many(_PATH_ESTIMATORS, mc.draw_trial_samples(process, n, 5, 0, trials, model),
                               0.1)
    declined = []
    stand_ins = mc._stand_ins

    def spy(*args):
        table = stand_ins(*args)
        declined.append(table is None)
        return table

    monkeypatch.setattr(mc, "_stand_ins", spy)
    got = mc.run_trials_multi(process, _PATH_ESTIMATORS, 0.1, n, trials, 5, model, workers=1)
    assert declined == [True, True, True]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


_DECLINES = {
    # -1e-17 lies between the quantiles of 1/2 - 2**-54 and 1/2: no float below 1/2 is free
    "level_one_half": (-1e-17, None),
    # a cdf 1e-14 high guesses about 90 bins above the level of 0.3, out of the search's reach
    "window_miss": (0.3, lambda self, t: special.stdtr(self.nu, t) + 1e-14),
}


@pytest.mark.parametrize("case", sorted(_DECLINES))
def test_declined_stand_ins_keep_the_sample_path_bits(monkeypatch, case):
    value, cdf = _DECLINES[case]
    model = corrupt.ReplaceIndices(frozenset({2}), value)
    process, n, trials = dist.IID(dist.StudentT(2.5)), 400, 200
    want = estim.evaluate_many(_PATH_ESTIMATORS, mc.draw_trial_samples(process, n, 5, 0, trials, model),
                               0.1)
    if cdf is not None:
        monkeypatch.setattr(dist.StudentT, "cdf", cdf)
    found, declined = [], []
    reaching_levels, stand_ins = mc._reaching_levels, mc._stand_ins

    def reaching_spy(*args):
        found.append(reaching_levels(*args))
        return found[-1]

    def stand_ins_spy(*args):
        table = stand_ins(*args)
        declined.append(table is None)
        return table

    monkeypatch.setattr(mc, "_reaching_levels", reaching_spy)
    monkeypatch.setattr(mc, "_stand_ins", stand_ins_spy)
    for workers in (1, 2):
        got = mc.run_trials_multi(process, _PATH_ESTIMATORS, 0.1, n, trials, 5, model, workers)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert declined == [True, True, True]  # seen from this process, so at one worker
    if cdf is None:
        assert all(level.tolist() == [0.5] * level.size and np.all(reached > value)
                   for level, reached in found)
    else:
        assert found == [None, None, None]


_DEMO_ESTIMATORS = (estim.EstimatorConfig("plugin"),
                    estim.EstimatorConfig("truncated", m=250, beta1=0.5, beta2=0.6),
                    estim.EstimatorConfig("median_of_blocks", m=250),
                    estim.EstimatorConfig("trimmed"))


@pytest.mark.parametrize("family, model, dedupe", [
    pytest.param(dist.StudentT(2.5), corrupt.NoCorruption(), True, id="student_t"),
    pytest.param(dist.StudentT(2.5), corrupt.MaxShiftGaussian(3, 5.0, 250.0), True,
                 id="student_t-max_shift"),
    pytest.param(dist.Normal(0.0, 1.0), corrupt.NoCorruption(), False, id="normal"),
    pytest.param(dist.Pareto(1.0, 2.2), corrupt.NoCorruption(), False, id="pareto"),
])
def test_quantile_points_per_sub_batch(monkeypatch, family, model, dedupe):
    # one quantile call per sub-batch, on a 1-D array: an iterative quantile sees each distinct
    # point the sub-batch reads once, but no stand-in key; others every point read
    n, trials = 1250, 60  # sub-batches of 26, 26 and 8 rows
    counted, read, distinct, fresh, inside = [], [], [], [], [False]
    table_keys = [np.empty(0)]
    quantile, evaluate_many, stand_ins = type(family).quantile, estim.evaluate_many, mc._stand_ins

    def counting(self, u):
        if inside[0]:
            counted.append(np.array(u, copy=True))
        return quantile(self, u)

    def spy(estimators, u, alpha, transform=None):
        if transform is None:  # the checks on trial 0
            return evaluate_many(estimators, u, alpha)
        seen = []
        evaluate_many(estimators, u.copy(), alpha, lambda points: seen.append(points) or points)
        assert len(seen) == 1 and seen[0].ndim == 1
        read.append(seen[0].size)
        points = np.unique(seen[0])
        distinct.append(points.size)
        points = points[~np.isin(points, table_keys[0])]
        fresh.append(points.size)
        calls = len(counted)
        inside[0] = True
        try:
            return evaluate_many(estimators, u, alpha, transform)
        finally:
            inside[0] = False
            assert len(counted) == calls + 1 and counted[-1].ndim == 1
            if dedupe:
                assert counted[-1].tolist() == points.tolist()

    def stand_ins_spy(*args):
        table = stand_ins(*args)
        table_keys[0] = table[0]
        return table

    monkeypatch.setattr(type(family), "quantile", counting)
    monkeypatch.setattr(estim, "evaluate_many", spy)
    monkeypatch.setattr(mc, "_stand_ins", stand_ins_spy)
    mc.run_trials_multi(dist.IID(family), _DEMO_ESTIMATORS, 0.1, n, trials, 23, model, workers=1)
    assert len(read) == len(counted) == 3  # every sub-batch runs on the uniforms
    assert [points.size for points in counted] == (fresh if dedupe else read)
    assert sum(distinct) < sum(read)
    if not isinstance(model, corrupt.NoCorruption):
        assert table_keys[0].size and sum(fresh) < sum(distinct)  # some keys were not evaluated


def _recorded(transform, calls):
    def record(points):
        calls.append(points.copy())
        return transform(points)
    return record


def test_dedupe_has_the_bits_of_the_quantile_and_sees_each_point_once():
    family = dist.StudentT(2.5)
    u = rng.uniform_matrix(np.arange(4, dtype=np.uint64), 400)
    u[1, 310] = u[0, 305]
    assert np.unique(u[:, 300:]).size == u[:, 300:].size - 1  # one value in two rows
    # overlapping segments, as the estimators read them
    points = np.concatenate([u[:, 300:], u[:, :100], u[:, 320:], u[:, 50:350]], axis=None)
    calls = []
    got = mc._dedupe(_recorded(family.quantile, calls), np.empty(0), np.empty(0), points)
    assert got.tobytes() == family.quantile(points).tobytes()
    assert len(calls) == 1 and calls[0].tolist() == np.unique(points).tolist()
    # a table answers its keys, which never reach the quantile, with its own values
    keys = np.unique(u[:, 150:160])
    calls.clear()
    got = mc._dedupe(_recorded(family.quantile, calls), keys, -keys, points)
    held = np.isin(points, keys)
    assert held.any() and not held.all()
    assert got.tobytes() == np.where(held, -points, family.quantile(points)).tobytes()
    assert len(calls) == 1 and calls[0].tolist() == np.setdiff1d(points, keys).tolist()
    for table in ((np.empty(0), np.empty(0)), (keys, -keys)):
        got = mc._dedupe(family.quantile, *table, np.empty(0))
        assert got.shape == (0,) and got.dtype == np.float64


def test_estimator_precondition_reported():
    truncated = (estim.EstimatorConfig("truncated", m=250),)
    with pytest.raises(ParameterError, match="trial 0"):
        _constant_spec(estimators=truncated, sample_sizes=(20, 40))
    with pytest.raises(ParameterError, match="trial 0"):
        mc.run_trials_multi(dist.IID(dist.Exponential(1.0)), truncated, 0.1, 20, 10, 7, workers=1)
    with pytest.raises(ParameterError, match="trials"):
        mc.run_trials_multi(dist.IID(dist.Exponential(1.0)), (), 0.1, 20, 0, 7, workers=1)
    with pytest.raises(ParameterError, match="unknown process object"):
        mc.draw_trial_samples(object(), 20, 7, 0, 1)


def test_corruption_applied_per_trial():
    process = dist.IID(dist.ScaledBernoulli(1.0, 3.0))
    model = corrupt.ReplaceIndices(frozenset({1}), value=1000.0)
    spec = _constant_spec(process=process, corruption=model)
    out = mc.run_trials(spec, 20, workers=1)[0]
    # one of 20 points replaced by 1000: plug-in with alpha=0.1 picks top 2
    expected = estim.plugin_es([3.0] * 19 + [1000.0], 0.1)
    assert np.allclose(out, expected)


def test_experiment_spec_validation_and_json():
    with pytest.raises(ParameterError, match="sample_sizes"):
        _constant_spec(sample_sizes=(40, 20))
    with pytest.raises(ParameterError, match=r"sample_sizes: must be an integer \(got 1250.7\)"):
        _constant_spec(sample_sizes=(1250.7,))
    for delta in (0.0, math.nan):
        with pytest.raises(ParameterError, match="delta"):
            _constant_spec(delta=delta)
    with pytest.raises(ParameterError, match="trials"):
        _constant_spec(trials=0)
    with pytest.raises(ParameterError, match="estimators: need at least one"):
        _constant_spec(estimators=())
    spec = _constant_spec(corruption=corrupt.MaxShiftGaussian(3, 5.0, 250.0))
    again = mc.ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    # JSON writes 1e5 as a float: a whole float is a count, and a seed may use all 64 bits
    whole = mc.ExperimentSpec.from_json(dict(spec.to_json(), trials=1e5, sample_sizes=[3250.0],
                                             master_seed=2**64 - 1))
    assert (whole.trials, whole.sample_sizes, whole.master_seed) == (100_000, (3250,), 2**64 - 1)
    assert all(type(v) is int for v in (whole.trials, *whole.sample_sizes, whole.master_seed))
    for field, value, rule in (("trials", True, "an integer"), ("trials", 20.5, "an integer"),
                               ("trials", "20", "an integer"), ("master_seed", 7.5, "an integer"),
                               ("alpha", "0.1", "a number"), ("delta", None, "a number")):
        with pytest.raises(ParameterError, match=f"{field}: must be {rule}"):
            mc.ExperimentSpec.from_json(dict(spec.to_json(), **{field: value}))
    with pytest.raises(ParameterError, match="unknown field.*'corruptoin'"):
        mc.ExperimentSpec.from_json(dict(spec.to_json(), corruptoin={"kind": "none"}))


@pytest.mark.parametrize("field, value, rule", [
    ("trials", 2.5, "an integer"), ("trials", True, "an integer"),
    ("master_seed", 1.5, "an integer"), ("delta", "1", "a number"),
])
def test_experiment_spec_constructor_applies_number_rule(field, value, rule):
    with pytest.raises(ParameterError, match=f"^{field}: must be {rule} "):
        _constant_spec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("sample_sizes", 1000), ("sample_sizes", "1000"), ("sample_sizes", {20: 1}),
    ("sample_sizes", np.array(1000)),
    ("estimators", "plugin"), ("estimators", estim.EstimatorConfig("plugin")),
], ids=["int_sizes", "str_sizes", "dict_sizes", "0d_array_sizes", "str_estimators", "one_estimator"])
def test_experiment_spec_list_field_rejects_scalar(field, value):
    with pytest.raises(ParameterError, match=f"^{field}: must be a list \\(got "):
        _constant_spec(**{field: value})


def test_experiment_spec_list_field_takes_any_sequence():
    for sizes in ([20, 40], (20, 40), range(20, 41, 20), np.array([20, 40])):
        assert _constant_spec(sample_sizes=sizes).sample_sizes == (20, 40)
    plugin = estim.EstimatorConfig("plugin")
    assert _constant_spec(estimators=[plugin]).estimators == (plugin,)


def test_experiment_spec_constructor_stores_whole_floats_as_int():
    spec = _constant_spec(trials=3.0, master_seed=np.uint64(7))
    assert (spec.trials, spec.master_seed) == (3, 7)
    assert type(spec.trials) is int and type(spec.master_seed) is int


# --- golden streams ----------------------------------------------------------------

GOLDEN_SEED = 20260811


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def test_golden_uniform_stream():
    seeds = np.array([GOLDEN_SEED, 0, 1, 2**64 - 1], dtype=np.uint64)
    assert _sha256(rng.uniform_matrix(seeds, 1000)) == (
        "e829ada04a06fa9992289d0ceb1db50354497b776cbb2f23212b0c4d55093f43")


def test_golden_headline_estimates():
    # IID Pareto(1, 2.2), alpha = 0.1, plug-in + truncated(m=250, 0.5/0.6), 2000 trials
    ests = (estim.EstimatorConfig("plugin"),
            estim.EstimatorConfig("truncated", m=250, beta1=0.5, beta2=0.6))
    expected = {
        1250: ("09b20ec1c82cfc82cb5d1fd3ec049e5a071b63deec4e02511336db14bcd8b7bf",
               "e77dbdb9b035889832eebb93082b389042f5f135d48fa88e203622ac8c5798b1"),
        3250: ("464e849558b7568ba4244c3572f56c6fee508ce48c71af204e9c06f9d9e588bc",
               "d04f9ff3800083c2a2f294419937bb9e90f3f7179aa6bf146f8e8d2f61364cc1"),
    }
    for n, hashes in expected.items():
        arrays = mc.run_trials_multi(dist.IID(dist.Pareto(1.0, 2.2)), ests, 0.1, n, 2000,
                                     GOLDEN_SEED, workers=1)
        assert tuple(_sha256(a) for a in arrays) == hashes


def test_golden_corrupt_demo_estimates():
    # the corrupt-demo reference job: Student-t(2.5), four estimators, N = 3250, 64 trials
    ests = (estim.EstimatorConfig("plugin"),
            estim.EstimatorConfig("truncated", m=250, beta1=0.5, beta2=0.6),
            estim.EstimatorConfig("median_of_blocks", m=250),
            estim.EstimatorConfig("trimmed"))
    expected = {
        "clean": ("1d43ed46e9fa034e0de40c1d39c5e22c32160ea2148c0c09ad78c1c6a4d16c24",
                  "0b8b859bfca040933b499cd96dc806c29c776a5b9bfe72b2a26a5a22aa82797b",
                  "db3a4b315585954d1addc46dd03a20e70a91acd174c7d0961736e2f5a80c002a",
                  "d42612dedfbbff84c47c48a3732a1b058d686d0d7cf970f1239a567e2d59a0b7"),
        "corrupted": ("3bab8cb69f17fd062c3457c586bf159855cd5d50784ad29f13ead4dd9a57ce45",
                      "df277034c17aba5bc125c270a25b8c25d466e5ae8ed98ac4f0dfd702a25adc5b",
                      "ed1db543932081d2592c86b6131f855909adddc28aa7326ae37d2fd505bee8a8",
                      "2d9619d18232833ee98761f83d23da6eb8f333bc9781e72a71f4607187591f7b"),
    }
    for phase, model in (("clean", corrupt.NoCorruption()), ("corrupted", cli.DEMO_CORRUPTION)):
        arrays = mc.run_trials_multi(dist.IID(dist.StudentT(2.5)), ests, 0.1, 3250, 64,
                                     GOLDEN_SEED, model, workers=1)
        assert tuple(_sha256(a) for a in arrays) == expected[phase]


# --- curve -----------------------------------------------------------------------


def test_constant_curve_is_zero():
    curve = mc.deviation_curves(_constant_spec(), workers=1)[0]
    assert [pt.p_hat for pt in curve.points] == [0.0, 0.0]
    assert [pt.count for pt in curve.points] == [0, 0]
    assert [pt.n for pt in curve.points] == [20, 40]


def test_curve_counts_an_infinite_miss():
    # alpha = 0.3 at N = 90 gives the boundary point weight 0; shocks that overflow to
    # +inf make every plug-in estimate inf, which misses the truth by more than delta
    spec = mc.ExperimentSpec(process=dist.IID(dist.Pareto(1.0, 2.2)), estimators=(estim.EstimatorConfig("plugin"),),
                             alpha=0.3, sample_sizes=(90,), delta=1.0, trials=200, master_seed=7,
                             corruption=corrupt.MaxShiftGaussian(90, 1.7e308, 1e308))
    point = mc.deviation_curves(spec, workers=1)[0].points[0]
    assert (point.n, point.p_hat, point.count) == (90, 1.0, 200)


def test_curve_truth_follows_the_spec():
    # the truth is the exact ES of the spec's own law and alpha, also after a replace
    from shortfall import functionals as fn

    spec = mc.ExperimentSpec(process=dist.IID(dist.Pareto(1.0, 2.2)),
                             estimators=(estim.EstimatorConfig("plugin"),), alpha=0.1,
                             sample_sizes=(400,), delta=0.5, trials=300, master_seed=5)
    for run in (spec, dataclasses.replace(spec, alpha=0.025),
                dataclasses.replace(spec, process=dist.IID(dist.Pareto(1.0, 3.0)))):
        point = mc.deviation_curves(run, workers=1)[0].points[0]
        estimates = mc.run_trials(run, 400, workers=1)[0]
        truth = fn.es_exact(run.process.dist, run.alpha)
        assert point.count == mc.deviation_probability(estimates, truth, 0.5)[2]
        assert point.median_abs_error == float(np.median(np.abs(estimates - truth)))


def test_deviation_probability_stable_across_master_seeds():
    from shortfall import functionals as fn

    pareto = dist.Pareto(1.0, 2.2)
    truth = fn.es_exact(pareto, 0.1)
    estimates = {}
    for seed in (20260811, 555):
        spec = mc.ExperimentSpec(
            process=dist.IID(pareto), estimators=(estim.EstimatorConfig("plugin"),),
            alpha=0.1, sample_sizes=(3250,), delta=1.0, trials=20_000,
            master_seed=seed,
        )
        estimates[seed] = mc.run_trials(spec, 3250)[0]
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
    with pytest.raises(ParameterError, match="estimates: must be nonempty"):
        mc.histogram([], 3)


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


@pytest.mark.parametrize("process", [dist.IID(dist.Pareto(1.0, 2.2)), dist.AR1(0.5)])
def test_longrun_oracle_is_its_definition(process):
    # one path from the seed, cut into 100 stretches of 1000: the plug-in's batch-means variance
    if isinstance(process, dist.IID):
        path = dist.sample(process.dist, 100 * 1000, 5)
    else:
        path = dist.ar1_path(process.rho, 100 * 1000, 5)
    stretches = np.array([estim.plugin_es(b, 0.1) for b in path.reshape(100, 1000)])
    assert mc.longrun_sigma_oracle(process, 0.1, 1000, 100, 5) == 1000 * stretches.var(ddof=1)


def test_longrun_oracle_validation():
    with pytest.raises(ParameterError, match="blocks"):
        mc.longrun_sigma_oracle(dist.AR1(0.5), 0.1, 1000, 50, 0)
    with pytest.raises(ParameterError, match="block_size: must be >= 2"):
        mc.longrun_sigma_oracle(dist.AR1(0.5), 0.1, 1, 200, 0)


_RUN = dict(process=dist.IID(dist.Exponential(1.0)), estimators=(estim.EstimatorConfig("plugin"),),
            alpha=0.1, n=100, trials=10, master_seed=7, workers=1)
_ORACLE = dict(process=dist.AR1(0.5), alpha=0.1, block_size=1000, blocks=100, seed=0)
_DRAW = dict(process=dist.IID(dist.Exponential(1.0)), n=100, master_seed=7, t_start=0, t_stop=10)


@pytest.mark.parametrize("fn, kwargs, field", [
    (mc.histogram, dict(estimates=[1.0, 2.0], bins=2.5), "bins"),
    (mc.histogram, dict(estimates=[1.0, 2.0], bins=True), "bins"),
    (mc.longrun_sigma_oracle, dict(_ORACLE, block_size=2.5), "block_size"),
    (mc.longrun_sigma_oracle, dict(_ORACLE, blocks=100.5), "blocks"),
    (mc.longrun_sigma_oracle, dict(_ORACLE, seed=0.5), "seed"),
    (mc.run_trials_multi, dict(_RUN, n=100.5), "n"),
    (mc.run_trials_multi, dict(_RUN, trials=10.5), "trials"),
    (mc.run_trials_multi, dict(_RUN, master_seed=1.5), "master_seed"),
    (mc.draw_trial_samples, dict(_DRAW, n=2.5), "n"),
    (mc.draw_trial_samples, dict(_DRAW, master_seed=1.5), "master_seed"),
    (mc.draw_trial_samples, dict(_DRAW, master_seed=True), "master_seed"),
    (mc.draw_trial_samples, dict(_DRAW, t_start=0.5), "t_start"),
    (mc.draw_trial_samples, dict(_DRAW, t_stop=10.5), "t_stop"),
])
def test_library_counts_are_whole_numbers(fn, kwargs, field):
    with pytest.raises(ParameterError, match=rf"^{field}: must be an integer \(got "):
        fn(**kwargs)


@pytest.mark.parametrize("t_start, t_stop", [(-1, 10), (5, 4), (-3, -1)])
def test_draw_trial_samples_takes_an_ordered_range_of_trials(t_start, t_stop):
    with pytest.raises(ParameterError, match=rf"^t_start/t_stop: need 0 <= t_start <= t_stop "
                                             rf"\(got {t_start}, {t_stop}\)$"):
        mc.draw_trial_samples(**dict(_DRAW, t_start=t_start, t_stop=t_stop))
    assert mc.draw_trial_samples(**dict(_DRAW, t_start=4, t_stop=4)).shape == (0, 100)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=0), r"^n: must be >= 1 \(got 0\)$"),
    (dict(n=-5), r"^n: must be >= 1 \(got -5\)$"),
    (dict(estimators=()), r"^estimators: need at least one estimator$"),
    (dict(estimators="plugin"), r"^estimators: must be a list \(got 'plugin'\)$"),
], ids=["n_zero", "n_negative", "no_estimators", "str_estimators"])
def test_run_trials_multi_checks_its_arguments_as_their_spec(kwargs, message):
    with pytest.raises(ParameterError, match=message):
        mc.run_trials_multi(**dict(_RUN, **kwargs))


@pytest.mark.parametrize("field, value, message", [
    ("process", dist.Normal(0.0, 1.0), "process: must be an IID or AR1 process"),
    ("estimators", ({"kind": "plugin"},), "estimators: must be EstimatorConfig objects"),
], ids=["bare_family", "json_estimator"])
def test_spec_and_run_reject_what_no_run_can_use(field, value, message):
    with pytest.raises(ParameterError, match=rf"^{message} \(got "):
        _constant_spec(**{field: value})
    with pytest.raises(ParameterError, match=rf"^{message} \(got "):
        mc.run_trials_multi(**dict(_RUN, **{field: value}))


def test_library_counts_written_as_floats_are_read_as_ints():
    whole = mc.run_trials_multi(**dict(_RUN, n=100.0, trials=10.0, master_seed=7.0))
    assert np.array_equal(whole[0], mc.run_trials_multi(**_RUN)[0])
    assert mc.histogram([1.0, 2.0], 2.0).counts.tolist() == [1, 1]


def test_resolve_workers_env(monkeypatch):
    monkeypatch.setenv("SHORTFALL_WORKERS", "3")
    assert mc.resolve_workers(0) == 3
    monkeypatch.delenv("SHORTFALL_WORKERS")
    assert mc.resolve_workers(5) == 5
    with pytest.raises(ParameterError):
        mc.resolve_workers(-1)
    for bad in (2.5, True):
        with pytest.raises(ParameterError, match=rf"^workers: must be an integer \(got {bad}\)$"):
            mc.resolve_workers(bad)
    monkeypatch.setenv("SHORTFALL_WORKERS", "0")  # auto, as for an explicit 0
    assert mc.resolve_workers(0) == max(1, min(os.cpu_count() or 1, 8))
    for bad in ("abc", "2.5", "-2"):
        monkeypatch.setenv("SHORTFALL_WORKERS", bad)
        with pytest.raises(ParameterError, match="SHORTFALL_WORKERS"):
            mc.resolve_workers(0)
        assert mc.resolve_workers(4) == 4  # an explicit count ignores the env var
