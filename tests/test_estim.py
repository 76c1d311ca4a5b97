import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import riemann_plugin_oracle
from shortfall import dist, estim, functionals, rng
from shortfall.errors import ParameterError

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
sample_lists = st.lists(finite_floats, min_size=1, max_size=40)


# --- plug-in ---------------------------------------------------------------------


def test_plugin_constant():
    for alpha in (0.1, 0.25, 0.4):
        assert estim.plugin_es([7.5] * 9, alpha) == pytest.approx(7.5, rel=1e-14)


def test_plugin_top_decile():
    assert estim.plugin_es(np.arange(1.0, 11.0), 0.1) == pytest.approx(10.0, rel=1e-12)


def test_plugin_fractional_weights():
    values = np.arange(1.0, 11.0)
    expected = 29.0 / 3.0
    assert estim.plugin_es(values, 0.15) == pytest.approx(expected, rel=1e-12)
    assert riemann_plugin_oracle(values, 0.15) == pytest.approx(expected, abs=1e-5)


def test_plugin_unsorted_input():
    rng = np.random.default_rng(5)
    values = rng.permutation(np.arange(1.0, 11.0))
    assert estim.plugin_es(values, 0.15) == pytest.approx(29.0 / 3.0, rel=1e-12)


def test_plugin_integer_alpha_n_equals_top_mean():
    rng = np.random.default_rng(11)
    for n, alpha in ((10, 0.2), (50, 0.1), (40, 0.25)):
        x = rng.normal(size=n)
        k = round(alpha * n)
        top_mean = np.mean(np.sort(x)[-k:])
        assert estim.plugin_es(x, alpha) == pytest.approx(top_mean, rel=1e-12)


def test_plugin_matches_riemann_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = rng.integers(1, 31)
        x = rng.uniform(-5, 5, size=n)
        alpha = rng.uniform(0.02, 0.49)
        assert estim.plugin_es(x, alpha) == pytest.approx(
            riemann_plugin_oracle(x, alpha), abs=1e-5
        )


def test_plugin_empty_rejected():
    with pytest.raises(ParameterError, match="sample"):
        estim.plugin_es([], 0.1)
    with pytest.raises(ParameterError, match="sample"):
        estim.plugin_es([math.nan, 1.0], 0.1)
    for samples in (np.ones(5), np.ones((3, 0))):
        with pytest.raises(ParameterError, match=r"samples: expected a \(trials, N\) matrix"):
            estim.EstimatorConfig("plugin").evaluate_batch(samples, 0.1)


# --- interpolated quantile ---------------------------------------------------------


def test_interp_examples():
    assert estim.interp_quantile([1.0, 2.0, 3.0], 0.25) == pytest.approx(1.5)
    assert estim.interp_quantile([10, 20, 30, 40, 50], 0.5) == pytest.approx(30.0)
    assert estim.interp_quantile([3.0, 1.0, 2.0], 1.0) == pytest.approx(3.0)
    assert estim.interp_quantile([3.0, 1.0, 2.0], 0.0) == pytest.approx(1.0)


def test_interp_single_value_extension():
    assert estim.interp_quantile([4.2], 0.7) == 4.2
    with pytest.raises(ParameterError):
        estim.interp_quantile([], 0.5)
    with pytest.raises(ParameterError, match="beta"):
        estim.interp_quantile([1.0, 2.0], 1.5)


def test_interp_matches_numpy_linear():
    rng = np.random.default_rng(3)
    values = rng.normal(size=13)
    for beta in (0.0, 0.1, 0.5, 0.6, 0.95, 1.0):
        assert estim.interp_quantile(values, beta) == pytest.approx(
            np.quantile(values, beta, method="linear"), rel=1e-12
        )


def test_whole_position_next_to_an_inf_is_the_order_statistic():
    # blocks of ten give the estimates 1, 2 and inf (to rounding): the median is
    # the middle one, where (1 - 0) * 2 + 0 * inf would be nan
    row = np.array([[1.0] * 10 + [2.0] * 10 + [math.inf] * 10])
    blocks = estim.block_estimates_batch(row, 0.1, m=10)
    assert blocks[0, 1] == pytest.approx(2.0) and blocks[0, 2] == math.inf
    median = estim.EstimatorConfig("median_of_blocks", m=10)
    assert median.evaluate_batch(row, 0.1).tolist() == [blocks[0, 1]]
    assert estim.EstimatorConfig("truncated", m=10).evaluate_batch(row, 0.1).tolist() == [math.inf]
    # beta = 1 sits at frac 1 of the last interval: 0 * -inf + 1 * 5 would be nan
    row = np.array([[-math.inf] * 10 + [5.0] * 10])
    top = estim.block_estimates_batch(row, 0.1, m=10)[0, 1]
    full = estim.EstimatorConfig("plugin").evaluate_batch(row, 0.1)[0]
    with pytest.warns(UserWarning, match="range"):
        got = estim.EstimatorConfig("truncated", m=10, beta1=0.5, beta2=1.0).evaluate_batch(row, 0.1)
    assert got.tolist() == [min(full, top)] and math.isfinite(top)
    # at alpha = 0.3 and N = 90 the boundary point has weight 0: 0 * inf would be nan
    row = np.r_[np.zeros(60), np.full(30, math.inf)][None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estim.EstimatorConfig("plugin").evaluate_batch(row, 0.3).tolist() == [math.inf]


# --- blocks ------------------------------------------------------------------------


def test_block_partition_no_gap():
    values = np.arange(1.0, 11.0)
    blocks = estim.block_estimates(values, 0.2, m=5, gap=0)
    assert blocks.tolist() == [
        estim.plugin_es(values[:5], 0.2),
        estim.plugin_es(values[5:], 0.2),
    ]


def test_block_gap_keeps_trailing_block():
    values = np.arange(1.0, 21.0)
    blocks = estim.block_estimates(values, 0.2, m=5, gap=5)
    assert blocks.tolist() == [
        estim.plugin_es(values[5:10], 0.2),
        estim.plugin_es(values[15:20], 0.2),
    ]


def test_block_constant_sample():
    blocks = estim.block_estimates([2.0] * 17, 0.1, m=4, gap=1)
    assert blocks.shape == (3,)
    assert np.allclose(blocks, 2.0)


def test_block_leftovers_dropped():
    values = np.arange(1.0, 12.0)  # N=11, m=5: block 3 is incomplete
    blocks = estim.block_estimates(values, 0.2, m=5, gap=0)
    assert blocks.size == 2


def test_block_zero_blocks_rejected():
    with pytest.raises(ParameterError, match="m"):
        estim.block_estimates([1.0, 2.0], 0.1, m=5, gap=0)
    for m, gap, message in ((0, 0, "m: block size must be >= 1"), (5, -1, "gap: must be >= 0"),
                            (2.5, 0, r"^m: must be an integer \(got 2.5\)$"),
                            (True, 0, r"^m: must be an integer \(got True\)$"),
                            (5, 1.5, r"^gap: must be an integer \(got 1.5\)$")):
        with pytest.raises(ParameterError, match=message):
            estim.block_estimates([1.0, 2.0], 0.1, m=m, gap=gap)
        with pytest.raises(ParameterError, match=message):
            estim.block_estimates_batch([[1.0, 2.0]], 0.1, m=m, gap=gap)
    x = np.arange(100.0)
    for call in (estim.truncated_es, estim.truncated_es_interval):
        with pytest.raises(ParameterError, match=r"^m: must be an integer \(got 2.5\)$"):
            call(x, 0.1, m=2.5)
        with pytest.raises(ParameterError, match=r"^gap: must be an integer \(got 1.5\)$"):
            call(x, 0.1, m=10, gap=1.5)


# --- truncated ---------------------------------------------------------------------


def test_truncated_constant():
    assert estim.truncated_es([3.0] * 40, 0.1, m=10) == pytest.approx(3.0)


def test_truncated_identity_inside_interval():
    rng = np.random.default_rng(8)
    hits = 0
    for seed in range(30):
        x = np.random.default_rng(seed).exponential(size=120)
        value, lower, upper = estim.truncated_es_interval(x, 0.1, m=20, beta1=0.35, beta2=0.65)
        full = estim.plugin_es(x, 0.1)
        if lower <= full <= upper:
            assert value == full
            hits += 1
        assert lower <= value <= upper
    assert hits > 0


def test_truncated_needs_two_blocks():
    with pytest.raises(ParameterError, match="reduce m"):
        estim.truncated_es(np.arange(11.0), 0.1, m=10)


def test_truncated_beta_warning():
    x = np.random.default_rng(0).exponential(size=100)
    with pytest.warns(UserWarning, match="range"):
        estim.truncated_es(x, 0.1, m=10, beta1=0.2, beta2=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estim.truncated_es(x, 0.1, m=10, beta1=0.5, beta2=0.6)


def test_truncated_beta_order_rejected():
    with pytest.raises(ParameterError, match="beta"):
        estim.truncated_es(np.arange(100.0), 0.1, m=10, beta1=0.6, beta2=0.5)


@pytest.mark.parametrize("betas, message", [
    (dict(beta1="0.5"), r"^beta1: must be a number \(got '0.5'\)$"),
    (dict(beta2=True), r"^beta2: must be a number \(got True\)$"),
], ids=["str_beta1", "bool_beta2"])
def test_truncated_betas_follow_the_number_rule(betas, message):
    for call in (estim.truncated_es, estim.truncated_es_interval):
        with pytest.raises(ParameterError, match=message):
            call(np.arange(100.0), 0.1, m=10, **betas)


# --- median of blocks ---------------------------------------------------------------


def test_median_of_blocks_odd_and_even():
    # m=1 makes each value its own block estimate
    assert estim.median_of_blocks([1.0, 2.0, 3.0], 0.1, m=1) == pytest.approx(2.0)
    assert estim.median_of_blocks([1.0, 2.0, 3.0, 4.0], 0.1, m=1) == pytest.approx(2.5)


def test_median_of_blocks_constant():
    assert estim.median_of_blocks([5.5] * 30, 0.2, m=10) == pytest.approx(5.5)


def test_median_single_block_warns():
    with pytest.warns(UserWarning, match="one complete block"):
        value = estim.median_of_blocks(np.arange(10.0), 0.2, m=8)
    assert value == pytest.approx(estim.plugin_es(np.arange(8.0), 0.2))


def test_median_equals_truncated_degenerate():
    x = np.random.default_rng(1).exponential(size=200)
    blocks = estim.block_estimates(x, 0.1, m=20)
    q_half = estim.interp_quantile(blocks, 0.5)
    assert estim.median_of_blocks(x, 0.1, m=20) == pytest.approx(q_half)


# --- trimmed -----------------------------------------------------------------------


def test_trim_count_examples():
    assert estim._trim_count(3250, 0.25, 1.0 / 3.0) == 3
    assert estim._trim_count(10, 0.25, 1.0 / 3.0) == 0


def test_trimmed_no_op_when_k_zero():
    x = np.random.default_rng(2).exponential(size=10)
    assert estim.trimmed_es(x, 0.1) == estim.plugin_es(x, 0.1)


def test_untrimmed_trimmed_selects_the_plugin_segment_once(monkeypatch):
    calls = []
    select = estim._plugin_top

    def counted(a, alpha):
        calls.append(a.shape)
        return select(a, alpha)

    monkeypatch.setattr(estim, "_plugin_top", counted)
    x = np.random.default_rng(3).exponential(size=(7, 50))
    assert estim._trim_count(50, estim.DEFAULT_TRIM_C, estim.DEFAULT_TRIM_EXPONENT) == 0
    plugin, trimmed = estim.evaluate_many(
        [estim.EstimatorConfig("plugin"), estim.EstimatorConfig("trimmed")], x, 0.1)
    assert calls == [(7, 50)]
    assert plugin.tobytes() == trimmed.tobytes()


def test_trimmed_drops_largest():
    values = np.arange(1.0, 11.0)
    got = estim.trimmed_es(values, 0.2, c=0.1, exponent=1.0)  # k=1
    expected = estim.plugin_es(np.arange(1.0, 10.0), 0.2)
    assert got == pytest.approx(expected, rel=1e-12)
    assert riemann_plugin_oracle(np.arange(1.0, 10.0), 0.2) == pytest.approx(expected, abs=1e-5)


def test_trimmed_rejects_full_trim():
    with pytest.raises(ParameterError, match="c"):
        estim.trimmed_es([1.0, 2.0], 0.1, c=3.0, exponent=1.0)


# --- suggested block size ------------------------------------------------------------


def test_suggested_block_size():
    assert estim.suggested_block_size(1.0) == 11
    assert estim.suggested_block_size(0.2) == 275
    assert estim.suggested_block_size(0.1) == 1100
    with pytest.raises(ParameterError, match="eps"):
        estim.suggested_block_size(0.0)
    with pytest.raises(ParameterError, match="eps"):
        estim.suggested_block_size(1.5)


# --- batch versus scalar --------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.07, 0.1, 0.33])
@pytest.mark.parametrize("gap", [0, 3])
def test_batch_matches_scalar(alpha, gap):
    rng = np.random.default_rng(17)
    samples = rng.exponential(size=(9, 83))
    assert np.allclose(
        estim.EstimatorConfig("plugin").evaluate_batch(samples, alpha),
        [estim.plugin_es(r, alpha) for r in samples], atol=1e-12,
    )
    got, lower, upper = (
        estim.EstimatorConfig("truncated", m=11, beta1=b1, beta2=b2, gap=gap).evaluate_batch(
            samples, alpha)
        for b1, b2 in ((0.4, 0.6), (0.4, 0.4), (0.6, 0.6)))
    singles = [estim.truncated_es_interval(r, alpha, m=11, beta1=0.4, beta2=0.6, gap=gap)
               for r in samples]
    assert np.allclose(got, [s[0] for s in singles], atol=1e-12)
    assert np.allclose(lower, [s[1] for s in singles], atol=1e-12)
    assert np.allclose(upper, [s[2] for s in singles], atol=1e-12)
    assert np.allclose(
        estim.EstimatorConfig("median_of_blocks", m=11, gap=gap).evaluate_batch(samples, alpha),
        [estim.median_of_blocks(r, alpha, m=11, gap=gap) for r in samples], atol=1e-12,
    )
    assert np.allclose(
        estim.EstimatorConfig("trimmed", trim_c=0.4, trim_exponent=0.5).evaluate_batch(
            samples, alpha),
        [estim.trimmed_es(r, alpha, c=0.4, exponent=0.5) for r in samples], atol=1e-12,
    )


def _fsum_plugin(values, alpha):
    # top order statistics summed exactly; each is divided by n first so a
    # tail of values near 1e308 cannot overflow the reference itself
    s = np.sort(values)
    n = s.size
    k = min(int(math.floor((1.0 - alpha) * n)), n - 1)
    boundary = (k + 1.0) / n - max(k / n, 1.0 - alpha)
    return (math.fsum(s[k + 1:] / n) + boundary * s[k]) / alpha


def _fsum_interp(values, beta):
    s = np.sort(values)
    if s.size == 1:
        return float(s[0])
    position = beta * (s.size - 1)
    j = min(int(math.floor(position)), s.size - 2)
    return (1.0 - (position - j)) * s[j] + (position - j) * s[j + 1]


def _fsum_reference(kind, x, alpha, m):
    blocks = [_fsum_plugin(x[j * m:(j + 1) * m], alpha) for j in range(x.size // m)]
    if kind == "plugin":
        return _fsum_plugin(x, alpha)
    if kind == "truncated":
        lower, upper = _fsum_interp(blocks, 0.5), _fsum_interp(blocks, 0.6)
        return min(max(_fsum_plugin(x, alpha), lower), upper)
    if kind == "median_of_blocks":
        return _fsum_interp(blocks, 0.5)
    k = int(math.floor(0.25 * x.size ** (1.0 / 3.0)))
    return _fsum_plugin(np.sort(x)[: x.size - k], alpha)


_EDGE_SAMPLES = {
    "ties": (np.round(np.random.default_rng(31).exponential(size=600), 1), 100),
    "atom": (np.full(600, 2.5), 100),
    "one_block": (np.random.default_rng(37).exponential(size=150), 100),
    "near_1e308": (np.tile(np.r_[np.ones(50), np.full(50, 1e308)], 6), 100),
}


@pytest.mark.parametrize("case", sorted(_EDGE_SAMPLES))
@pytest.mark.parametrize("kind", ["plugin", "truncated", "median_of_blocks", "trimmed"])
def test_scalar_is_one_row_batch_on_edge_samples(kind, case):
    x, m = _EDGE_SAMPLES[case]
    alpha = 0.1
    scalar, batch = {
        "plugin": (lambda: estim.plugin_es(x, alpha),
                   lambda: estim.EstimatorConfig("plugin").evaluate_batch(x[None, :], alpha)),
        "truncated": (lambda: estim.truncated_es(x, alpha, m, 0.5, 0.6),
                      lambda: estim.EstimatorConfig("truncated", m=m, beta1=0.5, beta2=0.6)
                      .evaluate_batch(x[None, :], alpha)),
        "median_of_blocks": (lambda: estim.median_of_blocks(x, alpha, m),
                             lambda: estim.EstimatorConfig("median_of_blocks", m=m)
                             .evaluate_batch(x[None, :], alpha)),
        "trimmed": (lambda: estim.trimmed_es(x, alpha),
                    lambda: estim.EstimatorConfig("trimmed").evaluate_batch(x[None, :], alpha)),
    }[kind]
    cfg = estim.EstimatorConfig(kind, m=m)
    if kind == "truncated" and case == "one_block":
        for form in (scalar, batch, lambda: cfg.evaluate(x, alpha)):
            with pytest.raises(ParameterError, match="2 complete blocks"):
                form()
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one block: median of blocks warns
        got = scalar()
        rows = [batch()[0], cfg.evaluate(x, alpha), cfg.evaluate_batch(x[None, :], alpha)[0],
                estim.evaluate_many([cfg], x[None, :], alpha)[0][0]]
    assert all(np.float64(got).tobytes() == np.float64(r).tobytes() for r in rows)
    reference = _fsum_reference(kind, x, alpha, m)
    assert math.isfinite(got)
    assert abs(got - reference) <= 1e-12 * abs(reference)


# --- selection among the inputs of a transform -----------------------------------------


_ALL_KINDS = (estim.EstimatorConfig("plugin"),
              estim.EstimatorConfig("truncated"),
              estim.EstimatorConfig("median_of_blocks"),
              estim.EstimatorConfig("trimmed"),
              estim.EstimatorConfig("truncated", m=125, gap=125))


@pytest.mark.parametrize("n", [3250, 3333])
@pytest.mark.parametrize("spec", [*functionals.TABLE1_CATALOG, dist.Pareto(1.0, 2.2)], ids=repr)
def test_transform_gives_the_bits_of_the_transformed_samples(spec, n):
    assert not spec.has_atoms
    u = rng.uniform_matrix(rng.split_array(11, n, np.arange(24, dtype=np.uint64)), n)
    u[1, 1::2] = u[1, 0:n - 1:2]  # every value repeated once
    u[2, 17] = 1.0  # the top bin of the uniform map; an infinite quantile
    got = estim.evaluate_many(_ALL_KINDS, u, 0.1, spec.quantile)
    want = estim.evaluate_many(_ALL_KINDS, spec.quantile(u), 0.1)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert np.isinf(want[0][2])


# --- structural properties -------------------------------------------------------------


@given(values=sample_lists, a=st.floats(0.1, 5.0), b=st.floats(-20.0, 20.0),
       alpha=st.floats(0.05, 0.45))
@settings(max_examples=60, deadline=None)
def test_plugin_affine_equivariance(values, a, b, alpha):
    x = np.array(values)
    base = estim.plugin_es(x, alpha)
    shifted = estim.plugin_es(a * x + b, alpha)
    assert shifted == pytest.approx(a * base + b, rel=1e-9, abs=1e-9)


@given(values=st.lists(finite_floats, min_size=8, max_size=40),
       a=st.floats(0.1, 5.0), b=st.floats(-20.0, 20.0))
@settings(max_examples=40, deadline=None)
def test_all_estimators_affine_equivariant(values, a, b):
    x = np.array(values)
    alpha = 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fwd, inv in (
            (estim.truncated_es(x, alpha, m=4, beta1=0.45, beta2=0.55),
             estim.truncated_es(a * x + b, alpha, m=4, beta1=0.45, beta2=0.55)),
            (estim.median_of_blocks(x, alpha, m=4),
             estim.median_of_blocks(a * x + b, alpha, m=4)),
            (estim.trimmed_es(x, alpha, c=0.25, exponent=1.0 / 3.0),
             estim.trimmed_es(a * x + b, alpha, c=0.25, exponent=1.0 / 3.0)),
        ):
            assert inv == pytest.approx(a * fwd + b, rel=1e-9, abs=1e-9)


@given(values=sample_lists, alpha=st.floats(0.05, 0.45),
       bump=st.floats(0.001, 30.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_plugin_monotone_in_single_point(values, alpha, bump, data):
    x = np.array(values)
    i = data.draw(st.integers(0, len(values) - 1))
    base = estim.plugin_es(x, alpha)
    y = x.copy()
    y[i] += bump
    assert estim.plugin_es(y, alpha) >= base - 1e-10


@given(values=st.lists(finite_floats, min_size=10, max_size=60),
       alpha=st.floats(0.05, 0.45))
@settings(max_examples=40, deadline=None)
def test_plugin_and_trimmed_permutation_invariant(values, alpha):
    x = np.array(values)
    perm = np.random.default_rng(0).permutation(x.size)
    assert estim.plugin_es(x[perm], alpha) == pytest.approx(estim.plugin_es(x, alpha), rel=1e-12)
    assert estim.trimmed_es(x[perm], alpha) == pytest.approx(estim.trimmed_es(x, alpha), rel=1e-12)


def test_truncated_within_block_permutation_invariance():
    rng = np.random.default_rng(23)
    x = rng.exponential(size=60)
    base = estim.truncated_es(x, 0.1, m=10, beta1=0.4, beta2=0.6)
    y = x.copy()
    for j in range(6):
        y[10 * j: 10 * (j + 1)] = rng.permutation(y[10 * j: 10 * (j + 1)])
    assert estim.truncated_es(y, 0.1, m=10, beta1=0.4, beta2=0.6) == pytest.approx(base, rel=1e-12)


def test_clamp_interval_invariant_under_block_swaps():
    rng = np.random.default_rng(29)
    x = rng.exponential(size=60)
    _, lo, hi = estim.truncated_es_interval(x, 0.1, m=10, beta1=0.4, beta2=0.6)
    y = np.concatenate([x[30:40], x[10:20], x[50:60], x[0:10], x[40:50], x[20:30]])
    _, lo2, hi2 = estim.truncated_es_interval(y, 0.1, m=10, beta1=0.4, beta2=0.6)
    assert (lo2, hi2) == (pytest.approx(lo, rel=1e-12), pytest.approx(hi, rel=1e-12))


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_single_point_corruption_quantile_bracket(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n_blocks, m = data.draw(st.sampled_from([(5, 8), (9, 6), (13, 4)]))
    x = rng.exponential(size=n_blocks * m)
    beta = data.draw(st.floats(0.0, 1.0))
    i = data.draw(st.integers(0, x.size - 1))
    new_value = data.draw(st.floats(-100.0, 100.0))
    alpha = 0.25
    blocks_clean = estim.block_estimates(x, alpha, m=m)
    y = x.copy()
    y[i] = new_value
    blocks_dirty = estim.block_estimates(y, alpha, m=m)
    assert (blocks_clean != blocks_dirty).sum() <= 1
    # the corrupted quantile moves by at most one interpolation node; each
    # bracket side is valid as long as the shifted level stays inside [0, 1]
    # (at the extremes the corrupted order statistic is unbounded on that side)
    step = 1.0 / (n_blocks - 1)
    got = estim.interp_quantile(blocks_dirty, beta)
    if beta - step >= 0.0:
        lo = estim.interp_quantile(blocks_clean, beta - step)
        assert got >= lo - 1e-10
    if beta + step <= 1.0:
        hi = estim.interp_quantile(blocks_clean, beta + step)
        assert got <= hi + 1e-10


# --- config -----------------------------------------------------------------------


def test_estimator_config_roundtrip_and_eval():
    x = np.random.default_rng(4).exponential(size=300)
    configs = [
        estim.EstimatorConfig("plugin"),
        estim.EstimatorConfig("truncated", m=50, beta1=0.5, beta2=0.6),
        estim.EstimatorConfig("median_of_blocks", m=50),
        estim.EstimatorConfig("trimmed", trim_c=0.25, trim_exponent=1.0 / 3.0),
    ]
    for cfg in configs:
        again = estim.EstimatorConfig.from_json(cfg.to_json())
        assert again.evaluate(x, 0.1) == cfg.evaluate(x, 0.1)
        batch = cfg.evaluate_batch(x[None, :], 0.1)
        assert batch[0] == pytest.approx(cfg.evaluate(x, 0.1), rel=1e-12)
    with pytest.raises(ParameterError, match="kind"):
        estim.EstimatorConfig("winsorized")
    for c in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="trim_c"):
            estim.EstimatorConfig("trimmed", trim_c=c)
        with pytest.raises(ParameterError, match="trim_c"):
            estim.trimmed_es(x, 0.1, c=c)
    for exponent in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="trim_exp"):
            estim.EstimatorConfig("trimmed", trim_exponent=exponent)
        with pytest.raises(ParameterError, match="trim_exp"):
            estim.trimmed_es(x, 0.1, exponent=exponent)
    for c, exponent, message in (("x", 1.0, "^trim_c: must be a number"),
                                 (0.25, None, "^trim_exp: must be a number")):
        with pytest.raises(ParameterError, match=message):
            estim.EstimatorConfig("trimmed", trim_c=c, trim_exponent=exponent)
    for c, exponent in ((1e308, 1.0 / 3.0), (0.25, 1e10)):  # finite, but c * N**exponent overflows
        with pytest.raises(ParameterError, match="whole sample"):
            estim.trimmed_es(x, 0.1, c=c, exponent=exponent)
    with pytest.raises(ParameterError, match="unknown field"):
        estim.EstimatorConfig.from_json({"kind": "plugin", "bogus": 1})
    with pytest.raises(ParameterError, match=r"unknown field\(s\) \['beta1', 'm'\]"):
        estim.EstimatorConfig.from_json({"kind": "plugin", "m": -5, "beta1": 7})
    with pytest.raises(ParameterError, match="unknown field.*'trim_c'"):
        estim.EstimatorConfig.from_json({"kind": "median_of_blocks", "m": 50, "trim_c": 1})
    for field, value, rule in (("m", 50.5, "an integer"), ("m", True, "an integer"),
                               ("gap", "2", "an integer"), ("beta1", "0.5", "a number"),
                               ("beta2", False, "a number")):
        with pytest.raises(ParameterError, match=f"{field}: must be {rule}"):
            estim.EstimatorConfig.from_json({"kind": "truncated", field: value})
    assert estim.EstimatorConfig.from_json({"kind": "truncated", "m": 50.0}).m == 50
    for bad in ({"kind": "trimmed", "trim_c": "1"}, {"kind": "trimmed", "trim_exp": None}):
        with pytest.raises(ParameterError, match="trim_(c|exp): must be a number"):
            estim.EstimatorConfig.from_json(bad)
    for kwargs, message in (({"m": 2.5}, r"^m: must be an integer \(got 2.5\)$"),
                            ({"beta1": "0.5"}, r"^beta1: must be a number \(got '0.5'\)$")):
        with pytest.raises(ParameterError, match=message):
            estim.EstimatorConfig("truncated", **kwargs)
    with pytest.raises(ParameterError, match="^trim_exp: must be a number"):
        estim.EstimatorConfig("trimmed", trim_exponent="1")
    built = estim.EstimatorConfig("truncated", m=np.int64(50), beta1=np.float32(0.5))
    assert type(built.m) is int and type(built.beta1) is float and built.m == 50
    labels = [estim.EstimatorConfig("median_of_blocks", m=50, gap=g).label() for g in (0, 50)]
    assert labels == ["median_of_blocks(m=50)", "median_of_blocks(m=50,gap=50)"]
