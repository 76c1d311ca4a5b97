import math

import numpy as np
import pytest

from shortfall import corrupt, dist, rng
from shortfall.errors import ParameterError


def test_none_is_identity():
    x = np.arange(10.0)
    out = corrupt.apply_corruption(x, corrupt.NoCorruption(), 5)
    assert np.array_equal(out, x)


def test_max_shift_touches_first_k_only():
    x = np.zeros(100)
    model = corrupt.MaxShiftGaussian(k=3, mu=5.0, sigma=250.0)
    out = corrupt.apply_corruption(x, model, 11)
    assert np.array_equal(out[3:], x[3:])
    assert (out != x).sum() <= 3


def test_max_shift_is_max_with_gaussian():
    model = corrupt.MaxShiftGaussian(k=3, mu=5.0, sigma=250.0)
    seed = 77
    x = np.full(10, 1.0)
    out = corrupt.apply_corruption(x, model, seed)
    shocks = 5.0 + 250.0 * dist.Normal(0.0, 1.0).quantile(rng.uniforms(seed, 3))
    assert np.allclose(out[:3], np.maximum(1.0, shocks))


def test_max_shift_never_decreases():
    model = corrupt.MaxShiftGaussian(k=5, mu=-100.0, sigma=1.0)
    x = np.linspace(-1, 1, 20)
    out = corrupt.apply_corruption(x, model, 3)
    assert np.all(out >= x)
    assert np.array_equal(out, x)  # all shocks far below the data


def test_replace_largest_multiset():
    x = np.arange(1.0, 11.0)
    out = corrupt.apply_corruption(x, corrupt.ReplaceLargest(k=2, value=0.0), 0)
    assert sorted(out.tolist()) == [0.0, 0.0] + [float(i) for i in range(1, 9)]


def test_replace_largest_with_ties_changes_at_most_k():
    x = np.full(8, 3.0)
    out = corrupt.apply_corruption(x, corrupt.ReplaceLargest(k=3, value=-1.0), 0)
    assert (out != x).sum() == 3


def test_replace_indices_one_based():
    x = np.arange(1.0, 6.0)
    model = corrupt.ReplaceIndices(frozenset({1, 5}), value=9.0)
    out = corrupt.apply_corruption(x, model, 0)
    assert out.tolist() == [9.0, 2.0, 3.0, 4.0, 9.0]
    with pytest.raises(ParameterError, match="indices"):
        corrupt.ReplaceIndices(frozenset({0}), value=9.0)
    with pytest.raises(ParameterError, match="indices"):
        corrupt.apply_corruption(x, corrupt.ReplaceIndices(frozenset({6}), 0.0), 0)


def test_k_larger_than_n_rejected():
    with pytest.raises(ParameterError, match="k"):
        corrupt.apply_corruption(np.arange(3.0), corrupt.MaxShiftGaussian(5, 0.0, 1.0), 0)
    with pytest.raises(ParameterError, match="k"):
        corrupt.apply_corruption(np.arange(3.0), corrupt.ReplaceLargest(5, 0.0), 0)


@pytest.mark.parametrize("make, message", [
    (lambda: corrupt.MaxShiftGaussian(-1, 0.0, 1.0), "k: must be >= 0"),
    (lambda: corrupt.MaxShiftGaussian(1, 0.0, 0.0), "sigma: must be > 0"),
    (lambda: corrupt.ReplaceLargest(-1, 0.0), "k: must be >= 0"),
    (lambda: corrupt.ReplaceIndices(frozenset({1.5}), 1.0), r"indices: must be an integer \(got 1.5\)"),
    (lambda: corrupt.ReplaceIndices(5, 1.0), r"indices: must be a list \(got 5\)"),
    (lambda: corrupt.ReplaceIndices("12", 1.0), r"indices: must be a list \(got '12'\)"),
    (lambda: corrupt.apply_corruption(np.arange(3.0), object(), 0), "unknown corruption model object"),
], ids=["max_shift_k", "max_shift_sigma", "replace_largest_k", "fractional_index", "scalar_indices",
        "string_indices", "unknown_model"])
def test_invalid_model_names_field(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


@pytest.mark.parametrize("model", [
    corrupt.NoCorruption(),
    corrupt.MaxShiftGaussian(k=4, mu=2.0, sigma=50.0),
    corrupt.ReplaceLargest(k=4, value=1e6),
    corrupt.ReplaceIndices(frozenset({2, 9, 17}), value=-1e6),
], ids=lambda m: type(m).__name__)
def test_hamming_budget_and_determinism(model):
    x = np.random.default_rng(1).exponential(size=40)
    a = corrupt.apply_corruption(x, model, 123)
    b = corrupt.apply_corruption(x, model, 123)
    assert np.array_equal(a, b)
    assert (a != x).sum() <= model.k


def test_batch_matches_single():
    x = np.random.default_rng(2).exponential(size=(6, 30))
    seeds = np.arange(100, 106, dtype=np.uint64)
    for model in (corrupt.MaxShiftGaussian(3, 5.0, 250.0),
                  corrupt.ReplaceLargest(2, 7.0),
                  corrupt.ReplaceIndices(frozenset({1, 30}), 0.5)):
        batch = corrupt.apply_corruption_batch(x.copy(), model, seeds)
        singles = [corrupt.apply_corruption(row, model, int(s)) for row, s in zip(x, seeds)]
        assert np.array_equal(batch, np.array(singles))


def test_budget_values():
    assert corrupt.corruption_budget(3250, 0.5) == 5
    assert corrupt.corruption_budget(140, 1.0) == 1
    assert corrupt.corruption_budget(100, 0.1) == 0
    with pytest.raises(ParameterError, match="eps"):
        corrupt.corruption_budget(100, 0.0)
    with pytest.raises(ParameterError, match="N: must be >= 0"):
        corrupt.corruption_budget(-1, 0.5)
    with pytest.raises(ParameterError, match=r"N: must be an integer \(got 3250.7\)"):
        corrupt.corruption_budget(3250.7, 0.21)


@pytest.mark.parametrize("build, message", [
    (lambda: corrupt.MaxShiftGaussian(k=2.5, mu=0.0, sigma=1.0), r"^k: must be an integer \(got 2.5\)$"),
    (lambda: corrupt.ReplaceLargest(k=1.5, value=0.0), r"^k: must be an integer \(got 1.5\)$"),
    (lambda: corrupt.ReplaceLargest(k=1, value="0"), r"^value: must be a number \(got '0'\)$"),
])
def test_constructor_applies_number_rule(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_json_roundtrip():
    models = [
        corrupt.NoCorruption(),
        corrupt.MaxShiftGaussian(3, 5.0, 250.0),
        corrupt.ReplaceLargest(2, 0.0),
        corrupt.ReplaceIndices(frozenset({4, 7}), 1.5),
    ]
    for model in models:
        assert corrupt.model_from_json(corrupt.model_to_json(model)) == model
    written = [list(corrupt.model_to_json(model).items()) for model in models]
    assert written == [
        [("kind", "none")],
        [("kind", "max_shift_gaussian"), ("k", 3), ("mu", 5.0), ("sigma", 250.0)],
        [("kind", "replace_largest"), ("k", 2), ("value", 0.0)],
        [("kind", "replace_indices"), ("indices", [4, 7]), ("value", 1.5)],
    ]
    assert corrupt.model_to_json(corrupt.ReplaceIndices([9, 2, 5], -1))["indices"] == [2, 5, 9]
    assert corrupt.model_from_json(None) == corrupt.NoCorruption()
    with pytest.raises(ParameterError, match="kind"):
        corrupt.model_from_json({"kind": "flip_sign"})
    for bad, message in (({"kind": "replace_largest", "k": 1.5, "value": 0.0}, "k: must be an integer"),
                         ({"kind": "max_shift_gaussian", "k": 3, "mu": "5", "sigma": 1.0},
                          "mu: must be a number"),
                         ({"kind": "replace_indices", "indices": [True], "value": 0.0},
                          "indices: must be an integer")):
        with pytest.raises(ParameterError, match=message):
            corrupt.model_from_json(bad)
    for bad in ({"kind": "none", "k": 5},
                {"kind": "replace_largest", "k": 2, "value": 0.0, "sigma": 1.0}):
        with pytest.raises(ParameterError, match="unknown field.*'(k|sigma)'"):
            corrupt.model_from_json(bad)


def test_no_corruption_has_no_settable_k():
    assert corrupt.NoCorruption().k == 0
    with pytest.raises(TypeError):
        corrupt.NoCorruption(k=5)


@pytest.mark.parametrize("build, field", [
    (lambda bad: corrupt.ReplaceIndices(frozenset({1}), value=bad), "value"),
    (lambda bad: corrupt.ReplaceLargest(2, value=bad), "value"),
    (lambda bad: corrupt.MaxShiftGaussian(3, mu=bad, sigma=1.0), "mu"),
    (lambda bad: corrupt.MaxShiftGaussian(3, mu=0.0, sigma=bad), "sigma"),
], ids=["replace_indices_value", "replace_largest_value", "max_shift_mu", "max_shift_sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_numbers_must_be_finite(build, field, bad):
    # a NaN written into a sample cannot be ordered, and makes every estimate NaN
    with pytest.raises(ParameterError, match=f"^{field}: must be finite \\(got {bad}\\)$"):
        build(bad)


@pytest.mark.parametrize("model", [
    corrupt.MaxShiftGaussian(3, 5.0, 250.0),
    corrupt.MaxShiftGaussian(10, 1.0, 2.0),
    corrupt.ReplaceLargest(4, 7.0),
    corrupt.ReplaceIndices(frozenset({1, 17, 30}), 0.5),
], ids=lambda m: type(m).__name__)
def test_changed_cells_read_uniforms_as_samples(model):
    # each attack is defined once: the cells it picks from U and the quantile
    # are the cells it picks from X = quantile(U), and X takes exactly those
    family = dist.Pareto(1.0, 2.2)
    seeds = np.arange(40, 48, dtype=np.uint64)
    u = rng.uniform_matrix(seeds, 30)
    x = family.quantile(u)
    from_u = corrupt.changed_cells(u, model, seeds, family.quantile)
    from_x = corrupt.changed_cells(x, model, seeds)
    assert all(np.array_equal(a, b) for a, b in zip(from_u, from_x))
    rows, cols, values = from_x
    corrupted = corrupt.apply_corruption_batch(x.copy(), model, seeds)
    changed = np.zeros(x.shape, dtype=bool)
    changed[rows, cols] = True
    assert np.array_equal(corrupted[rows, cols], values)
    assert np.array_equal(corrupted[~changed], x[~changed])
