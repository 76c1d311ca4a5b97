import numpy as np
import pytest

from shortfall import corrupt, dist, mc, rng
from shortfall.errors import ParameterError


def test_uniforms_deterministic():
    a = rng.uniforms(1234, 1000)
    b = rng.uniforms(1234, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng.uniforms(1235, 1000))


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_uniforms_open_interval(seed):
    # u = 1.0 is possible but has probability 2**-53 (see the unit-map tests).
    u = rng.uniforms(seed, 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_negative_length_rejected():
    seeds = np.arange(3, dtype=np.uint64)
    for draw in (lambda n: rng.uniforms(77, n), lambda n: rng.uniform_matrix(seeds, n)):
        with pytest.raises(ParameterError, match=r"^n: must be >= 0 \(got -1\)$"):
            draw(-1)
        assert draw(0).size == 0
        for bad in (2.5, True):
            with pytest.raises(ParameterError, match=rf"^n: must be an integer \(got {bad}\)$"):
                draw(bad)


_SEEDED = {
    "uniforms": lambda seed: rng.uniforms(seed, 8),
    "sample": lambda seed: dist.sample(dist.Normal(0.0, 1.0), 8, seed),
    "ar1_path": lambda seed: dist.ar1_path(0.5, 8, seed),
    "apply_corruption": lambda seed: corrupt.apply_corruption(
        np.zeros(8), corrupt.MaxShiftGaussian(8, 0.0, 1.0), seed),
    "longrun_sigma_oracle": lambda seed: mc.longrun_sigma_oracle(
        dist.IID(dist.Normal(0.0, 1.0)), 0.1, 20, 100, seed),
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_seed_is_a_checked_whole_number(name):
    draw = _SEEDED[name]
    for bad in (2.5, True):
        with pytest.raises(ParameterError, match=rf"^seed: must be an integer \(got {bad}\)$"):
            draw(bad)
    assert np.asarray(draw(1e5)).tobytes() == np.asarray(draw(100000)).tobytes()


def test_uniform_matrix_matches_streams():
    seeds = np.array([3, 99, 2**64 - 5], dtype=np.uint64)
    mat = rng.uniform_matrix(seeds, 64)
    for row, seed in zip(mat, seeds):
        assert np.array_equal(row, rng.uniforms(int(seed), 64))


def test_split_scalar_vs_vector():
    ts = np.arange(0, 57, dtype=np.uint64)
    vec = rng.split_array(911, 3250, ts)
    scalars = [rng.split(911, 3250, int(t)) for t in ts]
    assert [int(v) for v in vec] == scalars

    seeds = np.array(scalars[:5], dtype=np.uint64)
    derived = rng.split_from(seeds, 0x636F7272)
    assert [int(v) for v in derived] == [rng.split(s, 0x636F7272) for s in scalars[:5]]


def test_split_sensitivity_and_order():
    assert rng.split(1, 2, 3) != rng.split(1, 3, 2)
    assert rng.split(1, 2, 3) != rng.split(2, 2, 3)
    assert rng.split(1, 2, 3) != rng.split(1, 2, 4)


def test_uniforms_moments():
    u = rng.uniforms(2024, 200_000)
    # mean 1/2 (se ~ 6.5e-4), var 1/12 (se ~ 2e-4)
    assert abs(u.mean() - 0.5) < 3e-3
    assert abs(u.var() - 1.0 / 12.0) < 1e-3
    # successive pairs decorrelated
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.01


def test_finalize_is_python_int_safe():
    assert rng.finalize(0) == rng.finalize(2**64)
    assert 0 <= rng.finalize(123456789) < 2**64


# --- the counter -> unit map, pinned at its edges ----------------------------------


def _unshift(z: int, shift: int) -> int:
    """Inverse of ``z ^= z >> shift`` on 64 bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def _unfinalize(z: int) -> int:
    """The counter whose SplitMix64 finalizer output is ``z``."""
    z = _unshift(z, 31)
    z = (z * pow(rng._MIX2, -1, 2**64)) & rng.MASK64
    z = _unshift(z, 27)
    z = (z * pow(rng._MIX1, -1, 2**64)) & rng.MASK64
    return _unshift(z, 30)


def _unit_of_bins(*bins: int) -> np.ndarray:
    """``_counters_to_unit`` of counters whose top 53 finalized bits are ``bins``."""
    counters = [_unfinalize(b << 11) for b in bins]
    assert [rng.finalize(c) >> 11 for c in counters] == list(bins)
    return rng._counters_to_unit(np.array(counters, dtype=np.uint64))


def test_unit_map_top_bin_is_one():
    assert _unit_of_bins(2**53 - 1)[0] == 1.0
    assert _unit_of_bins(2**53 - 2)[0] == 1.0 - 2.0**-52


def test_unit_map_adjacent_bins_share_above_half():
    below = _unit_of_bins(2**52 - 2, 2**52 - 1)
    assert below.tolist() == [(2**52 - 1.5) * 2.0**-53, (2**52 - 0.5) * 2.0**-53]
    assert _unit_of_bins(2**52)[0] == 0.5
    shared = _unit_of_bins(2**52 + 1, 2**52 + 2)
    assert shared[0] == shared[1] == (2**52 + 2) * 2.0**-53
    assert _unit_of_bins(2**52 + 3)[0] == (2**52 + 4) * 2.0**-53


# --- the levels: the unit map on every bin ----------------------------------------


def test_unit_is_the_generator_map():
    bins = [0, 2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, 2**53 - 1]
    assert np.array_equal(rng.unit(np.array(bins, dtype=np.uint64)), _unit_of_bins(*bins))
    assert np.array_equal(rng.unit(np.array(bins, dtype=np.float64)), _unit_of_bins(*bins))
    assert rng.unit(np.array([0]))[0] == 2.0**-54


def test_unit_casts_bins_exactly_through_int64():
    bins = np.array([0, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1], dtype=np.uint64)
    want = (bins.astype(np.float64) + 0.5) * 2.0**-53
    assert rng.unit(bins).tobytes() == want.tobytes()
    assert rng.unit(bins)[[0, -1]].tolist() == [2.0**-54, 1.0]


def test_one_float_between_adjacent_levels():
    # the stand-in keys take the float just below a level, which must not be a level
    edges = (1, 2**51, 2**52, 2**53 - 4)
    for bins in (np.arange(b - 1, b + 4, dtype=np.uint64) for b in edges):
        levels = np.unique(rng.unit(bins))
        prev, level = levels[:-1], levels[1:]
        below = np.nextafter(level, 0.0)
        assert np.array_equal(below == prev, level == 0.5)  # none between 1/2 - 2**-54 and 1/2
        one = (prev >= 0.25) & (level != 0.5)
        assert np.array_equal(np.nextafter(below[one], 0.0), prev[one])  # one from 1/4 up


def _level_ceiling(p: np.ndarray) -> np.ndarray:
    """The smallest level >= p: the midpoints (i + 1/2) * 2**-53 below 1/2, then j * 2**-52."""
    return np.where(p <= 0.5 - 2.0**-54, (np.ceil(p * 2.0**53 - 0.5) + 0.5) * 2.0**-53,
                    np.ceil(p * 2.0**52) * 2.0**-52)


class _Identity:
    """A family whose cdf and quantile are the identity; it keeps the last window it saw."""

    def cdf(self, p):
        return p

    def quantile(self, u):
        self.window = u
        return u


def test_level_ceiling_of_any_number():
    drawn = rng.uniform_matrix(np.array([20260811, 0, 1, 2**64 - 1], dtype=np.uint64), 1000)
    assert np.array_equal(_level_ceiling(drawn), drawn)  # every drawn uniform is a level
    p = np.concatenate([np.random.default_rng(3).random(10_000),
                        [0.0, 5e-324, 2.0**-54, 2.0**-54 + 2.0**-60, 0.25 - 2.0**-55, 0.25,
                         0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53, 1.0]])
    family, ceiling = _Identity(), _level_ceiling(p)
    # for 0, 5e-324 and unit(0) the bins below 0, which hold no level, mark the crossing
    assert np.all(ceiling[p <= 2.0**-54] == rng.unit(np.array([0]))[0])
    level, reached = mc._reaching_levels(p, family)
    assert np.all(np.any(family.window == ceiling, axis=0))
    assert np.array_equal(level, ceiling) and np.array_equal(reached, level)
