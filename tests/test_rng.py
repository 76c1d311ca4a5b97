import numpy as np
import pytest

from shortfall import rng
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


def test_uniforms_start_offset():
    full = rng.uniforms(77, 50)
    assert np.array_equal(full[20:], rng.uniforms(77, 30, start=20))
    with pytest.raises(ParameterError, match=r"^n: must be >= 0 \(got -1\)$"):
        rng.uniforms(77, -1)


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


# --- the grid of levels ------------------------------------------------------------

_EDGE_LEVELS = [rng.LEVEL_MIN, 0.25 - 2.0**-54, 0.25 + 2.0**-54, 0.5 - 2.0**-54, 0.5,
                0.5 + 2.0**-52, 1.0 - 2.0**-52, 1.0]


def test_drawn_uniforms_are_fixed_points_of_the_level_ceiling():
    seeds = np.array([20260811, 0, 1, 2**64 - 1], dtype=np.uint64)  # the golden seeds
    u = rng.uniform_matrix(seeds, 1000)
    assert np.array_equal(rng.level(rng.level_index(u)), u)
    shared = _unit_of_bins(2**52, 2**52 + 1, 2**52 + 2, 2**53 - 2, 2**53 - 1, 0, 2**52 - 1)
    assert np.array_equal(rng.level(rng.level_index(shared)), shared)
    assert rng.level_index(shared).tolist() == [2**52, 2**52 + 1, 2**52 + 1, rng.LEVEL_COUNT - 2,
                                                rng.LEVEL_COUNT - 1, 0, 2**52 - 1]


def test_previous_and_next_level_round_trip():
    levels = np.array(_EDGE_LEVELS)
    index = rng.level_index(levels)
    assert np.array_equal(rng.level(index), levels)
    prev, nxt = rng.level(index - 1), rng.level(index + 1)
    assert np.array_equal(rng.level(rng.level_index(prev[1:]) + 1), levels[1:])
    assert np.array_equal(rng.level(rng.level_index(nxt[:-1]) - 1), levels[:-1])
    assert rng.level(rng.level_index(0.5 - 2.0**-54) + 1) == 0.5
    assert rng.level(rng.level_index(0.5) - 1) == 0.5 - 2.0**-54
    assert rng.level(rng.level_index(1.0 - 2.0**-52) + 1) == 1.0
    assert rng.level(rng.level_index(1.0) - 1) == 1.0 - 2.0**-52
    assert rng.level(-1.0) < 0.0 and rng.level(rng.LEVEL_COUNT) > 1.0  # beyond either end
    # one float lies between adjacent levels from 1/4 up, none between 1/2 - 2**-54 and 1/2
    gaps = np.nextafter(levels[1:], 0.0)
    free = levels[1:] != 0.5
    assert np.array_equal(gaps > prev[1:], free)
    assert np.array_equal(rng.level(rng.level_index(gaps[free])), levels[1:][free])


def test_level_ceiling_of_any_number():
    p = np.concatenate([np.random.default_rng(3).random(10_000), [0.0, 5e-324, 2.0**-54, 0.5, 1.0]])
    level = rng.level(rng.level_index(p))
    below = rng.level(rng.level_index(p) - 1)
    assert np.all(level >= p) and np.all(below < p)
