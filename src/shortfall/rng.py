"""Counter-based pseudo-random number generation.

Every random quantity in this package is a pure function of a 64-bit seed, so
that results are reproducible bit-for-bit across runs, platforms and worker
counts.  The generator is fixed by this module and documented here in full:

State update (counter sequence)
    The stream for a seed ``s`` consists of the 64-bit counters

        c_i = (s + i * GOLDEN) mod 2**64,          i = 1, 2, 3, ...

    where ``GOLDEN = 0x9E3779B97F4A7C15`` (the 64-bit golden-ratio constant).

Output function
    Each counter is passed through the SplitMix64 finalizer

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    (all arithmetic mod 2**64).  Its top 53 bits ``b = z >> 11`` select one of
    2**53 equal-width bins, and :func:`unit` maps the bin to a double in (0, 1]

        u = fl(b + 0.5) * 2**-53

    where ``fl`` rounds to the nearest double, ties to even.  Below 1/2
    (``b < 2**52``) ``u`` is the bin midpoint.  From 1/2 up the midpoint is not
    a double and rounds to the even one of the bin's two edges, ``i * 2**-53``
    with ``i`` even.  So for 2**52 < i < 2**53 the adjacent bins ``i - 1`` and
    ``i`` share one ``u``, and the top bin ``b = 2**53 - 1`` gives exactly
    ``u = 1.0``, where every family unbounded above has an infinite quantile.
    Hence 0 < u <= 1, and u = 1 has probability 2**-53.

Levels
    The *levels* are the values of ``unit`` on the bins, from ``unit(0) =
    2**-54`` up to 1, which the Monte Carlo engine reads off this map to place
    stand-in keys among the uniforms of a trial (see :mod:`shortfall.mc`).

Seed derivation (splitting)
    Sub-streams are derived by folding integer keys into a seed:

        split(s, k1, ..., kn):
            h = finalize(s mod 2**64)
            for k in (k1, ..., kn):
                h = finalize(h XOR finalize((k + GOLDEN) mod 2**64))
            return h

    The fold is order-sensitive, so ``split(s, a, b) != split(s, b, a)`` in
    general.  Monte Carlo trial t of an experiment with master seed ``s`` and
    sample size ``N`` uses the stream ``split(s, N, t)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, integer

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)

_TO_UNIT = 2.0**-53


def finalize(value: int) -> int:
    """SplitMix64 finalizer on a Python integer (mod 2**64)."""
    z = value & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """In-place SplitMix64 finalizer on a uint64 array; returns its input."""
    tmp = z >> np.uint64(30)
    z ^= tmp
    z *= _U_MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _U_MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def split(seed: int, *keys: int) -> int:
    """Derive a sub-stream seed from ``seed`` and integer keys.

    Deterministic, order-sensitive; see the module docstring for the exact
    construction.
    """
    h = finalize(seed)
    for k in keys:
        h = finalize(h ^ finalize(k + GOLDEN))
    return h


def split_array(seed: int, key: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``split(seed, key, i)`` for an array of indices.

    Equals ``[split(seed, key, int(i)) for i in indices]`` element-wise.
    """
    base = np.uint64(finalize(finalize(seed) ^ finalize(key + GOLDEN)))
    z = np.asarray(indices, dtype=np.uint64) + _U_GOLDEN
    z = _finalize_array(z)
    z ^= base
    return _finalize_array(z)


def split_from(seeds: np.ndarray, key: int) -> np.ndarray:
    """Vectorized ``split(int(s), key)`` for an array of seeds.

    Note ``split`` finalizes the seed first, so this is
    ``finalize(finalize(s) ^ finalize(key + GOLDEN))`` element-wise.
    """
    mixed_key = np.uint64(finalize(key + GOLDEN))
    z = _finalize_array(np.asarray(seeds, dtype=np.uint64).copy())
    z ^= mixed_key
    return _finalize_array(z)


def unit(bins: np.ndarray) -> np.ndarray:
    """The level ``fl(b + 0.5) * 2**-53`` of each bin ``b`` in [0, 2**53), a new float64 array.

    See the module docstring: from 1/2 up, ``+ 0.5`` rounds to even, so two
    adjacent bins share a level and the top bin gives exactly 1.0.
    """
    bins = np.asarray(bins)  # uint64 bins, below 2**53, cast exactly and faster as int64
    u = (bins.view(np.int64) if bins.dtype == np.uint64 else bins).astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return u


def _counters_to_unit(z: np.ndarray) -> np.ndarray:
    """Finalize uint64 counters in place and map their bins to doubles in (0, 1]."""
    return unit(np.right_shift(_finalize_array(z), np.uint64(11), out=z))


def seed_row(seed: int) -> np.ndarray:
    """The one-row uint64 seed array of ``seed`` (mod 2**64), for the batch functions.

    ``seed`` must be a whole number (:func:`shortfall.errors.integer`).
    """
    return np.array([integer(seed, "seed") & MASK64], dtype=np.uint64)


def uniforms(seed: int, n: int) -> np.ndarray:
    """``n`` uniforms in (0, 1] from the stream of ``seed``.

    Each is ``unit(z >> 11)`` of its finalized counter ``z`` (module
    docstring): a bin midpoint below 1/2, an even bin edge from 1/2 up, and
    exactly 1.0 with probability 2**-53.
    """
    return uniform_matrix(seed_row(seed), n)[0]


def uniform_matrix(seeds: np.ndarray, n: int) -> np.ndarray:
    """Row ``b`` holds ``uniforms(seeds[b], n)``; shape (len(seeds), n)."""
    n = integer(n, "n")
    if n < 0:
        raise ParameterError(f"n: must be >= 0 (got {n})")
    steps = _U_GOLDEN * np.arange(1, n + 1, dtype=np.uint64)
    z = np.add.outer(np.asarray(seeds, dtype=np.uint64), steps)
    return _counters_to_unit(z)
