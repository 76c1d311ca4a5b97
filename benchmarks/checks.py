"""Correctness checks that feed the benchmark's ``attempted`` / ``failed`` counts.

Three kinds of check, all made outside the timed regions:

* golden values: sha256 of ``rng.uniform_matrix`` and of every Monte Carlo
  estimate array of the reference jobs at ``GOLDEN_SEED``, the Table-1
  sigma / D / ES values and the scalar-estimator values of a pinned request
  stream.  ``golden.json`` holds them as the seed commit of the benchmark
  computed them; a change that alters any of them must say that it changes
  the stream or the numbers, and why.
* determinism, for any seed: the ``workers=1`` and ``workers=2`` passes, and
  the traced and untraced passes, must give bit-identical outputs.
* independent references written here with ``np.sort`` and ``math.fsum``
  (never the package's own estimators), compared by relative tolerance.

An *op* is one estimate array per (N, estimator, phase), one table cell, or
one request; a raise or a mismatch marks the op failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 20260811

#: Relative tolerances fixed before any measurement.
SCALAR_RTOL = 1e-12      # scalar estimators vs the fsum reference and the pinned values
MC_RTOL = 1e-10          # sampled MC trials vs the fsum reference
SIGMA_RTOL = 1e-6        # sigma_es vs the pinned seed values
D_RTOL = 1e-9            # lipschitz_D vs the pinned seed values
ES_RTOL = 1e-8           # es_exact / es_by_quadrature / es_by_distortion agreement


class Tally:
    """Counts attempted and failed ops and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def fail_many(self, count: int, what: str) -> None:
        for _ in range(count):
            self.op(False, what)


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def close(actual: float, expected: float, rtol: float) -> bool:
    """Relative closeness; infinities must match exactly."""
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# --- independent reference estimators ------------------------------------------


def ref_plugin(values: np.ndarray, alpha: float) -> float:
    """Plug-in ES from a full sort: top order statistics summed with fsum."""
    s = np.sort(np.asarray(values, dtype=np.float64))
    n = s.size
    k = min(int(math.floor((1.0 - alpha) * n)), n - 1)
    boundary = (k + 1.0) / n - max(k / n, 1.0 - alpha)
    return (math.fsum(s[k + 1:]) / n + boundary * float(s[k])) / alpha


def ref_blocks(values: np.ndarray, alpha: float, m: int) -> np.ndarray:
    count = values.size // m
    return np.sort([ref_plugin(values[j * m:(j + 1) * m], alpha) for j in range(count)])


def ref_interp(ordered: np.ndarray, beta: float) -> float:
    """Linear interpolation with breakpoints at (j-1)/(n-1)."""
    n = ordered.size
    if n == 1:
        return float(ordered[0])
    position = beta * (n - 1)
    j = min(int(math.floor(position)), n - 2)
    frac = position - j
    return (1.0 - frac) * float(ordered[j]) + frac * float(ordered[j + 1])


def ref_truncated(values: np.ndarray, alpha: float, m: int, beta1: float,
                  beta2: float) -> tuple[float, float, float]:
    blocks = ref_blocks(values, alpha, m)
    lower, upper = ref_interp(blocks, beta1), ref_interp(blocks, beta2)
    return min(max(ref_plugin(values, alpha), lower), upper), lower, upper


def ref_trimmed(values: np.ndarray, alpha: float, c: float, exponent: float) -> float:
    n = values.size
    k = int(math.floor(c * n**exponent))
    return ref_plugin(np.sort(values)[: n - k], alpha)


def ref_estimate(kind: str, values: np.ndarray, alpha: float, est) -> float:
    """Reference value of one ``EstimatorConfig``-like estimator (gap 0 only)."""
    if kind == "plugin":
        return ref_plugin(values, alpha)
    if kind == "truncated":
        return ref_truncated(values, alpha, est.m, est.beta1, est.beta2)[0]
    if kind == "median_of_blocks":
        return ref_interp(ref_blocks(values, alpha, est.m), 0.5)
    if kind == "trimmed":
        return ref_trimmed(values, alpha, est.trim_c, est.trim_exponent)
    raise ValueError(f"no reference for estimator kind {kind!r}")
