"""Contamination models for the robustness experiments.

``MaxShiftGaussian`` reproduces the benchmark attack from the experiments:
the first k data points X_i are replaced by max{X_i, U_i} with independent
U_i ~ Normal(mu, sigma^2).  ``ReplaceLargest`` / ``ReplaceIndices`` express
simple worst-case substitutions.  ``corruption_budget`` is the number of
points the theory tolerates: floor(N * eps^2 / 140).

Indices in ``ReplaceIndices`` are 1-based (the wire format counts samples
from 1 to N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from . import rng
from .errors import ParameterError

__all__ = [
    "NoCorruption",
    "MaxShiftGaussian",
    "ReplaceLargest",
    "ReplaceIndices",
    "CorruptionModel",
    "apply_corruption",
    "apply_corruption_batch",
    "corruption_budget",
    "model_to_json",
    "model_from_json",
]

#: Budget constant from the adversarial guarantee: at most N*eps^2/140 points.
BUDGET_CONSTANT = 140.0


@dataclass(frozen=True)
class NoCorruption:
    k: int = 0


@dataclass(frozen=True)
class MaxShiftGaussian:
    """Replace X_i by max{X_i, U_i}, U_i ~ Normal(mu, sigma^2), for i = 1..k."""

    k: int
    mu: float
    sigma: float

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k: must be >= 0 (got {self.k})")
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma: must be > 0 (got {self.sigma})")


@dataclass(frozen=True)
class ReplaceLargest:
    """Overwrite the k largest sample values with ``value``."""

    k: int
    value: float

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k: must be >= 0 (got {self.k})")


@dataclass(frozen=True)
class ReplaceIndices:
    """Overwrite the samples at the given 1-based indices with ``value``."""

    indices: frozenset[int]
    value: float

    def __post_init__(self):
        idx = frozenset(int(i) for i in self.indices)
        if any(i < 1 for i in idx):
            raise ParameterError("indices: must be 1-based (>= 1)")
        object.__setattr__(self, "indices", idx)

    @property
    def k(self) -> int:
        return len(self.indices)


CorruptionModel = NoCorruption | MaxShiftGaussian | ReplaceLargest | ReplaceIndices


def apply_corruption(sample, model: CorruptionModel, seed: int) -> np.ndarray:
    """Return a corrupted copy of ``sample``; at most ``model.k`` entries change.

    Only ``MaxShiftGaussian`` consumes randomness: its U_i come from the
    uniform stream of ``seed`` by inverse transform.
    """
    values = np.array(sample, dtype=np.float64, copy=True).ravel()
    out = apply_corruption_batch(values[None, :], model,
                                 np.array([seed & rng.MASK64], dtype=np.uint64))
    return out[0]


def apply_corruption_batch(samples: np.ndarray, model: CorruptionModel,
                           seeds: np.ndarray) -> np.ndarray:
    """Row-wise corruption; row b uses the stream of ``seeds[b]``.

    Modifies and returns ``samples`` (the Monte Carlo engine owns the buffer).
    """
    n = samples.shape[1]
    if isinstance(model, (MaxShiftGaussian, ReplaceLargest)):
        if model.k > n:
            raise ParameterError(f"k: cannot corrupt {model.k} of {n} samples")
        if model.k == 0:
            return samples
    if isinstance(model, NoCorruption):
        return samples
    if isinstance(model, MaxShiftGaussian):
        shocks = model.mu + model.sigma * sp.ndtri(rng.uniform_matrix(seeds, model.k))
        np.maximum(samples[:, : model.k], shocks, out=samples[:, : model.k])
        return samples
    if isinstance(model, ReplaceLargest):
        order = np.argpartition(samples, n - model.k, axis=1)[:, n - model.k:]
        np.put_along_axis(samples, order, model.value, axis=1)
        return samples
    if isinstance(model, ReplaceIndices):
        idx = np.array(sorted(model.indices), dtype=np.int64) - 1
        if idx.size and idx[-1] >= n:
            raise ParameterError(f"indices: largest index {idx[-1] + 1} exceeds N={n}")
        samples[:, idx] = model.value
        return samples
    raise ParameterError(f"model: unknown corruption model {type(model).__name__}")


def corruption_budget(n: int, eps: float) -> int:
    """Number of adversarially modified points tolerated at accuracy scale eps."""
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"eps: must lie in (0, 1] (got {eps})")
    if n < 0:
        raise ParameterError(f"N: must be >= 0 (got {n})")
    # nudge up by 1 ulp so exact integer ratios are not pulled below the floor
    return int((n * eps * eps / BUDGET_CONSTANT) * (1.0 + 1e-12))


# --- JSON wire format ---------------------------------------------------------


def model_to_json(model: CorruptionModel) -> dict:
    if isinstance(model, NoCorruption):
        return {"kind": "none"}
    if isinstance(model, MaxShiftGaussian):
        return {"kind": "max_shift_gaussian", "k": model.k, "mu": model.mu, "sigma": model.sigma}
    if isinstance(model, ReplaceLargest):
        return {"kind": "replace_largest", "k": model.k, "value": model.value}
    return {"kind": "replace_indices", "indices": sorted(model.indices), "value": model.value}


def model_from_json(obj: dict | None) -> CorruptionModel:
    if obj is None:
        return NoCorruption()
    kind = obj.get("kind", "none")
    if kind == "none":
        return NoCorruption()
    if kind == "max_shift_gaussian":
        return MaxShiftGaussian(int(obj["k"]), float(obj["mu"]), float(obj["sigma"]))
    if kind == "replace_largest":
        return ReplaceLargest(int(obj["k"]), float(obj["value"]))
    if kind == "replace_indices":
        return ReplaceIndices(frozenset(int(i) for i in obj["indices"]), float(obj["value"]))
    raise ParameterError(f"kind: unknown corruption model {kind!r}")
