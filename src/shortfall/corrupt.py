"""Contamination models for the robustness experiments.

``MaxShiftGaussian`` reproduces the benchmark attack from the experiments:
the first k data points X_i are replaced by max{X_i, U_i} with independent
U_i ~ Normal(mu, sigma^2).  ``ReplaceLargest`` / ``ReplaceIndices`` express
simple worst-case substitutions.  ``corruption_budget`` is the number of
points the theory tolerates: floor(N * eps^2 / 140).

Each attack is defined once, by :func:`changed_cells`: the cells it changes
in each row and their new values.  It reads the samples X, or the uniforms U
with X = quantile(U) for a strictly increasing ``quantile``, so that the
Monte Carlo engine can corrupt trials it never builds.
:func:`apply_corruption_batch` writes the same cells into X.  A model's
numbers must be finite, so that no attack writes NaN: the engine's stand-ins
need values that can be ordered.

Indices in ``ReplaceIndices`` are 1-based (the wire format counts samples
from 1 to N).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np

from . import rng
from .dist import Normal
from .errors import ParameterError, check_fields, checked_numbers, integer, json_object, sequence

__all__ = [
    "NoCorruption",
    "MaxShiftGaussian",
    "ReplaceLargest",
    "ReplaceIndices",
    "CorruptionModel",
    "apply_corruption",
    "apply_corruption_batch",
    "changed_cells",
    "corruption_budget",
    "model_to_json",
    "model_from_json",
]

#: Budget constant from the adversarial guarantee: at most N*eps^2/140 points.
BUDGET_CONSTANT = 140.0


@dataclass(frozen=True)
class NoCorruption:
    """The identity model: no sample value changes."""

    k: ClassVar[int] = 0


def _check_finite(value: float, where: str) -> None:
    if not math.isfinite(value):
        raise ParameterError(f"{where}: must be finite (got {value})")


@checked_numbers
@dataclass(frozen=True)
class MaxShiftGaussian:
    """Replace X_i by max{X_i, U_i}, U_i ~ Normal(mu, sigma^2), for i = 1..k."""

    k: int
    mu: float
    sigma: float

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k: must be >= 0 (got {self.k})")
        _check_finite(self.mu, "mu")
        _check_finite(self.sigma, "sigma")
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma: must be > 0 (got {self.sigma})")


@checked_numbers
@dataclass(frozen=True)
class ReplaceLargest:
    """Overwrite the k largest sample values with ``value``."""

    k: int
    value: float

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k: must be >= 0 (got {self.k})")
        _check_finite(self.value, "value")


@checked_numbers
@dataclass(frozen=True)
class ReplaceIndices:
    """Overwrite the samples at the given 1-based indices with ``value``."""

    indices: frozenset[int]
    value: float

    def __post_init__(self):
        idx = frozenset(integer(i, "indices") for i in sequence(self.indices, "indices"))
        if any(i < 1 for i in idx):
            raise ParameterError("indices: must be 1-based (>= 1)")
        _check_finite(self.value, "value")
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
    return apply_corruption_batch(values[None, :], model, rng.seed_row(seed))[0]


def apply_corruption_batch(samples: np.ndarray, model: CorruptionModel,
                           seeds: np.ndarray) -> np.ndarray:
    """Row-wise corruption; row b uses the stream of ``seeds[b]``.

    Writes the cells of :func:`changed_cells` into ``samples`` and returns it
    (the Monte Carlo engine owns the buffer).
    """
    rows, cols, values = changed_cells(samples, model, seeds)
    samples[rows, cols] = values
    return samples


def changed_cells(data: np.ndarray, model: CorruptionModel, seeds: np.ndarray,
                  quantile=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells that ``model`` changes in each row of X: (rows, columns, new values).

    ``data`` is X itself, or with a ``quantile`` the uniforms U of
    X = quantile(U), which must be strictly increasing on U: then only
    ``MaxShiftGaussian`` evaluates it, on its k head columns.  Row b uses the
    stream of ``seeds[b]``.
    """
    n = data.shape[1]
    if isinstance(model, ReplaceIndices):
        need, what = max(model.indices, default=0), "indices up to"
    elif isinstance(model, (NoCorruption, MaxShiftGaussian, ReplaceLargest)):
        need, what = model.k, "k ="
    else:
        raise ParameterError(f"model: unknown corruption model {type(model).__name__}")
    if need > n:
        raise ParameterError(f"corruption: N={n} is too small for {what} {need}")
    if need == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)
    if isinstance(model, MaxShiftGaussian):
        with np.errstate(over="ignore"):  # a shock beyond the float range is an infinity
            shocks = Normal(model.mu, model.sigma).quantile(rng.uniform_matrix(seeds, model.k))
        head = data[:, : model.k] if quantile is None else quantile(data[:, : model.k])
        rows, cols = np.nonzero(shocks > head)
        return rows, cols, shocks[rows, cols]
    if isinstance(model, ReplaceLargest):
        cols = np.argpartition(data, n - model.k, axis=1)[:, n - model.k:].ravel()
    else:
        cols = np.tile(np.array(sorted(model.indices), dtype=np.intp) - 1, len(data))
    rows = np.repeat(np.arange(len(data)), model.k)
    return rows, cols, np.full(rows.size, model.value)


def corruption_budget(n: int, eps: float) -> int:
    """Number of adversarially modified points tolerated at accuracy scale eps."""
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"eps: must lie in (0, 1] (got {eps})")
    n = integer(n, "N")
    if n < 0:
        raise ParameterError(f"N: must be >= 0 (got {n})")
    # nudge up by 1 ulp so exact integer ratios are not pulled below the floor
    return int((n * eps * eps / BUDGET_CONSTANT) * (1.0 + 1e-12))


# --- JSON wire format ---------------------------------------------------------


_MODEL_BY_KIND = {"none": NoCorruption, "max_shift_gaussian": MaxShiftGaussian,
                  "replace_largest": ReplaceLargest, "replace_indices": ReplaceIndices}
_KIND_BY_MODEL = {cls: kind for kind, cls in _MODEL_BY_KIND.items()}


def model_to_json(model: CorruptionModel) -> dict:
    out = {"kind": _KIND_BY_MODEL[type(model)], **asdict(model)}
    if "indices" in out:
        out["indices"] = sorted(out["indices"])
    return out


def model_from_json(obj: dict | None) -> CorruptionModel:
    obj = json_object({} if obj is None else obj, "corruption")
    kind = obj.get("kind", "none")
    if kind not in _MODEL_BY_KIND:
        raise ParameterError(f"kind: unknown corruption model {kind!r}")
    names = [f.name for f in fields(_MODEL_BY_KIND[kind])]
    check_fields(obj, ["kind", *names], f"{kind} corruption")
    return _MODEL_BY_KIND[kind](**{name: obj[name] for name in names})
