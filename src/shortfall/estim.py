"""Expected-shortfall estimators.

The plug-in estimator integrates the empirical quantile function over the top
alpha-fraction, which reduces to an exact weighted sum of order statistics:
with k = floor((1-alpha)*N),

    T_hat = (1/alpha) * sum_{i=k+1..N} w_i * X_(i),
    w_i   = i/N - max((i-1)/N, 1-alpha),

so no numerical integration is involved.  The robust estimator clamps the
full-sample plug-in to an interval formed by interpolated quantiles of
disjoint-block plug-in estimates; with ``beta1 = beta2 = 0.5`` this degenerates
to the median of blocks.

Block layout: with stride ``m + gap``, block j occupies the trailing ``m``
positions of its stride, so ``gap = 0`` is the plain partition into
consecutive blocks of size m, and ``gap = m`` keeps every other block (the
layout used for weakly dependent data, where the discarded spacer blocks
decouple the retained ones).

Each estimator has one kernel, its ``*_batch`` form, which works row-wise on a
(trials, N) matrix and relies on ``np.partition`` instead of full sorts.  The
scalar form validates one sample and runs that kernel on a one-row matrix, so
both forms give the same bits.  :func:`evaluate_many` evaluates several
estimators on one matrix and computes the full-sample plug-in and the sorted
block estimates of each block layout once; the Monte Carlo engine uses it.

Every estimator reads only a top segment of its partitioned sample (of each
block, for the block estimates).  The batch kernels and :func:`evaluate_many`
therefore take an optional ``transform``: a vectorized map ``q``, applied
element by element, such that the estimates are those of ``q(samples)``,
while ``q`` is applied only to the segments read.  The contract is that ``q``
is order-preserving within each row: for two entries a, b of one row,
q(a) < q(b) exactly when a < b, and q(a) == q(b) exactly when a == b.  Then
partitioning the row makes the same comparisons as partitioning its image,
the segments hold the same values in the same order, and the results have
the same bits.  The Monte Carlo engine passes a family's quantile function
with a matrix of uniforms, or a map that also sends the stand-in keys of
corrupted cells to their values.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError, check_alpha, check_fields, checked_numbers, json_object

__all__ = [
    "EstimatorConfig",
    "plugin_es",
    "interp_quantile",
    "block_estimates",
    "truncated_es",
    "truncated_es_interval",
    "median_of_blocks",
    "trimmed_es",
    "suggested_block_size",
    "plugin_es_batch",
    "block_estimates_batch",
    "truncated_es_batch",
    "median_of_blocks_batch",
    "trimmed_es_batch",
    "evaluate_many",
]

THEORY_BETA_RANGE = (0.35, 0.65)

#: Defaults matching the block size and quantile levels used throughout the
#: numerical experiments.
DEFAULT_M = 250
DEFAULT_BETA1 = 0.5
DEFAULT_BETA2 = 0.6
DEFAULT_TRIM_C = 0.25
DEFAULT_TRIM_EXPONENT = 1.0 / 3.0


def _as_sample(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError("sample: must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("sample: values must be finite reals")
    return arr


def _one_row(values) -> np.ndarray:
    """A validated sample as the (1, N) matrix its scalar estimator runs on."""
    return _as_sample(values)[None, :]


def _as_batch(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise ParameterError("samples: expected a (trials, N) matrix with N >= 1")
    return arr


def _top_index(n: int, alpha: float) -> int:
    # floor((1-alpha)*n); the weight formula self-corrects off-by-one float
    # fuzz because the boundary weight vanishes in that case.
    return min(int(math.floor((1.0 - alpha) * n)), n - 1)


def _tail_mean(part: np.ndarray, k: int, n: int, alpha: float, transform=None) -> np.ndarray:
    """Row-wise plug-in of the first ``n`` columns of ``part``, partitioned at ``k``.

    Only columns ``k..n-1`` are read; ``transform``, when given, maps them first.
    """
    boundary_w = (k + 1.0) / n - max(k / n, 1.0 - alpha)
    tail = part[:, k:n] if transform is None else transform(part[:, k:n])
    top_sum = tail[:, 1:].sum(axis=-1)
    out = (top_sum / n + boundary_w * tail[:, 0]) / alpha
    over = ~np.isfinite(top_sum)
    if over.any():
        # A sum of finite values near 1e308 can overflow while their weighted
        # mean cannot: add those rows again at an exact power-of-two scale.
        scale = 2.0 ** -math.ceil(math.log2(n))
        rows = tail[over] * scale
        out[over] = (rows[:, 1:].sum(axis=-1) / n + boundary_w * rows[:, 0]) / alpha / scale
    return out


def plugin_es(sample, alpha: float) -> float:
    """Plug-in expected shortfall: the exact weighted order-statistic sum."""
    return float(plugin_es_batch(_one_row(sample), alpha)[0])


def plugin_es_batch(samples, alpha: float, transform=None) -> np.ndarray:
    """Row-wise plug-in estimates of a (trials, N) matrix, or of ``transform`` of it."""
    alpha = check_alpha(alpha)
    a = _as_batch(samples)
    n = a.shape[1]
    k = _top_index(n, alpha)
    return _tail_mean(np.partition(a, k, axis=-1), k, n, alpha, transform)


def interp_quantile(values, beta: float) -> float:
    """Linearly interpolated empirical quantile of ``values`` at level ``beta``.

    Breakpoints sit at (j-1)/(n-1) for the j-th order statistic, j = 1..n.
    A single value is returned as-is (documented extension of the n >= 2 case).
    """
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta: must lie in [0, 1] (got {beta})")
    return float(_interp_sorted(np.sort(_as_sample(values)), beta))


def _interp_sorted(ordered: np.ndarray, beta: float) -> np.ndarray:
    n = ordered.shape[-1]
    if n == 1:
        return ordered[..., 0].copy()
    position = beta * (n - 1)
    j = min(int(math.floor(position)), n - 2)
    frac = position - j
    if frac in (0.0, 1.0):  # a whole position: the order statistic, even next to an inf
        return ordered[..., j + int(frac)].copy()
    return (1.0 - frac) * ordered[..., j] + frac * ordered[..., j + 1]


def _check_layout(m: int, gap: int) -> None:
    if m < 1:
        raise ParameterError(f"m: block size must be >= 1 (got {m})")
    if gap < 0:
        raise ParameterError(f"gap: must be >= 0 (got {gap})")


def _block_count(n: int, m: int, gap: int, need: int = 1) -> int:
    """Complete blocks of stride ``m + gap`` in ``n`` values; at least ``need``."""
    _check_layout(m, gap)
    count = n // (m + gap)
    if count < need:
        max_m = n // need - gap
        hint = f"reduce m (largest valid m is {max_m})" if max_m >= 1 else "provide more data"
        raise ParameterError(f"m: N={n} below the minimum {need * (m + gap)}: need >= {need} "
                             f"complete block{'s' if need > 1 else ''}; {hint}")
    return count


def _block_view(a: np.ndarray, m: int, gap: int) -> np.ndarray:
    """Reshape trailing axis into complete blocks; drops leftover samples."""
    count = _block_count(a.shape[-1], m, gap)
    stride = m + gap
    return a[..., : count * stride].reshape(*a.shape[:-1], count, stride)[..., gap:]


def block_estimates(sample, alpha: float, m: int, gap: int = 0) -> np.ndarray:
    """Plug-in estimate of each complete block, in block order.

    Blocks of size ``m`` are taken with stride ``m + gap``; each stride keeps
    its trailing block, so with ``gap = m`` only every other block survives.
    """
    return block_estimates_batch(_one_row(sample), alpha, m, gap)[0]


def block_estimates_batch(samples, alpha: float, m: int, gap: int = 0,
                          transform=None) -> np.ndarray:
    """Row-wise block estimates; shape (trials, n_blocks)."""
    alpha = check_alpha(alpha)
    a = _as_batch(samples)
    blocks = _block_view(a, m, gap)
    n_rows, n_blocks, width = blocks.shape
    flat = plugin_es_batch(blocks.reshape(n_rows * n_blocks, width), alpha, transform)
    return flat.reshape(n_rows, n_blocks)


def _sorted_blocks(a: np.ndarray, alpha: float, m: int, gap: int, transform=None) -> np.ndarray:
    return np.sort(block_estimates_batch(a, alpha, m, gap, transform), axis=-1)


def _check_beta_order(beta1: float, beta2: float) -> None:
    if not 0.0 <= beta1 <= beta2 <= 1.0:
        raise ParameterError(
            f"beta1/beta2: need 0 <= beta1 <= beta2 <= 1 (got {beta1}, {beta2})"
        )


def _check_betas(beta1: float, beta2: float) -> None:
    _check_beta_order(beta1, beta2)
    lo, hi = THEORY_BETA_RANGE
    if beta1 < lo or beta2 > hi:
        warnings.warn(
            f"quantile levels ({beta1}, {beta2}) lie outside the guaranteed "
            f"range [{lo}, {hi}]",
            stacklevel=3,
        )


def _clamp(full: np.ndarray, blocks: np.ndarray, beta1: float, beta2: float):
    """The truncated kernel: ``full`` clamped to quantiles of sorted ``blocks``."""
    lower = _interp_sorted(blocks, beta1)
    upper = _interp_sorted(blocks, beta2)
    return np.minimum(np.maximum(full, lower), upper), lower, upper


def truncated_es_interval(sample, alpha: float, m: int = DEFAULT_M,
                          beta1: float = DEFAULT_BETA1, beta2: float = DEFAULT_BETA2,
                          gap: int = 0) -> tuple[float, float, float]:
    """(estimate, lower clamp, upper clamp) of the truncated estimator.

    On a batch, the clamp end at level b is the truncated estimator at
    ``beta1 = beta2 = b``, since min(max(x, L), L) = L: :func:`evaluate_many`
    gives the ends of each row beside the estimate, on shared block estimates.
    """
    a = _one_row(sample)
    alpha = check_alpha(alpha)
    _check_betas(beta1, beta2)
    _block_count(a.shape[1], m, gap, need=2)
    rows = _clamp(plugin_es_batch(a, alpha), _sorted_blocks(a, alpha, m, gap), beta1, beta2)
    return tuple(float(r[0]) for r in rows)


def truncated_es(sample, alpha: float, m: int = DEFAULT_M,
                 beta1: float = DEFAULT_BETA1, beta2: float = DEFAULT_BETA2,
                 gap: int = 0) -> float:
    """Full-sample plug-in clamped to interpolated block-estimate quantiles."""
    return truncated_es_interval(sample, alpha, m, beta1, beta2, gap)[0]


def truncated_es_batch(samples, alpha: float, m: int = DEFAULT_M,
                       beta1: float = DEFAULT_BETA1, beta2: float = DEFAULT_BETA2,
                       gap: int = 0) -> np.ndarray:
    """Row-wise truncated estimates."""
    alpha = check_alpha(alpha)
    _check_betas(beta1, beta2)
    a = _as_batch(samples)
    _block_count(a.shape[1], m, gap, need=2)
    return _clamp(plugin_es_batch(a, alpha), _sorted_blocks(a, alpha, m, gap), beta1, beta2)[0]


def median_of_blocks(sample, alpha: float, m: int = DEFAULT_M, gap: int = 0) -> float:
    """Interpolated median of the block estimates."""
    return float(median_of_blocks_batch(_one_row(sample), alpha, m, gap)[0])


def _median(blocks: np.ndarray) -> np.ndarray:
    """The median-of-blocks kernel on sorted block estimates."""
    if blocks.shape[1] == 1:
        warnings.warn("only one complete block; median of blocks degenerates "
                      "to a single block estimate", stacklevel=3)
    return _interp_sorted(blocks, 0.5)


def median_of_blocks_batch(samples, alpha: float, m: int = DEFAULT_M, gap: int = 0) -> np.ndarray:
    return _median(_sorted_blocks(_as_batch(samples), check_alpha(alpha), m, gap))


def _check_trim(c: float, exponent: float) -> None:
    if not 0.0 < c < math.inf:
        raise ParameterError(f"trim_c: trimming constant must be finite and > 0 (got {c})")
    if not math.isfinite(exponent):
        raise ParameterError(f"trim_exp: trimming exponent must be finite (got {exponent})")


def _trim_count(n: int, c: float, exponent: float) -> int:
    _check_trim(c, exponent)
    try:
        k = math.floor(c * n**exponent)
    except OverflowError:  # c * N**exponent beyond the float range
        k = math.inf
    if k >= n:
        raise ParameterError(f"c: trimming removes the whole sample (k={k}, N={n})")
    return k


def trimmed_es(sample, alpha: float, c: float = DEFAULT_TRIM_C,
               exponent: float = DEFAULT_TRIM_EXPONENT) -> float:
    """Plug-in estimate after discarding the floor(c * N**exponent) largest points."""
    return float(trimmed_es_batch(_one_row(sample), alpha, c, exponent)[0])


def trimmed_es_batch(samples, alpha: float, c: float = DEFAULT_TRIM_C,
                     exponent: float = DEFAULT_TRIM_EXPONENT, transform=None) -> np.ndarray:
    alpha = check_alpha(alpha)
    a = _as_batch(samples)
    n = a.shape[1]
    k = _trim_count(n, c, exponent)
    if k == 0:
        return plugin_es_batch(a, alpha, transform)
    kept = n - k
    k2 = _top_index(kept, alpha)
    part = np.partition(a, sorted({k2, kept - 1}), axis=-1)
    return _tail_mean(part, k2, kept, alpha, transform)


def suggested_block_size(eps: float) -> int:
    """Theory-suggested block size ceil(11/eps**2) for accuracy scale ``eps``."""
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"eps: must lie in (0, 1] (got {eps})")
    # scale down by 1 ulp so exact integer ratios are not pushed up by
    # floating-point round-up in eps*eps
    return int(math.ceil((11.0 / (eps * eps)) * (1.0 - 1e-12)))


# --- configuration ------------------------------------------------------------

KINDS = ("plugin", "truncated", "median_of_blocks", "trimmed")


@checked_numbers
@dataclass(frozen=True)
class EstimatorConfig:
    """A fully-specified estimator; ``kind`` selects which fields apply."""

    kind: str
    m: int = DEFAULT_M
    beta1: float = DEFAULT_BETA1
    beta2: float = DEFAULT_BETA2
    gap: int = 0
    trim_c: float = DEFAULT_TRIM_C
    trim_exponent: float = field(default=DEFAULT_TRIM_EXPONENT, metadata={"key": "trim_exp"})

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind: unknown estimator {self.kind!r} (use one of {KINDS})")
        if self.kind in ("truncated", "median_of_blocks"):
            _check_layout(self.m, self.gap)
        if self.kind == "truncated":
            _check_beta_order(self.beta1, self.beta2)
        if self.kind == "trimmed":
            _check_trim(self.trim_c, self.trim_exponent)

    def label(self) -> str:
        if self.kind == "plugin":
            return "plugin"
        if self.kind == "truncated":
            gap = f",gap={self.gap}" if self.gap else ""
            return f"truncated(m={self.m},b1={self.beta1:g},b2={self.beta2:g}{gap})"
        if self.kind == "median_of_blocks":
            gap = f",gap={self.gap}" if self.gap else ""
            return f"median_of_blocks(m={self.m}{gap})"
        return f"trimmed(c={self.trim_c:g},exp={self.trim_exponent:g})"

    def evaluate(self, sample, alpha: float) -> float:
        return float(self.evaluate_batch(_one_row(sample), alpha)[0])

    def evaluate_batch(self, samples, alpha: float) -> np.ndarray:
        return evaluate_many((self,), samples, alpha)[0]

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind in ("truncated", "median_of_blocks"):
            out["m"] = self.m
            out["gap"] = self.gap
        if self.kind == "truncated":
            out["beta1"] = self.beta1
            out["beta2"] = self.beta2
        if self.kind == "trimmed":
            out["trim_c"] = self.trim_c
            out["trim_exp"] = self.trim_exponent
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorConfig":
        """Read exactly the fields that ``to_json`` writes for the object's kind."""
        kind = json_object(obj, "estimator").get("kind", "")
        check_fields(obj, cls(kind).to_json(), f"{kind} estimator")
        names = {f.metadata.get("key", f.name): f.name for f in fields(cls)}
        return cls(**{names[key]: value for key, value in obj.items()})


def evaluate_many(estimators, samples, alpha: float, transform=None) -> list[np.ndarray]:
    """Row-wise estimates of several estimators on one (trials, N) matrix.

    The full-sample plug-in and the sorted block estimates of each
    ``(m, gap)`` layout are computed once and shared by every estimator that
    needs them, so each result has the bits of that estimator evaluated alone.
    With a ``transform`` the estimates are those of ``transform(samples)``
    (see the module docstring for the contract).
    """
    alpha = check_alpha(alpha)
    a = _as_batch(samples)
    full = functools.cache(lambda: plugin_es_batch(a, alpha, transform))
    blocks = functools.cache(lambda m, gap: _sorted_blocks(a, alpha, m, gap, transform))
    out = []
    for est in estimators:
        if est.kind == "plugin":
            out.append(full())
        elif est.kind == "median_of_blocks":
            out.append(_median(blocks(est.m, est.gap)))
        elif est.kind == "truncated":
            _check_betas(est.beta1, est.beta2)
            _block_count(a.shape[1], est.m, est.gap, need=2)
            out.append(_clamp(full(), blocks(est.m, est.gap), est.beta1, est.beta2)[0])
        else:
            out.append(trimmed_es_batch(a, alpha, est.trim_c, est.trim_exponent, transform))
    return out
