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

The kernels work row-wise on a (trials, N) matrix in two private steps:
*select* partitions each row (or block) with ``np.partition`` instead of a
full sort and keeps the top segment the plug-in reads; *reduce* takes its
weighted tail sum.  The batch route of every estimator is
:meth:`EstimatorConfig.evaluate_batch`, or :func:`evaluate_many` for
several: it selects each segment its estimators read once, and builds the
truncated estimator and the median of blocks from the plug-in and the sorted
block estimates.  A scalar form runs the same kernels on a one-row matrix.

Since the estimators read only their top segments, :func:`evaluate_many`
takes an optional ``transform``: a vectorized map ``q``, applied element by
element, such that the estimates are those of ``q(samples)``.  It is called
once, on the 1-D concatenation of every segment read.  The contract is that
``q`` is order-preserving within each row: q(a) < q(b) exactly when a < b,
and q(a) == q(b) exactly when a == b.  Then partitioning the row makes the
same comparisons as partitioning its image, the segments hold the same
values in the same order, and the results have the same bits.  The Monte
Carlo engine passes a family's quantile function with a matrix of uniforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (ParameterError, check_alpha, check_fields, checked_numbers, integer,
                     json_object, number)

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
    "block_estimates_batch",
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


def _plugin_top(a: np.ndarray, alpha: float) -> tuple[np.ndarray, int]:
    """Select: the top segment of each row that the plug-in reads, and the row length."""
    n = a.shape[1]
    k = _top_index(n, alpha)
    return np.partition(a, k, axis=-1)[:, k:], n


def _tail_mean(tail: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Reduce: the plug-in of rows of length ``n`` from their top segments ``tail`` (last axis)."""
    k = n - tail.shape[-1]
    boundary_w = (k + 1.0) / n - max(k / n, 1.0 - alpha)
    with np.errstate(over="ignore"):  # an overflowing row is added again below
        top_sum = tail[..., 1:].sum(axis=-1)
    out = (top_sum / n + _boundary_term(boundary_w, tail)) / alpha
    over = ~np.isfinite(top_sum)
    if over.any():
        # A sum of finite values near 1e308 can overflow while their weighted
        # mean cannot: add those rows again at an exact power-of-two scale.
        scale = 2.0 ** -math.ceil(math.log2(n))
        rows = tail[over] * scale
        out[over] = (rows[:, 1:].sum(axis=-1) / n + _boundary_term(boundary_w, rows)) / alpha / scale
    return out


def _boundary_term(weight: float, rows: np.ndarray):
    """``weight`` times the first column of ``rows``, or 0 at a zero weight, where 0 * inf is nan."""
    return weight * rows[..., 0] if weight else 0.0


def plugin_es(sample, alpha: float) -> float:
    """Plug-in expected shortfall: the exact weighted order-statistic sum."""
    # evaluate_many's kernels, run directly: EstimatorConfig("plugin").evaluate gives the same
    # bits at 28-31 us a call against 16-18 us at N = 500 (min of 9 timeit runs, 2-core Xeon)
    a = _one_row(sample)
    alpha = check_alpha(alpha)
    return float(_tail_mean(*_plugin_top(a, alpha), alpha)[0])


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


def _check_layout(m, gap) -> tuple[int, int]:
    """``(m, gap)`` as ints: a block size >= 1 and a gap >= 0."""
    m, gap = integer(m, "m"), integer(gap, "gap")
    if m < 1:
        raise ParameterError(f"m: block size must be >= 1 (got {m})")
    if gap < 0:
        raise ParameterError(f"gap: must be >= 0 (got {gap})")
    return m, gap


def _block_count(n: int, m: int, gap: int, need: int = 1) -> int:
    """Complete blocks of stride ``m + gap`` in ``n`` values; at least ``need``."""
    count = n // (m + gap)
    if count < need:
        max_m = n // need - gap
        hint = f"reduce m (largest valid m is {max_m})" if max_m >= 1 else "provide more data"
        raise ParameterError(f"m: N={n} below the minimum {need * (m + gap)}: need >= {need} "
                             f"complete block{'s' if need > 1 else ''}; {hint}")
    return count


def block_estimates(sample, alpha: float, m: int, gap: int = 0) -> np.ndarray:
    """Plug-in estimate of each complete block, in block order.

    Blocks of size ``m`` are taken with stride ``m + gap``; each stride keeps
    its trailing block, so with ``gap = m`` only every other block survives.
    """
    return block_estimates_batch(_one_row(sample), alpha, m, gap)[0]


def block_estimates_batch(samples, alpha: float, m: int, gap: int = 0) -> np.ndarray:
    """Row-wise block estimates; shape (trials, n_blocks)."""
    alpha = check_alpha(alpha)
    return _tail_mean(*_block_top(_as_batch(samples), alpha, *_check_layout(m, gap)), alpha)


def _block_top(a: np.ndarray, alpha: float, m: int, gap: int) -> tuple[np.ndarray, int]:
    """Select: the top segment of each block of a checked layout, shape (trials, n_blocks,
    width), and ``m``; samples after the last complete block are dropped."""
    count, stride = _block_count(a.shape[1], m, gap), m + gap
    blocks = a[:, : count * stride].reshape(len(a), count, stride)[..., gap:]
    top, _ = _plugin_top(blocks.reshape(-1, m), alpha)  # faster than partitioning in 3-D
    return top.reshape(len(a), count, top.shape[-1]), m


def _check_betas(beta1: float, beta2: float) -> None:
    if not 0.0 <= beta1 <= beta2 <= 1.0:
        raise ParameterError(
            f"beta1/beta2: need 0 <= beta1 <= beta2 <= 1 (got {beta1}, {beta2})"
        )
    lo, hi = THEORY_BETA_RANGE
    if beta1 < lo or beta2 > hi:
        warnings.warn(
            f"quantile levels ({beta1}, {beta2}) lie outside the guaranteed range [{lo}, {hi}]")


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
    est = EstimatorConfig("truncated", m=m, beta1=beta1, beta2=beta2, gap=gap)
    _block_count(a.shape[1], est.m, est.gap, need=2)
    # evaluate_many on the estimate and its two equal-beta configs gives the same bits at
    # 86-95 us a call against 52-60 us at N = 500, and 8.3 ms against 5.4-6.2 ms at N = 1e6
    blocks = np.sort(block_estimates_batch(a, alpha, est.m, est.gap), axis=-1)
    rows = _clamp(_tail_mean(*_plugin_top(a, alpha), alpha), blocks, est.beta1, est.beta2)
    return tuple(float(r[0]) for r in rows)


def truncated_es(sample, alpha: float, m: int = DEFAULT_M,
                 beta1: float = DEFAULT_BETA1, beta2: float = DEFAULT_BETA2,
                 gap: int = 0) -> float:
    """Full-sample plug-in clamped to interpolated block-estimate quantiles."""
    return truncated_es_interval(sample, alpha, m, beta1, beta2, gap)[0]


def median_of_blocks(sample, alpha: float, m: int = DEFAULT_M, gap: int = 0) -> float:
    """Interpolated median of the block estimates."""
    return EstimatorConfig("median_of_blocks", m=m, gap=gap).evaluate(sample, alpha)


def _check_trim(c, exponent) -> tuple[float, float]:
    """``(c, exponent)`` as floats: a finite constant > 0 and a finite exponent."""
    c, exponent = number(c, "trim_c"), number(exponent, "trim_exp")
    if not 0.0 < c < math.inf:
        raise ParameterError(f"trim_c: trimming constant must be finite and > 0 (got {c})")
    if not math.isfinite(exponent):
        raise ParameterError(f"trim_exp: trimming exponent must be finite (got {exponent})")
    return c, exponent


def _trim_count(n: int, c: float, exponent: float) -> int:
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
    return EstimatorConfig("trimmed", trim_c=c, trim_exponent=exponent).evaluate(sample, alpha)


def _trimmed_top(a: np.ndarray, alpha: float, k: int) -> tuple[np.ndarray, int]:
    """Select: the plug-in's top segment of each row without its ``k`` >= 1 largest points."""
    kept = a.shape[1] - k
    k2 = _top_index(kept, alpha)
    return np.partition(a, sorted({k2, kept - 1}), axis=-1)[:, k2:kept], kept


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
            _check_betas(self.beta1, self.beta2)
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
        """Row-wise estimates; warns where a median of blocks has a single block."""
        a = _as_batch(samples)
        out = evaluate_many((self,), a, alpha)[0]
        if self.kind == "median_of_blocks" and _block_count(a.shape[1], self.m, self.gap) == 1:
            warnings.warn(
                "only one complete block; median of blocks degenerates to a single block estimate")
        return out

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

    Three stages: select each segment the estimators read (full sample, block
    layout, trimming) once; ``transform`` them all in one call (module
    docstring); reduce each to its plug-ins, which the estimators share, so
    each result has the bits of that estimator evaluated alone.  It gives no
    warning: the configs and :meth:`EstimatorConfig.evaluate_batch` do.
    """
    alpha = check_alpha(alpha)
    a = _as_batch(samples)
    reads = [_reads(est, a.shape[1]) for est in estimators]
    keys = list(dict.fromkeys(key for read in reads for key in read))
    tops = [key[0](a, alpha, *key[1:]) for key in keys]
    segments = [top for top, _ in tops]
    if transform is not None:
        flat, end = transform(np.concatenate(segments, axis=None)), 0
        for i, top in enumerate(segments):
            segments[i] = flat[end:end + top.size].reshape(top.shape)
            end += top.size
    means = {}
    for key, top, (_, n) in zip(keys, segments, tops):
        mean = _tail_mean(top, n, alpha)
        means[key] = np.sort(mean, axis=-1) if key[0] is _block_top else mean
    out = []
    for est, read in zip(estimators, reads):
        if est.kind == "median_of_blocks":
            out.append(_interp_sorted(means[read[0]], 0.5))
        elif est.kind == "truncated":
            out.append(_clamp(*(means[key] for key in read), est.beta1, est.beta2)[0])
        else:
            out.append(means[read[0]])
    return out


def _reads(est: EstimatorConfig, n: int) -> tuple[tuple, ...]:
    """The segments ``est`` reads in rows of length ``n``, as ``(select, *args)``; checks ``est``."""
    if est.kind == "plugin":
        return ((_plugin_top,),)
    if est.kind == "trimmed":  # trimming no point reads the plug-in's segment
        k = _trim_count(n, est.trim_c, est.trim_exponent)
        return ((_trimmed_top, k),) if k else ((_plugin_top,),)
    _block_count(n, est.m, est.gap, need=2 if est.kind == "truncated" else 1)
    layout = (_block_top, est.m, est.gap)
    return ((_plugin_top,), layout) if est.kind == "truncated" else (layout,)
