"""Monte Carlo experiment engine.

Trial ``t`` of an experiment with master seed ``s`` at sample size ``N`` draws
its data from the stream ``rng.split(s, N, t)`` (and, when a corruption model
is active, feeds ``rng.split(trial_seed, CORRUPTION_STREAM)`` to the
corruptor).  Every trial is therefore a pure function of ``(spec, N, t)``:
results are bit-identical no matter how trials are batched or how many worker
processes execute them, and the engine only ever keeps one scalar estimate per
trial.  Preconditions on ``N`` live in the kernels alone: :class:`ExperimentSpec`
(at every ``N``) and :func:`run_trials_multi` run trial 0's corruption and
estimators on an empty ``(0, N)`` batch, so they fail before any trial runs.

Trials ``[0, trials)`` are cut once into row-wise vectorized sub-batches of
``_SUB_BATCH_ELEMENTS // N`` rows, small enough to stay in a per-core L2 cache.
Worker processes (no pool at one worker) take the list in near-equal
contiguous chunks; results are concatenated in trial order.

A sub-batch of an i.i.d. process from a family without atoms never builds
its sample matrix X = quantile(U): the estimators partition the uniforms U
and apply the quantile function only to the top segments they read (20–30 %
of the points at alpha = 0.1; see :mod:`shortfall.estim`).  The quantile
function is strictly increasing there, so the estimates have the bits of the
estimators on X.  A corruption model names the cells it changes from U (see
:func:`shortfall.corrupt.changed_cells`), and each changed cell gets a
stand-in key in U that compares with its row as the new value compares with
the row's samples: a level of the generator's grid, or the float just below
one, for a value up to the row's top, and a key of 2 or more above it.  The
transform maps the keys back to the values with one table lookup (see
:func:`_stand_ins`).  A sub-batch for which no such keys exist takes the
sample path, with the same bits.  An AR(1) process, a family with atoms
(distinct levels map to one value), and a corrupted trial whose stand-ins
would cost more than its quantile (a ``cheap_quantile`` family, or an attack
on more than a 24th of the row) take the sample path through
:func:`draw_trial_samples`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import estim, functionals, rng
from .corrupt import (CorruptionModel, NoCorruption, apply_corruption_batch, changed_cells,
                      model_from_json, model_to_json)
from .dist import AR1, IID, ProcessSpec, ar1_paths, process_from_json, process_to_json, sample_matrix
from .errors import ParameterError, check_alpha, check_fields, checked_numbers, integer, sequence
from .estim import EstimatorConfig

__all__ = [
    "ExperimentSpec",
    "DeviationCurve",
    "CurvePoint",
    "HistogramResult",
    "run_trials",
    "run_trials_multi",
    "draw_trial_samples",
    "deviation_probability",
    "deviation_curves",
    "histogram",
    "check_bins",
    "longrun_sigma_oracle",
    "check_oracle_size",
    "resolve_workers",
]

#: Key folded into a trial seed to derive its corruption stream.
CORRUPTION_STREAM = 0x636F7272

#: Elements per sub-batch: 256 KB per float64 temporary, so the temporaries of
#: a sub-batch fit a 2 MB per-core L2 (much smaller pays more in call overhead).
_SUB_BATCH_ELEMENTS = 1 << 15

#: Levels on each side of the cdf's guess that the stand-in search reaches.  It
#: checks the ``4 * _LEVEL_REACH + 1`` bins around the guess, since from 1/2 up
#: two adjacent bins share a level.  Over 43k samples and MaxShiftGaussian(3, 5,
#: 250) shocks per family the guess missed by at most 4 levels for Student-t and
#: Pareto and 2 for Normal; a miss sends its sub-batch down the sample path.
_LEVEL_REACH = 5
_BIN_WINDOW = np.arange(-2 * _LEVEL_REACH, 2 * _LEVEL_REACH + 1.0)[:, None]


@checked_numbers
@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a deviation experiment.

    Every estimator sees the same draws: trial ``t`` at size ``N`` is one
    sample, evaluated by each estimator in turn.
    """

    process: ProcessSpec
    estimators: tuple[EstimatorConfig, ...]
    alpha: float
    sample_sizes: tuple[int, ...]
    delta: float
    trials: int
    master_seed: int
    corruption: CorruptionModel = NoCorruption()
    truth: float = math.nan

    def __post_init__(self):
        check_alpha(self.alpha)
        estimators = sequence(self.estimators, "estimators")
        if not estimators:
            raise ParameterError("estimators: need at least one estimator")
        if not self.delta > 0.0:
            raise ParameterError(f"delta: must be > 0 (got {self.delta})")
        if self.trials < 1:
            raise ParameterError(f"trials: must be >= 1 (got {self.trials})")
        sizes = tuple(integer(n, "sample_sizes") for n in sequence(self.sample_sizes, "sample_sizes"))
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
            raise ParameterError("sample_sizes: need a nonempty, strictly increasing list of N >= 1")
        for n in sizes:
            _check_trial_zero(estimators, self.alpha, n, self.corruption)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "estimators", estimators)

    def to_json(self) -> dict:
        return {
            "process": process_to_json(self.process),
            "estimators": [est.to_json() for est in self.estimators],
            "alpha": self.alpha,
            "sample_sizes": list(self.sample_sizes),
            "delta": self.delta,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "corruption": model_to_json(self.corruption),
            "truth": self.truth,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        """Parse a spec; a missing ``truth`` is the exact ES of the process marginal."""
        check_fields(obj, [f.name for f in fields(cls)], "experiment")
        process = process_from_json(obj["process"])
        truth = obj.get("truth")
        if truth is None:
            marginal = process.dist if isinstance(process, IID) else process.marginal
            truth = functionals.es_exact(marginal, obj["alpha"])
        return cls(
            process=process,
            estimators=tuple(map(EstimatorConfig.from_json, sequence(obj["estimators"], "estimators"))),
            alpha=obj["alpha"],
            sample_sizes=obj["sample_sizes"],
            delta=obj["delta"],
            trials=obj["trials"],
            master_seed=obj["master_seed"],
            corruption=model_from_json(obj.get("corruption")),
            truth=truth,
        )


@dataclass(frozen=True)
class CurvePoint:
    """One N of a deviation curve; ``median_abs_error`` is the median |estimate - truth|."""

    n: int
    p_hat: float
    stderr: float
    count: int
    median_abs_error: float


@dataclass(frozen=True)
class DeviationCurve:
    delta: float
    trials: int
    points: tuple[CurvePoint, ...]


@dataclass(frozen=True)
class HistogramResult:
    bin_edges: np.ndarray
    counts: np.ndarray
    min: float
    max: float
    trials: int


def resolve_workers(workers: int = 0) -> int:
    """0 means auto: the SHORTFALL_WORKERS env var, else the CPU count capped at 8.

    The env var takes the same counts, 0 for auto included.
    """
    if workers < 0:
        raise ParameterError(f"workers: must be >= 0 (got {workers})")
    if workers:
        return workers
    env = os.environ.get("SHORTFALL_WORKERS", "")
    if env.strip():
        try:
            count = int(env)
        except ValueError:
            count = -1
        if count < 0:
            raise ParameterError(f"SHORTFALL_WORKERS: must be an integer >= 0 (got {env!r})")
        if count:
            return count
    return max(1, min(os.cpu_count() or 1, 8))


def _draw_batch(process: ProcessSpec, seeds: np.ndarray, n: int) -> np.ndarray:
    if isinstance(process, IID):
        return sample_matrix(process.dist, seeds, n)
    if isinstance(process, AR1):
        return ar1_paths(process.rho, seeds, n)
    raise ParameterError(f"process: unknown process {type(process).__name__}")


def draw_trial_samples(process: ProcessSpec, n: int, master_seed: int,
                       t_start: int, t_stop: int,
                       corruption: CorruptionModel = NoCorruption()) -> np.ndarray:
    """Samples of trials ``[t_start, t_stop)``, shape (t_stop - t_start, n).

    The engine's estimates equal the estimators on this matrix, though on the
    uniform path (module docstring) the engine never builds it.
    """
    ts = np.arange(t_start, t_stop, dtype=np.uint64)
    seeds = rng.split_array(master_seed, n, ts)
    samples = _draw_batch(process, seeds, n)
    if not isinstance(corruption, NoCorruption):
        samples = apply_corruption_batch(samples, corruption, rng.split_from(seeds, CORRUPTION_STREAM))
    return samples


def _run_batch(process: ProcessSpec, estimators: tuple[EstimatorConfig, ...],
               alpha: float, n: int, master_seed: int, corruption: CorruptionModel,
               rows: int, trials: int, t_start: int) -> list[np.ndarray]:
    """Trials ``[t_start, min(t_start + rows, trials))``: one sub-batch."""
    t_stop = min(t_start + rows, trials)
    if _on_uniforms(process, corruption, n):
        seeds = rng.split_array(master_seed, n, np.arange(t_start, t_stop, dtype=np.uint64))
        u = rng.uniform_matrix(seeds, n)
        if isinstance(corruption, NoCorruption):
            return estim.evaluate_many(estimators, u, alpha, process.dist.quantile)
        cells = changed_cells(u, corruption, rng.split_from(seeds, CORRUPTION_STREAM),
                              process.dist.quantile)
        transform = _stand_ins(u, cells, process.dist)
        if transform is not None:
            return estim.evaluate_many(estimators, u, alpha, transform)
    samples = draw_trial_samples(process, n, master_seed, t_start, t_stop, corruption)
    return estim.evaluate_many(estimators, samples, alpha)


def _on_uniforms(process: ProcessSpec, corruption: CorruptionModel, n: int) -> bool:
    """Whether a sub-batch runs on the uniforms (module docstring)."""
    if not isinstance(process, IID) or process.dist.has_atoms:
        return False
    if isinstance(corruption, NoCorruption):
        return True
    # stand-in time / sample-path time at N = 3250, 4 estimators, on a 2-core Xeon:
    # Student-t(2.5) 0.5-0.7 for k = N/96..N/44 and 0.86 at N/24; Normal 0.85-1.5
    # for values inside the samples at the same k, 1.0 under MaxShiftGaussian(3, 5, 250)
    return not process.dist.cheap_quantile and 24 * corruption.k <= n


def _stand_ins(u: np.ndarray, cells, family):
    """Write a stand-in key into ``u`` for each changed cell; the transform that reads them.

    The key of a cell compares with the other points of its row as its new
    value compares with their samples, so the estimators on ``u`` with the
    returned transform give the bits of the estimators on the corrupted X.
    A value above the quantile of its row's largest uniform, changed cells
    included, gets a key of 2 or more, ranked by value.  Any other value v
    gets the smallest level L with quantile(L) >= v (:func:`_reaching_levels`):
    L itself on a tie, else the float just below L, which no drawn uniform
    takes.  The transform looks each point up in the table of keys that are
    not levels and maps a hit back to its value.  ``u`` is written only once
    every key is known.  Returns None, leaving ``u`` as drawn, where no such
    key can be found: the cdf misses L by more than ``_LEVEL_REACH`` levels,
    no float lies below L (L = 1/2), or two different values need one key
    (two values below the grid, say).
    """
    rows, cols, values = cells
    quantile = family.quantile
    above = values > quantile(u.max(axis=1))[rows]
    keys = np.empty_like(values)
    keys[above] = np.searchsorted(np.sort(values[above]), values[above]) + 2.0
    stored = above.copy()
    inside = ~above
    if inside.any():
        v = values[inside]
        found = _reaching_levels(v, family)
        if found is None:
            return None
        level, reached = found
        tie = reached == v
        if np.any(~tie & (level == 0.5)):
            return None
        keys[inside] = np.where(tie, level, np.nextafter(level, 0.0))
        stored[inside] = ~tie
    order = np.argsort(keys[stored])
    table_keys, table_values = keys[stored][order], values[stored][order]
    if np.any((table_keys[1:] == table_keys[:-1]) & (table_values[1:] != table_values[:-1])):
        return None
    u[rows, cols] = keys
    if not table_keys.size:
        return quantile

    def transform(points: np.ndarray) -> np.ndarray:
        out = quantile(np.minimum(points, 1.0))
        at = np.searchsorted(table_keys, points, side="right") - 1  # -1 below every key
        hit = table_keys[at] == points
        out[hit] = table_values[at[hit]]
        return out

    return transform


def _reaching_levels(values: np.ndarray, family):
    """(L, quantile(L)) for each value v, where quantile(level below L) < v <= quantile(L).

    One quantile call checks the levels (:func:`shortfall.rng.unit`) of the
    ``4 * _LEVEL_REACH + 1`` bins around the bin of ``family.cdf(v)``.  A bin
    below 0 holds no level, so it counts as one that v does not reach, and a
    v at or below quantile(``unit(0)``) gets L = ``unit(0)``; a bin above the
    top bin is clipped to it.  L is the first level of the window that
    reaches v after one that does not.  Returns None where a window holds
    none.  Where the computed quantile is not monotone, the first such L is
    taken: the engine already takes the quantile to be increasing on the
    points of a trial.
    """
    bins = np.floor(family.cdf(values) * 2.0**53) + _BIN_WINDOW
    window = rng.unit(np.clip(bins, 0.0, 2.0**53 - 1.0))
    q = family.quantile(window)
    short = (q < values) | (bins < 0.0)
    cross = short[:-1] & ~short[1:]
    if not cross.any(axis=0).all():
        return None
    first = cross.argmax(axis=0) + 1
    columns = np.arange(values.size)
    return window[first, columns], q[first, columns]


def _concat(parts) -> list[np.ndarray]:
    """Join the per-estimator results of consecutive sub-batches."""
    return [np.concatenate(column) for column in zip(*parts)]


def _check_trial_zero(estimators, alpha: float, n: int, corruption: CorruptionModel) -> None:
    """Trial 0's corruption and estimators on an empty (0, n) batch: the kernels' checks."""
    empty = apply_corruption_batch(np.empty((0, n)), corruption, np.empty(0, np.uint64))
    for est in estimators:
        try:
            estim.evaluate_many((est,), empty, alpha)
        except ParameterError as exc:
            raise ParameterError(f"estimator {est.label()}: {exc} "
                                 "(failure would occur at trial 0)") from None


def run_trials_multi(process: ProcessSpec, estimators, alpha: float, n: int,
                     trials: int, master_seed: int,
                     corruption: CorruptionModel = NoCorruption(),
                     workers: int = 0) -> list[np.ndarray]:
    """Per-trial estimates for several estimators sharing the same draws.

    Returns one array of length ``trials`` per estimator, in trial order.
    """
    alpha = check_alpha(alpha)
    estimators = tuple(estimators)
    if trials < 1:
        raise ParameterError(f"trials: must be >= 1 (got {trials})")
    _check_trial_zero(estimators, alpha, n, corruption)
    rows = max(1, _SUB_BATCH_ELEMENTS // n)
    starts = range(0, trials, rows)
    workers = min(resolve_workers(workers), len(starts))
    batch = partial(_run_batch, process, estimators, alpha, n, master_seed, corruption, rows, trials)
    if workers == 1:
        return _concat(map(batch, starts))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _concat(pool.map(batch, starts, chunksize=-(-len(starts) // workers)))


def run_trials(spec: ExperimentSpec, n: int, workers: int = 0) -> list[np.ndarray]:
    """Per-trial estimates at sample size ``n``: one array per estimator."""
    return run_trials_multi(spec.process, spec.estimators, spec.alpha, n, spec.trials,
                            spec.master_seed, spec.corruption, workers)


def deviation_probability(estimates, truth: float, delta: float) -> tuple[float, float, int]:
    """(p_hat, binomial stderr, raw count) of |estimate - truth| >= delta."""
    est = np.asarray(estimates, dtype=np.float64)
    if est.size == 0:
        raise ParameterError("estimates: must be nonempty")
    if not delta > 0.0:
        raise ParameterError(f"delta: must be > 0 (got {delta})")
    count = int(np.count_nonzero(np.abs(est - truth) >= delta))
    p_hat = count / est.size
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / est.size)
    return p_hat, stderr, count


def deviation_curves(spec: ExperimentSpec, workers: int = 0) -> tuple[DeviationCurve, ...]:
    """P(|estimate - truth| >= delta) at each N, one curve per estimator."""
    if math.isnan(spec.truth):
        raise ParameterError("truth: ExperimentSpec.truth must be set for deviation curves")
    points = [[] for _ in spec.estimators]
    for n in spec.sample_sizes:
        for curve, estimates in zip(points, run_trials(spec, n, workers)):
            p_hat, stderr, count = deviation_probability(estimates, spec.truth, spec.delta)
            error = float(np.median(np.abs(estimates - spec.truth)))
            curve.append(CurvePoint(n, p_hat, stderr, count, error))
    return tuple(DeviationCurve(spec.delta, spec.trials, tuple(p)) for p in points)


def check_bins(bins: int) -> None:
    """Validate a histogram bin count: at least one bin."""
    if bins < 1:
        raise ParameterError(f"bins: must be >= 1 (got {bins})")


def histogram(estimates, bins: int) -> HistogramResult:
    """Equal-width histogram over [min, max].

    Values falling exactly on an interior edge count toward the lower bin (the
    global minimum stays in the first bin).
    """
    check_bins(bins)
    est = np.asarray(estimates, dtype=np.float64).ravel()
    if est.size == 0:
        raise ParameterError("estimates: must be nonempty")
    bad = est.size - int(np.count_nonzero(np.isfinite(est)))
    if bad:
        raise ParameterError(f"estimates: {bad} of {est.size} are not finite; "
                             "a histogram needs finite estimates")
    lo, hi = float(est.min()), float(est.max())
    if lo == hi:
        edges = np.linspace(lo - 0.5, hi + 0.5, bins + 1)
    else:
        edges = np.linspace(lo, hi, bins + 1)
    idx = np.searchsorted(edges, est, side="left") - 1
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins).astype(np.int64)
    return HistogramResult(edges, counts, lo, hi, est.size)


def check_oracle_size(block_size: int, blocks: int) -> None:
    """Validate the batch-means layout of :func:`longrun_sigma_oracle`."""
    if blocks < 100:
        raise ParameterError(f"blocks: need >= 100 batches for a stable estimate (got {blocks})")
    if block_size < 2:
        raise ParameterError(f"block_size: must be >= 2 (got {block_size})")


def longrun_sigma_oracle(process: ProcessSpec, alpha: float, block_size: int,
                         blocks: int, seed: int) -> float:
    """Batch-means estimate of the long-run variance of the plug-in estimator.

    Computes the plug-in estimate on ``blocks`` consecutive disjoint stretches
    of length ``block_size`` from a single path and returns
    ``block_size * var(block estimates)``; for i.i.d. processes this converges
    to the asymptotic variance of the plug-in estimator.
    """
    alpha = check_alpha(alpha)
    check_oracle_size(block_size, blocks)
    total = block_size * blocks
    path = _draw_batch(process, np.array([seed & rng.MASK64], dtype=np.uint64), total)[0]
    batch_estimates = estim.plugin_es_batch(path.reshape(blocks, block_size), alpha)
    return float(block_size * batch_estimates.var(ddof=1))
