"""Monte Carlo experiment engine.

Trial ``t`` of an experiment with master seed ``s`` at sample size ``N`` draws
its data from the stream ``rng.split(s, N, t)`` (and, when a corruption model
is active, feeds ``rng.split(trial_seed, CORRUPTION_STREAM)`` to the
corruptor).  Every trial is therefore a pure function of ``(spec, N, t)``:
results are bit-identical no matter how trials are batched or how many worker
processes execute them, and the engine only ever keeps one scalar estimate per
trial.

Trials ``[0, trials)`` are split into one near-equal contiguous range per
worker process (no pool at one worker).  Each range runs in row-wise
vectorized sub-batches of ``_SUB_BATCH_ELEMENTS // N`` rows, small enough to
stay in a per-core L2 cache; results are concatenated in trial order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estim, functionals, rng
from .corrupt import CorruptionModel, NoCorruption, apply_corruption_batch, model_from_json, model_to_json
from .dist import AR1, IID, ProcessSpec, ar1_paths, process_from_json, process_to_json, sample_matrix
from .errors import ParameterError
from .estim import EstimatorConfig
from .functionals import check_alpha

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
        estimators = tuple(self.estimators)
        if not estimators:
            raise ParameterError("estimators: need at least one estimator")
        if self.delta <= 0.0:
            raise ParameterError(f"delta: must be > 0 (got {self.delta})")
        if self.trials < 1:
            raise ParameterError(f"trials: must be >= 1 (got {self.trials})")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
            raise ParameterError("sample_sizes: need a nonempty, strictly increasing list of N >= 1")
        _validate_for_n(estimators, sizes[0])
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
        process = process_from_json(obj["process"])
        alpha = check_alpha(obj["alpha"])
        truth = obj.get("truth")
        if truth is None:
            marginal = process.dist if isinstance(process, IID) else process.marginal
            truth = functionals.es_exact(marginal, alpha)
        return cls(
            process=process,
            estimators=tuple(EstimatorConfig.from_json(e) for e in obj["estimators"]),
            alpha=alpha,
            sample_sizes=tuple(obj["sample_sizes"]),
            delta=float(obj["delta"]),
            trials=int(obj["trials"]),
            master_seed=int(obj["master_seed"]),
            corruption=model_from_json(obj.get("corruption")),
            truth=float(truth),
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
    """0 means auto: the SHORTFALL_WORKERS env var, else the CPU count."""
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
        return max(1, count)
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
    """The exact (t_stop - t_start, n) sample matrix the engine would use."""
    ts = np.arange(t_start, t_stop, dtype=np.uint64)
    seeds = rng.split_array(master_seed, n, ts)
    samples = _draw_batch(process, seeds, n)
    if not isinstance(corruption, NoCorruption):
        samples = apply_corruption_batch(samples, corruption, rng.split_from(seeds, CORRUPTION_STREAM))
    return samples


def _run_batch(process: ProcessSpec, estimators: tuple[EstimatorConfig, ...],
               alpha: float, n: int, master_seed: int, corruption: CorruptionModel,
               t_start: int, t_stop: int) -> list[np.ndarray]:
    samples = draw_trial_samples(process, n, master_seed, t_start, t_stop, corruption)
    return estim.evaluate_many(estimators, samples, alpha)


def _concat(parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Join the per-estimator results of consecutive trial ranges."""
    return [np.concatenate(column) for column in zip(*parts)]


def _run_span(process: ProcessSpec, estimators: tuple[EstimatorConfig, ...],
              alpha: float, n: int, master_seed: int, corruption: CorruptionModel,
              t_start: int, t_stop: int) -> list[np.ndarray]:
    """Trials ``[t_start, t_stop)``, one cache-sized sub-batch at a time."""
    rows = max(1, _SUB_BATCH_ELEMENTS // n)
    return _concat([_run_batch(process, estimators, alpha, n, master_seed, corruption,
                               t0, min(t0 + rows, t_stop)) for t0 in range(t_start, t_stop, rows)])


def _validate_for_n(estimators, n: int) -> None:
    for est in estimators:
        need = est.min_sample_size()
        if n < need:
            raise ParameterError(
                f"estimator {est.label()}: N={n} below the minimum {need} "
                f"(failure would occur at trial 0)"
            )


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
    if not isinstance(corruption, NoCorruption) and corruption.k > n:
        raise ParameterError(f"corruption: k={corruption.k} exceeds N={n}")
    _validate_for_n(estimators, n)
    workers = min(resolve_workers(workers), -(-trials // max(1, _SUB_BATCH_ELEMENTS // n)))
    job = (process, estimators, alpha, n, master_seed, corruption)
    if workers == 1:
        return _run_span(*job, 0, trials)
    bounds = [trials * i // workers for i in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_span, *job, t0, t1) for t0, t1 in zip(bounds, bounds[1:])]
        return _concat([future.result() for future in futures])


def run_trials(spec: ExperimentSpec, n: int, workers: int = 0) -> list[np.ndarray]:
    """Per-trial estimates at sample size ``n``: one array per estimator."""
    return run_trials_multi(spec.process, spec.estimators, spec.alpha, n, spec.trials,
                            spec.master_seed, spec.corruption, workers)


def deviation_probability(estimates, truth: float, delta: float) -> tuple[float, float, int]:
    """(p_hat, binomial stderr, raw count) of |estimate - truth| >= delta."""
    est = np.asarray(estimates, dtype=np.float64)
    if est.size == 0:
        raise ParameterError("estimates: must be nonempty")
    if delta <= 0.0:
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
