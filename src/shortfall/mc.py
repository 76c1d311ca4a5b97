"""Monte Carlo experiment engine.

Trial ``t`` of an experiment with master seed ``s`` at sample size ``N`` draws
its data from the stream ``rng.split(s, N, t)`` (and, when a corruption model
is active, feeds ``rng.split(trial_seed, CORRUPTION_STREAM)`` to the
corruptor).  Every trial is therefore a pure function of ``(spec, N, t)``:
results are bit-identical no matter how trials are batched or how many worker
processes execute them, and the engine only ever keeps one scalar estimate per
trial.

Trials are processed in fixed-size batches, vectorized row-wise; batches can
be farmed out to a process pool and are reassembled in trial order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estim, rng
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
    "deviation_curve",
    "histogram",
    "longrun_sigma_oracle",
    "resolve_workers",
]

#: Key folded into a trial seed to derive its corruption stream.
CORRUPTION_STREAM = 0x636F7272

_TARGET_BATCH_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a deviation experiment."""

    process: ProcessSpec
    estimator: EstimatorConfig
    alpha: float
    sample_sizes: tuple[int, ...]
    delta: float
    trials: int
    master_seed: int
    corruption: CorruptionModel = NoCorruption()
    truth: float = math.nan

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.delta <= 0.0:
            raise ParameterError(f"delta: must be > 0 (got {self.delta})")
        if self.trials < 1:
            raise ParameterError(f"trials: must be >= 1 (got {self.trials})")
        sizes = tuple(int(n) for n in self.sample_sizes)
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
            raise ParameterError("sample_sizes: need a nonempty, strictly increasing list of N >= 1")
        object.__setattr__(self, "sample_sizes", sizes)

    def to_json(self) -> dict:
        return {
            "process": process_to_json(self.process),
            "estimator": self.estimator.to_json(),
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
        return cls(
            process=process_from_json(obj["process"]),
            estimator=EstimatorConfig.from_json(obj["estimator"]),
            alpha=float(obj["alpha"]),
            sample_sizes=tuple(obj["sample_sizes"]),
            delta=float(obj["delta"]),
            trials=int(obj["trials"]),
            master_seed=int(obj["master_seed"]),
            corruption=model_from_json(obj.get("corruption")),
            truth=float(obj.get("truth", math.nan)),
        )


@dataclass(frozen=True)
class CurvePoint:
    n: int
    p_hat: float
    stderr: float
    count: int


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


def _batch_size(n: int, trials: int) -> int:
    return max(16, min(4096, _TARGET_BATCH_ELEMENTS // max(n, 1), trials))


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


def _evaluate_with_cache(est: EstimatorConfig, samples: np.ndarray, alpha: float,
                         cache: dict) -> np.ndarray:
    """Evaluate one estimator, sharing work common to several estimators."""
    if est.kind == "plugin":
        if "plugin" not in cache:
            cache["plugin"] = estim.plugin_es_batch(samples, alpha)
        return cache["plugin"]
    if est.kind in ("truncated", "median_of_blocks"):
        key = ("blocks", est.m, est.gap)
        if key not in cache:
            cache[key] = np.sort(
                estim.block_estimates_batch(samples, alpha, est.m, est.gap), axis=-1
            )
        blocks = cache[key]
        if est.kind == "median_of_blocks":
            if blocks.shape[1] == 1:
                return blocks[:, 0].copy()
            return estim._interp_sorted(blocks, 0.5)
        lower = estim._interp_sorted(blocks, est.beta1)
        upper = estim._interp_sorted(blocks, est.beta2)
        if "plugin" not in cache:
            cache["plugin"] = estim.plugin_es_batch(samples, alpha)
        return np.minimum(np.maximum(cache["plugin"], lower), upper)
    return est.evaluate_batch(samples, alpha)


def _run_batch(process: ProcessSpec, estimators: tuple[EstimatorConfig, ...],
               alpha: float, n: int, master_seed: int, corruption: CorruptionModel,
               t_start: int, t_stop: int) -> list[np.ndarray]:
    samples = draw_trial_samples(process, n, master_seed, t_start, t_stop, corruption)
    cache: dict = {}
    return [_evaluate_with_cache(est, samples, alpha, cache) for est in estimators]


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
    if not isinstance(corruption, NoCorruption):
        if corruption.k > n:
            raise ParameterError(f"corruption: k={corruption.k} exceeds N={n}")
    _validate_for_n(estimators, n)
    workers = resolve_workers(workers)
    batch = _batch_size(n, trials)
    spans = [(t0, min(t0 + batch, trials)) for t0 in range(0, trials, batch)]
    out = [np.empty(trials) for _ in estimators]

    def _store(span, results):
        t0, t1 = span
        for dest, res in zip(out, results):
            dest[t0:t1] = res

    if workers == 1 or len(spans) == 1:
        for span in spans:
            _store(span, _run_batch(process, estimators, alpha, n, master_seed,
                                    corruption, *span))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_batch, process, estimators, alpha, n, master_seed,
                            corruption, *span)
                for span in spans
            ]
            for span, fut in zip(spans, futures):
                _store(span, fut.result())
    return out


def run_trials(spec: ExperimentSpec, n: int, workers: int = 0) -> np.ndarray:
    """Per-trial estimates (length ``spec.trials``) at sample size ``n``."""
    return run_trials_multi(spec.process, (spec.estimator,), spec.alpha, n,
                            spec.trials, spec.master_seed, spec.corruption,
                            workers)[0]


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


def deviation_curve(spec: ExperimentSpec, workers: int = 0) -> DeviationCurve:
    """Deviation probability P(|estimate - truth| >= delta) at each N."""
    if math.isnan(spec.truth):
        raise ParameterError("truth: ExperimentSpec.truth must be set for deviation curves")
    points = []
    for n in spec.sample_sizes:
        estimates = run_trials(spec, n, workers=workers)
        p_hat, stderr, count = deviation_probability(estimates, spec.truth, spec.delta)
        points.append(CurvePoint(n, p_hat, stderr, count))
    return DeviationCurve(spec.delta, spec.trials, tuple(points))


def histogram(estimates, bins: int) -> HistogramResult:
    """Equal-width histogram over [min, max].

    Values falling exactly on an interior edge count toward the lower bin (the
    global minimum stays in the first bin).
    """
    if bins < 1:
        raise ParameterError(f"bins: must be >= 1 (got {bins})")
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


def longrun_sigma_oracle(process: ProcessSpec, alpha: float, block_size: int,
                         blocks: int, seed: int) -> float:
    """Batch-means estimate of the long-run variance of the plug-in estimator.

    Computes the plug-in estimate on ``blocks`` consecutive disjoint stretches
    of length ``block_size`` from a single path and returns
    ``block_size * var(block estimates)``; for i.i.d. processes this converges
    to the asymptotic variance of the plug-in estimator.
    """
    alpha = check_alpha(alpha)
    if blocks < 100:
        raise ParameterError(f"blocks: need >= 100 batches for a stable estimate (got {blocks})")
    if block_size < 2:
        raise ParameterError(f"block_size: must be >= 2 (got {block_size})")
    total = block_size * blocks
    path = _draw_batch(process, np.array([seed & rng.MASK64], dtype=np.uint64), total)[0]
    batch_estimates = estim.plugin_es_batch(path.reshape(blocks, block_size), alpha)
    return float(block_size * batch_estimates.var(ddof=1))
