"""Monte Carlo experiment engine.

Trial ``t`` of an experiment with master seed ``s`` at sample size ``N`` draws
its data from the stream ``rng.split(s, N, t)`` (and, when a corruption model
is active, feeds ``rng.split(trial_seed, CORRUPTION_STREAM)`` to the
corruptor).  Every trial is therefore a pure function of ``(spec, N, t)``:
results are bit-identical no matter how trials are batched or how many worker
processes execute them, and the engine only ever keeps one scalar estimate per
trial.  Preconditions on ``N`` live in the kernels alone: :class:`ExperimentSpec`,
which :func:`run_trials_multi` builds for its one ``N``, runs trial 0's draw,
corruption and estimators on an empty ``(0, N)`` batch at every ``N``, so they
fail first.  That draw also loads, in the parent process, the scipy modules
the process needs (:mod:`shortfall.dist` loads them on first use), so the
workers of a pool inherit them instead of each loading its own.

Trials ``[0, trials)`` are cut once into row-wise vectorized sub-batches of
``_SUB_BATCH_ELEMENTS // N`` rows, small enough to stay in a per-core L2 cache.
Worker processes (no pool at one worker) take the list in near-equal
contiguous chunks; results are concatenated in trial order.

A sub-batch of an i.i.d. process from a family without atoms never builds
its sample matrix X = quantile(U): the estimators partition the uniforms U
and apply the quantile function only to the top segments they read (20–30 %
of the points at alpha = 0.1; see :mod:`shortfall.estim`).  The quantile
function is strictly increasing there, so the estimates have the bits of the
estimators on X.

For a family declared ``iterative_quantile`` (Student-t: ``stdtrit`` and a
Newton polish, about 400 ns a point), the estimators get the quantile behind
a dedupe (:func:`_dedupe`): they call it once per sub-batch, on every point
they read, and it evaluates the quantile once per distinct point.  The
plug-in and ``trimmed`` read nearly the same top segment, and most block
tops lie inside it: at N = 3250 with four estimators a clean trial reads 975
points, of which about 350 are distinct.  The quantile is a pure function of
the point, so the dedupe is exact.  It costs about 25 ns per point read,
which makes sub-batches of the closed-form families (3 to 27 ns a point)
1.1 to 1.5 times slower, so no other family gets it.

A corrupted sub-batch of such a family stays on the uniforms too, at any
number of changed points.  The corruption model names the cells it changes
from U (see :func:`shortfall.corrupt.changed_cells`), and each changed cell
gets a stand-in key in U that compares with its row as the new value
compares with the row's samples: a level of the generator's grid, or the
float just below one, for a value up to the row's top, and a key of 2 or
more above it.  The dedupe looks the keys that are not levels up in a table
of their values (see :func:`_stand_ins`), so the quantile sees only levels.
A sub-batch for which no such keys exist takes the sample path, with the
same bits.  An AR(1) process, a family with atoms (distinct levels
map to one value) and a corrupted trial of a family without the dedupe,
which holds the stand-in table, take the sample path through
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

# A sub-batch's temporaries are 256 KB each, above glibc's initial mmap threshold of
# 128 KB.  glibc raises that threshold to the size of each mapped block freed (up to
# 32 MB) and returns the heap's top to the OS once twice the threshold is free there,
# so at 256 KB it trims at the end of every sub-batch, and the next one faults its
# pages back in: up to 150k minor faults, about a quarter of the time, in a headline
# curve pass at one worker.  Freeing one block of 16 temporaries first sets the
# threshold to 4 MB.  Under another allocator the block is only allocated and freed.
np.empty(16 * _SUB_BATCH_ELEMENTS)

#: Levels on each side of the cdf's guess that the stand-in search reaches,
#: after one level did not suffice.  Over 43k samples and MaxShiftGaussian(3,
#: 5, 250) shocks per family the guess missed by at most 4 levels for
#: Student-t and Pareto and 2 for Normal; a miss sends its sub-batch down the
#: sample path.  The wide window serves larger attacks: on Student-t(2.5), N =
#: 3250, 1300 trials, seeds 1 and 7, MaxShiftGaussian(k, 5, 250), it is needed
#: by 0 of 185-214 inside values at k = 3, 15 of about 9,000 at k = 135 (in up
#: to 15 of 130 sub-batches) and 140-163 of about 110,000 at k = 1625.
_LEVEL_REACH = 5


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
        if not isinstance(self.process, (IID, AR1)):
            raise ParameterError(f"process: must be an IID or AR1 process (got {self.process!r})")
        if self.trials < 1:
            raise ParameterError(f"trials: must be >= 1 (got {self.trials})")
        estimators = sequence(self.estimators, "estimators")
        if not estimators:
            raise ParameterError("estimators: need at least one estimator")
        if not all(isinstance(est, EstimatorConfig) for est in estimators):
            raise ParameterError(f"estimators: must be EstimatorConfig objects (got {estimators!r})")
        if not self.delta > 0.0:
            raise ParameterError(f"delta: must be > 0 (got {self.delta})")
        if math.isinf(self.truth):  # NaN means no truth given
            raise ParameterError(f"truth: must be finite, or NaN for none (got {self.truth})")
        sizes = tuple(integer(n, "sample_sizes") for n in sequence(self.sample_sizes, "sample_sizes"))
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
            raise ParameterError("sample_sizes: need a nonempty, strictly increasing list of N >= 1")
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "estimators", estimators)
        for n in sizes:
            _check_trial_zero(self, n)

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
    workers = integer(workers, "workers")
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


def draw_trial_samples(process: ProcessSpec, n: int, master_seed: int,
                       t_start: int, t_stop: int,
                       corruption: CorruptionModel = NoCorruption()) -> np.ndarray:
    """Samples of trials ``[t_start, t_stop)``, shape (t_stop - t_start, n).

    The engine's estimates equal the estimators on this matrix, though on the
    uniform path (module docstring) the engine never builds it.
    """
    n, master_seed = integer(n, "n"), integer(master_seed, "master_seed")
    t_start, t_stop = integer(t_start, "t_start"), integer(t_stop, "t_stop")
    if not 0 <= t_start <= t_stop:
        raise ParameterError(f"t_start/t_stop: need 0 <= t_start <= t_stop (got {t_start}, {t_stop})")
    seeds = rng.split_array(master_seed, n, np.arange(t_start, t_stop, dtype=np.uint64))
    return _draw_rows(process, n, seeds, corruption)


def _draw_rows(process: ProcessSpec, n: int, seeds: np.ndarray,
               corruption: CorruptionModel = NoCorruption()) -> np.ndarray:
    """The (corrupted) samples of the trials with data streams ``seeds``."""
    if isinstance(process, IID):
        samples = sample_matrix(process.dist, seeds, n)
    elif isinstance(process, AR1):
        samples = ar1_paths(process.rho, seeds, n)
    else:
        raise ParameterError(f"process: unknown process {type(process).__name__}")
    if not isinstance(corruption, NoCorruption):
        samples = apply_corruption_batch(samples, corruption, rng.split_from(seeds, CORRUPTION_STREAM))
    return samples


def _run_batch(spec: ExperimentSpec, n: int, rows: int, t_start: int) -> list[np.ndarray]:
    """Trials ``[t_start, min(t_start + rows, spec.trials))`` at size ``n``: one sub-batch."""
    t_stop = min(t_start + rows, spec.trials)
    family = spec.process.dist if isinstance(spec.process, IID) else None
    clean = isinstance(spec.corruption, NoCorruption)
    if family is not None and not family.has_atoms and (clean or family.iterative_quantile):
        seeds = rng.split_array(spec.master_seed, n, np.arange(t_start, t_stop, dtype=np.uint64))
        u = rng.uniform_matrix(seeds, n)
        table = (np.empty(0), np.empty(0))
        if not clean:
            streams = rng.split_from(seeds, CORRUPTION_STREAM)
            table = _stand_ins(u, changed_cells(u, spec.corruption, streams, family.quantile), family)
        if table is not None:
            quantile = family.quantile
            transform = partial(_dedupe, quantile, *table) if family.iterative_quantile else quantile
            return estim.evaluate_many(spec.estimators, u, spec.alpha, transform)
    samples = draw_trial_samples(spec.process, n, spec.master_seed, t_start, t_stop, spec.corruption)
    return estim.evaluate_many(spec.estimators, samples, spec.alpha)


def _dedupe(quantile, keys: np.ndarray, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``quantile`` of the 1-D ``points``, evaluated once per distinct point not in a table.

    The sorted table ``keys`` -> ``values`` (the stand-in keys of
    :func:`_stand_ins`, or empty) answers its keys, which never reach
    ``quantile``; the other distinct points go to ``quantile`` in one call, as a
    sorted 1-D array.  Exact for an elementwise ``quantile`` that is a pure
    function of the point.
    """
    distinct, back = np.unique(points, return_inverse=True)
    at = np.searchsorted(keys, distinct)
    seen = at < keys.size
    seen[seen] = keys[at[seen]] == distinct[seen]
    out = np.empty_like(distinct)
    out[seen] = values[at[seen]]
    out[~seen] = quantile(distinct[~seen])
    return out[back]


def _stand_ins(u: np.ndarray, cells, family):
    """Write a stand-in key into ``u`` for each changed cell; return the table of keys and values.

    The key of a cell compares with the other points of its row as its new
    value compares with their samples, so the estimators on ``u``, with the
    quantile looked up in the returned table first (:func:`_dedupe`), give the
    bits of the estimators on the corrupted X.  A value above the quantile of
    its row's largest uniform, changed cells included, gets a key of 2 or
    more, ranked by value.  Any other value v gets the smallest level L with
    quantile(L) >= v (:func:`_reaching_levels`): L itself on a tie, which the
    quantile maps back to v, else the float just below L, which no drawn
    uniform takes.  The table, sorted by key, holds every key that is not a
    level.  ``u`` is written only once every key is known.  Returns None,
    leaving ``u`` as drawn, where no such key can be found: the cdf misses L
    by more than ``_LEVEL_REACH`` levels, no float lies below L (L = 1/2), or
    two different values need one key (two values below the grid, say).
    """
    rows, cols, values = cells
    above = values > family.quantile(u.max(axis=1))[rows]
    keys = np.empty_like(values)
    keys[above] = np.searchsorted(np.sort(values[above]), values[above]) + 2.0
    stored = above.copy()
    inside = ~above
    if inside.any():
        v, back = np.unique(values[inside], return_inverse=True)  # one search per value
        found = _reaching_levels(v, family)
        if found is None:
            return None
        level, reached = found
        tie = reached == v
        if np.any(~tie & (level == 0.5)):
            return None
        keys[inside] = np.where(tie, level, np.nextafter(level, 0.0))[back]
        stored[inside] = ~tie[back]
    order = np.argsort(keys[stored])
    table_keys, table_values = keys[stored][order], values[stored][order]
    if np.any((table_keys[1:] == table_keys[:-1]) & (table_values[1:] != table_values[:-1])):
        return None
    u[rows, cols] = keys
    return table_keys, table_values


def _reaching_levels(values: np.ndarray, family):
    """(L, quantile(L)) for each value v, where quantile(level below L) < v <= quantile(L).

    One quantile call checks the levels (:func:`shortfall.rng.unit`) of the
    5 bins (one level each side, since from 1/2 up two adjacent bins share a
    level) around the bin of ``family.cdf(v)``; a second checks ``4 *
    _LEVEL_REACH + 1`` bins for the values that the first leaves without L.
    A bin below 0 holds no level, so it counts as one that v does not reach,
    and a v at or below quantile(``unit(0)``) gets L = ``unit(0)``; a bin
    above the top bin is clipped to it.  L is the first level of a window
    that reaches v after one that does not.  Returns None where neither
    window holds one.  Where the computed quantile is not monotone, the first
    such L is taken: the engine already takes the quantile to be increasing
    on the points of a trial, and then both windows find the same L.
    """
    guess = np.floor(family.cdf(values) * 2.0**53)
    level, reached = np.empty_like(values), np.empty_like(values)
    todo = np.arange(values.size)
    for reach in (1, _LEVEL_REACH):
        bins = guess[todo] + np.arange(-2.0 * reach, 2.0 * reach + 1.0)[:, None]
        window = rng.unit(np.clip(bins, 0.0, 2.0**53 - 1.0))
        q = family.quantile(window)
        short = (q < values[todo]) | (bins < 0.0)
        cross = short[:-1] & ~short[1:]
        first, columns = cross.argmax(axis=0) + 1, np.arange(todo.size)
        level[todo], reached[todo] = window[first, columns], q[first, columns]
        todo = todo[~cross.any(axis=0)]
        if not todo.size:
            return level, reached
    return None


def _concat(parts) -> list[np.ndarray]:
    """Join the per-estimator results of consecutive sub-batches."""
    return [np.concatenate(column) for column in zip(*parts)]


def _check_trial_zero(spec: ExperimentSpec, n: int) -> None:
    """Trial 0's draw, corruption and estimators on an empty (0, n) batch: the kernels'
    checks, and the one-block warning of a median of blocks: once per N, never per
    sub-batch.  The draw loads what the process's quantile (or AR(1) filter) needs
    before any pool forks."""
    empty = _draw_rows(spec.process, n, np.empty(0, np.uint64), spec.corruption)
    for est in spec.estimators:
        try:
            est.evaluate_batch(empty, spec.alpha)
        except ParameterError as exc:
            raise ParameterError(f"estimator {est.label()}: {exc} "
                                 "(failure would occur at trial 0)") from None


def run_trials_multi(process: ProcessSpec, estimators, alpha: float, n: int,
                     trials: int, master_seed: int,
                     corruption: CorruptionModel = NoCorruption(),
                     workers: int = 0) -> list[np.ndarray]:
    """Per-trial estimates of the one-N :class:`ExperimentSpec` of the arguments (no delta).

    Returns one array of length ``trials`` per estimator, all on the same draws, in trial order.
    """
    n = integer(n, "n")
    if n < 1:
        raise ParameterError(f"n: must be >= 1 (got {n})")
    spec = ExperimentSpec(process, estimators, alpha, (n,), math.inf, trials, master_seed, corruption)
    rows = max(1, _SUB_BATCH_ELEMENTS // n)
    starts = range(0, spec.trials, rows)
    workers = min(resolve_workers(workers), len(starts))
    batch = partial(_run_batch, spec, n, rows)
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


def check_bins(bins: int) -> int:
    """A histogram bin count, checked: a whole number of at least one bin."""
    bins = integer(bins, "bins")
    if bins < 1:
        raise ParameterError(f"bins: must be >= 1 (got {bins})")
    return bins


def histogram(estimates, bins: int) -> HistogramResult:
    """Equal-width histogram over [min, max].

    Values falling exactly on an interior edge count toward the lower bin (the
    global minimum stays in the first bin).
    """
    bins = check_bins(bins)
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


def check_oracle_size(block_size: int, blocks: int) -> tuple[int, int]:
    """The batch-means layout ``(block_size, blocks)`` of :func:`longrun_sigma_oracle`, checked."""
    block_size, blocks = integer(block_size, "block_size"), integer(blocks, "blocks")
    if blocks < 100:
        raise ParameterError(f"blocks: need >= 100 batches for a stable estimate (got {blocks})")
    if block_size < 2:
        raise ParameterError(f"block_size: must be >= 2 (got {block_size})")
    return block_size, blocks


def longrun_sigma_oracle(process: ProcessSpec, alpha: float, block_size: int,
                         blocks: int, seed: int) -> float:
    """Batch-means estimate of the long-run variance of the plug-in estimator.

    Computes the plug-in estimate on ``blocks`` consecutive disjoint stretches
    of length ``block_size`` from a single path and returns
    ``block_size * var(block estimates)``; for i.i.d. processes this converges
    to the asymptotic variance of the plug-in estimator.
    """
    alpha = check_alpha(alpha)
    block_size, blocks = check_oracle_size(block_size, blocks)
    total = block_size * blocks
    path = _draw_rows(process, total, rng.seed_row(seed))[0]
    batch_estimates = estim.EstimatorConfig("plugin").evaluate_batch(
        path.reshape(blocks, block_size), alpha)
    return float(block_size * batch_estimates.var(ddof=1))
