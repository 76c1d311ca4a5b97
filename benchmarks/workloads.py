"""The benchmark's workloads, why each exists, and what its metrics mean.

Every workload is single process, closed loop, one caller: the next call is
issued only after the previous one returned.  The workload seed is an
argument; the program receives only the inputs made from it.  Pool workers
never exceed ``min(2, nproc)``.

pareto_curve
    ``shortfall curve`` on the headline experiment: Pareto(1, 2.2),
    alpha = 0.1, plug-in + truncated(m=250, beta=0.5/0.6) on shared draws,
    N in {1250, 1750, 2250, 2750, 3250}, no corruption, 4096 trials per N;
    once at ``workers=1``, then at ``workers=2``.  ``rng``, batch ``estim``
    and ``mc`` do almost all the work; ``dist`` is light (closed-form Pareto
    quantile) and ``functionals`` idle (closed-form truth).  Engine, batching
    and rng gains show here.
student_t_corrupt
    ``shortfall corrupt-demo``: Student-t(2.5), alpha = 0.1, four estimators
    (plug-in, truncated, median_of_blocks, trimmed), MaxShiftGaussian(k=3,
    mu=5, sigma=250), N = 3250, 1300 trials, clean then corrupted; at
    ``workers=1``, then ``workers=2``.  Same N and engine as pareto_curve, but
    Student-t sampling (``stdtrit`` + Newton polish, about 1.1 us/elem) is most
    of the work, so an engine gain shows much smaller here and a sampling gain
    only here.  It is the only workload that runs ``corrupt``,
    ``median_of_blocks``, ``trimmed`` and histograms.  1300 trials make one
    full batch of 1230 and one of 70, so ``workers=2`` exposes the engine's
    load imbalance.
ground_truth
    ``shortfall table1`` at alpha = 0.1 over the 7-family catalog (7 cells),
    then ``es_exact``, ``es_by_quadrature`` and ``es_by_distortion`` on all 21
    cells (7 families x alpha in {0.1, 0.05, 0.01}) in seeded order.  Only
    ``functionals`` (and the ``dist`` methods it integrates) runs, and
    ``sigma_es`` takes about 99% of it; no MC layer runs, so engine changes
    must show no change here.  The full 21-cell table takes about 33 s on a
    2-core Xeon, too long for one run, so the table runs one alpha column.
scalar_estimate
    One caller issues requests; each calls ``plugin_es`` and
    ``truncated_es_interval`` (what ``shortfall estimate --kind truncated``
    computes) on one loss series.  A pool of 64 series is made in set-up with
    numpy's own generator: lengths on a log-uniform grid over [500, 1e6]
    (working sets from 4 KB, in L1, to 8 MB, past the 2 MB per-core L2),
    families mixed and a quarter of the series rounded so they have ties.
    One pass sends one request per series in seeded order.  This is the
    sort-based scalar path that MC never touches; "scalar = batch on a
    one-row matrix" could cost single-series latency, and that shows only
    here.

End-to-end metrics (tracing off; every workload reports all of them)
    ``setup_s``      interpreter start, imports and input generation, median
                     of three fresh processes.
    ``wall_s``       median wall time of one pass set: both worker settings
                     for the MC workloads, the table column plus the ES
                     routes, or one request per pool series.
    ``ops_per_s``    work done per second at ``workers=1``: trials (summed
                     over N and clean/corrupted), cells, or requests.
    ``peak_rss_mb``  largest RSS of any one process of the workload.
    Reported beside them, not bounded: ``trials_per_s_par`` (MC at
    ``workers=2``), ``latency_ms_p50`` / ``latency_ms_p99`` with their sample
    count (scalar_estimate) and ``fail_rate`` with its op count.

Per-layer metrics (one traced pass at ``workers=1``), and what they should
move on which workload:

===================================================  ==========================  ============================
metric                                               should move                 on
===================================================  ==========================  ============================
rng.self_s, rng.uniform_matrix.ns_per_elem,          ops_per_s, wall_s           pareto_curve (small on
rng.elems                                                                        student_t_corrupt)
dist.self_s, dist.quantile.<family>.ns_per_elem,     ops_per_s, wall_s           student_t_corrupt (secondary
dist.points                                                                      on pareto_curve)
corrupt.self_s, corrupt.ns_per_row                   ops_per_s                   student_t_corrupt only
estim.self_s, estim.plugin_es_batch.ns_per_elem,     ops_per_s                   pareto_curve
estim.block_estimates_batch.ns_per_elem
estim.plugin_es.us_per_call,                         ops_per_s, wall_s           scalar_estimate only
estim.truncated_es_interval.us_per_call
mc.self_s (includes sort + clamp), mc.batches,       ops_per_s, peak_rss_mb;     pareto_curve; par_speedup
mc.batch_mb (computed), mc.par_speedup               par_speedup moves wall_s    also on student_t_corrupt
functionals.self_s, functionals.*.ms_p50,            wall_s, ops_per_s           ground_truth only
functionals.sigma_es.s_total
report.self_s, report.bytes, cli.self_s              wall_s                      all; expected << 1%
===================================================  ==========================  ============================

A layer a workload does not run reads 0 there.  Counts (``rng.elems``,
``dist.points``, ``mc.batches``, ``trace.spans``) repeat exactly for any
seed; ``report.bytes`` repeats exactly for a given seed (the digits written
depend on the estimates).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

ALPHA = 0.1
PARALLEL_WORKERS = 2


@dataclass
class Pass:
    """One call of the workload's command at one worker count."""

    workers: int
    index: int
    wall: float = 0.0
    work: int = 0
    outputs: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    error: str | None = None


class Workload:
    """Set-up (input generation) happens in ``__init__``."""

    name = ""
    workers: tuple[int, ...] = (1,)

    def __init__(self, sf, seed: int, smoke: bool, work_dir: Path):
        self.sf, self.seed, self.smoke = sf, seed, smoke
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def golden_values(self) -> dict:
        """Values pinned in ``golden.json`` under this workload's name."""
        raise NotImplementedError

    def reference(self, tally: checks.Tally) -> None:
        """Untimed warm-up that checks the pinned golden values."""
        golden = checks.load_golden()[self.name]
        try:
            actual = self.golden_values()
        except Exception as exc:  # a raise fails every pinned op
            tally.fail_many(len(golden), f"{self.name} reference raised {exc!r}")
            return
        for key, expected in golden.items():
            tally.op(self._golden_equal(actual.get(key), expected), f"{self.name} golden {key}")

    def _golden_equal(self, actual, expected) -> bool:
        return actual == expected

    def run_pass(self, workers: int, index: int) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass, tally: checks.Tally, base: Pass | None) -> None:
        raise NotImplementedError


# --- Monte Carlo workloads ------------------------------------------------------


class MonteCarlo(Workload):
    command = ""
    process: dict = {}
    estimators: list = []
    sample_sizes: tuple = ()
    trials = 0
    smoke_sizes: tuple = ()
    smoke_trials = 0
    golden_trials = 0
    extra_args: tuple = ()
    samples_checked = 2

    def __init__(self, sf, seed, smoke, work_dir):
        super().__init__(sf, seed, smoke, work_dir)
        self.workers = (1, min(PARALLEL_WORKERS, os.cpu_count() or 1))
        sizes = self.smoke_sizes if smoke else self.sample_sizes
        self.config = {
            "version": 1,
            "process": self.process,
            "alpha": ALPHA,
            "estimators": self.estimators,
            "sample_sizes": list(sizes),
            "delta": 1.0,
            "trials": self.smoke_trials if smoke else self.trials,
            "master_seed": seed,
        }
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.out_dir = work_dir / "out"
        self.process_spec = sf.dist.process_from_json(self.process)
        self.estimator_specs = [sf.estim.EstimatorConfig.from_json(e) for e in self.estimators]

    @contextlib.contextmanager
    def _capture_engine(self):
        """Collect each ``mc.run_trials_multi`` call, where the CLI looks it up."""
        mc = self.sf.mc
        original = mc.run_trials_multi
        signature = inspect.signature(original)
        calls = []

        @functools.wraps(original)
        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((bound.arguments, result))
            return result

        mc.run_trials_multi = capturing
        try:
            yield calls
        finally:
            mc.run_trials_multi = original

    def phases(self) -> tuple:
        return (self.sf.corrupt.NoCorruption(),)

    def _key(self, corruption, n: int, kind: str) -> str:
        phase = "clean" if isinstance(corruption, self.sf.corrupt.NoCorruption) else "corrupted"
        return f"{phase}/N={n}/{kind}"

    def expected(self) -> list[tuple]:
        """(key, corruption, N, estimator) of every estimate array of one pass."""
        return [(self._key(c, n, e.kind), c, n, e) for c in self.phases()
                for n in self.config["sample_sizes"] for e in self.estimator_specs]

    def golden_values(self) -> dict:
        mc = self.sf.mc
        seeds = np.array([checks.GOLDEN_SEED, 0, 1, 2**64 - 1], dtype=np.uint64)
        out = {"rng.uniform_matrix": checks.sha256(self.sf.rng.uniform_matrix(seeds, 1000))}
        for corruption in self.phases():
            for n in self.sample_sizes:
                arrays = mc.run_trials_multi(self.process_spec, self.estimator_specs, ALPHA, n,
                                             self.golden_trials, checks.GOLDEN_SEED,
                                             corruption, workers=1)
                for est, arr in zip(self.estimator_specs, arrays):
                    out[self._key(corruption, n, est.kind)] = checks.sha256(arr)
        return out

    def run_pass(self, workers: int, index: int) -> Pass:
        p = Pass(workers, index)
        argv = [self.command, "--config", str(self.config_path), "--out", str(self.out_dir),
                "--workers", str(workers), *self.extra_args]
        try:
            with self._capture_engine() as calls, contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = self.sf.cli.main(argv)
                p.wall = perf_counter() - start
            if code != 0:
                p.error = f"exit code {code}"
            else:
                p.facts = self.read_outputs()
        except Exception as exc:  # a raise fails every op of the pass
            p.error = repr(exc)
            calls = []
        for arguments, arrays in calls:
            p.work += arguments["trials"]
            for est, arr in zip(arguments["estimators"], arrays):
                p.outputs[self._key(arguments["corruption"], arguments["n"], est.kind)] = arr
        return p

    def read_outputs(self) -> dict:
        raise NotImplementedError

    def check(self, p: Pass, tally: checks.Tally, base: Pass | None) -> None:
        trials = self.config["trials"]
        sample = None
        if base is None and p.error is None:
            picks = np.random.default_rng([self.seed, p.index]).choice(
                trials, size=min(self.samples_checked, trials), replace=False)
            sample = [int(t) for t in picks]
        for key, corruption, n, est in self.expected():
            what = f"{self.name} w{p.workers} {key}"
            arr = p.outputs.get(key)
            if p.error is not None or arr is None:
                tally.op(False, f"{what}: {p.error or 'missing'}")
                continue
            ok = arr.shape == (trials,) and bool(np.all(np.isfinite(arr)))
            if base is not None:
                ok = ok and checks.same_bits(arr, base.outputs.get(key))
            else:
                ok = ok and all(self._matches_reference(arr[t], corruption, n, est, t)
                                for t in sample)
            ok = ok and self._matches_cli_output(key, arr, p.facts)
            tally.op(ok, what)

    def _matches_reference(self, value: float, corruption, n: int, est, t: int) -> bool:
        """Recompute trial ``t`` from its exact sample row."""
        row = self.sf.mc.draw_trial_samples(self.process_spec, n, self.seed, t, t + 1,
                                            corruption)[0]
        expected = checks.ref_estimate(est.kind, row, ALPHA, est)
        return checks.close(float(value), expected, checks.MC_RTOL)

    def _matches_cli_output(self, key: str, arr: np.ndarray, facts: dict) -> bool:
        raise NotImplementedError


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class ParetoCurve(MonteCarlo):
    name = "pareto_curve"
    command = "curve"
    process = {"kind": "iid", "dist": {"family": "pareto", "params": {"x0": 1.0, "lam": 2.2}}}
    estimators = [{"kind": "plugin"},
                  {"kind": "truncated", "m": 250, "beta1": 0.5, "beta2": 0.6, "gap": 0}]
    sample_sizes = (1250, 1750, 2250, 2750, 3250)
    trials = 4096
    smoke_sizes = (1250, 3250)
    smoke_trials = 40
    golden_trials = 2000

    def read_outputs(self) -> dict:
        facts = {}
        for i, est in enumerate(self.estimator_specs):
            for row in _read_csv(self.out_dir / f"curve_{i}_{est.kind}.csv"):
                facts[self._key(self.phases()[0], int(row["N"]), est.kind)] = int(row["count"])
        return facts

    @functools.cached_property
    def truth(self) -> float:
        return self.sf.functionals.es_exact(self.process_spec.dist, ALPHA)

    def _matches_cli_output(self, key, arr, facts) -> bool:
        """The curve CSV's count is |estimate - truth| >= delta over the array."""
        count = int(np.count_nonzero(np.abs(arr - self.truth) >= self.config["delta"]))
        return facts.get(key) == count


class StudentTCorrupt(MonteCarlo):
    name = "student_t_corrupt"
    command = "corrupt-demo"
    process = {"kind": "iid", "dist": {"family": "student_t", "params": {"nu": 2.5}}}
    estimators = [{"kind": "plugin"},
                  {"kind": "truncated", "m": 250, "beta1": 0.5, "beta2": 0.6, "gap": 0},
                  {"kind": "median_of_blocks", "m": 250, "gap": 0},
                  {"kind": "trimmed"}]
    sample_sizes = (3250,)
    trials = 1300
    smoke_sizes = (3250,)
    smoke_trials = 16
    golden_trials = 64
    extra_args = ("--bins", "50")

    def phases(self) -> tuple:
        return (self.sf.corrupt.NoCorruption(), self.sf.cli.DEMO_CORRUPTION)

    def read_outputs(self) -> dict:
        facts = {}
        n = self.config["sample_sizes"][-1]
        for i, est in enumerate(self.estimator_specs):
            for corruption, label in zip(self.phases(), ("clean", "corrupted")):
                rows = _read_csv(self.out_dir / f"hist_{i}_{est.kind}_{label}.csv")
                facts[self._key(corruption, n, est.kind)] = (
                    sum(int(r["count"]) for r in rows),
                    float(rows[0]["bin_left"]), float(rows[-1]["bin_right"]))
        return facts

    def _matches_cli_output(self, key, arr, facts) -> bool:
        """The histogram CSV covers [min, max] of the array and counts every trial."""
        return facts.get(key) == (arr.size, float(arr.min()), float(arr.max()))


# --- ground truth ----------------------------------------------------------------


class GroundTruth(Workload):
    name = "ground_truth"
    table_alpha = 0.1
    route_alphas = (0.1, 0.05, 0.01)
    # cells whose sigma_es is closed form or takes milliseconds
    smoke_specs = ("logistic;location=0;scale=1", "pareto;x0=1;lam=2", "exponential;rate=1")

    def __init__(self, sf, seed, smoke, work_dir):
        super().__init__(sf, seed, smoke, work_dir)
        catalog = sf.functionals.TABLE1_CATALOG
        if smoke:
            catalog = [s for s in catalog if self.spec_key(s) in self.smoke_specs]
        self.catalog = list(catalog)
        cells = [(spec, a) for spec in self.catalog for a in self.route_alphas]
        order = np.random.default_rng(seed).permutation(len(cells))
        self.route_cells = [cells[i] for i in order]
        self.csv_path = work_dir / "table1.csv"

    def spec_key(self, spec) -> str:
        """``family;params`` as the table1 CSV writes them."""
        meta = self.sf.dist.spec_to_json(spec)
        return ";".join([meta["family"]] + [f"{k}={v:g}" for k, v in meta["params"].items()])

    def cell_key(self, spec, alpha: float) -> str:
        return f"{self.spec_key(spec)}@{alpha:g}"

    @contextlib.contextmanager
    def _catalog(self):
        """``table1`` reads ``functionals.TABLE1_CATALOG`` at call time."""
        functionals = self.sf.functionals
        saved = functionals.TABLE1_CATALOG
        functionals.TABLE1_CATALOG = self.catalog
        try:
            yield
        finally:
            functionals.TABLE1_CATALOG = saved

    def golden_values(self) -> dict:
        functionals = self.sf.functionals
        return {self.cell_key(spec, a): {"D": functionals.lipschitz_D(spec, a),
                                         "sigma": functionals.sigma_es(spec, a).value,
                                         "es": functionals.es_exact(spec, a)}
                for spec in functionals.TABLE1_CATALOG for a in self.route_alphas}

    def reference(self, tally: checks.Tally) -> None:
        """The timed passes are checked against the pinned cells instead."""
        self.golden = checks.load_golden()[self.name]

    def run_pass(self, workers: int, index: int) -> Pass:
        p = Pass(workers, index)
        functionals = self.sf.functionals
        argv = ["table1", "--alphas", f"{self.table_alpha:g}", "--out", str(self.csv_path)]
        try:
            with self._catalog(), contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = self.sf.cli.main(argv)
                routes = {self.cell_key(spec, a): (functionals.es_exact(spec, a),
                                                   functionals.es_by_quadrature(spec, a),
                                                   functionals.es_by_distortion(spec, a))
                          for spec, a in self.route_cells}
                p.wall = perf_counter() - start
            if code != 0:
                p.error = f"exit code {code}"
            else:
                for row in _read_csv(self.csv_path):
                    key = f"{row['family']};{row['params']}@{float(row['alpha']):g}"
                    p.outputs["table/" + key] = (float(row["D"]), float(row["sigma"]))
                p.outputs.update(("routes/" + k, v) for k, v in routes.items())
        except Exception as exc:  # a raise fails every op of the pass
            p.error = repr(exc)
        p.work = len(p.outputs)
        return p

    def expected_keys(self) -> list[str]:
        return (["table/" + self.cell_key(s, self.table_alpha) for s in self.catalog]
                + ["routes/" + self.cell_key(s, a) for s, a in self.route_cells])

    def check(self, p: Pass, tally: checks.Tally, base: Pass | None) -> None:
        for key in self.expected_keys():
            value = p.outputs.get(key)
            what = f"{self.name} {key}"
            if p.error is not None or value is None:
                tally.op(False, f"{what}: {p.error or 'missing'}")
                continue
            kind, cell = key.split("/", 1)
            pinned = self.golden[cell]
            if kind == "table":
                ok = (checks.close(value[0], pinned["D"], checks.D_RTOL)
                      and checks.close(value[1], pinned["sigma"], checks.SIGMA_RTOL))
            else:
                exact, quadrature, distortion = value
                ok = (checks.close(exact, pinned["es"], checks.ES_RTOL)
                      and checks.close(quadrature, exact, checks.ES_RTOL)
                      and checks.close(distortion, exact, checks.ES_RTOL))
            if base is not None:
                ok = ok and checks.same_bits(value, base.outputs.get(key))
            tally.op(ok, what)


# --- scalar estimates ------------------------------------------------------------


def _series_families():
    return (
        lambda g, n: g.standard_normal(n),
        lambda g, n: g.standard_t(3.0, n),
        lambda g, n: g.logistic(0.0, 1.0, n),
        lambda g, n: g.lognormal(0.0, 1.0, n),
        lambda g, n: 1.0 + g.pareto(2.5, n),
        lambda g, n: g.exponential(1.0, n),
    )


def make_pool(seed: int, count: int, lo: float, hi: float) -> list[np.ndarray]:
    """``count`` loss series with lengths on a log-uniform grid over [lo, hi]."""
    g = np.random.default_rng(seed)
    grid = (np.arange(count) + 0.5) / count
    lengths = np.rint(np.exp(math.log(lo) + grid * math.log(hi / lo))).astype(int)
    families = _series_families()
    picks = g.integers(0, len(families), count)
    ties = g.random(count) < 0.25
    pool = []
    for n, f, tie in zip(lengths, picks, ties):
        x = families[f](g, int(n))
        pool.append(np.round(x, 1) if tie else x)
    return pool


class ScalarEstimate(Workload):
    name = "scalar_estimate"
    m, beta1, beta2 = 250, 0.5, 0.6
    pool_shape = (64, 500.0, 1e6)
    smoke_pool_shape = (8, 500.0, 2e4)
    golden_pool_shape = (16, 500.0, 1e5)

    def __init__(self, sf, seed, smoke, work_dir):
        super().__init__(sf, seed, smoke, work_dir)
        self.pool = make_pool(seed, *(self.smoke_pool_shape if smoke else self.pool_shape))
        self._references: dict[int, tuple] = {}

    def request(self, x: np.ndarray) -> tuple:
        estim = self.sf.estim
        plugin = estim.plugin_es(x, ALPHA)
        return (plugin, *estim.truncated_es_interval(x, ALPHA, self.m, self.beta1, self.beta2))

    def golden_values(self) -> dict:
        pool = make_pool(checks.GOLDEN_SEED, *self.golden_pool_shape)
        return {f"series{i}": list(self.request(x)) for i, x in enumerate(pool)}

    def _golden_equal(self, actual, expected) -> bool:
        return actual is not None and all(
            checks.close(a, e, checks.SCALAR_RTOL) for a, e in zip(actual, expected))

    def run_pass(self, workers: int, index: int) -> Pass:
        p = Pass(workers, index)
        order = np.random.default_rng([self.seed, index]).permutation(len(self.pool))
        try:
            start = perf_counter()
            for i in order:
                t0 = perf_counter()
                result = self.request(self.pool[i])
                p.latencies.append(perf_counter() - t0)
                p.outputs[int(i)] = result
            p.wall = perf_counter() - start
        except Exception as exc:  # a raise fails every op of the pass
            p.error = repr(exc)
        p.work = len(p.latencies)
        return p

    def _reference(self, i: int) -> tuple:
        if i not in self._references:
            x = self.pool[i]
            self._references[i] = (checks.ref_plugin(x, ALPHA),
                                   *checks.ref_truncated(x, ALPHA, self.m, self.beta1, self.beta2))
        return self._references[i]

    def check(self, p: Pass, tally: checks.Tally, base: Pass | None) -> None:
        for i in range(len(self.pool)):
            value = p.outputs.get(i)
            what = f"{self.name} series {i} (N={self.pool[i].size})"
            if p.error is not None or value is None:
                tally.op(False, f"{what}: {p.error or 'missing'}")
                continue
            ok = all(checks.close(a, e, checks.SCALAR_RTOL)
                     for a, e in zip(value, self._reference(i)))
            if base is not None:
                ok = ok and checks.same_bits(value, base.outputs.get(i))
            tally.op(ok, what)


WORKLOADS = {w.name: w for w in (ParetoCurve, StudentTCorrupt, GroundTruth, ScalarEstimate)}
