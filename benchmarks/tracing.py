"""Span tracing of the package's layers, installed from the benchmark only.

The tracer replaces the public functions each layer exposes *where their
callers look them up* (a module attribute such as ``shortfall.estim.plugin_es_batch``
or a name imported into another module such as ``shortfall.mc.sample_matrix``)
with a wrapper that records one span per call: name, layer, start, end,
parent span and run id.  Spans stay in memory and are written out when the
benchmark exits.  A layer's self time is the duration of its spans minus the
part covered by their child spans.

Per-point ``dist`` methods called inside quadrature (``pdf``, ``cdf``,
``tail_quantile``) are deliberately not wrapped: there are millions of such
calls per table cell, so a wrapper would measure itself; their time counts as
``functionals`` self time.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

import numpy as np

LAYERS = ("rng", "dist", "corrupt", "estim", "mc", "functionals", "report", "cli")
DIST_FAMILIES = ("Normal", "StudentT", "Logistic", "Lognormal", "Pareto",
                 "Exponential", "ScaledBernoulli", "AtomMix")


class Span(NamedTuple):
    name: str
    layer: str
    start_ns: int
    end_ns: int
    parent: int
    run: int
    work: int


def _result_size(args, kwargs, result) -> int:
    return int(np.size(result))


def _arg0_size(args, kwargs, result) -> int:
    return int(np.size(args[0]))


def _arg0_rows(args, kwargs, result) -> int:
    return int(np.shape(args[0])[0])


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def patch_points(sf) -> list[tuple]:
    """(owner, attribute, layer, span name, work counter) for every traced call.

    ``sf`` is the imported ``shortfall`` package.
    """
    cli, mc, rng, estim = sf.cli, sf.mc, sf.rng, sf.estim
    functionals, report = sf.functionals, sf.report
    points = [
        (cli, "main", "cli", "cli.main", None),
        (cli, "table1_rows", "functionals", "functionals.table1_rows", None),
        (cli, "es_exact", "functionals", "functionals.es_exact", None),
        (mc, "run_trials_multi", "mc", "mc.run_trials_multi", None),
        (mc, "draw_trial_samples", "mc", "mc.draw_trial_samples", _result_size),
        (mc, "deviation_probability", "mc", "mc.deviation_probability", None),
        (mc, "histogram", "mc", "mc.histogram", None),
        (mc, "sample_matrix", "dist", "dist.sample_matrix", _result_size),
        (mc, "apply_corruption_batch", "corrupt", "corrupt.apply_corruption_batch", _arg0_rows),
        (rng, "uniform_matrix", "rng", "rng.uniform_matrix", _result_size),
        (rng, "split_array", "rng", "rng.split_array", _result_size),
        (rng, "split_from", "rng", "rng.split_from", _result_size),
        (estim, "plugin_es", "estim", "estim.plugin_es", _arg0_size),
        (estim, "truncated_es_interval", "estim", "estim.truncated_es_interval", _arg0_size),
        (estim, "block_estimates", "estim", "estim.block_estimates", _arg0_size),
        (estim, "plugin_es_batch", "estim", "estim.plugin_es_batch", _arg0_size),
        (estim, "block_estimates_batch", "estim", "estim.block_estimates_batch", _arg0_size),
        (estim, "trimmed_es_batch", "estim", "estim.trimmed_es_batch", _arg0_size),
        (functionals, "sigma_es", "functionals", "functionals.sigma_es", None),
        (functionals, "lipschitz_D", "functionals", "functionals.lipschitz_D", None),
        (functionals, "es_exact", "functionals", "functionals.es_exact", None),
        (functionals, "es_by_quadrature", "functionals", "functionals.es_by_quadrature", None),
        (functionals, "es_by_distortion", "functionals", "functionals.es_by_distortion", None),
        (report, "curve_to_csv", "report", "report.curve_to_csv", _text_bytes),
        (report, "histogram_to_csv", "report", "report.histogram_to_csv", _text_bytes),
        (report, "table1_to_csv", "report", "report.table1_to_csv", _text_bytes),
        (report, "spec_hash", "report", "report.spec_hash", None),
    ]
    for family in DIST_FAMILIES:
        points.append((getattr(sf.dist, family), "quantile", "dist",
                       f"dist.quantile.{_snake(family)}", _result_size))
    return points


class Tracer:
    """Records spans while installed; ``run`` tags the spans of one traced pass."""

    def __init__(self, sf):
        self.points = [p for p in patch_points(sf) if p[1] in vars(p[0])]
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def _wrap(self, fn, layer: str, name: str, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, layer, start, end, parent, self.run, 0)
            if work is not None:
                spans[index] = spans[index]._replace(work=work(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def active(self):
        """Install every wrapper for one traced pass; restore on exit."""
        self.run += 1
        first = len(self.spans)
        saved = []
        try:
            for owner, attr, layer, name, work in self.points:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, name, work))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.last_pass = (first, self.spans[first:])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _sum_dur(spans) -> int:
    return sum(s.end_ns - s.start_ns for s in spans)


def layer_metrics(first: int, spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``first`` is its first span's index."""
    by_index = {first + i: s for i, s in enumerate(spans)}
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent in by_index:
            child_ns[s.parent] += s.end_ns - s.start_ns
    self_ns = defaultdict(int)
    for i, s in by_index.items():
        self_ns[s.layer] += (s.end_ns - s.start_ns) - child_ns[i]

    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def top_level(name):
        """Calls made from outside the estim layer (not nested estimator work)."""
        return [s for s in named[name]
                if s.parent not in by_index or by_index[s.parent].layer != "estim"]

    def ns_per(spans_):
        total = sum(s.work for s in spans_)
        return _sum_dur(spans_) / total if total else 0.0

    def ms_p50(name):
        durations = [(s.end_ns - s.start_ns) / 1e6 for s in named[name]]
        return statistics.median(durations) if durations else 0.0

    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}
    out["rng.uniform_matrix.ns_per_elem"] = ns_per(named["rng.uniform_matrix"])
    out["rng.elems"] = sum(s.work for s in named["rng.uniform_matrix"])
    for family in ("pareto", "student_t"):
        out[f"dist.quantile.{family}.ns_per_elem"] = ns_per(named[f"dist.quantile.{family}"])
    out["dist.points"] = sum(s.work for s in spans if s.name.startswith("dist.quantile."))
    rows = sum(s.work for s in named["corrupt.apply_corruption_batch"])
    out["corrupt.ns_per_row"] = self_ns["corrupt"] / rows if rows else 0.0
    out["estim.plugin_es_batch.ns_per_elem"] = ns_per(top_level("estim.plugin_es_batch"))
    out["estim.block_estimates_batch.ns_per_elem"] = ns_per(named["estim.block_estimates_batch"])
    for name in ("plugin_es", "truncated_es_interval"):
        calls = top_level(f"estim.{name}")
        out[f"estim.{name}.us_per_call"] = _sum_dur(calls) / 1e3 / len(calls) if calls else 0.0
    draws = named["mc.draw_trial_samples"]
    out["mc.batches"] = len(draws)
    out["mc.batch_mb"] = max((s.work for s in draws), default=0) * 8 / 1e6
    sigma = named["functionals.sigma_es"]
    out["functionals.sigma_es.ms_p50"] = ms_p50("functionals.sigma_es")
    out["functionals.sigma_es.s_total"] = _sum_dur(sigma) / 1e9
    for name in ("es_exact", "es_by_quadrature", "es_by_distortion", "lipschitz_D"):
        out[f"functionals.{name}.ms_p50"] = ms_p50(f"functionals.{name}")
    out["report.bytes"] = sum(s.work for s in spans if s.name.endswith("_to_csv"))
    out["trace.spans"] = len(spans)
    return out
