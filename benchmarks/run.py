"""Benchmark of the ``shortfall`` package: one workload per run.

Usage, from the repository root::

    python3 benchmarks/run.py --workload pareto_curve --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --smoke            # every workload at tiny size, both modes

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs untraced and traced passes alternately and reports the per-layer
metrics and the tracing overhead.  Every output is checked (see
``checks.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
every metric by name with its unit, the unbounded extras and the host facts.
A JSON record of the run, and in traced runs every span, is written under
``.bench_work/results`` in the repository root.

The package is imported from ``src/`` beside this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.self_s": "s",
    "rng.uniform_matrix.ns_per_elem": "ns/elem",
    "rng.elems": "count",
    "dist.self_s": "s",
    "dist.quantile.pareto.ns_per_elem": "ns/elem",
    "dist.quantile.student_t.ns_per_elem": "ns/elem",
    "dist.points": "count",
    "corrupt.self_s": "s",
    "corrupt.ns_per_row": "ns/row",
    "estim.self_s": "s",
    "estim.plugin_es_batch.ns_per_elem": "ns/elem",
    "estim.block_estimates_batch.ns_per_elem": "ns/elem",
    "estim.plugin_es.us_per_call": "us",
    "estim.truncated_es_interval.us_per_call": "us",
    "mc.self_s": "s",
    "mc.batches": "count",
    "mc.batch_mb": "MB",
    "mc.par_speedup": "x",
    "functionals.self_s": "s",
    "functionals.sigma_es.ms_p50": "ms",
    "functionals.sigma_es.s_total": "s",
    "functionals.es_exact.ms_p50": "ms",
    "functionals.es_by_quadrature.ms_p50": "ms",
    "functionals.es_by_distortion.ms_p50": "ms",
    "functionals.lipschitz_D.ms_p50": "ms",
    "report.self_s": "s",
    "report.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Per-layer values read from one traced pass rather than the median of passes.
EXACT_UNITS = ("count", "B")


def import_package():
    """Import ``shortfall`` from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "shortfall" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'shortfall'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import shortfall

    if Path(shortfall.__file__).resolve().parent != (src / "shortfall").resolve():
        print(f"error: imported shortfall from {shortfall.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    import shortfall.cli  # noqa: F401  (the CLI module is not imported by the package)

    return shortfall


def host_facts(workers) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "cpu": cpu, "l2": caches.get("L2"), "l3": caches.get("L3"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workers": list(workers)}


def peak_rss_mb() -> float:
    """Largest RSS of this process and of any child it has waited for (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(name: str, seed: int, smoke: bool, runs: int, tally) -> float:
    """Median wall time of fresh processes that only import and make inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(runs):
        start = perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(perf_counter() - start)
        tally.op(done.returncode == 0, f"{name} setup exited {done.returncode}: "
                                       f"{done.stderr.strip()[-200:]}")
    return statistics.median(times)


def work_dir(name: str, seed: int, smoke: bool) -> Path:
    return WORK / f"{name}-{seed}{'-smoke' if smoke else ''}"


def timed_loop(seconds: float, one):
    """Call ``one(i)`` until another call would likely end past ``seconds``.

    A call is started while at least half of it fits, so a workload whose
    pass takes about half the budget still gets two passes.
    """
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(one(len(results)))
        last = perf_counter() - t0
        if perf_counter() - start + last / 2 > seconds:
            return results


def run_untraced(wl, tally, seconds: float) -> tuple[dict, dict]:
    reps = timed_loop(seconds, lambda i: [wl.run_pass(w, i) for w in wl.workers])
    rss = peak_rss_mb()
    for i, rep in enumerate(reps):
        # every w1 pass repeats the first bit for bit; a w2 pass repeats its own w1
        wl.check(rep[0], tally, reps[0][0] if i else None)
        for p in rep[1:]:
            wl.check(p, tally, rep[0])
    first = [rep[0] for rep in reps]
    metrics = {
        "wall_s": statistics.median(sum(p.wall for p in rep) for rep in reps),
        "ops_per_s": statistics.median(_rate(p) for p in first),
        "peak_rss_mb": rss,
    }
    extras = {"passes": len(reps)}
    if len(wl.workers) > 1:
        extras["trials_per_s_par"] = statistics.median(_rate(rep[1]) for rep in reps)
        extras["workers_par"] = wl.workers[1]
    latencies = sorted(x for p in first for x in p.latencies)
    if latencies:
        extras["latency_ms_p50"] = 1e3 * statistics.median(latencies)
        extras["latency_ms_p99"] = 1e3 * _percentile(latencies, 0.99)
        extras["latency_samples"] = len(latencies)
    return metrics, extras


def run_traced(wl, tally, seconds: float, tracer) -> tuple[dict, dict]:
    def cycle(i):
        untraced = [wl.run_pass(w, i) for w in wl.workers]
        with tracer.active():
            traced = wl.run_pass(1, i)
        layers = tracing.layer_metrics(*tracer.last_pass)
        layers["trace.overhead_s"] = traced.wall - untraced[0].wall
        par = untraced[1].wall if len(untraced) > 1 else 0.0
        layers["mc.par_speedup"] = untraced[0].wall / par if par > 0 else 0.0
        return untraced, traced, layers

    cycles = timed_loop(seconds, cycle)
    for i, (untraced, traced, _) in enumerate(cycles):
        wl.check(untraced[0], tally, cycles[0][0][0] if i else None)
        for p in untraced[1:]:
            wl.check(p, tally, untraced[0])
        wl.check(traced, tally, untraced[0])
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [layers[name] for _, _, layers in cycles]
        metrics[name] = values[0] if unit in EXACT_UNITS else statistics.median(values)
    counts_repeat = all(layers[n] == cycles[0][2][n] for _, _, layers in cycles
                        for n, u in PER_LAYER.items() if u in EXACT_UNITS)
    tally.op(counts_repeat, f"{wl.name} per-layer counts differ between traced passes")
    return metrics, {"traced_passes": len(cycles)}


def _rate(p) -> float:
    return p.work / p.wall if p.wall > 0 else 0.0


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_workload(sf, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    tally = checks.Tally()
    wl = workloads.WORKLOADS[name](sf, seed, smoke, work_dir(name, seed, smoke))
    wl.reference(tally)
    if trace:
        tracer = tracing.Tracer(sf)
        metrics, extras = run_traced(wl, tally, seconds, tracer)
        units = PER_LAYER
    else:
        metrics, extras = run_untraced(wl, tally, seconds)
        metrics["setup_s"] = measure_setup(name, seed, smoke, 1 if smoke else SETUP_RUNS, tally)
        units = END_TO_END
    extras["fail_rate"] = tally.failed / max(tally.attempted, 1)
    extras["ops_checked"] = tally.attempted
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "host": host_facts(wl.workers),
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "extras": extras, "failures": tally.messages,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        tracer.write(results / f"{stem}.spans.jsonl")
    return record


def print_record(record: dict) -> None:
    tag = f"[{record['workload']} seed={record['seed']} trace={record['trace']}]"
    for key, m in record["metrics"].items():
        print(f"{tag} {key} = {_fmt(m['value'])} {m['unit']}")
    for key, value in record["extras"].items():
        print(f"{tag} extra {key} = {_fmt(value)}")
    print(f"{tag} host {json.dumps(record['host'])}")
    for message in record["failures"]:
        print(f"{tag} FAILED {message}", file=sys.stderr)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summary(record: dict) -> dict:
    return {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, every workload in both modes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 10.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sf = import_package()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](sf, args.seed, args.smoke,
                                           work_dir(args.workload, args.seed, args.smoke))
        return 0
    if args.workload is not None:
        record = run_workload(sf, args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        print_record(record)
        print(json.dumps(summary(record)))
        return 0
    records = [run_workload(sf, name, args.seed, args.seconds, trace, True)
               for name in workloads.WORKLOADS for trace in (False, True)]
    for record in records:
        print_record(record)
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}/trace{r['trace']}/{k}": m
                    for r in records for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
