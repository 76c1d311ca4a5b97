"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root::

    python3 benchmarks/collect.py --seeds 1-10 [--workloads pareto_curve,ground_truth]
                                  [--trace 0] [--out FILE]

Runs ``BENCHMARK.json``'s command once per (seed, workload), seed by seed so
that slow drift of the machine touches every workload alike.  For every
workload and metric it prints the median, the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread as a
share of the median and, for end-to-end metrics, the metric's bound.
``--out`` writes the same summary with the host facts as JSON; the committed
``baseline_seed.json`` was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    values = {n: {m: [] for m in bounds} for n in names}
    failures = 0
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{name} seed={seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failures += 0 if result["correct"] else 1
            for m in bounds:
                values[name][m].append(result["metrics"][m]["value"])
            print(f"{name} seed={seed} correct={result['correct']} "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds
                             if kind == "end_to_end"), flush=True)

    sys.path.insert(0, str(HERE))
    import run

    summary = {"seeds": args.seeds, "trace": args.trace, "run_seconds": bench["run_seconds"],
               "host": run.host_facts([1, min(2, run.os.cpu_count() or 1)]), "workloads": {}}
    for name in names:
        rows = {}
        for m, vals in values[name].items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            bound = bounds[m]
            flag = "" if bound is None else f"  bound {bound:g}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{name:18s} {m:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.3%}{flag}")
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
