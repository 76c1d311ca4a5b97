"""Config-driven command-line front end.

Subcommands:

* ``estimate``      -- apply one estimator to a data file (one value per line)
* ``table1``        -- Lipschitz constant D and sigma_ES over the catalog
* ``curve``         -- deviation-probability curves P(|err| >= delta) vs N
* ``hist``          -- histogram of estimates at a single sample size
* ``corrupt-demo``  -- clean vs corrupted histograms for each estimator
* ``mixing``        -- AR(1) experiment with gapped blocks + long-run variance

Experiment commands read a JSON config (``--config``), write CSV files into
``--out`` and are fully deterministic: rerunning a config produces
byte-identical CSV.  ``run_meta.json`` records the master seed and a hash of
the config that changes iff any config field changes.  Worker count comes
from ``--workers`` (0 = auto, overridable via the SHORTFALL_WORKERS env var).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import mc, report
from .corrupt import MaxShiftGaussian, NoCorruption, model_to_json
from .dist import AR1, IID
from .errors import InfiniteShortfallError, ParameterError, ShortfallError
from .estim import EstimatorConfig, truncated_es_interval
from .functionals import check_alpha, table1_rows

CONFIG_VERSION = 1


def _fail(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _read_data_file(path: str) -> np.ndarray:
    values = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise _fail(f"{path}: line {lineno}: could not parse {line!r} as a number")
    if not values:
        raise _fail(f"{path}: no data values found")
    return np.array(values)


def cmd_estimate(args) -> int:
    data = _read_data_file(args.data_file)
    est = EstimatorConfig(kind=args.kind, m=args.m, beta1=args.beta1, beta2=args.beta2,
                          gap=args.gap, trim_c=args.trim_c, trim_exponent=args.trim_exp)
    if est.kind == "truncated":
        value, lower, upper = truncated_es_interval(
            data, args.alpha, est.m, est.beta1, est.beta2, est.gap
        )
        print(f"estimate: {value:.6f}")
        print(f"clamp interval: [{lower:.6f}, {upper:.6f}]")
    else:
        value = est.evaluate(data, args.alpha)
        print(f"estimate: {value:.6f}")
    return 0


def cmd_table1(args) -> int:
    try:
        alphas = [check_alpha(a) for a in args.alphas.split(",") if a.strip()]
    except ValueError as exc:
        raise _fail(f"--alphas: {exc}")
    rows = table1_rows(alphas)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.table1_to_csv(rows), newline="\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# --- config-driven experiment commands ----------------------------------------


def _load_config(path: str) -> tuple[dict, mc.ExperimentSpec]:
    """The raw config (recorded in run_meta.json) and the experiment it specifies."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: invalid JSON: {exc}")
    if cfg.get("version") != CONFIG_VERSION:
        raise _fail(f"{path}: expected \"version\": {CONFIG_VERSION}")
    try:
        return cfg, mc.ExperimentSpec.from_json(cfg)
    except KeyError as exc:
        raise _fail(f"config: missing field {exc.args[0]!r}")
    except InfiniteShortfallError:  # the process, not a field, is at fault: main reports it
        raise
    except (ParameterError, TypeError, ValueError) as exc:
        raise _fail(f"config: {exc}")


def _file_tag(spec: mc.ExperimentSpec, index: int) -> str:
    return f"{index}_{spec.estimators[index].kind}"


def _prepare_out(args, cfg: dict) -> Path:
    mc.resolve_workers(args.workers)  # the last argument check before any output
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": CONFIG_VERSION,
        "master_seed": cfg.get("master_seed"),
        "spec_hash": report.spec_hash(cfg),
        "config": cfg,
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", newline="\n"
    )
    return out


def _write_svg(path: Path, svg: str) -> None:
    path.write_text(svg, newline="\n")
    print(f"wrote {path}")


def _write_curves(args, out: Path, spec: mc.ExperimentSpec, curves, title: str) -> None:
    for i, curve in enumerate(curves):
        path = out / f"curve_{_file_tag(spec, i)}.csv"
        path.write_text(report.curve_to_csv(curve), newline="\n")
        print(f"wrote {path}")
    if args.svg:
        labelled = [(est.label(), c) for est, c in zip(spec.estimators, curves)]
        _write_svg(out / "curve.svg", report.curve_svg(labelled, title=title))


def cmd_curve(args) -> int:
    cfg, spec = _load_config(args.config)
    out = _prepare_out(args, cfg)
    curves = mc.deviation_curves(spec, workers=args.workers)
    _write_curves(args, out, spec, curves, f"delta={spec.delta:g}")
    return 0


def _histogram_n(args, spec: mc.ExperimentSpec) -> int:
    """The sample size of a histogram command, after checking --n and --bins."""
    n = args.n if args.n else spec.sample_sizes[-1]
    if n not in spec.sample_sizes:
        raise _fail(f"--n {n} is not one of the config sample_sizes {list(spec.sample_sizes)}")
    mc.check_bins(args.bins)
    return n


def _write_histograms(args, out: Path, spec: mc.ExperimentSpec, results, phase=None) -> None:
    for i, est in enumerate(spec.estimators):
        hist = mc.histogram(results[i], args.bins)
        stem = f"hist_{_file_tag(spec, i)}" + (f"_{phase}" if phase else "")
        path = out / f"{stem}.csv"
        path.write_text(report.histogram_to_csv(hist), newline="\n")
        print(f"wrote {path}")
        if args.svg:
            title = f"{est.label()} ({phase})" if phase else est.label()
            _write_svg(out / f"{stem}.svg", report.histogram_svg(hist, title=title))


def cmd_hist(args) -> int:
    cfg, spec = _load_config(args.config)
    n = _histogram_n(args, spec)
    out = _prepare_out(args, cfg)
    _write_histograms(args, out, spec, mc.run_trials(spec, n, workers=args.workers))
    return 0


DEMO_CORRUPTION = MaxShiftGaussian(k=3, mu=5.0, sigma=250.0)


def cmd_corrupt_demo(args) -> int:
    cfg, spec = _load_config(args.config)
    n = _histogram_n(args, spec)
    out = _prepare_out(args, cfg)
    corruption = spec.corruption if not isinstance(spec.corruption, NoCorruption) else DEMO_CORRUPTION
    clean = mc.run_trials(dataclasses.replace(spec, corruption=NoCorruption()), n, args.workers)
    dirty = mc.run_trials(dataclasses.replace(spec, corruption=corruption), n, args.workers)
    print(f"corruption: {model_to_json(corruption)}")
    _write_histograms(args, out, spec, clean, "clean")
    _write_histograms(args, out, spec, dirty, "corrupted")
    return 0


def cmd_mixing(args) -> int:
    cfg, spec = _load_config(args.config)
    if not isinstance(spec.process, AR1):
        raise _fail("config: the mixing command expects an \"ar1\" process")
    oracle_cfg = cfg.get("oracle", {})
    block_size = int(oracle_cfg.get("block_size", 10_000))
    blocks = int(oracle_cfg.get("blocks", 200))
    mc.check_oracle_size(block_size, blocks)
    out = _prepare_out(args, cfg)
    curves = mc.deviation_curves(spec, workers=args.workers)
    _write_curves(args, out, spec, curves, f"AR(1) rho={spec.process.rho:g}")
    summary = ["estimator,N,median_abs_error,p_hat,stderr,count"]
    summary += [f"{est.kind},{pt.n},{report.format_number(pt.median_abs_error)},"
                f"{report.format_number(pt.p_hat)},{report.format_number(pt.stderr)},{pt.count}"
                for est, curve in zip(spec.estimators, curves) for pt in curve.points]
    (out / "mixing_summary.csv").write_text("\n".join(summary) + "\n", newline="\n")
    print(f"wrote {out / 'mixing_summary.csv'}")

    lines = ["process,block_size,blocks,sigma2"]
    for label, process in (("ar1", spec.process), ("iid_normal", IID(spec.process.marginal))):
        sigma2 = mc.longrun_sigma_oracle(process, spec.alpha, block_size, blocks,
                                         spec.master_seed)
        lines.append(f"{label},{block_size},{blocks},{report.format_number(sigma2)}")
    (out / "longrun_sigma.csv").write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {out / 'longrun_sigma.csv'}")
    return 0


def _add_config_args(sub, bins: bool = False, n_flag: bool = False) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--workers", type=int, default=0,
                     help="worker processes (0 = auto / SHORTFALL_WORKERS)")
    sub.add_argument("--svg", action="store_true", help="also emit SVG charts")
    if bins:
        sub.add_argument("--bins", type=int, default=50, help="histogram bin count")
    if n_flag:
        sub.add_argument("--n", type=int, default=0,
                         help="sample size to use (default: largest in config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortfall",
        description="Robust expected-shortfall estimation and Monte Carlo benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate ES from a data file")
    est.add_argument("data_file")
    est.add_argument("--alpha", type=float, required=True)
    est.add_argument("--kind", default="plugin",
                     choices=("plugin", "truncated", "median_of_blocks", "trimmed"))
    est.add_argument("--m", type=int, default=250)
    est.add_argument("--beta1", type=float, default=0.5)
    est.add_argument("--beta2", type=float, default=0.6)
    est.add_argument("--gap", type=int, default=0)
    est.add_argument("--trim-c", type=float, default=0.25)
    est.add_argument("--trim-exp", type=float, default=1.0 / 3.0)
    est.set_defaults(fn=cmd_estimate)

    tab = subs.add_parser("table1", help="D(alpha) and sigma_ES over the catalog")
    tab.add_argument("--alphas", default="0.1,0.05,0.01")
    tab.add_argument("--out", required=True)
    tab.set_defaults(fn=cmd_table1)

    curve = subs.add_parser("curve", help="deviation-probability curves")
    _add_config_args(curve)
    curve.set_defaults(fn=cmd_curve)

    hist = subs.add_parser("hist", help="histogram of estimates at one N")
    _add_config_args(hist, bins=True, n_flag=True)
    hist.set_defaults(fn=cmd_hist)

    demo = subs.add_parser("corrupt-demo", help="clean vs corrupted histograms")
    _add_config_args(demo, bins=True, n_flag=True)
    demo.set_defaults(fn=cmd_corrupt_demo)

    mixing = subs.add_parser("mixing", help="AR(1) gapped-block experiment")
    _add_config_args(mixing)
    mixing.set_defaults(fn=cmd_mixing)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ShortfallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
