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
import json
import sys
from pathlib import Path

import numpy as np

from . import mc, report
from .corrupt import MaxShiftGaussian, NoCorruption, model_from_json, model_to_json
from .dist import AR1, IID, process_from_json
from .errors import ParameterError, QuadratureError, ShortfallError
from .estim import EstimatorConfig
from .functionals import check_alpha, es_exact, table1_rows

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


def _estimator_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(
        kind=args.kind,
        m=args.m,
        beta1=args.beta1,
        beta2=args.beta2,
        gap=args.gap,
        trim_c=args.trim_c,
        trim_exponent=args.trim_exp,
    )


def cmd_estimate(args) -> int:
    data = _read_data_file(args.data_file)
    est = _estimator_from_args(args)
    if est.kind == "truncated":
        from .estim import truncated_es_interval

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
    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    for a in alphas:
        check_alpha(a)
    try:
        rows = table1_rows(alphas)
    except QuadratureError as exc:
        raise _fail(f"table cell failed: {exc}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.table1_to_csv(rows), newline="\n")
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# --- config-driven experiment commands ----------------------------------------


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _fail(f"{path}: invalid JSON: {exc}")
    if cfg.get("version") != CONFIG_VERSION:
        raise _fail(f"{path}: expected \"version\": {CONFIG_VERSION}")
    return cfg


class _Experiment:
    """A parsed config: shared process/levels plus one or more estimators."""

    def __init__(self, cfg: dict):
        try:
            self.process = process_from_json(cfg["process"])
            raw_estimators = cfg.get("estimators")
            if not raw_estimators:
                raise ParameterError("estimators: config must list at least one estimator")
            self.estimators = [EstimatorConfig.from_json(e) for e in raw_estimators]
            self.alpha = check_alpha(cfg["alpha"])
            self.sample_sizes = [int(n) for n in cfg["sample_sizes"]]
            self.delta = float(cfg["delta"])
            self.trials = int(cfg["trials"])
            self.master_seed = int(cfg["master_seed"])
            self.corruption = model_from_json(cfg.get("corruption"))
        except KeyError as exc:
            raise _fail(f"config: missing field {exc.args[0]!r}")
        except (ParameterError, TypeError, ValueError) as exc:
            raise _fail(f"config: {exc}")
        truth = cfg.get("truth")
        if truth is None:
            marginal = self.process.dist if isinstance(self.process, IID) else self.process.marginal
            self.truth = es_exact(marginal, self.alpha)
        else:
            self.truth = float(truth)
        self.config = cfg

    def spec_for(self, estimator: EstimatorConfig, corruption=None) -> mc.ExperimentSpec:
        return mc.ExperimentSpec(
            process=self.process,
            estimator=estimator,
            alpha=self.alpha,
            sample_sizes=tuple(self.sample_sizes),
            delta=self.delta,
            trials=self.trials,
            master_seed=self.master_seed,
            corruption=self.corruption if corruption is None else corruption,
            truth=self.truth,
        )

    def file_tag(self, index: int) -> str:
        return f"{index}_{self.estimators[index].kind}"


def _prepare_out(args, cfg: dict) -> Path:
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


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    exp = _Experiment(cfg)
    out = _prepare_out(args, cfg)
    curves = []
    per_n = {n: mc.run_trials_multi(exp.process, exp.estimators, exp.alpha, n,
                                    exp.trials, exp.master_seed, exp.corruption,
                                    workers=args.workers)
             for n in exp.sample_sizes}
    for i, est in enumerate(exp.estimators):
        points = []
        for n in exp.sample_sizes:
            p, se, c = mc.deviation_probability(per_n[n][i], exp.truth, exp.delta)
            points.append(mc.CurvePoint(n, p, se, c))
        curve = mc.DeviationCurve(exp.delta, exp.trials, tuple(points))
        curves.append((est.label(), curve))
        path = out / f"curve_{exp.file_tag(i)}.csv"
        path.write_text(report.curve_to_csv(curve), newline="\n")
        print(f"wrote {path}")
    if args.svg:
        (out / "curve.svg").write_text(
            report.curve_svg(curves, title=f"delta={exp.delta:g}"), newline="\n"
        )
        print(f"wrote {out / 'curve.svg'}")
    return 0


def _single_n(args, exp: _Experiment) -> int:
    n = args.n if args.n else exp.sample_sizes[-1]
    if n not in exp.sample_sizes:
        raise _fail(f"--n {n} is not one of the config sample_sizes {exp.sample_sizes}")
    return n


def cmd_hist(args) -> int:
    cfg = _load_config(args.config)
    exp = _Experiment(cfg)
    out = _prepare_out(args, cfg)
    n = _single_n(args, exp)
    results = mc.run_trials_multi(exp.process, exp.estimators, exp.alpha, n,
                                  exp.trials, exp.master_seed, exp.corruption,
                                  workers=args.workers)
    for i, est in enumerate(exp.estimators):
        hist = mc.histogram(results[i], args.bins)
        path = out / f"hist_{exp.file_tag(i)}.csv"
        path.write_text(report.histogram_to_csv(hist), newline="\n")
        print(f"wrote {path}")
        if args.svg:
            svg = out / f"hist_{exp.file_tag(i)}.svg"
            svg.write_text(report.histogram_svg(hist, title=est.label()), newline="\n")
            print(f"wrote {svg}")
    return 0


DEMO_CORRUPTION = MaxShiftGaussian(k=3, mu=5.0, sigma=250.0)


def cmd_corrupt_demo(args) -> int:
    cfg = _load_config(args.config)
    exp = _Experiment(cfg)
    out = _prepare_out(args, cfg)
    n = _single_n(args, exp)
    corruption = exp.corruption if not isinstance(exp.corruption, NoCorruption) else DEMO_CORRUPTION
    clean = mc.run_trials_multi(exp.process, exp.estimators, exp.alpha, n,
                                exp.trials, exp.master_seed, NoCorruption(),
                                workers=args.workers)
    dirty = mc.run_trials_multi(exp.process, exp.estimators, exp.alpha, n,
                                exp.trials, exp.master_seed, corruption,
                                workers=args.workers)
    print(f"corruption: {model_to_json(corruption)}")
    for i, est in enumerate(exp.estimators):
        for label, results in (("clean", clean), ("corrupted", dirty)):
            hist = mc.histogram(results[i], args.bins)
            path = out / f"hist_{exp.file_tag(i)}_{label}.csv"
            path.write_text(report.histogram_to_csv(hist), newline="\n")
            print(f"wrote {path}")
            if args.svg:
                svg = out / f"hist_{exp.file_tag(i)}_{label}.svg"
                svg.write_text(
                    report.histogram_svg(hist, title=f"{est.label()} ({label})"),
                    newline="\n",
                )
    return 0


def cmd_mixing(args) -> int:
    cfg = _load_config(args.config)
    exp = _Experiment(cfg)
    if not isinstance(exp.process, AR1):
        raise _fail("config: the mixing command expects an \"ar1\" process")
    out = _prepare_out(args, cfg)
    summary = ["estimator,N,median_abs_error,p_hat,stderr,count"]
    curves = []
    per_n = {n: mc.run_trials_multi(exp.process, exp.estimators, exp.alpha, n,
                                    exp.trials, exp.master_seed, exp.corruption,
                                    workers=args.workers)
             for n in exp.sample_sizes}
    for i, est in enumerate(exp.estimators):
        points = []
        for n in exp.sample_sizes:
            estimates = per_n[n][i]
            p, se, c = mc.deviation_probability(estimates, exp.truth, exp.delta)
            med = float(np.median(np.abs(estimates - exp.truth)))
            points.append(mc.CurvePoint(n, p, se, c))
            summary.append(
                f"{est.kind},{n},{report.format_number(med)},"
                f"{report.format_number(p)},{report.format_number(se)},{c}"
            )
        curve = mc.DeviationCurve(exp.delta, exp.trials, tuple(points))
        curves.append((est.label(), curve))
        path = out / f"curve_{exp.file_tag(i)}.csv"
        path.write_text(report.curve_to_csv(curve), newline="\n")
        print(f"wrote {path}")
    (out / "mixing_summary.csv").write_text("\n".join(summary) + "\n", newline="\n")
    print(f"wrote {out / 'mixing_summary.csv'}")

    oracle_cfg = cfg.get("oracle", {})
    block_size = int(oracle_cfg.get("block_size", 10_000))
    blocks = int(oracle_cfg.get("blocks", 200))
    lines = ["process,block_size,blocks,sigma2"]
    for label, process in (("ar1", exp.process), ("iid_normal", IID(exp.process.marginal))):
        sigma2 = mc.longrun_sigma_oracle(process, exp.alpha, block_size, blocks,
                                         exp.master_seed)
        lines.append(f"{label},{block_size},{blocks},{report.format_number(sigma2)}")
    (out / "longrun_sigma.csv").write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {out / 'longrun_sigma.csv'}")
    if args.svg:
        (out / "curve.svg").write_text(
            report.curve_svg(curves, title=f"AR(1) rho={exp.process.rho:g}"), newline="\n"
        )
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
