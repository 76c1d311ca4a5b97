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
the config that changes iff any config field changes.  Each computes all its
files before it creates ``--out`` (:func:`_write_run`), so a failure writes
nothing.  Worker count comes from ``--workers`` (0 = auto, overridable via
the SHORTFALL_WORKERS env var).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import estim, mc, report
from .corrupt import MaxShiftGaussian, NoCorruption, model_to_json
from .dist import AR1, IID
from .errors import ParameterError, ShortfallError, check_alpha, check_fields, integer
from .estim import EstimatorConfig, truncated_es_interval
from .functionals import table1_rows

CONFIG_VERSION = 1

ESTIMATOR_FLAGS = tuple(f.metadata.get("key", f.name) for f in dataclasses.fields(EstimatorConfig)
                        if f.name != "kind")


def _read_text(path: str) -> str:
    """The text of ``path``: a file that cannot be opened or decoded is one error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ShortfallError(f"cannot read {path}: {exc}")


def _read_data_file(path: str) -> np.ndarray:
    values = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise ShortfallError(f"{path}: line {lineno}: could not parse {line!r} as a number")
        if not np.isfinite(value):
            raise ShortfallError(f"{path}: line {lineno}: {line!r} is not a finite number")
        values.append(value)
    if not values:
        raise ShortfallError(f"{path}: no data values found")
    return np.array(values)


def cmd_estimate(args) -> int:
    data = _read_data_file(args.data_file)
    given = {key: getattr(args, key) for key in ESTIMATOR_FLAGS if getattr(args, key) is not None}
    est = EstimatorConfig.from_json({"kind": args.kind, **given})
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
        alphas = [check_alpha(float(a)) for a in args.alphas.split(",") if a.strip()]
    except ValueError as exc:
        raise ShortfallError(f"--alphas: {exc}")
    if not alphas:
        raise ShortfallError(f"--alphas: need at least one alpha (got {args.alphas!r})")
    rows = table1_rows(alphas)
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.table1_to_csv(rows), newline="\n")
    except OSError as exc:
        raise ShortfallError(f"cannot write {out}: {exc}")
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


# --- config-driven experiment commands ----------------------------------------


def _load_config(path: str) -> tuple[dict, mc.ExperimentSpec]:
    """The raw config (recorded in run_meta.json) and the experiment it specifies."""
    try:
        cfg = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ShortfallError(f"{path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict) or cfg.get("version") != CONFIG_VERSION:
        raise ShortfallError(f"{path}: expected \"version\": {CONFIG_VERSION}")
    try:  # the spec fields, less the keys this front end reads itself
        return cfg, mc.ExperimentSpec.from_json(
            {k: v for k, v in cfg.items() if k not in ("version", "oracle")})
    except KeyError as exc:
        raise ShortfallError(f"config: missing field {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ShortfallError(f"config: {exc}")


def _file_tag(spec: mc.ExperimentSpec, index: int) -> str:
    return f"{index}_{spec.estimators[index].kind}"


def _write_run(args, cfg: dict, files) -> None:
    """Create ``--out``, then write ``run_meta.json`` and each ``(name, text)`` of ``files``.

    The one step of a config command that writes; each calls it last, with all its files.
    """
    meta = {
        "version": CONFIG_VERSION,
        "master_seed": cfg.get("master_seed"),
        "spec_hash": report.spec_hash(cfg),
        "config": cfg,
    }
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in [("run_meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n"), *files]:
            (out / name).write_text(text, newline="\n")
    except OSError as exc:
        raise ShortfallError(f"cannot write {out}: {exc}")
    for name, _ in files:
        print(f"wrote {out / name}")


def _curve_files(args, spec: mc.ExperimentSpec, curves, title: str) -> list:
    """The CSV of each curve and, under ``--svg``, one chart of them all."""
    files = [(f"curve_{_file_tag(spec, i)}.csv", report.curve_to_csv(curve))
             for i, curve in enumerate(curves)]
    if args.svg:
        labelled = [(est.label(), c) for est, c in zip(spec.estimators, curves)]
        files.append(("curve.svg", report.curve_svg(labelled, title=title)))
    return files


def cmd_curve(args) -> int:
    cfg, spec = _load_config(args.config)
    curves = mc.deviation_curves(spec, workers=args.workers)
    _write_run(args, cfg, _curve_files(args, spec, curves, f"delta={spec.delta:g}"))
    return 0


def _histogram_n(args, spec: mc.ExperimentSpec) -> int:
    """The sample size of a histogram command, after checking --n and --bins."""
    n = args.n if args.n else spec.sample_sizes[-1]
    if n not in spec.sample_sizes:
        raise ShortfallError(f"--n {n} is not one of the config sample_sizes {list(spec.sample_sizes)}")
    mc.check_bins(args.bins)
    return n


def _histogram_files(args, spec: mc.ExperimentSpec, n: int, runs) -> list:
    """The histogram CSV (and SVG under ``--svg``) of each estimator of each ``(spec, phase)``."""
    files = []
    for run, phase in runs:
        for i, (est, estimates) in enumerate(zip(spec.estimators, mc.run_trials(run, n, args.workers))):
            title = f"{est.label()} ({phase})" if phase else est.label()
            try:
                hist = mc.histogram(estimates, args.bins)
            except ParameterError as exc:
                raise ParameterError(f"{exc}; estimator {title}") from None
            stem = f"hist_{_file_tag(spec, i)}" + (f"_{phase}" if phase else "")
            files.append((f"{stem}.csv", report.histogram_to_csv(hist)))
            if args.svg:
                files.append((f"{stem}.svg", report.histogram_svg(hist, title=title)))
    return files


def cmd_hist(args) -> int:
    cfg, spec = _load_config(args.config)
    n = _histogram_n(args, spec)
    _write_run(args, cfg, _histogram_files(args, spec, n, ((spec, None),)))
    return 0


DEMO_CORRUPTION = MaxShiftGaussian(k=3, mu=5.0, sigma=250.0)


def cmd_corrupt_demo(args) -> int:
    cfg, spec = _load_config(args.config)
    n = _histogram_n(args, spec)
    corruption = spec.corruption if not isinstance(spec.corruption, NoCorruption) else DEMO_CORRUPTION
    clean = dataclasses.replace(spec, sample_sizes=(n,), corruption=NoCorruption())
    dirty = dataclasses.replace(clean, corruption=corruption)  # checks the attack at n
    files = _histogram_files(args, spec, n, ((clean, "clean"), (dirty, "corrupted")))
    print(f"corruption: {model_to_json(corruption)}")
    _write_run(args, cfg, files)
    return 0


def _oracle_size(cfg: dict) -> tuple[int, int]:
    """The checked (block_size, blocks) of a mixing config's long-run variance oracle."""
    oracle = cfg.get("oracle", {})
    check_fields(oracle, ("block_size", "blocks"), "oracle")
    return mc.check_oracle_size(
        integer(oracle.get("block_size", 10_000), "config: oracle: block_size"),
        integer(oracle.get("blocks", 200), "config: oracle: blocks"))


def cmd_mixing(args) -> int:
    cfg, spec = _load_config(args.config)
    if not isinstance(spec.process, AR1):
        raise ShortfallError("config: the mixing command expects an \"ar1\" process")
    block_size, blocks = _oracle_size(cfg)
    curves = mc.deviation_curves(spec, workers=args.workers)
    files = _curve_files(args, spec, curves, f"AR(1) rho={spec.process.rho:g}")
    files.append(("mixing_summary.csv", report.rows_to_csv(
        "estimator,N,median_abs_error,p_hat,stderr,count",
        [(est.kind, pt.n, pt.median_abs_error, pt.p_hat, pt.stderr, pt.count)
         for est, curve in zip(spec.estimators, curves) for pt in curve.points])))
    rows = []
    for label, process in (("ar1", spec.process), ("iid_normal", IID(spec.process.marginal))):
        sigma2 = mc.longrun_sigma_oracle(process, spec.alpha, block_size, blocks, spec.master_seed)
        rows.append((label, block_size, blocks, sigma2))
    files.append(("longrun_sigma.csv", report.rows_to_csv("process,block_size,blocks,sigma2", rows)))
    _write_run(args, cfg, files)
    return 0


def _add_config_args(sub, histogram: bool = False) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--workers", type=int, default=0,
                     help="worker processes (0 = auto / SHORTFALL_WORKERS)")
    sub.add_argument("--svg", action="store_true", help="also emit SVG charts")
    if histogram:
        sub.add_argument("--bins", type=int, default=50, help="histogram bin count")
        sub.add_argument("--n", type=int, default=0,
                         help="sample size to use (default: largest in config)")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, a subcommand's too, is one `error:` line
        raise ShortfallError(f"{self.prog}: {message}")


@functools.cache  # parse_args leaves the parser as it was, so one serves every main()
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shortfall",
        description="Robust expected-shortfall estimation and Monte Carlo benchmarks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="estimate ES from a data file")
    est.add_argument("data_file")
    est.add_argument("--alpha", type=float, required=True)
    est.add_argument("--kind", default="plugin", choices=estim.KINDS)
    for key in ESTIMATOR_FLAGS:  # a number, as in JSON; an unset flag keeps the default
        est.add_argument("--" + key.replace("_", "-"), type=float)
    est.set_defaults(fn=cmd_estimate)

    tab = subs.add_parser("table1", help="D(alpha) and sigma_ES over the catalog")
    tab.add_argument("--alphas", default="0.1,0.05,0.01")
    tab.add_argument("--out", required=True)
    tab.set_defaults(fn=cmd_table1)

    curve = subs.add_parser("curve", help="deviation-probability curves")
    _add_config_args(curve)
    curve.set_defaults(fn=cmd_curve)

    hist = subs.add_parser("hist", help="histogram of estimates at one N")
    _add_config_args(hist, histogram=True)
    hist.set_defaults(fn=cmd_hist)

    demo = subs.add_parser("corrupt-demo", help="clean vs corrupted histograms")
    _add_config_args(demo, histogram=True)
    demo.set_defaults(fn=cmd_corrupt_demo)

    mixing = subs.add_parser("mixing", help="AR(1) gapped-block experiment")
    _add_config_args(mixing)
    mixing.set_defaults(fn=cmd_mixing)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ShortfallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
