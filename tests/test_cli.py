import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shortfall import cli, estim, report
from shortfall.mc import CurvePoint, DeviationCurve, HistogramResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trivial_config(tmp_path):
    cfg = {
        "version": 1,
        "process": {"kind": "iid",
                    "dist": {"family": "scaled_bernoulli", "params": {"p": 1.0, "x": 3.0}}},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}, {"kind": "truncated", "m": 5}],
        "sample_sizes": [20, 40],
        "delta": 0.5,
        "trials": 250,
        "master_seed": 7,
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


# --- estimate ---------------------------------------------------------------------


def test_estimate_constant(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join("5.0\n" for _ in range(10)))
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.1")
    assert code == 0
    assert "estimate: 5.000000" in out
    data.write_text("\n5.0\n\n  \n5.0\n")  # blank lines are skipped
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.1")
    assert code == 0
    assert "estimate: 5.000000" in out


def test_estimate_fractional(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 11)))
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.15")
    assert code == 0
    assert "estimate: 9.666667" in out


def test_estimate_truncated_prints_interval(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 101)))
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.1",
                           "--kind", "truncated", "--m", "10", "--beta1", "0.4",
                           "--beta2", "0.6")
    assert code == 0
    assert "clamp interval: [" in out


def test_estimate_other_kinds(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 11)))
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.1",
                           "--kind", "median_of_blocks", "--m", "1")
    assert code == 0
    assert "estimate: 5.500000" in out  # interpolated median of 1..10
    code, out, _ = run_cli(capsys, "estimate", str(data), "--alpha", "0.2",
                           "--kind", "trimmed", "--trim-c", "0.1", "--trim-exp", "1.0")
    assert code == 0
    assert "estimate: 8.555556" in out  # top-quintile mean of 1..9 after trimming 10


def test_estimate_block_error(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 12)))
    code, _, err = run_cli(capsys, "estimate", str(data), "--alpha", "0.1",
                           "--kind", "truncated", "--m", "10")
    assert code == 2
    assert "need >= 2 complete blocks; reduce m" in err
    assert "largest valid m is 5" in err


def test_estimate_parse_error_reports_line(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("1.0\nnot-a-number\n3.0\n")
    code, _, err = run_cli(capsys, "estimate", str(data), "--alpha", "0.1")
    assert code == 2
    assert "line 2" in err
    for bad in ("nan", "inf", "-Infinity"):
        data.write_text(f"1.0\n2.0\n\n{bad}\n")
        code, _, err = run_cli(capsys, "estimate", str(data), "--alpha", "0.1")
        assert code == 2
        assert err == f"error: {data}: line 4: {bad!r} is not a finite number\n"
    blank = tmp_path / "blank.txt"
    blank.write_text("\n \n")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe1\x00.\x005\x00\n\x00")  # UTF-16, not UTF-8
    for path, message in ((tmp_path / "missing.txt", "cannot read"), (blank, "no data values found"),
                          (binary, f"cannot read {binary}: 'utf-8' codec can't decode")):
        code, _, err = run_cli(capsys, "estimate", str(path), "--alpha", "0.1")
        assert code == 2 and message in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_estimate_unset_flag_keeps_the_default_on_the_next_call(tmp_path, capsys):
    # main() reuses one parser; a flag given to one call must not reach the next
    data = tmp_path / "data.txt"
    values = np.sin(np.arange(1, 3251)) * np.arange(1, 3251)
    data.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    outs = [run_cli(capsys, "estimate", str(data), "--alpha", "0.1", "--kind", "truncated", *m)[1]
            for m in (["--m", "125"], [])]
    value, lower, upper = estim.truncated_es_interval(values, 0.1, estim.DEFAULT_M)
    assert estim.DEFAULT_M != 125 and outs[0] != outs[1]
    assert outs[1] == f"estimate: {value:.6f}\nclamp interval: [{lower:.6f}, {upper:.6f}]\n"


@pytest.mark.parametrize("flags, field", [
    (["--kind", "plugin", "--m", "5"], "plugin estimator: unknown field(s) ['m']"),
    (["--kind", "trimmed", "--beta1", "0.9"], "trimmed estimator: unknown field(s) ['beta1']"),
    (["--kind", "median_of_blocks", "--m", "2", "--trim-c", "7"],
     "median_of_blocks estimator: unknown field(s) ['trim_c']"),
])
def test_estimate_rejects_flags_its_kind_does_not_read(tmp_path, capsys, flags, field):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 11)))
    code, out, err = run_cli(capsys, "estimate", str(data), "--alpha", "0.1", *flags)
    assert code == 2 and out == ""
    assert err == f"error: {field}\n"


def test_estimate_flags_are_numbers_like_json(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 101)))
    runs = [run_cli(capsys, "estimate", str(data), "--alpha", "0.1", "--kind", "truncated",
                    "--m", m) for m in ("10", "10.0", "1e1")]
    assert runs[0][0] == 0 and runs[1:] == runs[:-1]
    code, out, err = run_cli(capsys, "estimate", str(data), "--alpha", "0.1",
                             "--kind", "truncated", "--m", "2.5")
    assert (code, out, err) == (2, "", "error: m: must be an integer (got 2.5)\n")


@pytest.mark.parametrize("argv, message", [
    (["estimate", "DATA", "--alpha", "abc"],
     "shortfall estimate: argument --alpha: invalid float value: 'abc'"),
    (["estimate", "DATA", "--alpha", "0.1", "--bogus"], "shortfall: unrecognized arguments: --bogus"),
    ([], "shortfall: the following arguments are required: command"),
    (["estimate", "DATA", "--alpha", "0.1", "--kind", "foo"],
     "shortfall estimate: argument --kind: invalid choice: 'foo'"),
    (["curve", "--out", "OUT"], "shortfall curve: the following arguments are required: --config"),
])
def test_usage_error_is_one_line(tmp_path, capsys, argv, message):
    data = tmp_path / "data.txt"
    data.write_text("1.0\n2.0\n")
    argv = [str(data) if a == "DATA" else str(tmp_path / "out") if a == "OUT" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--help"])
    assert exc.value.code == 0
    assert "--alpha" in capsys.readouterr().out


# --- table1 ----------------------------------------------------------------------


def test_table1_single_alpha(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "table1", "--alphas", "0.1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,params,alpha,D,sigma"
    assert len(lines) == 8  # header + 7 rows
    pareto2 = [l for l in lines if l.startswith("pareto,x0=1;lam=2")]
    assert len(pareto2) == 1 and pareto2[0].endswith(",inf")


def test_table1_rejects_bad_alpha(tmp_path, capsys):
    for bad in ("0.6", "abc", ",", ""):
        code, _, err = run_cli(capsys, "table1", "--alphas", bad,
                               "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert err.startswith("error: --alphas:")
        assert len(err.splitlines()) == 1
    assert not (tmp_path / "t.csv").exists()


# --- curve ------------------------------------------------------------------------


def test_curve_trivial_zero_and_deterministic(tmp_path, capsys, trivial_config):
    config, cfg = trivial_config
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code, _, _ = run_cli(capsys, "curve", "--config", str(config), "--out", str(out1),
                         "--workers", "1", "--svg")
    assert code == 0
    plugin_csv = (out1 / "curve_0_plugin.csv").read_text()
    assert plugin_csv == "N,p_hat,stderr,count\n20,0,0,0\n40,0,0,0\n"
    assert (out1 / "curve_1_truncated.csv").exists()
    assert (out1 / "curve.svg").read_text().startswith("<svg")

    code, _, _ = run_cli(capsys, "curve", "--config", str(config), "--out", str(out2),
                         "--workers", "2")
    assert (out2 / "curve_0_plugin.csv").read_bytes() == (out1 / "curve_0_plugin.csv").read_bytes()
    assert (out2 / "run_meta.json").read_bytes() == (out1 / "run_meta.json").read_bytes()


def test_spec_hash_changes_iff_config_changes(tmp_path, capsys, trivial_config):
    config, cfg = trivial_config
    meta_hash = report.spec_hash(cfg)
    assert meta_hash == report.spec_hash(json.loads(json.dumps(cfg)))
    changed = dict(cfg, master_seed=8)
    assert report.spec_hash(changed) != meta_hash
    out = tmp_path / "meta"
    run_cli(capsys, "curve", "--config", str(config), "--out", str(out), "--workers", "1")
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["spec_hash"] == meta_hash
    assert meta["master_seed"] == 7


def test_curve_bad_config(tmp_path, capsys, trivial_config):
    bad = tmp_path / "bad.json"
    for top in ({"version": 2}, [1]):
        bad.write_text(json.dumps(top))
        code, _, err = run_cli(capsys, "curve", "--config", str(bad),
                               "--out", str(tmp_path / "o"))
        assert code == 2 and "version" in err
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "curve", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2 and "invalid JSON" in err and len(err.splitlines()) == 1
    code, _, err = run_cli(capsys, "curve", "--config", str(tmp_path / "none.json"),
                           "--out", str(tmp_path / "o"))
    assert code == 2 and "cannot read" in err and len(err.splitlines()) == 1
    bad.write_bytes(json.dumps({"version": 1}).encode("utf-16"))  # not UTF-8
    code, _, err = run_cli(capsys, "curve", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2 and err.startswith(f"error: cannot read {bad}: ") and len(err.splitlines()) == 1
    _, cfg = trivial_config
    no_lam = {"kind": "iid", "dist": {"family": "pareto", "params": {"x0": 1.0}}}
    for top, message in (({"version": 1, "alpha": 0.1}, "missing field"),
                         (dict(cfg, process=no_lam), "error: config: missing field 'lam'\n")):
        bad.write_text(json.dumps(top))
        code, _, err = run_cli(capsys, "curve", "--config", str(bad),
                               "--out", str(tmp_path / "o"))
        assert code == 2 and message in err
    for field, value in (("trials", 0), ("delta", -1), ("sample_sizes", [40, 20])):
        bad.write_text(json.dumps(dict(cfg, **{field: value})))
        out = tmp_path / f"bad_{field}"
        code, _, err = run_cli(capsys, "curve", "--config", str(bad), "--out", str(out))
        assert code == 2 and field in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("estimators, sample_sizes, message", [
    ([{"kind": "truncated", "m": 250}], [400], "N=400 below the minimum 500"),
    ([{"kind": "trimmed", "trim_c": 0}], [20, 40], "trim_c"),
    ([{"kind": "trimmed", "trim_c": 1, "trim_exp": 1}], [20, 40], "k=20, N=20"),
    ([{"kind": "trimmed", "trim_c": 0.2, "trim_exp": 1.5}], [20, 40], "k=50, N=40"),
    ([{"kind": "trimmed", "trim_exp": math.inf}], [20, 40], "trim_exp"),
    ([{"kind": "trimmed", "trim_exp": math.nan}], [20, 40], "trim_exp"),
    ([{"kind": "trimmed", "trim_c": math.inf}], [20, 40], "trim_c"),
    ([{"kind": "trimmed", "trim_c": math.nan}], [20, 40], "trim_c"),
])
def test_curve_estimator_precondition_before_output(tmp_path, capsys, trivial_config,
                                                    estimators, sample_sizes, message):
    _, cfg = trivial_config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(cfg, estimators=estimators, sample_sizes=sample_sizes)))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "curve", "--config", str(bad), "--out", str(out),
                           "--workers", "1")
    assert code == 2 and message in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not (out / "run_meta.json").exists()


@pytest.mark.parametrize("command, flags, overrides, message", [
    ("hist", ["--n", "7"], {}, "--n 7"),
    ("hist", ["--bins", "0"], {}, "bins"),
    ("curve", ["--workers", "-1"], {}, "workers"),
    ("mixing", [], {"oracle": {"blocks": 5}}, "blocks"),
    ("mixing", [], {"oracle": {"block_size": "big"}}, "oracle"),
    ("mixing", [], {"oracle": [10_000, 200]}, "oracle"),
    ("corrupt-demo", [], {"estimators": [{"kind": "plugin"}], "sample_sizes": [2]}, "k = 3"),
    ("curve", ["--workers", "1"],
     {"corruption": {"kind": "replace_largest", "k": 30, "value": 1e6}}, "N=20 is too small"),
    ("curve", ["--workers", "1"],
     {"corruption": {"kind": "replace_indices", "indices": [30], "value": 1e6}}, "indices up to 30"),
    ("curve", [], {"corruptoin": {"kind": "replace_largest", "k": 1, "value": 1e6}}, "'corruptoin'"),
    ("curve", [], {"corruption": {"kind": "replace_largest", "k": 1, "value": 1e6, "sigma": 1.0}},
     "'sigma'"),
    ("curve", [], {"process": {"kind": "ar1", "rho": 0.5, "dist": {"family": "normal"}}}, "'dist'"),
    ("curve", [], {"estimators": [{"kind": "plugin", "m": -5, "beta1": 7}]}, "['beta1', 'm']"),
    ("mixing", [], {"oracle": {"blocks": 200, "block_sise": 10_000}}, "'block_sise'"),
    ("curve", [], {"estimators": ["plugin"]}, "estimator: expected an object"),
    ("curve", [], {"process": ["iid"]}, "process: expected an object"),
    # counts, sizes and seeds are whole numbers (1e5 is one); no strings or booleans
    ("curve", [], {"sample_sizes": [1250.7]}, "config: sample_sizes: must be an integer (got 1250.7)"),
    ("curve", [], {"trials": True}, "config: trials: must be an integer (got True)"),
    ("curve", [], {"trials": 250.5}, "config: trials: must be an integer (got 250.5)"),
    ("curve", [], {"master_seed": 7.5}, "config: master_seed: must be an integer (got 7.5)"),
    ("curve", [], {"estimators": [{"kind": "truncated", "m": 5.5}]},
     "config: m: must be an integer (got 5.5)"),
    ("curve", [], {"corruption": {"kind": "replace_largest", "k": 1.5, "value": 1e6}},
     "config: k: must be an integer (got 1.5)"),
    ("curve", [], {"trials": "20"}, "config: trials: must be an integer (got '20')"),
    ("curve", [], {"alpha": "0.1"}, "config: alpha: must be a number (got '0.1')"),
    ("curve", [], {"corruption": {"kind": "max_shift_gaussian", "k": 3, "mu": "5", "sigma": 250.0}},
     "config: mu: must be a number (got '5')"),
    ("curve", [], {"delta": math.nan}, "config: delta: must be > 0 (got nan)"),
    ("mixing", [], {"oracle": {"block_size": 2000.5}},
     "config: oracle: block_size: must be an integer (got 2000.5)"),
    # a list field given a scalar or a string names the field
    ("curve", [], {"estimators": 5}, "config: estimators: must be a list (got 5)"),
    ("curve", [], {"sample_sizes": 1000}, "config: sample_sizes: must be a list (got 1000)"),
    ("curve", [], {"corruption": {"kind": "replace_indices", "indices": 5, "value": 1e6}},
     "config: indices: must be a list (got 5)"),
    ("curve", [], {"estimators": "plugin"}, "config: estimators: must be a list (got 'plugin')"),
    ("curve", [], {"sample_sizes": "1000"}, "config: sample_sizes: must be a list (got '1000')"),
    # a corruption model writes values that can be ordered
    ("curve", [], {"corruption": {"kind": "replace_indices", "indices": [1], "value": math.nan}},
     "config: value: must be finite (got nan)"),
    ("corrupt-demo", [], {"corruption": {"kind": "max_shift_gaussian", "k": 3, "mu": math.nan,
                                         "sigma": math.inf}}, "config: mu: must be finite (got nan)"),
    ("corrupt-demo", [], {"corruption": {"kind": "max_shift_gaussian", "k": 3, "mu": 5.0,
                                         "sigma": math.inf}}, "config: sigma: must be finite (got inf)"),
    # the truth is the exact ES of the process marginal, never a config field
    ("curve", [], {"truth": 3.0}, "error: config: experiment: unknown field(s) ['truth']"),
])
def test_bad_argument_before_output(tmp_path, capsys, trivial_config,
                                    command, flags, overrides, message):
    _, cfg = trivial_config
    if command == "mixing":
        overrides = dict(overrides, process={"kind": "ar1", "rho": 0.5})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(cfg, **overrides)))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, command, "--config", str(bad), "--out", str(out), *flags)
    assert code == 2 and message in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out.exists()


def test_curve_bad_workers_env(tmp_path, capsys, monkeypatch, trivial_config):
    config, _ = trivial_config
    monkeypatch.setenv("SHORTFALL_WORKERS", "abc")
    code, _, err = run_cli(capsys, "curve", "--config", str(config),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: SHORTFALL_WORKERS") and "Traceback" not in err


@pytest.mark.parametrize("family", [
    {"family": "pareto", "params": {"x0": 1.0, "lam": 0.9}},
    {"family": "pareto", "params": {"x0": 1e308, "lam": 2.2}},  # finite, beyond the float range
    {"family": "lognormal", "params": {"mu": 0.0, "sigma": 40.0}},  # exp(800) overflows
])
def test_curve_infinite_truth_is_one_line_error(tmp_path, capsys, family):
    cfg = {
        "version": 1,
        "process": {"kind": "iid", "dist": family},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}],
        "sample_sizes": [20],
        "delta": 1.0,
        "trials": 16,
        "master_seed": 7,
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "curve", "--config", str(path), "--out", str(out),
                           "--workers", "1")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: infinite ES") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["hist", "corrupt-demo"])
def test_histograms_of_an_infinite_es_law(tmp_path, capsys, command):
    # a histogram needs no truth, so a law whose ES is infinite still has one
    cfg = {
        "version": 1,
        "process": {"kind": "iid", "dist": {"family": "pareto",
                                            "params": {"x0": 1.0, "lam": 0.9}}},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}, {"kind": "truncated", "m": 25}],
        "sample_sizes": [500],
        "delta": 1.0,
        "trials": 20,
        "master_seed": 7,
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, command, "--config", str(path), "--out", str(out),
                           "--workers", "1", "--bins", "5")
    assert code == 0 and err == ""
    phases = [""] if command == "hist" else ["_clean", "_corrupted"]
    written = {f"hist_{tag}{phase}.csv" for tag in ("0_plugin", "1_truncated") for phase in phases}
    assert {p.name for p in out.iterdir()} == written | {"run_meta.json"}


# --- hist and corrupt-demo ----------------------------------------------------------


def test_hist_command(tmp_path, capsys, trivial_config):
    config, _ = trivial_config
    out = tmp_path / "h"
    code, _, _ = run_cli(capsys, "hist", "--config", str(config), "--out", str(out),
                         "--workers", "1", "--bins", "4", "--svg")
    assert code == 0
    lines = (out / "hist_0_plugin.csv").read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 250
    assert (out / "hist_0_plugin.svg").exists()


def test_corrupt_demo_k_zero_identical(tmp_path, capsys, trivial_config):
    config, cfg = trivial_config
    cfg = dict(cfg, corruption={"kind": "max_shift_gaussian", "k": 0, "mu": 5.0,
                                "sigma": 250.0})
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "demo"
    code, _, _ = run_cli(capsys, "corrupt-demo", "--config", str(path), "--out", str(out),
                         "--workers", "1")
    assert code == 0
    for tag in ("0_plugin", "1_truncated"):
        clean = (out / f"hist_{tag}_clean.csv").read_bytes()
        dirty = (out / f"hist_{tag}_corrupted.csv").read_bytes()
        assert clean == dirty


def test_corrupt_demo_distorts_plugin(tmp_path, capsys):
    cfg = {
        "version": 1,
        "process": {"kind": "iid",
                    "dist": {"family": "pareto", "params": {"x0": 1.0, "lam": 2.2}}},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}],
        "sample_sizes": [500],
        "delta": 1.0,
        "trials": 400,
        "master_seed": 3,
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "demo"
    code, printed, _ = run_cli(capsys, "corrupt-demo", "--config", str(path),
                               "--out", str(out), "--workers", "1")
    assert code == 0
    assert "max_shift_gaussian" in printed
    clean = (out / "hist_0_plugin_clean.csv").read_text()
    dirty = (out / "hist_0_plugin_corrupted.csv").read_text()
    top_clean = float(clean.splitlines()[-1].split(",")[1])
    top_dirty = float(dirty.splitlines()[-1].split(",")[1])
    assert top_dirty > top_clean  # shocks of scale 250 push the plug-in far right


@pytest.mark.parametrize("family", [
    {"family": "student_t", "params": {"nu": 2.5}},
    {"family": "pareto", "params": {"x0": 1.0, "lam": 2.2}},
    {"family": "pareto", "params": {"x0": 1e308, "lam": 2.2}},  # the draws overflow too
])
def test_corrupt_demo_non_finite_estimates_is_one_line_error(tmp_path, capsys, family):
    cfg = {
        "version": 1,
        "process": {"kind": "iid", "dist": family},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}],
        "sample_sizes": [500],
        "delta": 1.0,
        "trials": 40,
        "master_seed": 3,
        "corruption": {"kind": "max_shift_gaussian", "k": 3, "mu": 0.0, "sigma": 1e308},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    for command in ("hist", "corrupt-demo"):  # hist applies the config's corruption too
        code, _, err = run_cli(capsys, command, "--config", str(path),
                               "--out", str(tmp_path / "demo"), "--workers", "1")
        assert code == 2  # the shocks overflow to inf, and so do the plug-ins
        assert len(err.splitlines()) == 1
        assert err.startswith("error: estimates: ") and "not finite" in err


@pytest.mark.parametrize("command", ["hist", "corrupt-demo"])
def test_histogram_command_that_fails_writes_nothing(tmp_path, capsys, command):
    # the median of ten blocks stays finite under three infinite shocks; the plug-in does not
    cfg = {
        "version": 1,
        "process": {"kind": "iid", "dist": {"family": "student_t", "params": {"nu": 2.5}}},
        "alpha": 0.1,
        "estimators": [{"kind": "median_of_blocks", "m": 50}, {"kind": "plugin"}],
        "sample_sizes": [500],
        "delta": 1.0,
        "trials": 200,
        "master_seed": 3,
        "corruption": {"kind": "max_shift_gaussian", "k": 3, "mu": 0.0, "sigma": 1e308},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code, _, err = run_cli(capsys, command, "--config", str(path), "--out", str(out),
                           "--workers", "1")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: estimates: ")
    assert "estimator plugin" in err and "median_of_blocks" not in err
    assert ("plugin (corrupted)" in err) == (command == "corrupt-demo")
    assert not out.exists()


@pytest.mark.parametrize("command, out", [
    ("curve", "taken"),
    ("curve", "taken/out"),
    ("hist", "taken"),
    ("corrupt-demo", "taken"),
    ("mixing", "taken"),
    ("table1", "taken/t.csv"),
])
def test_out_that_names_a_file_is_one_line_error(tmp_path, capsys, trivial_config, command, out):
    _, cfg = trivial_config
    path = tmp_path / "config.json"
    if command == "mixing":
        cfg = dict(cfg, process={"kind": "ar1", "rho": 0.5}, oracle={"block_size": 100, "blocks": 100})
    path.write_text(json.dumps(cfg))
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    flags = ["--alphas", "0.1"] if command == "table1" else ["--config", str(path), "--workers", "1"]
    code, stdout, err = run_cli(capsys, command, "--out", str(tmp_path / out), *flags)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot write {tmp_path / out}: ")
    assert "wrote" not in stdout
    assert taken.read_text() == "keep\n"


def _bench_config(tmp_path, **overrides) -> Path:
    """A 200-trial copy of configs/pareto22_bench.json with ``overrides``."""
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "pareto22_bench.json").read_text())
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(dict(cfg, trials=200, **overrides)))
    return path


@pytest.mark.parametrize("overrides", [
    # shocks that overflow to +inf in every point: every estimate is inf
    pytest.param({"sample_sizes": [1250], "corruption": {"kind": "max_shift_gaussian", "k": 1250,
                                                         "mu": 0.0, "sigma": 1e308}},
                 id="every_point"),
    # alpha = 0.3 at N = 90 gives the boundary point weight 0, next to +inf shocks
    pytest.param({"alpha": 0.3, "sample_sizes": [90], "estimators": [{"kind": "plugin"}],
                  "corruption": {"kind": "max_shift_gaussian", "k": 90, "mu": 1.7e308,
                                 "sigma": 1e308}}, id="zero_weight"),
])
def test_overflow_curve_raises_no_runtime_warning(tmp_path, capsys, overrides):
    path = _bench_config(tmp_path, **overrides)
    out = tmp_path / "curve"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, "curve", "--config", str(path), "--out", str(out),
                               "--workers", "1")
    assert code == 0 and err == ""
    rows = {csv.read_text().splitlines()[1] for csv in out.glob("curve_*.csv")}
    assert rows == {f"{overrides['sample_sizes'][0]},1,0,200"}  # every trial misses the truth


@pytest.mark.parametrize("workers", ["1", "2"])
def test_beta_range_warning_printed_once(tmp_path, capfd, workers):
    # printed from a fresh process: the test runner records warnings instead of printing them;
    # the median of blocks has one block at the smallest N, 1250
    estimators = [{"kind": "plugin"}, {"kind": "truncated", "m": 250, "beta1": 0.2, "beta2": 0.6},
                  {"kind": "median_of_blocks", "m": 1250}]
    path = _bench_config(tmp_path, estimators=estimators)
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["curve", "--config", str(path), "--out", str(tmp_path / "curve"), "--workers", workers]
    subprocess.run([sys.executable, "-m", "shortfall.cli", *argv], env=env, check=True,
                   timeout=300)
    err = capfd.readouterr().err
    assert err.count("guaranteed range") == 1
    assert err.count("one complete block") == 1


# --- mixing -----------------------------------------------------------------------


def test_mixing_command(tmp_path, capsys):
    cfg = {
        "version": 1,
        "process": {"kind": "ar1", "rho": 0.5},
        "alpha": 0.1,
        "estimators": [{"kind": "truncated", "m": 50, "gap": 50}],
        "sample_sizes": [400, 800],
        "delta": 0.5,
        "trials": 60,
        "master_seed": 4,
        "oracle": {"block_size": 2000, "blocks": 100},
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "mix"
    code, _, _ = run_cli(capsys, "mixing", "--config", str(path), "--out", str(out),
                         "--workers", "1")
    assert code == 0
    summary = (out / "mixing_summary.csv").read_text().splitlines()
    assert summary[0] == "estimator,N,median_abs_error,p_hat,stderr,count"
    assert len(summary) == 3
    sigma_lines = (out / "longrun_sigma.csv").read_text().splitlines()
    assert sigma_lines[0] == "process,block_size,blocks,sigma2"
    values = {l.split(",")[0]: float(l.split(",")[3]) for l in sigma_lines[1:]}
    assert values["ar1"] > values["iid_normal"]


def test_shipped_configs_build(tmp_path, capsys):
    configs = sorted(Path(__file__).resolve().parents[1].joinpath("configs").glob("*.json"))
    assert configs
    for path in configs:
        cfg, spec = cli._load_config(str(path))
        assert list(spec.sample_sizes) == cfg["sample_sizes"]
    mixing = json.loads(configs[0].with_name("mixing.json").read_text())
    assert cli._oracle_size(mixing) == (mixing["oracle"]["block_size"], mixing["oracle"]["blocks"])
    # each runs end to end through its command at 20 trials, and pareto22_bench through hist
    runs = [(path, {"corrupt_demo": "corrupt-demo", "mixing": "mixing"}.get(path.stem, "curve"))
            for path in configs] + [(configs[0].with_name("pareto22_bench.json"), "hist")]
    for path, command in runs:
        cfg = dict(json.loads(path.read_text()), trials=20)
        if command == "mixing":
            cfg["oracle"] = {"block_size": 1000, "blocks": 100}
        small, out = tmp_path / "small.json", tmp_path / f"{command}_{path.stem}"
        small.write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, command, "--config", str(small), "--out", str(out),
                             "--workers", "1", "--svg")
        tags = [f"{i}_{est['kind']}" for i, est in enumerate(cfg["estimators"])]
        phases = {"hist": [""], "corrupt-demo": ["_clean", "_corrupted"]}.get(command)
        written = ({f"hist_{t}{p}.{ext}" for t in tags for p in phases for ext in ("csv", "svg")}
                   if phases else {f"curve_{t}.csv" for t in tags} | {"curve.svg"})
        if command == "mixing":
            written |= {"mixing_summary.csv", "longrun_sigma.csv"}
        assert code == 0 and {p.name for p in out.iterdir()} == written | {"run_meta.json"}


def test_mixing_requires_ar1(tmp_path, capsys, trivial_config):
    config, _ = trivial_config
    code, _, err = run_cli(capsys, "mixing", "--config", str(config),
                           "--out", str(tmp_path / "m"))
    assert code == 2
    assert "ar1" in err


# --- report helpers ----------------------------------------------------------------


def test_format_number():
    assert report.format_number(float("inf")) == "inf"
    assert report.format_number(3.0) == "3"
    assert report.format_number(0.013637) == "0.013637"


def test_curve_svg_draws_nonzero_points():
    curve = DeviationCurve(1.0, 100, (CurvePoint(10, 0.25, 0.04, 25, 0.5),
                                      CurvePoint(20, 0.0, 0.0, 0, 0.1),
                                      CurvePoint(40, 0.01, 0.01, 1, 0.05)))
    svg = report.curve_svg([("plugin", curve)])
    assert svg.count("<polyline") == 1 and svg.count("<circle") == 2  # p_hat = 0 has no log
    assert ">plugin</text>" in svg


def test_csv_writers_shapes():
    curve = DeviationCurve(1.0, 100, (CurvePoint(10, 0.25, 0.04330127018922193, 25, 0.5),))
    text = report.curve_to_csv(curve)
    assert text.splitlines()[1] == "10,0.25,0.04330127018922193,25"
    hist = HistogramResult(np.array([0.0, 1.0, 2.0]), np.array([3, 4]), 0.0, 2.0, 7)
    assert report.histogram_to_csv(hist).splitlines()[2] == "1,2,4"
