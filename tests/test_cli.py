import json

import numpy as np
import pytest

from shortfall import cli, report
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
        "truth": 3.0,
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
    for bad in ("0.6", "abc"):
        code, _, err = run_cli(capsys, "table1", "--alphas", bad,
                               "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "alpha" in err
        assert len(err.splitlines()) == 1 and err.startswith("error:")


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
    bad.write_text(json.dumps({"version": 2}))
    code, _, err = run_cli(capsys, "curve", "--config", str(bad),
                           "--out", str(tmp_path / "o"))
    assert code == 2 and "version" in err
    bad.write_text(json.dumps({"version": 1, "alpha": 0.1}))
    code, _, err = run_cli(capsys, "curve", "--config", str(bad),
                           "--out", str(tmp_path / "o"))
    assert code == 2 and "missing field" in err
    _, cfg = trivial_config
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
    assert not (out / "run_meta.json").exists()


def test_curve_bad_workers_env(tmp_path, capsys, monkeypatch, trivial_config):
    config, _ = trivial_config
    monkeypatch.setenv("SHORTFALL_WORKERS", "abc")
    code, _, err = run_cli(capsys, "curve", "--config", str(config),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: SHORTFALL_WORKERS") and "Traceback" not in err


def test_curve_infinite_truth_is_one_line_error(tmp_path, capsys):
    cfg = {
        "version": 1,
        "process": {"kind": "iid", "dist": {"family": "pareto",
                                            "params": {"x0": 1.0, "lam": 0.9}}},
        "alpha": 0.1,
        "estimators": [{"kind": "plugin"}],
        "sample_sizes": [20],
        "delta": 1.0,
        "trials": 16,
        "master_seed": 7,
    }
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "curve", "--config", str(path),
                           "--out", str(tmp_path / "o"), "--workers", "1")
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: infinite ES") and "Traceback" not in err


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


def test_csv_writers_shapes():
    curve = DeviationCurve(1.0, 100, (CurvePoint(10, 0.25, 0.04330127018922193, 25, 0.5),))
    text = report.curve_to_csv(curve)
    assert text.splitlines()[1] == "10,0.25,0.04330127018922193,25"
    hist = HistogramResult(np.array([0.0, 1.0, 2.0]), np.array([3, 4]), 0.0, 2.0, 7)
    assert report.histogram_to_csv(hist).splitlines()[2] == "1,2,4"
