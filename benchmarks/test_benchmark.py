"""Tests of the benchmark itself, built on its smoke mode.

    python3 -m pytest benchmarks/test_benchmark.py -q

They are not part of the package's suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["command"][1:] == ["benchmarks/run.py"] and BENCH["paths"] == ["benchmarks"]


def test_smoke_prints_every_metric_and_passes_every_check():
    done = _bench("--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for wl in BENCH["workloads"]:
        for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
            for m in BENCH[kind]:
                assert result["metrics"][f"{wl['name']}/trace{trace}/{m['name']}"]["unit"] == m["unit"]
                line_start = f"[{wl['name']} seed=1 trace={trace}] {m['name']} = "
                assert any(line.startswith(line_start) and line.endswith(f" {m['unit']}")
                           for line in done.stdout.splitlines())


def test_single_workload_result_line_has_exactly_the_contract_keys():
    done = _bench("--workload", "scalar_estimate", "--seed", "7", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "pareto_curve", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_reference_plugin_on_a_hand_computed_sample():
    # top 20% of 1..10 is {9, 10}
    assert checks.ref_plugin(np.arange(1.0, 11.0), 0.2) == pytest.approx(9.5, rel=1e-15)


@pytest.mark.parametrize("workload,layer,attr", [
    ("scalar_estimate", "estim", "plugin_es"),
    ("pareto_curve", "rng", "uniform_matrix"),
])
def test_a_perturbed_layer_is_counted_as_failed_ops(monkeypatch, workload, layer, attr):
    sf = run.import_package()
    original = getattr(getattr(sf, layer), attr)

    def perturbed(*args, **kwargs):
        return original(*args, **kwargs) * (1.0 + 1e-9)

    monkeypatch.setattr(getattr(sf, layer), attr, perturbed)
    record = run.run_workload(sf, workload, 3, 0.0, True, True)
    assert not record["correct"]
    assert 0 < record["failed"] <= record["attempted"]

