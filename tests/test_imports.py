import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import shortfall


def _fresh(code: str, tag: str) -> list[str]:
    """The words after the last ``tag`` that ``code`` prints in a fresh interpreter."""
    paths = [str(Path(shortfall.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return out.rsplit(tag, 1)[1].split()


def _loaded_after(code: str, *modules: str) -> list[str]:
    """The ``modules`` that a fresh interpreter holds after running ``code``."""
    code += f"\nimport sys\nprint('loaded:', *(m for m in {modules!r} if m in sys.modules))"
    return _fresh(code, "loaded:")


def test_import_loads_no_heavy_scipy_modules():
    # scipy.signal alone pulls in stats, integrate, optimize, sparse and more; the
    # special functions are loaded on first use
    assert _loaded_after("import shortfall, shortfall.cli", "scipy.integrate", "scipy.signal",
                         "scipy.stats", "scipy.special._ufuncs") == []


def test_closed_form_runs_never_load_special_functions(tmp_path):
    config = tmp_path / "pareto.json"
    config.write_text(json.dumps({
        "version": 1,
        "process": {"kind": "iid", "dist": {"family": "pareto", "params": {"x0": 1.0, "lam": 2.2}}},
        "alpha": 0.1, "estimators": [{"kind": "plugin"}, {"kind": "truncated", "m": 25}],
        "sample_sizes": [500, 1000], "delta": 0.5, "trials": 40, "master_seed": 7,
    }))
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{i}\n" for i in range(1, 3251)))
    code = (f"from shortfall import cli\n"
            f"assert cli.main(['curve', '--config', {str(config)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}, '--workers', '1']) == 0\n"
            f"assert cli.main(['estimate', {str(data)!r}, '--alpha', '0.1', '--kind', 'truncated']) == 0")
    assert _loaded_after(code, "scipy.special._ufuncs") == []


def test_ground_truth_never_loads_scipy_linalg(tmp_path):
    # numpy gives the Gauss-Legendre rules; scipy's roots_legendre would import scipy.linalg
    code = (f"from shortfall import cli, dist, functionals as fn\n"
            f"assert cli.main(['table1', '--alphas', '0.1', '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
            f"fn.es_by_quadrature(dist.StudentT(2.5), 0.1)\n"
            f"fn.es_by_distortion(dist.StudentT(2.5), 0.1)")
    assert _loaded_after(code, "scipy.linalg") == []


def test_a_spec_loads_what_its_process_needs_before_any_pool_forks():
    # the parent draws trial 0, so workers inherit the module instead of each importing it
    spec = ("from shortfall import dist, estim, mc\n"
            "mc.ExperimentSpec({}, (estim.EstimatorConfig('plugin'),), 0.1, (100,), 0.5, 10, 1)")
    assert _loaded_after(spec.format("dist.IID(dist.StudentT(2.5))"),
                         "scipy.special._ufuncs") == ["scipy.special._ufuncs"]
    assert _loaded_after(spec.format("dist.AR1(0.5)"), "scipy.signal") == ["scipy.signal"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
def test_sub_batches_reuse_their_pages_without_special_functions():
    # nothing here loads scipy.special, so the engine alone must keep glibc from
    # returning a sub-batch's pages to the OS (see mc._SUB_BATCH_ELEMENTS)
    code = ("import resource\n"
            "from shortfall import dist, estim, mc\n"
            "ests = (estim.EstimatorConfig('plugin'), estim.EstimatorConfig('truncated', m=250))\n"
            "spec = mc.ExperimentSpec(dist.IID(dist.Pareto(1.0, 2.2)), ests, 0.1, (3250,), 1.0, 1000, 1)\n"
            "mc._run_batch(spec, 3250, 10, 0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for start in range(0, 1000, 10):\n"
            "    mc._run_batch(spec, 3250, 10, start)\n"
            "print('faults:', resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    faults = int(_fresh(code, "faults:")[0])
    assert faults < 100  # under one page per sub-batch of 10 rows
