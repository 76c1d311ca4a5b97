import os
import subprocess
import sys
from pathlib import Path

import shortfall


def test_import_loads_no_heavy_scipy_modules():
    # scipy.signal alone pulls in stats, integrate, optimize, sparse and more
    paths = [str(Path(shortfall.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys, shortfall; "
            "print(*(m for m in ('scipy.integrate', 'scipy.signal', 'scipy.stats') "
            "if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120).stdout.split()
    assert loaded == []
