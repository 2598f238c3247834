"""Importing confdec loads no scipy; only the zero-point quadrature loads it, on first use."""
import os
import subprocess
import sys
from pathlib import Path

import confdec
from confdec.bounds import integrated_zero_point_density
from confdec.field import CorrelationModel
from confdec.master import general_kernel

SRC = str(Path(confdec.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports confdec from this tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    out = run_fresh(f"import sys, confdec, confdec.cli; print({SCIPY_MODULES})")
    assert out.strip() == "[]"


def test_quadratures_import_scipy_on_demand():
    out = run_fresh(
        "import sys\n"
        "from confdec.bounds import integrated_zero_point_density\n"
        "from confdec.field import CorrelationModel\n"
        "from confdec.master import general_kernel\n"
        f"assert {SCIPY_MODULES} == []\n"
        "print(repr(general_kernel(CorrelationModel.gaussian(1.0), 5.0, 100.0, 1.0, 0.1)))\n"
        f"assert {SCIPY_MODULES} == []\n"
        "print(repr(integrated_zero_point_density(1e43)))\n"
        "print('scipy.integrate' in sys.modules)\n")
    kernel, density, loaded = out.split()
    assert float(kernel) == general_kernel(CorrelationModel.gaussian(1.0), 5.0, 100.0, 1.0, 0.1)
    assert float(density) == integrated_zero_point_density(1e43)
    assert loaded == "True"
