"""confdec runs on numpy alone: importing it loads no scipy, and every
quadrature and subcommand runs in an interpreter where ``import scipy`` fails."""
import os
import subprocess
import sys
from pathlib import Path

import confdec
from confdec import cli
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


# one tiny run of each subcommand, each of which must exit 0
PIPELINE = [["field", "--n-steps", "4096"],
            ["mc", "--dx", "1", "--t-list", "16,24,32,40", "--n-samples", "100"],
            ["kernel"], ["evolve", "--input", "rho.json"], ["bound"]]


def test_pipeline_runs_without_scipy(tmp_path):
    assert sorted(argv[0] for argv in PIPELINE) == sorted(cli.COMMANDS)
    out = run_fresh(
        "import os, sys\n"
        "sys.modules['scipy'] = None   # any import of scipy now raises ImportError\n"
        "import numpy as np\n"
        "from confdec import cli, io\n"
        "from confdec.bounds import integrated_zero_point_density\n"
        "from confdec.field import CorrelationModel\n"
        "from confdec.master import general_kernel, superposed_gaussians\n"
        "print(repr(general_kernel(CorrelationModel.gaussian(1.0), 5.0, 100.0, 1.0, 0.1)))\n"
        "print(repr(integrated_zero_point_density(1e43)))\n"
        f"os.chdir({str(tmp_path)!r})\n"
        "io.density_matrix_to_json(superposed_gaussians(np.linspace(-8.0, 8.0, 41),\n"
        "                                               sigma=1.0, separation=4.0), 'rho.json')\n"
        f"for argv in {PIPELINE!r}:\n"
        "    assert cli.main(argv + ['--out', argv[0]]) == 0, argv[0]\n")
    kernel, density = out.split()
    assert float(kernel) == general_kernel(CorrelationModel.gaussian(1.0), 5.0, 100.0, 1.0, 0.1)
    assert float(density) == integrated_zero_point_density(1e43)
    for argv in PIPELINE:
        assert (tmp_path / argv[0] / "manifest.json").is_file(), argv[0]
