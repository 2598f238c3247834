#!/usr/bin/env python3
"""Print SHA-256 digests of every confdec output on small fixed inputs.

Runs each CLI subcommand once (``mc`` also on a noise-dominated input that
exits 3, and ``evolve --kinetic-mass`` on an odd and an even grid), replays
it from its manifest.json, runs a ``kernel`` input that is refused (exit 2)
and counts the files it left, and digests the Monte Carlo coherence records
and their covariance across T of 300-draw runs at dx = 5 and dx = 0.25 from
x = 0, and at positions (-3, 2), whose windows shift on both sides of x = 0.
It also digests one ``sample_field`` draw under the key ``(7, 1)`` and the
phases of 300 ``sample_phases`` draws, both streams, under the Monte Carlo
keys ``(seed, j)``, so that a change to the key layout shows.  Two
checkouts that print the same lines produce the same bytes; diff the output
of the two to check that a change leaves results unchanged.  Runs in a
temporary directory and takes a few seconds.  Standard error names the
Monte Carlo scoring threads and whether BLAS ran on one thread in each,
which can explain a digest that differs between hosts.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from confdec import io as cio
from confdec.cli import main as cli_main
from confdec.field import CorrelationModel, FieldGrid, sample_field
from confdec.master import superposed_gaussians
from confdec.montecarlo import (McParams, _blas_thread_setter, _one_blas_thread,
                                coherence_mc, sample_phases)

# (name, argv); input paths are relative to the working directory so that
# every manifest, and so every digest, is the same wherever the script runs
RUNS = [
    ("field", ["field", "--n-steps", "1000"]),
    ("mc", ["mc", "--n-samples", "100"]),
    ("mc-noise", ["mc", "--mass", "13", "--dx", "5", "--t-list", "100,125,150,200",
                  "--n-samples", "100", "--seed", "9"]),
    ("kernel", ["kernel", "--dx-list", "0,1,5", "--compare-t", "100"]),
    ("kernel-tabulated", ["kernel", "--dx-list", "0,1,5", "--compare-t", "100",
                          "--g1-table", "g1.csv"]),
    ("evolve", ["evolve", "--input", "rho.json"]),
    ("evolve-kinetic", ["evolve", "--input", "rho.csv", "--kinetic-mass", "1",
                        "--dt", "0.05", "--n-steps", "4"]),
    # an even grid: its half spectrum has a Nyquist column
    ("evolve-kinetic-even", ["evolve", "--input", "rho-even.csv", "--kinetic-mass", "1",
                             "--dt", "0.05", "--n-steps", "4"]),
    ("bound", ["bound", "--sweep-mass", "50,100", "--sweep-time", "0.1,1"]),
]

# (name, argv) of runs refused after some of their work, which must write nothing
REFUSED_RUNS = [
    ("kernel-refused", ["kernel", "--dx-list", "1e200", "--compare-t", "100"]),
]

# (label, positions, T list) of the coherence_mc runs, 300 draws each at seed 901
MC_RUNS = [("dx=5", (0.0, 5.0), (100.0, 400.0)), ("dx=0.25", (0.0, 0.25), (25.0, 100.0)),
           ("x=(-3,2)", (-3.0, 2.0), (100.0, 200.0))]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv):
    """``confdec`` on ``argv``: exit code and stderr (stdout is discarded)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def write_inputs():
    rho = superposed_gaussians(np.linspace(-8.0, 8.0, 33), sigma=1.0, separation=4.0)
    cio.density_matrix_to_json(rho, "rho.json")
    cio.density_matrix_to_csv(rho, "rho.csv")
    even = superposed_gaussians(np.linspace(-8.0, 8.0, 32), sigma=1.0, separation=4.0)
    cio.density_matrix_to_csv(even, "rho-even.csv")
    lags = np.arange(121) * 0.05
    Path("g1.csv").write_text("".join(f"{lag:.17g},{np.exp(-lag * lag):.17g}\n"
                                      for lag in lags))


def cli_lines():
    for name, argv in RUNS:
        run, replay = Path(name), Path(name + "-replay")
        code, err = run_cli(argv + ["--out", str(run)])
        yield f"{name} exit {code} stderr {sha256(err.encode())}"
        for path in sorted(run.iterdir()):
            yield f"{name}/{path.name} {sha256(path.read_bytes())}"
        run_cli([argv[0], "--config", str(run / "manifest.json"), "--out", str(replay)])
        same = sorted(p.name for p in run.iterdir()
                      if (replay / p.name).is_file()
                      and (replay / p.name).read_bytes() == p.read_bytes())
        yield f"{name} replay identical {len(same)}/{len(list(run.iterdir()))}"


def refused_lines():
    for name, argv in REFUSED_RUNS:
        code, _err = run_cli(argv + ["--out", name])
        files = list(Path(name).iterdir()) if Path(name).is_dir() else []
        yield f"{name} exit {code} files {len(files)}"


def mc_lines():
    for label, positions, t_list in MC_RUNS:
        params = McParams(a0=0.1, mass=1.0, tau=1.0, positions=positions,
                          t_list=t_list, n_samples=300, seed=901)
        est = coherence_mc(params)
        records = np.array([(r.t, r.mean.real, r.mean.imag, r.stderr, r.n_samples)
                            for r in est.records])
        yield f"coherence_mc {label} {sha256(records.tobytes() + est.covariance.tobytes())}"


def draw_lines():
    r = sample_field(CorrelationModel.gaussian(1.0), FieldGrid(dt=0.125, n_steps=200), (7, 1))
    yield f"sample_field seed=(7,1) {sha256(np.stack([r.xi_plus, r.xi_minus]).tobytes())}"
    params = McParams(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, 1.0),
                      t_list=(16.0,), n_samples=300, seed=901)
    yield f"sample_phases dx=1 T=16 {sha256(np.stack(sample_phases(params, 16.0)).tobytes())}"


def main():
    with _one_blas_thread() as threads:     # the count the Monte Carlo blocks run on
        pinned = "yes" if _blas_thread_setter() else "no"
    print(f"Monte Carlo scoring threads: {threads}; "
          f"BLAS pinned to one thread in each: {pinned}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs()
        for line in (*cli_lines(), *refused_lines(), *mc_lines(), *draw_lines()):
            print(line)


if __name__ == "__main__":
    main()
