#!/usr/bin/env python3
"""Fit the decoherence rate at several wavepacket separations.

Produces a CSV of (separation, fitted rate, stderr, predicted rate) and
prints one line per separation.  Defaults are sized to finish in about a
minute; raise --n-samples for tighter error bars.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from confdec.io import write_csv
from confdec.master import grw_params
from confdec.montecarlo import McParams, coherence_mc, fit_decoherence_rate


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a0", type=float, default=0.1)
    ap.add_argument("--tau", type=float, default=1.0)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--dx", type=float, nargs="+",
                    default=[0.25, 0.5, 1.0, 2.0, 5.0])
    ap.add_argument("--t-list", type=float, nargs="+",
                    default=[100.0, 200.0, 300.0, 400.0])
    ap.add_argument("--n-samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="rate_vs_separation.csv")
    args = ap.parse_args()

    gp = grw_params(args.mass, args.a0, args.tau)
    rows = []
    for i, dx in enumerate(args.dx):
        params = McParams(a0=args.a0, mass=args.mass, tau=args.tau,
                          positions=(0.0, dx), t_list=tuple(args.t_list),
                          n_samples=args.n_samples, seed=args.seed + i)
        fit = fit_decoherence_rate(coherence_mc(params))
        predicted = gp.rate(dx)
        rows.append((dx, fit.rate, fit.stderr, predicted))
        print(f"dx = {dx:6.2f}  rate = {fit.rate:.4e} +/- {fit.stderr:.1e}"
              f"  predicted = {predicted:.4e}")

    write_csv(args.out, ["delta_x[1]", "rate[1]", "stderr[1]", "predicted[1]"],
              rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
