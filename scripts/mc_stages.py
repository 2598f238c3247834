#!/usr/bin/env python3
"""Time the stages of ``coherence_mc`` per draw, on one thread, as JSON.

On the grids of the benchmark's ``mc-gate`` (dx = 5) and ``mc-short``
(dx = 0.25) workloads, both at T = 4 flight times, a0 = 0.1, M = 1 and
tau = 1, it times in microseconds per draw:

- ``draws_us``: the keyed minus-stream draws of the longest T, normals and
  inverse FFT, in blocks of ``_BLOCK`` draws;
- ``score_us``: each T's scorer on those blocks' prefixes, by T;
- ``setup_us``: each T's scorer built (the embedding spectra warm), by T,
  divided by the draws it serves.

The reduction of the scores to records and the rate fit are left out:
they take about 1.5 us per draw, under 1% of the rest.

Each figure is the median over ``--repeats`` rounds, with BLAS on one
thread, as ``coherence_mc`` scores.  Run from anywhere:

    python scripts/mc_stages.py [--n-samples 500] [--repeats 5] [--seed 1]

The last line of standard output is the JSON object, keyed by workload.
"""
import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from confdec import montecarlo
from confdec.field import _draw_streams, embedding_spectrum
from confdec.montecarlo import McParams

GRIDS = {"mc-gate": (5.0, (100.0, 200.0, 300.0, 400.0)),   # (dx, T list)
         "mc-short": (0.25, (25.0, 50.0, 75.0, 100.0))}


def timed(func):
    """``(seconds, result)`` of one call of ``func``."""
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def stages(params: McParams, repeats: int) -> dict:
    """The median microseconds per draw of each stage, over ``repeats`` rounds."""
    n = params.n_samples
    grids = [montecarlo._mc_grid(params, t) for t in params.t_list]
    L, amp = embedding_spectrum(params.model, grids[-1])
    for grid in grids:          # the embedding spectra warm, as in a running process
        embedding_spectrum(params.model, grid)
    blocks = [[(params.seed, j) for j in range(start, min(start + montecarlo._BLOCK, n))]
              for start in range(0, n, montecarlo._BLOCK)]
    rounds = {"draws_us": [], "score_us": [], "setup_us": []}
    for _ in range(repeats):
        setup, scorers = zip(*(timed(lambda t=t: montecarlo._ConditionalScorer(params, t))
                               for t in params.t_list))
        draw, minus = timed(lambda: [_draw_streams(keys, L, amp, grids[-1].n_steps, (1,))[0]
                                     for keys in blocks])
        score, _z = zip(*(timed(lambda f=f: [f(m) for m in minus]) for f in scorers))
        rounds["draws_us"].append(draw)
        rounds["score_us"].append(score)
        rounds["setup_us"].append(setup)
    per_draw = {name: np.median(np.array(values), axis=0) * 1e6 / n
                for name, values in rounds.items()}
    by_t = {name: {f"{t:g}": float(x) for t, x in zip(params.t_list, per_draw[name])}
            for name in ("score_us", "setup_us")}
    return {"dx": params.delta_x, "t_list": list(params.t_list), "n_samples": n,
            "draws_us": float(per_draw["draws_us"]), **by_t}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-samples", type=int, default=500)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    result = {}
    with montecarlo._one_blas_thread():
        for name, (dx, t_list) in GRIDS.items():
            params = McParams(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, dx),
                              t_list=t_list, n_samples=args.n_samples, seed=args.seed)
            result[name] = stages(params, args.repeats)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
