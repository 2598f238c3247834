"""confdec benchmark: Monte Carlo time-to-accuracy and CLI latency.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-gate --seed 1 --seconds 30 --trace 0

One process and one thread generate the load; confdec is imported from the
checkout's ``src`` directory and driven in-process.  With ``--trace 0`` the
run prints the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it records spans around every call into confdec, adds a round of layer
probes per pass, and prints the per-layer metrics instead.  The last line
of standard output is the JSON result; details (timing tails, machine
facts, failures) go to ``.bench_out/`` and the lines before it.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import NullTracer, Tracer

WORKLOADS = ("mc-gate", "mc-short", "cli-pipeline")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _read(path: str):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_facts() -> dict:
    """Cores, CPU model, cache sizes, library versions and BLAS thread settings."""
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


def timing_summary(values) -> dict:
    """Median, the highest whole percentile with >= 10 samples above it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        pct = math.floor(100.0 * (n - 10) / n)
        out[f"p{pct}"] = ordered[max(math.ceil(pct / 100.0 * n) - 1, 0)]
    return out


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def import_workloads(src: Path):
    """Import confdec from ``src`` and the workloads module that drives it."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    confdec = importlib.import_module("confdec")
    if src.resolve() not in Path(confdec.__file__).resolve().parents:
        raise ImportError(f"confdec imported from {confdec.__file__}, not {src}")
    return importlib.import_module("workloads")


def _build(wl, name: str, seed: int, sizes, workdir: Path):
    """The workload, plus the companion a traced run also probes."""
    pipeline = wl.CliPipeline(seed, sizes, workdir / "pipeline")
    cli_mc = wl.McWorkload("cli-mc", wl.CLI_MC_DX, wl.CLI_MC_T,
                           sizes.cli_mc_samples, (wl.CLI_MC_SEED,))
    if name == "cli-pipeline":
        return pipeline, cli_mc
    dx, t_list = wl.MC_WORKLOADS[name]
    k = sizes.mc_subseeds
    mc = wl.McWorkload(name, dx, t_list, sizes.mc_samples,
                       tuple(seed * k + i for i in range(k)))
    return mc, pipeline


class Tally:
    def __init__(self):
        self.attempted, self.failures = 0, []

    def add(self, result):
        wall, attempted, failures = result
        self.attempted += attempted
        self.failures += failures
        for message in failures:
            print(f"FAILED {message}", file=sys.stderr)
        return wall


def _traced_rounds(tracer, primary, companion, probe, deadline: float, tally):
    """Rounds of: an untraced pass, the same pass traced, the companion's
    pass and the layer probes, until ``deadline``; returns the pass walls."""
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(tally.add(primary.run_pass()))
        tracer.new_request()
        with tracer.span("bench.pass", workload=primary.name):
            traced.append(tally.add(primary.run_pass(tracer)))
        tracer.new_request()
        with tracer.span("bench.pass", workload=companion.name):
            tally.add(companion.run_pass(tracer))
        tracer.new_request()
        with tracer.span("bench.probes"):
            probe()
    return untraced, traced


def main(argv=None, sizes=None, root=None) -> int:
    args = _parse(argv)
    root = Path(root) if root else Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "confdec" / "__init__.py").is_file():
        print(f"bench: no confdec sources under {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    t0 = time.perf_counter()
    with tracer.span("setup.import"):
        wl = import_workloads(src)
    import_s = time.perf_counter() - t0
    sizes = sizes or wl.FULL
    out = Path.cwd() / ".bench_out"
    workdir = out / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    primary, companion = _build(wl, args.workload, args.seed, sizes, workdir)
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.span("setup.inputs"):
            primary.setup()
        tally.add(primary.warm_up())
        setups.append(time.perf_counter() - t0)
    mc, pipe = ((primary, companion) if isinstance(primary, wl.McWorkload)
                else (companion, primary))

    if args.trace:
        companion.setup()
    start = time.perf_counter()
    if args.trace:
        untraced, traced = _traced_rounds(
            tracer, primary, companion,
            lambda: wl.run_probes(tracer, mc, pipe, sizes, workdir),
            start + args.seconds, tally)
    else:
        while (primary.passes < primary.min_passes
               or time.perf_counter() - start < args.seconds):
            tally.add(primary.run_pass())

    failed = len(tally.failures)
    if args.trace:
        metrics = wl.layer_metrics(tracer, mc, pipe, sizes)
        metrics["bench.trace_overhead_frac"] = (statistics.median(traced)
                                                / statistics.median(untraced) - 1.0)
        metrics["bench.ops_failed_frac"] = failed / tally.attempted
        section = "per_layer"
        timings = {"traced_pass_s": traced, "untraced_pass_s": untraced}
    else:
        metrics = primary.end_to_end()
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0)
        section = "end_to_end"
        timings = primary.timings()
    timings["setup_s"] = [import_s + s for s in setups]

    spec = json.loads((root / "BENCHMARK.json").read_text())
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in spec[section]}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "sizes": vars(sizes), "machine": machine_facts(),
               "timings": {k: {**timing_summary(v), "values": v}
                           for k, v in timings.items() if v},
               "failures": tally.failures, "result": result}
    (out / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.dump(out / f"spans-{tag}.json")
    shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine {json.dumps(details['machine'])}")
    for key, values in timings.items():
        if values:
            print(f"timing {key} {json.dumps(timing_summary(values))}")
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
