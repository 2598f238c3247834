"""The benchmark's workloads, their correctness checks and the layer probes.

Every workload uses a0 = 0.1, M = 1, tau = 1 in natural units.  A workload
object builds its inputs from the seed in ``setup``, runs one pass per
``run_pass`` call and keeps what its end-to-end metrics need.  A pass
returns ``(wall, attempted, failures)``: ``wall`` is the seconds spent in
confdec calls, ``attempted`` counts operations and ``failures`` holds one
message per failed operation.

A traced run also calls ``run_probes``, which times the public functions of
each layer on the same inputs, and reads the per-layer metrics off the
recorded spans.  Spans wrap calls into confdec only; none are placed inside
the package.
"""
from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import confdec.bounds as bounds
import confdec.cli as cli
import confdec.field as field
import confdec.io as cio
import confdec.master as master
import confdec.montecarlo as montecarlo
from confdec.core import SI
from tracer import NullTracer

A0, MASS, TAU = 0.1, 1.0, 1.0
DT = TAU / 8.0
RATE_TOL_STDERR = 5.0
MC_WORKLOADS = {"mc-gate": (5.0, (100.0, 200.0, 300.0, 400.0)),   # (dx, T list)
                "mc-short": (0.25, (25.0, 50.0, 75.0, 100.0))}
# The pipeline's `field` and `mc` steps keep the CLI's default seeds.  Their
# summaries carry 3-sigma statistical checks (about 25 of them for `field`),
# which a seed drawn per run would fail by chance every few runs; a fixed
# seed also keeps the rate factor of rate_time_to_1pct_s fixed on this
# workload, where it measures CLI speed.  Seed-to-seed variation of the
# Monte Carlo is measured on mc-gate and mc-short instead.
FIELD_SEED, CLI_MC_SEED = 42, 1234
CLI_MC_DX, CLI_MC_T = 5.0, (100.0, 200.0, 300.0, 400.0)  # `confdec mc` defaults
SUMMARY_FILE = {"field": "summary.json", "mc": "rate.json",
                "kernel": "summary.json", "evolve": "summary.json",
                "bound": "report.json"}


@dataclass(frozen=True)
class Sizes:
    mc_samples: int = 500       # realizations per T in one MC pass
    mc_subseeds: int = 16       # MC passes cycle through this many seeds
    cli_mc_samples: int = 400   # `confdec mc --n-samples` in the pipeline
    field_steps: int = 32768    # `confdec field` default
    kernel_dx: tuple = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0)  # `confdec kernel` defaults
    kernel_t: tuple = (100.0, 1000.0)
    rho_n: int = 257            # density-matrix grid (prime: slow FFTs)
    kinetic_steps: int = 40
    probe_repeats: int = 10     # repeats of the microsecond-scale probes
    probe_samples: int = 256    # MC samples in the single-T probes


FULL = Sizes()
# Small enough for the benchmark's own tests and the warm-up pass.  The
# field step stays at its default length: its 3-sigma checks use block
# standard errors that need many blocks.
TINY = Sizes(mc_samples=100, mc_subseeds=2, cli_mc_samples=100, kernel_dx=(0.0, 5.0),
             kernel_t=(100.0,), rho_n=17, kinetic_steps=2, probe_repeats=2,
             probe_samples=100)


def predicted_rate(dx: float) -> float:
    """GRW prediction lambda (1 - exp(-2 dx^2 / tau^2)) for the fitted rate."""
    gp = master.grw_params(MASS, A0, TAU)
    return gp.lambda_grw * (1.0 - math.exp(-0.25 * gp.alpha * dx * dx))


def mc_grid(dx: float, t: float) -> field.FieldGrid:
    """The realization grid coherence_mc draws for positions (0, dx) and T."""
    k0 = math.ceil((dx + 2.0 * TAU) / DT - 1e-9)
    return field.FieldGrid(dt=DT, n_steps=2 * k0 + round(t / DT) + 1,
                           t_start=-k0 * DT)


def _records_bytes(records) -> bytes:
    return np.array([(r.t, r.mean.real, r.mean.imag, r.stderr, r.n_samples)
                     for r in records]).tobytes()


class McWorkload:
    """coherence_mc plus fit_decoherence_rate at one separation and T list.

    Pass ``i`` uses seed ``seeds[i % len(seeds)]``, so the rate's standard
    error is averaged over a fixed set of ensembles and does not depend on
    how many passes fit in the run.
    """

    def __init__(self, name: str, dx: float, t_list: tuple, n_samples: int,
                 seeds: tuple):
        self.name, self.dx, self.t_list = name, dx, t_list
        self.n_samples, self.seeds = n_samples, seeds
        self.min_passes = len(seeds) + 1   # every seed once, one repeated
        self.walls = []
        self.reference = {}   # seed -> record bytes of its first pass
        self.fits = {}        # seed -> RateFit
        self.passes = 0

    def setup(self):
        self.params = [montecarlo.McParams(
            a0=A0, mass=MASS, tau=TAU, positions=(0.0, self.dx),
            t_list=self.t_list, n_samples=self.n_samples, seed=s)
            for s in self.seeds]
        self.predicted = predicted_rate(self.dx)

    def warm_up(self) -> tuple:
        twin = McWorkload(self.name, self.dx, self.t_list, 100, self.seeds[:1])
        twin.setup()
        return twin.run_pass()

    def run_pass(self, tracer=None):
        tracer = tracer or NullTracer()
        params = self.params[self.passes % len(self.params)]
        self.passes += 1
        t0 = time.perf_counter()
        try:
            with tracer.span("montecarlo.coherence_mc", n_samples=params.n_samples,
                             n_t=len(params.t_list)) as sp:
                est = montecarlo.coherence_mc(params)
            with tracer.span("montecarlo.fit_decoherence_rate") as fsp:
                fit = montecarlo.fit_decoherence_rate(est)
        except Exception as exc:   # a pass that raises is one failed operation
            return time.perf_counter() - t0, 1, [f"{self.name}: {exc!r}"]
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        failures = []
        for r in est.records:
            if not (math.isfinite(r.mean.real) and math.isfinite(r.mean.imag)
                    and math.isfinite(r.stderr) and abs(r.mean) <= 1.0):
                failures.append(f"{self.name}: T={r.t} mean {r.mean} stderr {r.stderr}")
        pull = ((fit.rate - self.predicted) / fit.stderr if fit.stderr > 0
                else math.inf)
        if not abs(pull) <= RATE_TOL_STDERR:
            failures.append(f"{self.name}: rate {fit.rate:.6e} vs predicted "
                            f"{self.predicted:.6e}, pull {pull:.2f}")
        blob = _records_bytes(est.records)
        if self.reference.setdefault(params.seed, blob) != blob:
            failures.append(f"{self.name}: seed {params.seed} records differ "
                            "from its first pass")
        self.fits.setdefault(params.seed, fit)
        last = max(est.records, key=lambda r: r.t)
        sp["attrs"]["var_along_tmax"] = last.stderr ** 2 * last.n_samples
        fsp["attrs"].update(rate_rel_stderr=fit.stderr / self.predicted,
                            rate_pull=pull)
        return wall, 1, ["; ".join(failures)] if failures else []

    def rate_factor(self) -> float:
        """Mean over the seeds of (rate stderr / predicted rate / 1%)^2."""
        return statistics.fmean((self.fits[s].stderr / self.predicted / 0.01) ** 2
                                for s in self.seeds)

    def end_to_end(self) -> dict:
        wall = statistics.median(self.walls)
        return {"pipeline_s": wall,
                "mc_samples_per_s": self.n_samples * len(self.t_list) / wall,
                "rate_time_to_1pct_s": wall * self.rate_factor()}

    def timings(self) -> dict:
        return {"pass_s": self.walls}


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def failed_checks(checks: dict, prefix: str = "") -> list:
    """Names of the entries of a summary's ``checks`` that are not true."""
    bad = []
    for key, value in checks.items():
        if isinstance(value, dict):
            bad += failed_checks(value, f"{prefix}{key}.")
            if {"recovered_lambda", "target_lambda"} <= value.keys() and not math.isclose(
                    value["recovered_lambda"], value["target_lambda"], rel_tol=1e-9):
                bad.append(prefix + key)
        elif isinstance(value, bool) and not value:
            bad.append(prefix + key)
    return bad


class CliPipeline:
    """Every subcommand through ``confdec.cli.main``, each replayed from its manifest."""

    name = "cli-pipeline"
    min_passes = 2

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, Path(workdir)
        self.walls, self.mc_factor = [], None
        self.step_walls = {}   # (step, role) -> seconds of each successful invocation
        self.reference = {}     # (step, role) -> digests of its first pass
        self.compared = self.identical = self.passes = 0

    def setup(self):
        rng = np.random.default_rng(self.seed)
        inputs = self.workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        n = self.sizes.rho_n

        def state(n_points):
            return master.superposed_gaussians(
                np.linspace(-8.0, 8.0, n_points), sigma=rng.uniform(0.9, 1.1),
                separation=rng.uniform(3.5, 4.5))

        self.rho_pure, self.rho_kinetic, self.rho_even = state(n), state(n), state(n - 1)
        cio.density_matrix_to_json(self.rho_pure, inputs / "rho.json")
        cio.density_matrix_to_csv(self.rho_kinetic, inputs / "rho.csv")
        self.table_lags = np.arange(121) * 0.05
        self.table_values = np.exp(-(self.table_lags / rng.uniform(0.95, 1.05)) ** 2)
        (inputs / "g1.csv").write_text("".join(
            f"{lag:.17g},{v:.17g}\n" for lag, v in zip(self.table_lags, self.table_values)))
        self.sweeps = {"mass": np.round(rng.uniform(50.0, 300.0, 3), 3),
                       "time": np.round(rng.uniform(0.1, 1.0, 3), 3),
                       "loss": np.round(rng.uniform(0.01, 0.1, 3), 4)}
        sweep_args = [a for key, vals in self.sweeps.items()
                      for a in (f"--sweep-{key}", ",".join(map(str, vals)))]
        kernel = ["kernel", "--dx-list", ",".join(map(str, self.sizes.kernel_dx)),
                  "--compare-t", ",".join(map(str, self.sizes.kernel_t))]
        self.steps = [
            ("field", "field", ["field", "--n-steps", str(self.sizes.field_steps),
                                "--seed", str(FIELD_SEED)]),
            ("mc", "mc", ["mc", "--n-samples", str(self.sizes.cli_mc_samples),
                          "--seed", str(CLI_MC_SEED)]),
            ("kernel", "kernel", kernel),
            ("kernel-tabulated", "kernel",
             kernel + ["--g1-table", str((inputs / "g1.csv").resolve())]),
            ("evolve", "evolve", ["evolve", "--input", str((inputs / "rho.json").resolve())]),
            ("evolve-kinetic", "evolve_kinetic",
             ["evolve", "--input", str((inputs / "rho.csv").resolve()),
              "--kinetic-mass", "1", "--dt", "0.05",
              "--n-steps", str(self.sizes.kinetic_steps)]),
            ("bound", "bound", ["bound", *sweep_args]),
        ]

    def warm_up(self) -> tuple:
        twin = CliPipeline(self.seed, TINY, self.workdir / "warm-up")
        twin.setup()
        return twin.run_pass()

    def _invoke(self, tracer, step: str, role: str, argv: list, out: Path):
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        with tracer.span(f"cli.{step}", role=role) as sp:
            code = cli.main(argv + ["--out", str(out)])
        wall = time.perf_counter() - t0
        if out.is_dir():
            sp["attrs"]["bytes"] = sum(p.stat().st_size for p in out.iterdir())
        return code, wall

    def _check(self, step: str, role: str, argv: list, out: Path, code: int):
        """Failure message for one invocation, or None."""
        if code != 0:
            return f"cli {step} {role}: exit code {code}"
        summary = cio.read_json(out / SUMMARY_FILE[argv[0]])
        bad = failed_checks(summary["checks"])
        if bad:
            return f"cli {step} {role}: checks failed: {', '.join(bad)}"
        if argv[0] == "mc":
            results = summary["results"]
            if "rate_stderr" not in results:
                return f"cli {step} {role}: rate.json has no fitted rate"
            if self.mc_factor is None:
                self.mc_factor = (results["rate_stderr"]
                                  / predicted_rate(summary["inputs"]["dx"]) / 0.01) ** 2
        digests = _digests(out)
        if self.reference.setdefault((step, role), digests) != digests:
            return f"cli {step} {role}: outputs differ from the first pass"
        return None

    def run_pass(self, tracer=None):
        tracer = tracer or NullTracer()
        self.passes += 1
        root = self.workdir / "out"
        total, attempted, failures = 0.0, 0, []
        for step, _group, argv in self.steps:
            run_dir, replay_dir = root / step / "run", root / step / "replay"
            for role, args, out in (
                    ("run", argv, run_dir),
                    ("replay", [argv[0], "--config", str(run_dir / "manifest.json")],
                     replay_dir)):
                attempted += 1
                try:
                    code, wall = self._invoke(tracer, step, role, args, out)
                    total += wall
                    problem = self._check(step, role, argv, out, code)
                    if problem is None and role == "replay":
                        problem = self._compare_replay(step, run_dir, replay_dir)
                except Exception as exc:   # one failed operation, keep going
                    problem = f"cli {step} {role}: {exc!r}"
                if problem:
                    failures.append(problem)
                else:
                    self.step_walls.setdefault((step, role), []).append(wall)
        self.walls.append(total)
        return total, attempted, failures

    def _compare_replay(self, step: str, run_dir: Path, replay_dir: Path):
        ran, replayed = _digests(run_dir), _digests(replay_dir)
        names = set(ran) | set(replayed)
        same = sum(ran.get(k) == replayed.get(k) for k in names)
        self.compared += len(names)
        self.identical += same
        if same != len(names):
            return f"cli {step} replay: {len(names) - same} output(s) differ from the run"
        return None

    def end_to_end(self) -> dict:
        """A pass costs twice the median invocation of each step: a replay
        repeats the run's work."""
        per_step = {}
        for (step, _role), walls in self.step_walls.items():
            per_step.setdefault(step, []).extend(walls)
        mc_wall = statistics.median(per_step["mc"])
        return {"pipeline_s": sum(2.0 * statistics.median(v) for v in per_step.values()),
                "mc_samples_per_s": self.sizes.cli_mc_samples * len(CLI_MC_T) / mc_wall,
                "rate_time_to_1pct_s": mc_wall * self.mc_factor}

    def timings(self) -> dict:
        return {"pass_s": self.walls,
                **{f"{step}.{role}_s": v for (step, role), v in self.step_walls.items()}}


def run_probes(tracer, mc: McWorkload, pipe: CliPipeline, sizes: Sizes, workdir: Path):
    """One round of direct calls into every layer, each inside its own span.

    The Monte Carlo and synthesis probes use the largest-T grid of ``mc``;
    the estimator, master-equation, I/O and bound probes use the inputs of
    the pipeline's steps.
    """
    gaussian = field.CorrelationModel.gaussian(TAU)
    tmax = max(mc.t_list)
    grid = mc_grid(mc.dx, tmax)
    seed = mc.seeds[0]
    p_tmax = montecarlo.McParams(a0=A0, mass=MASS, tau=TAU, positions=(0.0, mc.dx),
                                 t_list=(tmax,), n_samples=sizes.probe_samples,
                                 seed=seed)
    experiment = bounds.ExperimentParams(132.9, 0.32, 0.03)
    sweep = [bounds.ExperimentParams(m, t, d) for m in pipe.sweeps["mass"]
             for t in pipe.sweeps["time"] for d in pipe.sweeps["loss"]]
    for i in range(sizes.probe_repeats):
        with tracer.span("field.embedding_spectrum[tmax]", n_steps=grid.n_steps) as sp:
            L, amp = field.embedding_spectrum(gaussian, grid)
        sp["attrs"]["L"] = L
        with tracer.span("field.sample_field[tmax]"):
            realization = field.sample_field(gaussian, grid, (seed, i))
        for stream in (0, 1):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence((seed, i, stream))))
            with tracer.span("field.synthesize_stream[tmax]"):
                field.synthesize_stream(rng, L, amp, grid.n_steps)
        with tracer.span("montecarlo.accumulate_phase[tmax]"):
            montecarlo.accumulate_phase(realization, mc.dx, tmax, p_tmax)
        with tracer.span("bounds.bound_report"):
            bounds.bound_report(experiment, source=bounds.CosmoSourceParams(),
                                reference_bound=18.0)
        with tracer.span("bounds.lambda_bound[sweep]", points=len(sweep)):
            for point in sweep:
                bounds.lambda_bound(point, SI)
    with tracer.span("montecarlo.sample_phases[tmax]", n_samples=sizes.probe_samples):
        montecarlo.sample_phases(p_tmax, tmax)
    with tracer.span("montecarlo.coherence_mc[tmax]", n_samples=sizes.probe_samples):
        montecarlo.coherence_mc(p_tmax)

    with tracer.span("field.sample_field[cli]"):
        realization = field.sample_field(
            gaussian, field.FieldGrid(dt=DT, n_steps=sizes.field_steps), FIELD_SEED)
    with tracer.span("field.estimate_g1"):
        field.estimate_g1(realization, 3.0 * TAU)
    with tracer.span("field.estimate_g2"):
        field.estimate_g2(realization, 3.0 * TAU)
    with tracer.span("field.odd_moment_check"):
        field.odd_moment_check(realization)

    gp = master.grw_params(MASS, A0, TAU)
    with tracer.span("master.evolve_pure_decoherence", n=pipe.rho_pure.n):
        evolved = master.evolve_pure_decoherence(pipe.rho_pure, gp, 100.0)
    with tracer.span("master.min_eigenvalue", n=evolved.n):
        evolved.min_eigenvalue()
    for tag, rho in (("prime", pipe.rho_kinetic), ("pow2", pipe.rho_even)):
        with tracer.span(f"master.evolve_with_free_hamiltonian[{tag}]", n=rho.n,
                         n_steps=sizes.kinetic_steps):
            master.evolve_with_free_hamiltonian(rho, gp, 1.0, 0.05, sizes.kinetic_steps)
    tabulated = field.CorrelationModel.tabulated(pipe.table_lags, pipe.table_values,
                                                 tau=TAU)
    for tag, model in (("gaussian", gaussian), ("tabulated", tabulated)):
        for t_total in sizes.kernel_t:
            for dx in sizes.kernel_dx:
                with tracer.span(f"master.general_kernel[{tag}]"):
                    master.general_kernel(model, dx, t_total, MASS, A0)

    out = workdir / "probes"
    out.mkdir(parents=True, exist_ok=True)
    writes = (("io.realization_to_csv", cio.realization_to_csv, realization, "realization.csv"),
              ("io.density_matrix_to_json", cio.density_matrix_to_json, evolved, "rho.json"),
              ("io.density_matrix_to_csv", cio.density_matrix_to_csv, evolved, "rho.csv"))
    for name, write, obj, filename in writes:
        with tracer.span(name) as sp:
            write(obj, out / filename)
        sp["attrs"]["bytes"] = (out / filename).stat().st_size
    with tracer.span("io.density_matrix_from_json", n=evolved.n):
        back_json = cio.density_matrix_from_json(out / "rho.json")
    with tracer.span("io.density_matrix_from_csv", n=evolved.n):
        back_csv = cio.density_matrix_from_csv(out / "rho.csv")
    for back in (back_json, back_csv):
        if not np.array_equal(back.entries, evolved.entries):
            raise AssertionError("density-matrix round trip through io changed entries")


# Per-layer metric -> the spans it is computed from.  A traced run records
# every one of these spans.
SOURCES = {
    "field.sample_field_us": ["field.sample_field[tmax]"],
    "field.synth_us_per_stream": ["field.synthesize_stream[tmax]"],
    "field.seed_overhead_us": ["field.sample_field[tmax]", "field.synthesize_stream[tmax]",
                               "field.embedding_spectrum[tmax]"],
    "field.embedding_spectrum_ms": ["field.embedding_spectrum[tmax]"],
    "field.fft_len": ["field.embedding_spectrum[tmax]"],
    "field.retained_frac": ["field.embedding_spectrum[tmax]"],
    "field.bytes_per_sample_computed": ["field.embedding_spectrum[tmax]"],
    "field.estimate_g1_ms": ["field.estimate_g1"],
    "field.estimate_g2_ms": ["field.estimate_g2"],
    "field.odd_moment_ms": ["field.odd_moment_check"],
    "montecarlo.coherence_mc_s": ["montecarlo.coherence_mc"],
    "montecarlo.sample_phases_us_per_sample": ["montecarlo.sample_phases[tmax]"],
    "montecarlo.accumulate_phase_us": ["montecarlo.accumulate_phase[tmax]"],
    "montecarlo.reduce_us_per_sample": ["montecarlo.coherence_mc[tmax]",
                                        "montecarlo.sample_phases[tmax]"],
    "montecarlo.var_along_tmax": ["montecarlo.coherence_mc"],
    "montecarlo.rate_rel_stderr": ["montecarlo.fit_decoherence_rate"],
    "montecarlo.cost_per_eff_sample_us": ["montecarlo.coherence_mc[tmax]",
                                          "montecarlo.coherence_mc"],
    "montecarlo.fit_us": ["montecarlo.fit_decoherence_rate"],
    "montecarlo.rate_pull": ["montecarlo.fit_decoherence_rate"],
    "master.evolve_pure_ms": ["master.evolve_pure_decoherence"],
    "master.min_eigenvalue_ms": ["master.min_eigenvalue"],
    "master.evolve_kinetic_s": ["master.evolve_with_free_hamiltonian[prime]"],
    "master.strang_step_ms.n257": ["master.evolve_with_free_hamiltonian[prime]"],
    "master.strang_step_ms.n256": ["master.evolve_with_free_hamiltonian[pow2]"],
    "master.general_kernel_ms.gaussian": ["master.general_kernel[gaussian]"],
    "master.general_kernel_ms.tabulated": ["master.general_kernel[tabulated]"],
    "io.realization_to_csv_ms": ["io.realization_to_csv"],
    "io.density_matrix_to_json_ms": ["io.density_matrix_to_json"],
    "io.density_matrix_to_csv_ms": ["io.density_matrix_to_csv"],
    "io.density_matrix_from_json_ms": ["io.density_matrix_from_json"],
    "io.density_matrix_from_csv_ms": ["io.density_matrix_from_csv"],
    "io.bytes_written": ["cli.field", "cli.mc", "cli.kernel", "cli.kernel-tabulated",
                         "cli.evolve", "cli.evolve-kinetic", "cli.bound"],
    "io.write_MBps": ["io.realization_to_csv", "io.density_matrix_to_json",
                      "io.density_matrix_to_csv"],
    "bounds.lambda_bound_us": ["bounds.lambda_bound[sweep]"],
    "bounds.bound_report_us": ["bounds.bound_report"],
    "cli.cmd_field_s": ["cli.field"],
    "cli.cmd_mc_s": ["cli.mc"],
    "cli.cmd_kernel_s": ["cli.kernel", "cli.kernel-tabulated"],
    "cli.cmd_evolve_s": ["cli.evolve"],
    "cli.cmd_evolve_kinetic_s": ["cli.evolve-kinetic"],
    "cli.replay_identical_frac": ["cli.field"],
    "setup.import_ms": ["setup.import"],
    "setup.inputs_ms": ["setup.inputs"],
    "bench.trace_overhead_frac": ["bench.pass"],
    "bench.ops_failed_frac": ["bench.pass"],
}


def layer_metrics(tracer, mc: McWorkload, pipe: CliPipeline, sizes: Sizes) -> dict:
    """Per-layer metrics from the spans of a traced run (``bench.*`` excluded)."""
    med = tracer.median
    embed = med("field.embedding_spectrum[tmax]")
    synth = med("field.synthesize_stream[tmax]")
    sample = med("field.sample_field[tmax]")
    embedding = tracer.attrs("field.embedding_spectrum[tmax]")[0]
    L = embedding["L"]
    # normals, complex half-spectrum and inverse-FFT output, for both streams
    bytes_per_sample = 2 * (8 * L + 16 * (L // 2 + 1) + 8 * L)
    n_probe = sizes.probe_samples
    phases_per_sample = med("montecarlo.sample_phases[tmax]") / n_probe
    coherence_per_sample = med("montecarlo.coherence_mc[tmax]") / n_probe
    var_along = tracer.attrs("montecarlo.coherence_mc")[0]["var_along_tmax"]
    fit = tracer.attrs("montecarlo.fit_decoherence_rate")[0]
    kinetic_prime = med("master.evolve_with_free_hamiltonian[prime]")
    kinetic_pow2 = med("master.evolve_with_free_hamiltonian[pow2]")
    strang_steps = 3 * sizes.kinetic_steps   # the run plus its half-step check

    groups = {f"cli.{step}": group for step, group, _argv in pipe.steps}
    per_pass, bytes_per_pass = {}, {}
    for s in tracer.spans:
        group = groups.get(s["name"])
        if group is not None:
            cmd = per_pass.setdefault(s["request"], {})
            cmd[group] = cmd.get(group, 0.0) + s["end"] - s["start"]
            bytes_per_pass[s["request"]] = (bytes_per_pass.get(s["request"], 0)
                                            + s["attrs"].get("bytes", 0))

    def cmd_median(group):
        return statistics.median(cmd[group] for cmd in per_pass.values())

    writes = [s for s in tracer.spans if s["name"] in SOURCES["io.write_MBps"]]
    write_bytes = sum(s["attrs"]["bytes"] for s in writes)
    write_time = sum(s["end"] - s["start"] for s in writes)
    return {
        "field.sample_field_us": sample * 1e6,
        "field.synth_us_per_stream": synth * 1e6,
        "field.seed_overhead_us": (sample - 2.0 * synth - embed) * 1e6,
        "field.embedding_spectrum_ms": embed * 1e3,
        "field.fft_len": L,
        "field.retained_frac": embedding["n_steps"] / L,
        "field.bytes_per_sample_computed": bytes_per_sample,
        "field.estimate_g1_ms": med("field.estimate_g1") * 1e3,
        "field.estimate_g2_ms": med("field.estimate_g2") * 1e3,
        "field.odd_moment_ms": med("field.odd_moment_check") * 1e3,
        "montecarlo.coherence_mc_s": med("montecarlo.coherence_mc"),
        "montecarlo.sample_phases_us_per_sample": phases_per_sample * 1e6,
        "montecarlo.accumulate_phase_us": med("montecarlo.accumulate_phase[tmax]") * 1e6,
        "montecarlo.reduce_us_per_sample": (coherence_per_sample - phases_per_sample) * 1e6,
        "montecarlo.var_along_tmax": var_along,
        "montecarlo.rate_rel_stderr": fit["rate_rel_stderr"],
        "montecarlo.cost_per_eff_sample_us": coherence_per_sample * 1e6 * var_along,
        "montecarlo.fit_us": med("montecarlo.fit_decoherence_rate") * 1e6,
        "montecarlo.rate_pull": abs(fit["rate_pull"]),
        "master.evolve_pure_ms": med("master.evolve_pure_decoherence") * 1e3,
        "master.min_eigenvalue_ms": med("master.min_eigenvalue") * 1e3,
        "master.evolve_kinetic_s": kinetic_prime,
        "master.strang_step_ms.n257": kinetic_prime / strang_steps * 1e3,
        "master.strang_step_ms.n256": kinetic_pow2 / strang_steps * 1e3,
        "master.general_kernel_ms.gaussian": med("master.general_kernel[gaussian]") * 1e3,
        "master.general_kernel_ms.tabulated": med("master.general_kernel[tabulated]") * 1e3,
        "io.realization_to_csv_ms": med("io.realization_to_csv") * 1e3,
        "io.density_matrix_to_json_ms": med("io.density_matrix_to_json") * 1e3,
        "io.density_matrix_to_csv_ms": med("io.density_matrix_to_csv") * 1e3,
        "io.density_matrix_from_json_ms": med("io.density_matrix_from_json") * 1e3,
        "io.density_matrix_from_csv_ms": med("io.density_matrix_from_csv") * 1e3,
        "io.bytes_written": statistics.median(bytes_per_pass.values()),
        "io.write_MBps": write_bytes / write_time / 1e6,
        "bounds.lambda_bound_us": (med("bounds.lambda_bound[sweep]")
                                   / tracer.attrs("bounds.lambda_bound[sweep]")[0]["points"]
                                   * 1e6),
        "bounds.bound_report_us": med("bounds.bound_report") * 1e6,
        "cli.cmd_field_s": cmd_median("field"),
        "cli.cmd_mc_s": cmd_median("mc"),
        "cli.cmd_kernel_s": cmd_median("kernel"),
        "cli.cmd_evolve_s": cmd_median("evolve"),
        "cli.cmd_evolve_kinetic_s": cmd_median("evolve_kinetic"),
        "cli.replay_identical_frac": pipe.identical / pipe.compared,
        "setup.import_ms": med("setup.import") * 1e3,
        "setup.inputs_ms": med("setup.inputs") * 1e3,
    }
