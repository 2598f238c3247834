"""Command-line interface.

Subcommands: ``field`` (sample and check a stochastic field), ``mc``
(Monte Carlo coherence decay), ``kernel`` (decoherence factors and the
general-correlation kernel), ``evolve`` (density-matrix evolution), and
``bound`` (experimental cutoff bounds).

Every parameter can come from a flag or a config file (``--config``,
either ``key = value`` lines or a previously written ``manifest.json``);
flags win over the file.  A config key that names no parameter of the
command, and a NaN or infinite number, are validation errors.  Each run
writes its resolved parameters to ``manifest.json`` in the output directory,
and re-running from that manifest reproduces all outputs byte-identically.

Exit codes: 0 success, 2 usage or validation error, 3 numerical or
statistical failure.  Each command computes everything before it writes
anything, so a run that raises (exit 2, or exit 3 from a numerical error)
writes nothing, while a run whose checks fail (exit 3) still writes every
output and a manifest that replays it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, io
from .bounds import (CosmoSourceParams, ExperimentParams, bound_report,
                     lambda_bound)
from .core import NATURAL, SI
from .errors import ConfdecError, UndersampledSignal
from .field import (CorrelationModel, FieldGrid, _grid_step, estimate_g1,
                    estimate_g2, odd_moment_check, sample_field)
from .master import (GrwParams, closed_form_kernel, decoherence_factor,
                     evolve_pure_decoherence, evolve_with_free_hamiltonian,
                     general_kernel, grw_params)
from .montecarlo import (McParams, _check_fit_times, coherence_mc,
                         fit_decoherence_rate)

FLIST = "float_list"

TABLE_TAU_HELP = "correlation time (default 1.0; with --g1-table, the table's 1/e lag)"

FIELD_SPECS = [
    ("tau", float, None, TABLE_TAU_HELP),
    ("dt", float, None, "grid step (default tau/8)"),
    ("n_steps", int, 32768, "number of grid points"),
    ("seed", int, 42, "RNG seed"),
    ("max_lag", float, None, "largest correlation lag to estimate (default 3 tau)"),
    ("g1_table", str, None, "CSV file of (lag, value) rows for a tabulated g1"),
    ("units", str, "natural", "unit system: natural or si"),
    ("out", str, "confdec-out/field", "output directory"),
]

MC_SPECS = [
    ("a0", float, 0.1, "fluctuation amplitude"),
    ("mass", float, 1.0, "particle mass"),
    ("tau", float, 1.0, "correlation time"),
    ("dx", float, 5.0, "wavepacket separation x' - x"),
    ("t_list", FLIST, [100.0, 200.0, 300.0, 400.0], "distinct flight times, comma separated"),
    ("n_samples", int, 2000, "realizations, one ensemble shared by every flight time"),
    ("seed", int, 1234, "master RNG seed"),
    ("dt", float, None, "integration step (default tau/8)"),
    ("units", str, "natural", "unit system: natural or si"),
    ("out", str, "confdec-out/mc", "output directory"),
]

KERNEL_SPECS = [
    ("tau", float, None, TABLE_TAU_HELP),
    ("a0", float, 0.1, "fluctuation amplitude"),
    ("mass", float, 1.0, "particle mass"),
    ("dx_list", FLIST, [0.0, 0.25, 0.5, 1.0, 2.0, 5.0], "separations for factor curves"),
    ("t_list", FLIST, [0.0, 100.0, 200.0, 300.0, 400.0], "times for factor curves"),
    ("compare_t", FLIST, [100.0, 1000.0], "times for general-vs-closed comparison"),
    ("g1_table", str, None, "CSV file of (lag, value) rows for a tabulated g1"),
    ("units", str, "natural", "unit system: natural or si"),
    ("out", str, "confdec-out/kernel", "output directory"),
]

EVOLVE_SPECS = [
    ("input", str, None, "density matrix file (.json or .csv)"),
    ("lambda_grw", float, None, "localization rate (default from a0/tau/mass)"),
    ("alpha", float, None, "localization scale (default from tau)"),
    ("a0", float, 0.1, "fluctuation amplitude used when rate not given"),
    ("tau", float, 1.0, "correlation time used when rate not given"),
    ("mass", float, 1.0, "particle mass for the derived rate"),
    ("t", float, 100.0, "evolution time (pure decoherence path)"),
    ("kinetic_mass", float, None, "enable free-Hamiltonian evolution with this mass"),
    ("dt", float, None, "split step (required with kinetic-mass)"),
    ("n_steps", int, None, "number of split steps (required with kinetic-mass)"),
    ("units", str, "natural", "unit system: natural or si"),
    ("out", str, "confdec-out/evolve", "output directory"),
]

BOUND_SPECS = [
    ("mass_amu", float, 132.9, "particle mass in amu"),
    ("flight_time", float, 0.32, "interferometer flight time in s"),
    ("contrast_loss", float, 0.03, "observed fractional contrast loss"),
    ("separation", float, None, "wavepacket separation in m (optional)"),
    ("lambda_cut", float, None, "explicit cutoff for the predicted-loss report"),
    ("reference_bound", float, 18.0, "externally published bound to compare against"),
    ("cosmo_amplitude", float, None,
     "cosmological source amplitude (default: derived from --cosmo-density "
     "and --cosmo-tau)"),
    ("cosmo_tau", float, 1e-13, "cosmological source correlation time in s"),
    ("cosmo_density", float, 1e-29, "energy density limit in g/cm^3"),
    ("sweep_mass", FLIST, [], "masses (amu) for a sweep table"),
    ("sweep_time", FLIST, [], "flight times (s) for a sweep table"),
    ("sweep_loss", FLIST, [], "contrast losses for a sweep table"),
    ("out", str, "confdec-out/bound", "output directory"),
]


# units mode -> (constants, time label, length label)
UNITS = {"natural": (NATURAL, "tau", "c*tau"), "si": (SI, "s", "m")}

# the file each command writes its {inputs, constants, results, checks} to,
# where it is not summary.json
SUMMARY_FILE = {"mc": "rate.json", "bound": "report.json"}


def _convert(value, typ):
    if value is None:
        return None
    if typ is str:
        if not isinstance(value, str):   # a JSON number, boolean, list or object
            raise TypeError(f"expected a string, got {json.dumps(value)}")
        return value
    if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
        # Python counts a JSON true or false as the int 1 or 0
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    if typ == FLIST:
        if isinstance(value, (list, tuple)):
            return [float(v) for v in value]
        return [float(x) for x in str(value).split(",") if x.strip()]
    if typ is int and (isinstance(value, float)
                       or (isinstance(value, str) and "." in value)):
        number = float(value)
        if not number.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(number)
    return typ(value)


def _load_config(path: str) -> dict:
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json":
        cfg = json.loads(text)
        if isinstance(cfg, dict):
            cfg = cfg.get("params", cfg)
        if not isinstance(cfg, dict):
            raise ValueError(f"JSON config {path} must hold an object of parameters")
        return cfg
    cfg = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line has no '=': {raw!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _resolve(args, config: dict, specs) -> dict:
    unknown = sorted(set(config) - {spec[0] for spec in specs})
    if unknown:
        raise ValueError(f"config names no parameter of this command: {', '.join(unknown)}")
    params = {}
    for name, typ, default, _help in specs:
        value = getattr(args, name, None)
        if value is None:
            value = config.get(name)
        if value is None:      # a JSON null is not given, as manifest.json writes it
            value = default
        try:
            params[name] = value = _convert(value, typ)
        except TypeError as exc:   # a JSON value of the wrong type
            raise ValueError(f"{name}: {exc}") from exc
        if typ in (float, FLIST) and value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    if params.get("units") not in (None, *UNITS):
        raise ValueError(f"units must be 'natural' or 'si', got {params['units']!r}")
    return params


def _finish(command, params, files, results, checks, failure) -> int:
    """Write a computed run's outputs, summary and manifest; return the exit code.

    ``files`` maps each data file's name to a writer that takes its path.
    This is the only place that creates the output directory or writes a
    file, so a handler that raises leaves nothing behind, and the only place
    that frames a summary: ``{inputs, constants, results, checks}``, with the
    constants of the run's units (SI for ``bound``, which has no ``--units``).
    With a ``failure`` message, a false check prints it and exits 3 once
    every output is written; without one the checks are reported but do not
    set the exit code.
    """
    inputs = {k: v for k, v in params.items() if k != "out"}
    constants = UNITS[params.get("units", "si")][0]
    summary = {"inputs": inputs,
               "constants": {name: getattr(constants, name) for name in
                             ("c", "hbar", "G", "amu", "t_planck", "l_planck")},
               "results": results, "checks": checks}
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    summary_name = SUMMARY_FILE.get(command, "summary.json")
    io.write_json(out / summary_name, summary)
    io.write_json(out / "manifest.json",
                  {"command": command, "version": __version__, "params": inputs,
                   "outputs": sorted([*files, summary_name])})
    if failure is not None and not all(checks.values()):
        print(f"{command}: {failure}", file=sys.stderr)
        return 3
    return 0


def _correlation_model(params) -> CorrelationModel:
    """The run's g1, with an unset ``tau`` resolved and written back to ``params``.

    A ``--g1-table`` run without ``--tau`` takes the table's 1/e lag, a
    Gaussian one tau = 1; the manifest then records the tau that was used.
    """
    if params["g1_table"]:
        rows = io.read_table(params["g1_table"], ("lag", "value"), "g1 table",
                             header=False)
        model = CorrelationModel.tabulated(rows[:, 0], rows[:, 1], tau=params["tau"])
    else:
        model = CorrelationModel.gaussian(1.0 if params["tau"] is None else params["tau"])
    params["tau"] = model.tau
    return model


def _lag_rows(estimate):
    """``(lag, stream, estimate, stderr)`` rows of a correlation estimate, stream by stream."""
    return [(lag, key, est, err) for key in ("plus", "minus", "cross")
            for lag, est, err in zip(estimate.lags, estimate.estimates[key],
                                     estimate.stderrs[key])]


def cmd_field(params):
    tlab = UNITS[params["units"]][1]
    model = _correlation_model(params)
    dt = _grid_step(model, params["dt"])
    max_lag = (params["max_lag"] if params["max_lag"] is not None
               else 3.0 * model.tau)
    grid = FieldGrid(dt=dt, n_steps=params["n_steps"])
    realization = sample_field(model, grid, params["seed"])
    g1 = estimate_g1(realization, max_lag)
    g2 = estimate_g2(realization, max_lag)
    moments = odd_moment_check(realization)
    lag_header = [f"lag[{tlab}]", "stream", "estimate[1]", "stderr[1]"]
    files = {"realization.csv": lambda p: io.realization_to_csv(realization, p, tlab),
             "g1.csv": lambda p: io.write_csv(p, lag_header, _lag_rows(g1)),
             "g2.csv": lambda p: io.write_csv(p, lag_header, _lag_rows(g2)),
             "moments.csv": lambda p: io.write_csv(
                 p, ["order", "estimate[1]", "stderr[1]"], moments)}

    check_lags = [lag for lag in (0.0, model.tau / 2.0, model.tau, 2.0 * model.tau)
                  if lag <= max_lag]
    checks = {}
    for lag in check_lags:
        k = int(round(lag / dt))
        target = model.g1(g1.lags[k])
        for stream in ("plus", "minus"):
            dev = abs(g1.estimates[stream][k] - target)
            checks[f"g1_{stream}_lag_{lag:g}"] = bool(dev <= 3.0 * g1.stderrs[stream][k])
        checks[f"g1_cross_lag_{lag:g}"] = bool(
            abs(g1.estimates["cross"][k]) <= 3.0 * g1.stderrs["cross"][k])
        g2_target = 1.0 + 2.0 * target**2
        checks[f"g2_plus_lag_{lag:g}"] = bool(
            abs(g2.estimates["plus"][k] - g2_target) <= 3.0 * g2.stderrs["plus"][k])
        checks[f"g2_cross_lag_{lag:g}"] = bool(
            abs(g2.estimates["cross"][k] - 1.0) <= 3.0 * g2.stderrs["cross"][k])
    for order, est, err in moments:
        checks[f"odd_moment_{order}"] = bool(abs(est) <= 4.0 * err)

    results = {
        "n_steps": grid.n_steps,
        "duration": grid.duration,
        "sample_mean_plus": float(realization.xi_plus.mean()),
        "sample_mean_minus": float(realization.xi_minus.mean()),
        "sample_var_plus": float(realization.xi_plus.var()),
        "sample_var_minus": float(realization.xi_minus.var()),
    }
    return files, results, checks, "statistical checks failed"


def cmd_mc(params):
    constants, tlab, xlab = UNITS[params["units"]]
    mc = McParams(a0=params["a0"], mass=params["mass"], tau=params["tau"],
                  positions=(0.0, params["dx"]), t_list=tuple(params["t_list"]),
                  n_samples=params["n_samples"], seed=params["seed"],
                  dt=params["dt"], constants=constants)
    _check_fit_times(mc.t_list)   # the fit refuses a bad T grid; refuse it before drawing
    gp = grw_params(params["mass"], params["a0"], params["tau"], constants)
    estimate = coherence_mc(mc)
    files = {"coherence.csv": lambda p: io.write_csv(
        p, [f"delta_x[{xlab}]", f"T[{tlab}]", "re_mean[1]", "im_mean[1]", "stderr[1]",
            "n_samples"],
        [(estimate.delta_x, r.t, r.mean.real, r.mean.imag, r.stderr, r.n_samples)
         for r in estimate.records])}

    predicted = gp.rate(mc.delta_x)
    results = {"lambda_grw": gp.lambda_grw, "alpha": gp.alpha,
               "predicted_rate": predicted}
    checks = {"signal_above_noise": True}
    try:
        fit = fit_decoherence_rate(estimate)
    except UndersampledSignal as exc:
        checks["signal_above_noise"] = False
        return files, results, checks, str(exc)
    results.update(rate=fit.rate, rate_stderr=fit.stderr, intercept=fit.intercept,
                   ratio_to_predicted=(fit.rate / predicted if predicted > 0 else None))
    if predicted > 0:
        checks["rate_within_3_stderr"] = bool(
            abs(fit.rate - predicted) <= 3.0 * max(fit.stderr, 1e-300))
    return (files, results, checks,
            "fitted rate is more than 3 stderr from the prediction")


def cmd_kernel(params):
    constants, tlab, xlab = UNITS[params["units"]]
    model = _correlation_model(params)
    gp = grw_params(params["mass"], params["a0"], model.tau, constants)
    factors = [(dx, t, decoherence_factor(dx, t, gp))
               for dx in params["dx_list"] for t in params["t_list"]]
    comparison = []
    checks = {}
    gaussian = model.kind == "gaussian"
    for t_total in params["compare_t"]:
        for dx in params["dx_list"]:
            general = general_kernel(model, dx, t_total, params["mass"],
                                     params["a0"], constants)
            closed = closed_form_kernel(dx, t_total, params["mass"],
                                        params["a0"], model.tau, constants)
            if closed != 0.0:
                rel = (general - closed) / abs(closed)
            else:
                rel = 0.0 if general == 0.0 else math.inf
            comparison.append((dx, t_total, general, closed, rel))
            if gaussian:
                key = f"closed_form_dx_{dx:g}_T_{t_total:g}"
                if closed == 0.0:
                    scale = gp.lambda_grw * t_total
                    checks[key] = bool(abs(general) <= 1e-12 * scale)
                else:
                    checks[key] = bool(abs(rel) <= model.tau / t_total)
    files = {"factors.csv": lambda p: io.write_csv(
                 p, [f"delta_x[{xlab}]", f"t[{tlab}]", "factor[1]"], factors),
             "comparison.csv": lambda p: io.write_csv(
                 p, [f"delta_x[{xlab}]", f"T[{tlab}]", "general_kernel[1]",
                     "gaussian_closed_form[1]", "rel_deviation[1]"], comparison)}

    results = {"lambda_grw": gp.lambda_grw, "alpha": gp.alpha,
               "correlation_kind": model.kind}
    return files, results, checks, "closed-form agreement checks failed"


def cmd_evolve(params):
    if not params.get("input"):
        raise ValueError("evolve requires --input (density matrix .json or .csv)")
    constants = UNITS[params["units"]][0]
    path = Path(params["input"])
    if path.suffix == ".json":
        rho = io.density_matrix_from_json(path)
    else:
        rho = io.density_matrix_from_csv(path)
    lam, alpha = params["lambda_grw"], params["alpha"]
    if lam is None or alpha is None:
        derived = grw_params(params["mass"], params["a0"], params["tau"], constants)
        lam = derived.lambda_grw if lam is None else lam
        alpha = derived.alpha if alpha is None else alpha
    gp = GrwParams(lambda_grw=lam, alpha=alpha)

    if params["kinetic_mass"] is not None:
        if params["dt"] is None or params["n_steps"] is None:
            raise ValueError("kinetic evolution needs both --dt and --n-steps")
        evolved = evolve_with_free_hamiltonian(rho, gp, params["kinetic_mass"],
                                               params["dt"], params["n_steps"],
                                               constants)
        t_total = params["dt"] * params["n_steps"]
    else:
        evolved = evolve_pure_decoherence(rho, gp, params["t"])
        t_total = params["t"]

    min_eig = evolved.min_eigenvalue()
    herm_dev = float(np.abs(evolved.entries - evolved.entries.conj().T).max())
    checks = {
        "trace_preserved": bool(abs(evolved.trace() - rho.trace()) <= 1e-9),
        "positive_semidefinite": bool(min_eig >= -1e-9),
        "hermitian": bool(herm_dev <= 1e-12 * max(np.abs(evolved.entries).max(), 1e-300)),
    }
    results = {"lambda_grw": gp.lambda_grw, "alpha": gp.alpha,
               "t_total": t_total, "trace_in": rho.trace(),
               "trace_out": evolved.trace(), "min_eigenvalue": min_eig}
    files = {"evolved.json": lambda p: io.density_matrix_to_json(evolved, p)}
    return files, results, checks, "invariant checks failed"


def cmd_bound(params):
    experiment = ExperimentParams(mass_amu=params["mass_amu"],
                                  flight_time=params["flight_time"],
                                  contrast_loss=params["contrast_loss"],
                                  separation=params["separation"])
    source = CosmoSourceParams(energy_density_limit=params["cosmo_density"],
                               correlation_time=params["cosmo_tau"],
                               amplitude=params["cosmo_amplitude"])
    report = bound_report(experiment, lambda_cut=params["lambda_cut"],
                          source=source,
                          reference_bound=params["reference_bound"])
    files = {}
    if params["sweep_mass"] or params["sweep_time"] or params["sweep_loss"]:
        rows = [(m, t, d, lambda_bound(ExperimentParams(m, t, d)))
                for m in params["sweep_mass"] or [params["mass_amu"]]
                for t in params["sweep_time"] or [params["flight_time"]]
                for d in params["sweep_loss"] or [params["contrast_loss"]]]
        files["sweep.csv"] = lambda p: io.write_csv(
            p, ["mass[amu]", "flight_time[s]", "contrast_loss[1]", "lambda_bound[1]"],
            rows)
    # the checks are informational: the exit code is 0 whatever they say
    return files, report["results"], report["checks"], None


# command -> (parameter specs, handler, help); a handler computes the whole
# run and returns (files, results, checks, failure) for _finish to write
COMMANDS = {
    "field": (FIELD_SPECS, cmd_field, "sample a field and check its statistics"),
    "mc": (MC_SPECS, cmd_mc, "Monte Carlo coherence decay and rate fit"),
    "kernel": (KERNEL_SPECS, cmd_kernel,
               "decoherence factors and general-kernel comparison"),
    "evolve": (EVOLVE_SPECS, cmd_evolve, "evolve a density matrix"),
    "bound": (BOUND_SPECS, cmd_bound, "experimental cutoff bound report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confdec",
        description="Stochastic conformal-fluctuation decoherence toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, (specs, _handler, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="config file (key = value lines, or a manifest.json)")
        for pname, typ, default, help_str in specs:
            flag = "--" + pname.replace("_", "-")
            shown = default if default not in (None, []) else None
            p.add_argument(flag, dest=pname, default=None,
                           help=(f"{help_str}"
                                 + (f" (default {shown})" if shown is not None else "")))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    specs, handler, _help = COMMANDS[args.command]
    try:
        config = _load_config(args.config) if args.config else {}
        params = _resolve(args, config, specs)
        return _finish(args.command, params, *handler(params))
    except (ValueError, OSError) as exc:
        print(f"confdec {args.command}: {exc}", file=sys.stderr)
        return 2
    except ConfdecError as exc:
        print(f"confdec {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
