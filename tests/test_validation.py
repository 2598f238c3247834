"""Library-wide validation: NaN and infinite inputs, and the CLI's mapping of error types."""
import dataclasses
import math

import numpy as np
import pytest

from confdec import cli, errors, io
from confdec.bounds import (CosmoSourceParams, ExperimentParams, build_cutoff_model,
                            conformal_amplitude, mode_density,
                            zero_point_energy_density)
from confdec.field import (CorrelationModel, FieldGrid, FieldRealization, estimate_g1,
                           estimate_g2, sample_field)
from confdec.master import (DensityMatrix, GrwParams, decoherence_factor,
                            evolve_with_free_hamiltonian, general_kernel,
                            grw_params, superposed_gaussians)
from confdec.montecarlo import McParams, accumulate_phase


def mc_params(**kw):
    base = dict(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, 1.0),
                t_list=(16.0,), n_samples=100, seed=7)
    base.update(kw)
    return McParams(**base)


def experiment(**kw):
    return ExperimentParams(**{**dict(mass_amu=132.9, flight_time=0.32,
                                      contrast_loss=0.03), **kw})


def rho():
    return superposed_gaussians(np.linspace(-4.0, 4.0, 17), sigma=1.0, separation=2.0)


# (constructor with one field set to the bad value v, a word the refusal must name)
BAD_VALUE_CASES = {
    "FieldGrid.dt": (lambda v: FieldGrid(dt=v, n_steps=64), "dt"),
    # a non-int step count never reaches a whole embedding length: refused, not run
    "FieldGrid.n_steps": (lambda v: FieldGrid(dt=0.125, n_steps=v), "n_steps"),
    "FieldGrid.t_start": (lambda v: FieldGrid(dt=0.125, n_steps=64, t_start=v), "t_start"),
    "estimate_g1.max_lag": (lambda v: estimate_g1(_zero_realization(), v), "max_lag"),
    "estimate_g2.max_lag": (lambda v: estimate_g2(_zero_realization(), v), "max_lag"),
    "CorrelationModel.tau": (lambda v: CorrelationModel.gaussian(v), "tau"),
    "McParams.a0": (lambda v: mc_params(a0=v), "a0"),
    "McParams.mass": (lambda v: mc_params(mass=v), "mass"),
    # an explicit dt keeps tau out of the step, which would trip over NaN
    "McParams.tau": (lambda v: mc_params(tau=v, dt=0.125), "tau"),
    "McParams.dt": (lambda v: mc_params(dt=v), "dt must be positive"),
    "McParams.positions": (lambda v: mc_params(positions=(0.0, v)), "position"),
    "McParams.n_samples": (lambda v: mc_params(n_samples=v), "n_samples"),
    "grw_params.mass": (lambda v: grw_params(v, 0.1, 1.0), "mass"),
    "grw_params.a0": (lambda v: grw_params(1.0, v, 1.0), "a0"),
    "grw_params.tau": (lambda v: grw_params(1.0, 0.1, v), "tau"),
    "GrwParams.lambda_grw": (lambda v: GrwParams(lambda_grw=v, alpha=8.0), "lambda_grw"),
    "GrwParams.alpha": (lambda v: GrwParams(lambda_grw=1e-4, alpha=v), "alpha"),
    "ExperimentParams.mass_amu": (lambda v: experiment(mass_amu=v), "mass_amu"),
    "ExperimentParams.flight_time": (lambda v: experiment(flight_time=v), "flight_time"),
    "ExperimentParams.separation": (lambda v: experiment(separation=v), "separation"),
    "CosmoSourceParams.energy_density_limit": (
        lambda v: CosmoSourceParams(energy_density_limit=v), "energy density"),
    "CosmoSourceParams.correlation_time": (
        lambda v: CosmoSourceParams(correlation_time=v), "correlation time"),
    "CosmoSourceParams.amplitude": (
        lambda v: CosmoSourceParams(amplitude=v), "amplitude"),
    "evolve_with_free_hamiltonian.mass": (
        lambda v: evolve_with_free_hamiltonian(rho(), GrwParams(1e-4, 8.0), v, 0.05, 1),
        "mass"),
    "evolve_with_free_hamiltonian.dt": (
        lambda v: evolve_with_free_hamiltonian(rho(), GrwParams(1e-4, 8.0), 1.0, v, 1),
        "dt"),
    "general_kernel.t_total": (
        lambda v: general_kernel(CorrelationModel.gaussian(1.0), 1.0, v, 1.0, 0.1),
        "t_total"),
    "decoherence_factor.t": (
        lambda v: decoherence_factor(1.0, v, GrwParams(1e-4, 8.0)), "t must be"),
    "build_cutoff_model.lambda_cut": (lambda v: build_cutoff_model(v), "lambda_cut"),
    "conformal_amplitude.mass_density": (
        lambda v: conformal_amplitude(v, 1e-13), "mass_density"),
    "conformal_amplitude.tau": (lambda v: conformal_amplitude(1e-26, v), "tau"),
    "mode_density.omega": (lambda v: mode_density(v), "omega"),
    "zero_point_energy_density.omega_max": (
        lambda v: zero_point_energy_density(v), "omega_max"),
}

# separations refused as NaN only: an infinite one is the saturated kernel
NAN_ONLY_CASES = {
    "GrwParams.rate.delta_x": (lambda v: GrwParams(1e-4, 8.0).rate(v), "delta_x"),
    "general_kernel.delta_x": (
        lambda v: general_kernel(CorrelationModel.gaussian(1.0), v, 100.0, 1.0, 0.1),
        "delta_x"),
}

# NaN cases keep the bare field name as their id; +inf cases add "-inf"
BAD_VALUES = [pytest.param(build, value, names, id=name + suffix)
              for value, suffix in ((math.nan, ""), (math.inf, "-inf"))
              for name, (build, names) in BAD_VALUE_CASES.items()] + [
    pytest.param(build, math.nan, names, id=name)
    for name, (build, names) in NAN_ONLY_CASES.items()]


@pytest.mark.parametrize("build, value, names", BAD_VALUES)
def test_nan_rejected(build, value, names):
    with pytest.raises(ValueError, match=names):
        build(value)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _zero_realization(n_plus=64):
    grid = FieldGrid(dt=0.125, n_steps=64, t_start=-2.0)
    return FieldRealization(grid=grid, xi_plus=np.zeros(n_plus), xi_minus=np.zeros(64))


# (builder taking a scratch directory, the refusal's message): each a ValueError
REFUSALS = {
    "McParams.positions_not_a_pair": (
        lambda tmp: mc_params(positions=(0.0,)), "positions must be a pair"),
    "McParams.empty_t_list": (lambda tmp: mc_params(t_list=()), "t_list must not be empty"),
    "McParams.bool_seed": (lambda tmp: mc_params(seed=True), "seed must be a non-negative int"),
    "McParams.tuple_seed": (lambda tmp: mc_params(seed=(7,)), "seed must be a single"),
    "McParams.fractional_n_samples": (
        lambda tmp: mc_params(n_samples=100.5), "n_samples must be an int"),
    "McParams.bool_n_samples": (
        lambda tmp: mc_params(n_samples=True), "n_samples must be an int"),
    "FieldGrid.fractional_n_steps": (
        lambda tmp: FieldGrid(dt=0.125, n_steps=100.5), "n_steps must be an int"),
    "FieldGrid.bool_n_steps": (
        lambda tmp: FieldGrid(dt=0.125, n_steps=True), "n_steps must be an int"),
    "sample_field.bool_seed": (
        lambda tmp: sample_field(CorrelationModel(), FieldGrid(dt=0.125, n_steps=16), True),
        "seed must be a non-negative int"),
    "sample_field.bool_in_seed_tuple": (
        lambda tmp: sample_field(CorrelationModel(), FieldGrid(dt=0.125, n_steps=16),
                                 (True, 0)),
        "seed must be a non-negative int"),
    "accumulate_phase.zero_t_final": (
        lambda tmp: accumulate_phase(_zero_realization(), 0.0, 0.0, mc_params()),
        "t_final must be at least one step"),
    "CorrelationModel.one_pair": (
        lambda tmp: CorrelationModel(table=((0.0, 1.0),)), "at least two"),
    "CorrelationModel.no_decay": (
        lambda tmp: CorrelationModel(table=((0.0, 1.0), (1.0, 1e-6))), "table must decay"),
    "CorrelationModel.tabulated_shapes": (
        lambda tmp: CorrelationModel.tabulated([0.0, 1.0, 2.0], [1.0, 0.0]),
        "equal length"),
    "FieldRealization.stream_length": (
        lambda tmp: _zero_realization(n_plus=63), "stream length does not match grid"),
    "DensityMatrix.one_point_grid": (
        lambda tmp: DensityMatrix.from_unnormalized([0.0], [[1.0]]),
        "x_grid must be 1-d with at least two points"),
    "DensityMatrix.non_square_entries": (
        lambda tmp: DensityMatrix.from_unnormalized([0.0, 1.0, 2.0], np.ones((3, 2))),
        "entries must be square and match the grid"),
    "superposed_gaussians.one_point_grid": (
        lambda tmp: superposed_gaussians([0.0], sigma=1.0, separation=2.0),
        "x_grid must be 1-d with at least two points"),
    "density_matrix_from_json.entries_shape": (
        lambda tmp: io.density_matrix_from_json(_write(
            tmp / "rho.json", '{"grid": {"n": 2, "dx": 1.0, "x0": 0.0}, '
                              '"entries": [[1.0, 0.0]]}')),
        "entries must hold n\\*n"),
    "evolve_with_free_hamiltonian.negative_n_steps": (
        lambda tmp: evolve_with_free_hamiltonian(rho(), GrwParams(1e-4, 8.0), 1.0, 0.05, -1),
        "n_steps must be non-negative"),
    "evolve_with_free_hamiltonian.float_n_steps": (
        lambda tmp: evolve_with_free_hamiltonian(rho(), GrwParams(1e-4, 8.0), 1.0, 0.05, 2.0),
        "n_steps must be an int"),
    "evolve_with_free_hamiltonian.bool_n_steps": (
        lambda tmp: evolve_with_free_hamiltonian(rho(), GrwParams(1e-4, 8.0), 1.0, 0.05, True),
        "n_steps must be an int"),
    "config.line_without_equals": (
        lambda tmp: cli._load_config(_write(tmp / "run.cfg", "n_steps 1024\n")),
        "config line has no '='"),
}


@pytest.mark.parametrize("build, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_refused(tmp_path, build, message):
    with pytest.raises(ValueError, match=message):
        build(tmp_path)


def test_correlation_kind_is_not_a_parameter():
    # the kind follows from the table, so a model holds only tau and table
    assert [f.name for f in dataclasses.fields(CorrelationModel)] == ["tau", "table"]
    with pytest.raises(TypeError, match="kind"):
        CorrelationModel(kind="gaussian")
    assert CorrelationModel().kind == "gaussian"
    assert CorrelationModel(table=((0.0, 1.0), (1.0, 0.0))).kind == "tabulated"


def test_numpy_int_counts_accepted():
    assert FieldGrid(dt=0.125, n_steps=np.int64(64)).n_steps == 64
    assert mc_params(n_samples=np.int64(100)).n_samples == 100


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# 2: bad input or configuration; 3: a numerical or statistical failure
EXIT_CODES = {
    errors.ResolutionError: 2, errors.IndefiniteCovariance: 2, errors.OutOfRange: 2,
    errors.InsufficientSamples: 2, errors.FitDegenerate: 2, errors.SubPlanckCutoff: 2,
    errors.UndersampledSignal: 3, errors.StepTooLarge: 3,
}


def test_every_error_has_one_exit_code(tmp_path, monkeypatch, capsys):
    # each error raised by a command reaches the user as its exit code, not
    # as a traceback; a new error class must be given a row in EXIT_CODES
    assert set(_subclasses(errors.ConfdecError)) == set(EXIT_CODES)
    specs, _handler, help_text = cli.COMMANDS["bound"]
    for cls, code in EXIT_CODES.items():
        def handler(params, cls=cls):
            raise cls("raised by the handler")
        monkeypatch.setitem(cli.COMMANDS, "bound", (specs, handler, help_text))
        assert cli.main(["bound", "--out", str(tmp_path)]) == code, cls.__name__
        assert "confdec bound: raised by the handler" in capsys.readouterr().err
