"""Library-wide validation: NaN and infinite inputs, and the CLI's mapping of error types."""
import math

import numpy as np
import pytest

from confdec import errors
from confdec.bounds import CosmoSourceParams, ExperimentParams
from confdec.field import CorrelationModel, FieldGrid
from confdec.master import (GrwParams, evolve_with_free_hamiltonian, general_kernel,
                            grw_params, superposed_gaussians)
from confdec.montecarlo import McParams


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
    "CorrelationModel.tau": (lambda v: CorrelationModel.gaussian(v), "tau"),
    "McParams.a0": (lambda v: mc_params(a0=v), "a0"),
    "McParams.mass": (lambda v: mc_params(mass=v), "mass"),
    # an explicit dt keeps tau out of the step, which would trip over NaN
    "McParams.tau": (lambda v: mc_params(tau=v, dt=0.125), "tau"),
    "McParams.dt": (lambda v: mc_params(dt=v), "dt must be positive"),
    "McParams.positions": (lambda v: mc_params(positions=(0.0, v)), "position"),
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
}

# NaN cases keep the bare field name as their id; +inf cases add "-inf"
BAD_VALUES = [pytest.param(build, value, names, id=name + suffix)
              for value, suffix in ((math.nan, ""), (math.inf, "-inf"))
              for name, (build, names) in BAD_VALUE_CASES.items()]


@pytest.mark.parametrize("build, value, names", BAD_VALUES)
def test_nan_rejected(build, value, names):
    with pytest.raises(ValueError, match=names):
        build(value)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_one_exit_code():
    # the CLI exits 2 on VALIDATION_ERRORS and 3 on NUMERICAL_ERRORS; an
    # error in neither would reach the user as a traceback with exit code 1
    found = list(_subclasses(errors.ConfdecError))
    assert found
    for cls in found:
        groups = [group for group in (errors.VALIDATION_ERRORS, errors.NUMERICAL_ERRORS)
                  if issubclass(cls, group)]
        assert len(groups) == 1, cls.__name__
