"""Library-wide validation: NaN inputs and the CLI's mapping of error types."""
import math

import pytest

from confdec import errors
from confdec.bounds import CosmoSourceParams, ExperimentParams
from confdec.field import CorrelationModel, FieldGrid
from confdec.master import GrwParams, grw_params
from confdec.montecarlo import McParams

NAN = math.nan


def mc_params(**kw):
    base = dict(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, 1.0),
                t_list=(16.0,), n_samples=100, seed=7)
    base.update(kw)
    return McParams(**base)


def experiment(**kw):
    return ExperimentParams(**{**dict(mass_amu=132.9, flight_time=0.32,
                                      contrast_loss=0.03), **kw})


# (constructor with one NaN field, a word the refusal must name)
NAN_CASES = {
    "FieldGrid.dt": (lambda: FieldGrid(dt=NAN, n_steps=64), "dt"),
    "CorrelationModel.tau": (lambda: CorrelationModel.gaussian(NAN), "tau"),
    "McParams.a0": (lambda: mc_params(a0=NAN), "a0"),
    "McParams.mass": (lambda: mc_params(mass=NAN), "mass"),
    # an explicit dt keeps tau out of the step, which would trip over NaN
    "McParams.tau": (lambda: mc_params(tau=NAN, dt=0.125), "tau"),
    "McParams.dt": (lambda: mc_params(dt=NAN), "dt must be positive"),
    "McParams.positions": (lambda: mc_params(positions=(0.0, NAN)), "position"),
    "grw_params.mass": (lambda: grw_params(NAN, 0.1, 1.0), "mass"),
    "grw_params.a0": (lambda: grw_params(1.0, NAN, 1.0), "a0"),
    "grw_params.tau": (lambda: grw_params(1.0, 0.1, NAN), "tau"),
    "GrwParams.lambda_grw": (lambda: GrwParams(lambda_grw=NAN, alpha=8.0), "lambda_grw"),
    "GrwParams.alpha": (lambda: GrwParams(lambda_grw=1e-4, alpha=NAN), "alpha"),
    "ExperimentParams.mass_amu": (lambda: experiment(mass_amu=NAN), "mass_amu"),
    "ExperimentParams.flight_time": (lambda: experiment(flight_time=NAN), "flight_time"),
    "ExperimentParams.separation": (lambda: experiment(separation=NAN), "separation"),
    "CosmoSourceParams.energy_density_limit": (
        lambda: CosmoSourceParams(energy_density_limit=NAN), "energy density"),
    "CosmoSourceParams.correlation_time": (
        lambda: CosmoSourceParams(correlation_time=NAN), "correlation time"),
    "CosmoSourceParams.amplitude": (
        lambda: CosmoSourceParams(amplitude=NAN), "amplitude"),
}


@pytest.mark.parametrize("build, names", list(NAN_CASES.values()), ids=list(NAN_CASES))
def test_nan_rejected(build, names):
    with pytest.raises(ValueError, match=names):
        build()


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
