import math

import pytest
from hypothesis import given, settings, strategies as st

from confdec.core import NATURAL, SI
from confdec.errors import SubPlanckCutoff
from confdec.bounds import (CosmoSourceParams, CutoffModel, ExperimentParams,
                            bound_report, build_cutoff_model,
                            conformal_amplitude, cosmological_feasibility,
                            integrated_zero_point_density, lambda_bound,
                            mode_density, predicted_contrast_loss,
                            zero_point_energy_density)
from confdec.master import grw_params

CS = ExperimentParams(mass_amu=132.9, flight_time=0.32, contrast_loss=0.03)


class TestCutoffModel:
    def test_derived_quantities(self):
        m = build_cutoff_model(100.0)
        assert m.tau == pytest.approx(100.0 * SI.t_planck, rel=1e-12)
        assert m.a0 == pytest.approx(1e-4, rel=1e-12)
        assert m.omega_max == pytest.approx(2.0 * math.pi / m.tau, rel=1e-12)

    def test_planck_scale_allowed(self):
        m = build_cutoff_model(1.0)
        assert m.a0 == 1.0
        assert m.tau == pytest.approx(SI.t_planck)

    def test_sub_planck_rejected(self):
        with pytest.raises(SubPlanckCutoff):
            build_cutoff_model(0.999)

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_amplitude_inverse_square(self, lam):
        m = build_cutoff_model(lam)
        assert m.a0 * lam**2 == pytest.approx(1.0, rel=1e-12)


class TestZeroPoint:
    def test_mode_density_value(self):
        # 4 pi / (2 pi)^3 = 1 / (2 pi^2) at omega = c = 1
        assert mode_density(1.0, NATURAL) == pytest.approx(
            1.0 / (2.0 * math.pi**2), rel=1e-14)
        with pytest.raises(ValueError):
            mode_density(-1.0)

    def test_closed_form_coefficient(self):
        # hbar omega^4 / (16 pi^2 c^3) -> 1/(16 pi^2) in natural units,
        # frozen from a 40-digit evaluation
        assert zero_point_energy_density(1.0, NATURAL) == pytest.approx(
            6.33257397765e-3, rel=1e-11)

    @pytest.mark.parametrize("omega", [1.0, 2.5, 1e3])
    def test_quadrature_matches_closed_form_natural(self, omega):
        quad_val = integrated_zero_point_density(omega, NATURAL)
        closed = zero_point_energy_density(omega, NATURAL)
        assert quad_val == pytest.approx(closed, rel=1e-10)

    def test_quadrature_matches_closed_form_si(self):
        omega = build_cutoff_model(30.0).omega_max  # ~ 1e42 rad/s
        quad_val = integrated_zero_point_density(omega)
        closed = zero_point_energy_density(omega)
        assert quad_val == pytest.approx(closed, rel=1e-10)

    def test_quartic_growth(self):
        assert zero_point_energy_density(2.0, NATURAL) == pytest.approx(
            16.0 * zero_point_energy_density(1.0, NATURAL), rel=1e-12)


class TestLambdaBound:
    def test_reference_experiment(self):
        # frozen from a 40-digit evaluation of the CODATA inputs
        assert lambda_bound(CS) == pytest.approx(30.6645532593, rel=1e-10)

    def test_seventh_root_time_scaling(self):
        longer = ExperimentParams(132.9, 3.2, 0.03)
        ratio = lambda_bound(longer) / lambda_bound(CS)
        assert ratio == pytest.approx(10.0 ** (1.0 / 7.0), rel=1e-12)
        assert ratio == pytest.approx(1.38949549437, rel=1e-11)

    def test_mass_scaling(self):
        heavier = ExperimentParams(2.0 * 132.9, 0.32, 0.03)
        assert lambda_bound(heavier) / lambda_bound(CS) == pytest.approx(
            2.0 ** (2.0 / 7.0), rel=1e-12)

    def test_sensitivity_scaling(self):
        tighter = ExperimentParams(132.9, 0.32, 0.003)
        assert lambda_bound(tighter) / lambda_bound(CS) == pytest.approx(
            10.0 ** (1.0 / 7.0), rel=1e-12)

    def test_unrepresentable_rate_names_mass_amu(self):
        # the message quotes the mass as given, not the SI inputs of grw_params
        with pytest.raises(ValueError, match=r"^mass_amu = 1e\+300 .*not a finite float"):
            lambda_bound(ExperimentParams(1e300, 0.32, 0.03))

    def test_loss_round_trip_exact(self):
        model = build_cutoff_model(lambda_bound(CS))
        assert predicted_contrast_loss(CS, model) == pytest.approx(
            CS.contrast_loss, rel=1e-12)

    @settings(max_examples=80)
    @given(st.floats(min_value=1.0, max_value=1e5),
           st.floats(min_value=1e-3, max_value=1e2),
           st.floats(min_value=1e-6, max_value=0.99))
    def test_round_trip_identity(self, mass_amu, flight_time, delta):
        exp = ExperimentParams(mass_amu, flight_time, delta)
        bound = lambda_bound(exp)
        recovered = predicted_contrast_loss(exp, build_cutoff_model(bound))
        assert recovered == pytest.approx(delta, rel=1e-9)


class TestSeparationKernel:
    @pytest.mark.parametrize("separation", [None, 1e-35, 5e-34, 1e-6])
    def test_loss_is_grw_rate_times_flight_time(self, separation):
        exp = ExperimentParams(132.9, 0.32, 0.03, separation=separation)
        model = build_cutoff_model(30.0)
        rate = grw_params(132.9 * SI.amu, model.a0, model.tau, SI).rate(
            math.inf if separation is None else separation)
        assert predicted_contrast_loss(exp, model) == pytest.approx(
            rate * 0.32, rel=1e-14)

    def test_saturated_when_far(self):
        # c tau at the Cs cutoff is ~5e-34 m, so any lab separation saturates
        model = build_cutoff_model(lambda_bound(CS))
        near = ExperimentParams(132.9, 0.32, 0.03, separation=1e-6)
        assert predicted_contrast_loss(near, model) == pytest.approx(
            predicted_contrast_loss(CS, model), rel=1e-12)

    def test_kernel_suppression_for_short_separation(self):
        src = CosmoSourceParams()  # c tau ~ 3e-5 m
        close = ExperimentParams(132.9, 0.32, 0.03, separation=1e-6)
        xi = 1e-6 / (SI.c * src.correlation_time)
        expect = cosmological_feasibility(src, CS) * (1.0 - math.exp(-2 * xi * xi))
        assert cosmological_feasibility(src, close) == pytest.approx(
            expect, rel=1e-12)


class TestCosmologicalSource:
    def test_loss_value(self):
        # frozen from a 40-digit evaluation
        assert cosmological_feasibility(CosmoSourceParams(amplitude=1e-30), CS) == \
            pytest.approx(1.41869345036e-81, rel=1e-10)

    def test_quartic_amplitude(self):
        big = CosmoSourceParams(amplitude=2e-30)
        assert cosmological_feasibility(big, CS) == pytest.approx(
            16.0 * cosmological_feasibility(CosmoSourceParams(amplitude=1e-30), CS),
            rel=1e-12)

    def test_derived_amplitude_and_loss(self):
        # frozen from a 40-digit evaluation of G rho tau^2 / pi^2 at
        # rho = 1e-26 kg/m^3, tau = 1e-13 s
        src = CosmoSourceParams()
        assert src.resolved_amplitude() == pytest.approx(
            6.76247975984e-64, rel=1e-10)
        assert cosmological_feasibility(src, CS) == pytest.approx(
            2.96696536659e-214, rel=1e-10)

    @pytest.mark.parametrize("lam", [1.0, 18.0, 30.66, 1000.0])
    def test_amplitude_matches_zero_point_model(self, lam):
        model = build_cutoff_model(lam)
        rho = zero_point_energy_density(model.omega_max) / SI.c**2
        assert conformal_amplitude(rho, model.tau) == pytest.approx(
            model.a0, rel=1e-12)

    def test_quartic_density(self):
        dense = CosmoSourceParams(energy_density_limit=2e-29)
        assert cosmological_feasibility(dense, CS) == pytest.approx(
            16.0 * cosmological_feasibility(CosmoSourceParams(), CS), rel=1e-12)

    def test_zero_amplitude_gives_zero_loss(self):
        assert cosmological_feasibility(CosmoSourceParams(amplitude=0.0), CS) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CosmoSourceParams(correlation_time=0.0)
        with pytest.raises(ValueError):
            CosmoSourceParams(amplitude=-1.0)
        with pytest.raises(ValueError):
            conformal_amplitude(-1.0, 1e-13)


class TestExperimentValidation:
    @pytest.mark.parametrize("kw", [
        dict(mass_amu=0.0), dict(flight_time=-1.0),
        dict(contrast_loss=0.0), dict(contrast_loss=1.0),
        dict(separation=0.0),
    ])
    def test_rejects(self, kw):
        base = dict(mass_amu=132.9, flight_time=0.32, contrast_loss=0.03)
        base.update(kw)
        with pytest.raises(ValueError):
            ExperimentParams(**base)


class TestBoundReport:
    def test_structure_and_checks(self):
        rep = bound_report(CS, source=CosmoSourceParams(), reference_bound=18.0)
        assert set(rep) == {"results", "checks"}
        res = rep["results"]
        assert res["lambda_bound"] == pytest.approx(30.6645532593, rel=1e-10)
        assert res["bound_over_reference"] == pytest.approx(30.6645532593 / 18.0,
                                                            rel=1e-10)
        # the factor-of-two-ish mismatch with the external bound is flagged
        # as same order of magnitude rather than hidden
        assert rep["checks"]["reference_discrepancy"]["same_order_of_magnitude"]
        assert rep["checks"]["cosmological_unobservable"] is True
        rt = rep["checks"]["loss_round_trip"]
        assert rt["recovered_lambda"] == pytest.approx(rt["target_lambda"],
                                                       rel=1e-9)

    def test_discrepancy_flag_trips(self):
        rep = bound_report(CS, reference_bound=1.0)
        assert not rep["checks"]["reference_discrepancy"]["same_order_of_magnitude"]

    @pytest.mark.parametrize("reference", [0.0, -18.0, math.inf, math.nan])
    def test_reference_bound_must_be_positive_and_finite(self, reference):
        with pytest.raises(ValueError, match="reference_bound must be positive and finite"):
            bound_report(CS, reference_bound=reference)

    def test_explicit_cutoff(self):
        rep = bound_report(CS, lambda_cut=100.0)
        assert rep["results"]["cutoff_model"]["lambda_cut"] == 100.0
        assert rep["results"]["predicted_loss_at_cutoff"] < CS.contrast_loss

    def test_json_serializable(self):
        import json
        json.dumps(bound_report(CS, source=CosmoSourceParams(),
                                reference_bound=18.0))
