import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confdec.core import NATURAL, SI
from confdec.errors import QuadratureFailure, StepTooLarge
from confdec.field import CorrelationModel
from confdec import master
from confdec.master import (DensityMatrix, GrwParams, closed_form_kernel,
                            decoherence_factor, evolve_pure_decoherence,
                            evolve_with_free_hamiltonian, general_kernel,
                            grw_params, superposed_gaussians)

GP = grw_params(1.0, 0.1, 1.0)


def pure_gaussian(x, sigma: float, momentum: float = 0.0) -> DensityMatrix:
    """Pure Gaussian wavepacket ``rho = psi psi*`` centred at 0, with hbar = 1."""
    psi = np.exp(-x**2 / (4.0 * sigma**2) + 1j * momentum * x)
    return DensityMatrix.from_unnormalized(x, np.outer(psi, psi.conj()))


class TestGrwParams:
    def test_natural_values(self):
        # sqrt(pi/2) * 0.1^4, checked against a high-precision evaluation
        assert GP.lambda_grw == pytest.approx(1.25331413732e-4, rel=1e-11)
        assert GP.alpha == pytest.approx(8.0, rel=1e-15)

    def test_si_scaling(self):
        m = 132.9 * SI.amu
        gp = grw_params(m, 1e-3, 1e-12, SI)
        expected = (math.sqrt(math.pi / 2.0) * m**2 * SI.c**4 * 1e-12
                    / SI.hbar**2 * 1e-12)
        assert gp.lambda_grw == pytest.approx(expected, rel=1e-12)
        assert gp.alpha == pytest.approx(8.0 / (SI.c * 1e-12) ** 2, rel=1e-12)

    def test_quartic_amplitude_dependence(self):
        assert grw_params(1.0, 0.05, 1.0).lambda_grw * 16.0 == pytest.approx(
            GP.lambda_grw, rel=1e-12)

    def test_rate_limits(self):
        assert GP.rate(0.0) == 0.0
        assert GP.rate(math.inf) == GP.lambda_grw
        assert GP.rate(5.0) == pytest.approx(
            GP.lambda_grw * (1.0 - math.exp(-2.0 * 25.0)), rel=1e-15)
        out = GP.rate(np.array([0.0, 1.0, math.inf]))
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == GP.lambda_grw

    def test_huge_separation_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert GP.rate(1e200) == GP.lambda_grw
            assert np.array_equal(GP.rate(np.array([1e200, -1e300])),
                                  [GP.lambda_grw, GP.lambda_grw])

    def test_validation(self):
        with pytest.raises(ValueError):
            grw_params(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            grw_params(1.0, 0.1, -1.0)
        with pytest.raises(ValueError):
            GrwParams(lambda_grw=-1.0, alpha=8.0)
        with pytest.raises(ValueError):
            GrwParams(lambda_grw=1.0, alpha=0.0)

    @pytest.mark.parametrize("mass, a0, tau", [
        (1e300, 0.1, 1.0),      # mass**2 overflows
        (1.0, 1e100, 1.0),      # a0**4 overflows
        (1e154, 10.0, 1.0),     # the product overflows to inf
        (1.0, 0.1, 1e-200),     # (c*tau)**2 underflows to zero
    ], ids=["mass_squared", "a0_fourth", "product", "tau_squared"])
    def test_unrepresentable_rate_rejected(self, mass, a0, tau):
        message = (f"mass = {mass!r}, a0 = {a0!r} and tau = {tau!r} give a "
                   "lambda_grw or alpha that is not a finite float")
        with pytest.raises(ValueError, match=re.escape(message)):
            grw_params(mass, a0, tau)


class TestDecoherenceFactor:
    def test_reference_value(self):
        assert decoherence_factor(5.0, 400.0, GP) == pytest.approx(
            0.951103332661, rel=1e-11)

    def test_unit_boundaries(self):
        assert decoherence_factor(0.0, 123.0, GP) == 1.0
        assert decoherence_factor(3.0, 0.0, GP) == 1.0

    def test_saturation_far_separation(self):
        assert decoherence_factor(100.0, 50.0, GP) == pytest.approx(
            math.exp(-GP.lambda_grw * 50.0), rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            decoherence_factor(1.0, -1.0, GP)

    def test_broadcasting(self):
        dx = np.array([0.0, 1.0, 5.0])
        out = decoherence_factor(dx, 100.0, GP)
        assert out.shape == (3,)
        assert out[0] == 1.0

    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=1e3),
           st.floats(min_value=0.0, max_value=1e3))
    def test_monotone_decreasing(self, dx1, dx2, t1, t2):
        lo_dx, hi_dx = sorted((dx1, dx2))
        lo_t, hi_t = sorted((t1, t2))
        assert decoherence_factor(hi_dx, lo_t, GP) <= decoherence_factor(
            lo_dx, lo_t, GP) + 1e-15
        assert decoherence_factor(lo_dx, hi_t, GP) <= decoherence_factor(
            lo_dx, lo_t, GP) + 1e-15

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_agrees_with_kernel_exponential(self, dx, t):
        if t == 0.0:
            assert decoherence_factor(dx, t, GP) == 1.0
            return
        k = GP.lambda_grw * t * (math.exp(-0.25 * GP.alpha * dx * dx) - 1.0)
        assert decoherence_factor(dx, t, GP) == pytest.approx(math.exp(k),
                                                              rel=1e-12)


def grid(n=128, half_width=16.0):
    return np.linspace(-half_width, half_width, n, endpoint=False)


class TestDensityMatrix:
    def test_pure_gaussian_properties(self):
        rho = pure_gaussian(grid(), sigma=1.0)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.min_eigenvalue() >= -1e-12
        # purity: integral of |rho|^2 is 1 for a pure state
        purity = float(np.sum(np.abs(rho.entries) ** 2) * rho.dx**2)
        assert purity == pytest.approx(1.0, rel=1e-8)

    def test_momentum_phase(self):
        rho = pure_gaussian(grid(), sigma=1.0, momentum=2.0)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho.entries.imag).max() > 0.0

    def test_superposition_has_coherence_lobes(self):
        x = grid(n=256, half_width=20.0)
        rho = superposed_gaussians(x, sigma=1.0, separation=10.0)
        i = np.argmin(np.abs(x - 5.0))
        j = np.argmin(np.abs(x + 5.0))
        # off-diagonal lobe comparable to the diagonal peaks for sigma << sep
        assert abs(rho.entries[i, j]) == pytest.approx(abs(rho.entries[i, i]),
                                                       rel=1e-6)

    def test_non_hermitian_rejected(self):
        x = grid(n=8, half_width=4.0)
        e = np.outer(np.ones(8), np.ones(8)) + 0j
        e[0, 1] += 0.5
        e /= np.trace(e).real * (x[1] - x[0])
        with pytest.raises(ValueError):
            DensityMatrix(x_grid=x, entries=e)

    @pytest.mark.parametrize("field", ["x_grid", "entries"])
    def test_non_finite_rejected(self, field):
        x = grid(n=8, half_width=4.0)
        inputs = {"x_grid": x, "entries": np.eye(8, dtype=complex) / (8 * (x[1] - x[0]))}
        inputs[field][-1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(**inputs)

    def test_bad_trace_rejected(self):
        x = grid(n=8, half_width=4.0)
        with pytest.raises(ValueError):
            DensityMatrix(x_grid=x, entries=np.eye(8, dtype=complex))

    def test_non_uniform_grid_rejected(self):
        x = np.array([0.0, 1.0, 2.5, 3.0])
        e = np.eye(4, dtype=complex) / (4 * 1.0)
        with pytest.raises(ValueError):
            DensityMatrix(x_grid=x, entries=e)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(x_grid=grid(n=8, half_width=4.0),
                          entries=np.eye(6, dtype=complex))

    def test_from_unnormalized(self):
        x = grid(n=16, half_width=8.0)
        raw = np.diag(np.arange(1.0, 17.0)) + 0j
        rho = DensityMatrix.from_unnormalized(x, raw)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_entries_read_only(self):
        rho = pure_gaussian(grid(), sigma=1.0)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0


class TestPureDecoherence:
    def test_matches_analytic_factor(self):
        x = grid(n=128, half_width=16.0)
        rho = superposed_gaussians(x, sigma=1.0, separation=10.0)
        ev = evolve_pure_decoherence(rho, GP, 400.0)
        expected = rho.entries * decoherence_factor(
            np.abs(x[:, None] - x[None, :]), 400.0, GP)
        np.testing.assert_allclose(ev.entries, expected, rtol=0, atol=1e-15)

    def test_trace_exact(self):
        rho = superposed_gaussians(grid(), sigma=1.0, separation=8.0)
        ev = evolve_pure_decoherence(rho, GP, 1e4)
        assert ev.trace() == pytest.approx(rho.trace(), abs=1e-12)

    def test_diagonal_untouched(self):
        rho = superposed_gaussians(grid(), sigma=1.0, separation=8.0)
        ev = evolve_pure_decoherence(rho, GP, 5e3)
        np.testing.assert_allclose(np.diag(ev.entries), np.diag(rho.entries),
                                   rtol=0, atol=0)

    def test_semigroup_property(self):
        rho = superposed_gaussians(grid(), sigma=1.0, separation=8.0)
        one_shot = evolve_pure_decoherence(rho, GP, 700.0)
        stepped = evolve_pure_decoherence(
            evolve_pure_decoherence(rho, GP, 300.0), GP, 400.0)
        dev = np.abs(one_shot.entries - stepped.entries).max()
        assert dev <= 1e-12

    def test_positivity_preserved(self):
        rho = superposed_gaussians(grid(n=256, half_width=20.0), sigma=1.0,
                                   separation=10.0)
        for t in (10.0, 1e3, 1e5):
            assert evolve_pure_decoherence(rho, GP, t).min_eigenvalue() >= -1e-9

    def test_long_time_diagonalization(self):
        x = grid(n=64, half_width=16.0)
        rho = superposed_gaussians(x, sigma=1.0, separation=10.0)
        ev = evolve_pure_decoherence(rho, GP, 1e6)
        i = np.argmin(np.abs(x - 5.0))
        j = np.argmin(np.abs(x + 5.0))
        assert abs(ev.entries[i, j]) < 1e-30 * abs(rho.entries[i, j])

    def test_negative_time_rejected(self):
        rho = pure_gaussian(grid(), sigma=1.0)
        with pytest.raises(ValueError):
            evolve_pure_decoherence(rho, GP, -1.0)


# a localization strong enough against the kinetic step to show the splitting error
STRONG = GrwParams(lambda_grw=0.3, alpha=2.0)


def complex_strang_run(rho, params, mass, dt, n_steps, hbar):
    """Strang steps on the complex entries, four 1-D FFT passes each, hermitized."""
    half = master._factor_matrix(rho, params, dt / 2.0)
    phase = master._kinetic_phase(rho, mass, dt, hbar)
    e = rho.entries.copy()
    for _ in range(n_steps):
        e *= half
        a = np.fft.ifft(phase[:, None] * np.fft.fft(e, axis=0), axis=0)
        e = np.fft.ifft(phase[None, :].conj() * np.fft.fft(a, axis=1), axis=1)
        e *= half
    return 0.5 * (e + e.conj().T)


def spatial_moments(rho: DensityMatrix):
    p = np.real(np.diag(rho.entries)) * rho.dx
    mean = float(np.sum(rho.x_grid * p))
    var = float(np.sum((rho.x_grid - mean) ** 2 * p))
    return mean, var


class TestSplitStep:
    def test_free_gaussian_spreading(self):
        # lambda = 0: pure free evolution must reproduce
        # sigma^2(t) = sigma0^2 + (hbar t / (2 m sigma0))^2
        x = grid(n=256, half_width=24.0)
        rho = pure_gaussian(x, sigma=1.0)
        free = GrwParams(lambda_grw=0.0, alpha=8.0)
        ev = evolve_with_free_hamiltonian(rho, free, mass=1.0, dt=0.05,
                                          n_steps=40)
        _, var = spatial_moments(ev)
        assert var == pytest.approx(1.0 + (2.0 / 2.0) ** 2, rel=1e-4)
        assert ev.trace() == pytest.approx(1.0, abs=1e-9)

    def test_heavy_mass_limit_is_pure_decoherence(self):
        # kinetic phases scale as 1/m, so a very heavy particle reduces to
        # the analytic decoherence-only evolution
        x = grid(n=128, half_width=16.0)
        rho = superposed_gaussians(x, sigma=1.0, separation=8.0)
        heavy = evolve_with_free_hamiltonian(rho, GP, mass=1e14, dt=0.5,
                                             n_steps=20)
        exact = evolve_pure_decoherence(rho, GP, 10.0)
        assert np.abs(heavy.entries - exact.entries).max() <= 1e-6

    def test_momentum_transport(self):
        x = grid(n=256, half_width=24.0)
        rho = pure_gaussian(x, sigma=2.0, momentum=1.5)
        free = GrwParams(lambda_grw=0.0, alpha=8.0)
        ev = evolve_with_free_hamiltonian(rho, free, mass=1.0, dt=0.05,
                                          n_steps=40)
        mean, _ = spatial_moments(ev)
        # <x>(t) = p t / m
        assert mean == pytest.approx(1.5 * 2.0, rel=1e-3)

    def test_step_too_large(self):
        x = grid(n=128, half_width=8.0)
        rho = superposed_gaussians(x, sigma=0.5, separation=4.0)
        with pytest.raises(StepTooLarge):
            evolve_with_free_hamiltonian(rho, GP, mass=0.2, dt=2.0, n_steps=4)

    def test_zero_steps_identity(self):
        rho = pure_gaussian(grid(), sigma=1.0)
        ev = evolve_with_free_hamiltonian(rho, GP, mass=1.0, dt=0.1, n_steps=0)
        assert ev is rho

    @staticmethod
    def halving_threads(monkeypatch, cores):
        """The idents of the threads that run the two halving runs on ``cores`` cores."""
        idents = []

        def recording_run(*args):
            idents.append(threading.get_ident())
            return strang_run(*args)

        strang_run = master._strang_run
        monkeypatch.setattr(master, "_strang_run", recording_run)
        monkeypatch.setattr(master, "_usable_cores", lambda: cores)
        rho = superposed_gaussians(grid(n=64), sigma=1.0, separation=4.0)
        evolve_with_free_hamiltonian(rho, GP, mass=1.0, dt=0.05, n_steps=4)
        return idents

    def test_halving_runs_on_two_threads(self, monkeypatch):
        idents = self.halving_threads(monkeypatch, 2)
        assert len(idents) == 2 and idents[0] != idents[1]

    def test_halving_runs_on_the_caller_on_one_core(self, monkeypatch):
        assert self.halving_threads(monkeypatch, 1) == [threading.get_ident()] * 2

    def test_fine_run_failure_propagates_after_join(self, monkeypatch):
        def failing_fine_run(rho, params, mass, dt, n_steps, hbar):
            if dt < 0.05:
                raise RuntimeError("fine run failed")
            return strang_run(rho, params, mass, dt, n_steps, hbar)

        strang_run = master._strang_run
        monkeypatch.setattr(master, "_strang_run", failing_fine_run)
        before = threading.active_count()
        rho = superposed_gaussians(grid(n=64), sigma=1.0, separation=4.0)
        with pytest.raises(RuntimeError, match="fine run failed"):
            evolve_with_free_hamiltonian(rho, GP, mass=1.0, dt=0.05, n_steps=4)
        assert threading.active_count() == before

    def test_result_equals_the_serial_fine_run(self):
        rho = superposed_gaussians(grid(n=67), sigma=1.0, separation=4.0)
        ev = evolve_with_free_hamiltonian(rho, GP, mass=1.0, dt=0.05, n_steps=10)
        fine = master._strang_run(rho, GP, 1.0, 0.025, 20, NATURAL.hbar)
        assert np.array_equal(ev.entries, 0.5 * (fine + fine.conj().T))
        assert np.array_equal(ev.entries, fine)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 256, 257])
    def test_real_route_equals_the_complex_route(self, n):
        x = np.linspace(-8.0, 8.0, n)
        psi = np.exp(-(x - 1.0) ** 2 / 4.0 + 1.3j * x) + np.exp(-(x + 2.0) ** 2 / 4.0)
        rho = DensityMatrix.from_unnormalized(x, np.outer(psi, psi.conj()))
        e = master._strang_run(rho, STRONG, 1.0, 0.05, 10, NATURAL.hbar)
        expected = complex_strang_run(rho, STRONG, 1.0, 0.05, 10, NATURAL.hbar)
        assert np.abs(e - expected).max() <= 1e-13 * np.abs(e).max()
        assert np.array_equal(e, e.conj().T)

    def test_roundoff_hermitian_input_evolves_its_hermitian_part(self):
        rho = superposed_gaussians(grid(n=33), sigma=1.0, separation=4.0)
        skew = 1e-16 * np.triu(np.random.default_rng(3).standard_normal((33, 33)), 1)
        near = DensityMatrix(x_grid=rho.x_grid, entries=rho.entries + skew * (1 + 1j))
        part = DensityMatrix(x_grid=rho.x_grid,
                             entries=0.5 * (near.entries + near.entries.conj().T))
        e = master._strang_run(near, STRONG, 1.0, 0.05, 10, NATURAL.hbar)
        assert np.array_equal(e, master._strang_run(part, STRONG, 1.0, 0.05, 10, NATURAL.hbar))
        expected = complex_strang_run(near, STRONG, 1.0, 0.05, 10, NATURAL.hbar)
        assert np.abs(e - expected).max() <= 1e-13 * np.abs(e).max()
        assert np.array_equal(e, e.conj().T)

    @pytest.mark.parametrize("n", [8, 9])
    def test_strang_error_against_the_exact_propagator(self, n):
        # the exact solution on the grid: exp(t L) on vec(rho), row-major,
        # with L = -i (H x I - I x H^T) / hbar - diag(vec Lambda)
        from scipy.linalg import expm
        x = np.linspace(-4.0, 4.0, n)
        rho = superposed_gaussians(x, sigma=1.0, separation=3.0)
        k = 2.0 * math.pi * np.fft.fftfreq(n, d=x[1] - x[0])
        h = np.fft.ifft(k[:, None] ** 2 / 2.0 * np.fft.fft(np.eye(n), axis=0), axis=0).real
        h = 0.5 * (h + h.T)                  # the spectral kinetic operator at M = 1
        rate = STRONG.rate(np.abs(x[:, None] - x[None, :]))
        eye = np.eye(n)
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) - np.diag(rate.reshape(-1))
        exact = (expm(gen * 0.05 * 20) @ rho.entries.reshape(-1)).reshape(n, n)
        coarse = master._strang_run(rho, STRONG, 1.0, 0.05, 20, NATURAL.hbar)
        fine = master._strang_run(rho, STRONG, 1.0, 0.025, 40, NATURAL.hbar)
        coarse_err = np.abs(coarse - exact).max()
        fine_err = np.abs(fine - exact).max()
        # second order: halving dt quarters the error, which the halving
        # difference (the step check's measure) then bounds
        assert 3.9 <= coarse_err / fine_err <= 4.1
        assert fine_err <= np.abs(fine - coarse).max() / 2.0

    def test_validation(self):
        rho = pure_gaussian(grid(), sigma=1.0)
        with pytest.raises(ValueError):
            evolve_with_free_hamiltonian(rho, GP, mass=-1.0, dt=0.1, n_steps=2)
        with pytest.raises(ValueError):
            evolve_with_free_hamiltonian(rho, GP, mass=1.0, dt=0.0, n_steps=2)


GAUSS = CorrelationModel.gaussian(1.0)
PREF = (1.0 * 0.1**2) ** 2          # (M c^2 A0^2 / hbar)^2 at M = 1, A0 = 0.1


def gaussian_lag_integral(t_total):
    """``int_0^15 (T - s) exp(-2 s^2) ds``, over GAUSS's 15 tau support, in closed form."""
    return (t_total * math.sqrt(math.pi / 8.0) * math.erf(15.0 * math.sqrt(2.0))
            + 0.25 * math.expm1(-2.0 * 15.0**2))


class TestGeneralKernel:
    def test_zero_separation_is_exactly_zero(self):
        assert general_kernel(GAUSS, 0.0, 100.0, 1.0, 0.1) == 0.0

    def test_frozen_reference_value(self):
        # independently computed with 40-digit arithmetic:
        # closed form -0.012533141373 plus the finite-T edge correction
        val = general_kernel(GAUSS, 5.0, 100.0, 1.0, 0.1)
        assert val == pytest.approx(-0.0124831413732, rel=1e-10)

    @pytest.mark.parametrize("dx", [0.0, 1.0, 5.0])
    def test_edge_terms_shrink_with_t(self, dx):
        for t_total, tol in ((100.0, 0.01), (1000.0, 0.001)):
            general = general_kernel(GAUSS, dx, t_total, 1.0, 0.1)
            closed = closed_form_kernel(dx, t_total, 1.0, 0.1, 1.0)
            if closed == 0.0:
                assert general == 0.0
            else:
                assert abs(general - closed) <= tol * abs(closed)

    def test_short_time_rejected(self):
        with pytest.raises(ValueError):
            general_kernel(GAUSS, 5.0, 40.0, 1.0, 0.1)  # < 10 dx/c
        with pytest.raises(ValueError):
            general_kernel(GAUSS, 0.0, 5.0, 1.0, 0.1)   # < 10 tau

    @pytest.mark.parametrize("t_total", [100.0, 1e6, 1e15])
    @pytest.mark.parametrize("dx", [1.0, 5.0])
    def test_gaussian_equals_closed_lag_integrals(self, dx, t_total):
        # g1(s - d) g1(s + d) = exp(-2 d^2) exp(-2 s^2), so
        # I1 - 2 I2 = 2 expm1(-2 d^2) int_0^{15} (T - s) exp(-2 s^2) ds
        exact = PREF * 2.0 * math.expm1(-2.0 * dx**2) * gaussian_lag_integral(t_total)
        val = general_kernel(GAUSS, dx, t_total, 1.0, 0.1)
        assert val == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_small_separation_tracks_expm1_form(self):
        # I1 and 2 I2 agree to about 2e-12 here, so their roundoff is magnified
        exact = PREF * 2.0 * math.expm1(-2.0e-12) * gaussian_lag_integral(1e6)
        val = general_kernel(GAUSS, 1e-6, 1e6, 1.0, 0.1)
        assert val == pytest.approx(exact, rel=2e-5, abs=0.0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("t_total", [100.0, 1e6, 1e15])
    def test_triangular_table_is_exact(self, a, t_total):
        # g1 = 1 - s/a on [0, a]: I2 = a T / 3 - a^2 / 12, and I1 = 0 once d >= a
        tri = CorrelationModel.tabulated([0.0, a], [1.0, 0.0])
        i2 = a * t_total / 3.0 - a * a / 12.0
        for dx in (a, 2.0 * a, 7.0):
            val = general_kernel(tri, dx, t_total, 1.0, 0.1)
            assert val == pytest.approx(-2.0 * PREF * i2, rel=1e-14, abs=0.0)

    def test_work_bounded_by_the_support(self):
        # d = 1e6 tau: I1 has no support and I2 covers 15 tau, however large T
        tracemalloc.start()
        try:
            val = general_kernel(GAUSS, 1e6, 1e7, 1.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val == pytest.approx(-2.0 * PREF * gaussian_lag_integral(1e7),
                                    rel=1e-13, abs=0.0)
        assert peak < 1 << 20

    def test_tabulated_tracks_gaussian(self):
        lags = np.linspace(0.0, 8.0, 161)
        tab = CorrelationModel.tabulated(lags, np.exp(-lags**2), tau=1.0)
        for dx in (0.0, 1.0, 5.0):
            g = general_kernel(tab, dx, 200.0, 1.0, 0.1)
            ref = general_kernel(GAUSS, dx, 200.0, 1.0, 0.1)
            if ref == 0.0:
                assert g == 0.0
            else:
                # dense linear interpolation: sub-percent agreement
                assert g == pytest.approx(ref, rel=5e-3)

    def test_closed_form_equals_factor_exponent(self):
        for dx in (0.0, 0.5, 2.0, 5.0):
            for t in (100.0, 400.0):
                k = closed_form_kernel(dx, t, 1.0, 0.1, 1.0)
                assert math.exp(k) == pytest.approx(
                    decoherence_factor(dx, t, GP), rel=1e-12)

    def test_si_prefactor(self):
        tau_si = 1e-6
        m = CorrelationModel.gaussian(tau_si)
        mass = 1e-25
        g_si = general_kernel(m, 0.0, 1e-4, mass, 1e-3, SI)
        assert g_si == 0.0
        g_si = general_kernel(m, 5.0 * SI.c * tau_si, 1e-3, mass, 1e-3, SI)
        closed = closed_form_kernel(5.0 * SI.c * tau_si, 1e-3, mass, 1e-3,
                                    tau_si, SI)
        assert g_si == pytest.approx(closed, rel=2e-3)
