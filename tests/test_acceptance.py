"""Release gate: every headline capability checked at its stated tolerance.

Each test prints exactly one ``ACCEPTANCE NN name: PASS/FAIL`` line (run
with ``pytest tests/test_acceptance.py -s`` to see them as they happen).
Monte Carlo ensembles use pinned seeds; tolerances are quoted in each
test.  The full module takes a few minutes, dominated by the rate fits.
"""
import math

import numpy as np
import pytest

from confdec.bounds import (CosmoSourceParams, ExperimentParams, bound_report,
                            build_cutoff_model, cosmological_feasibility,
                            integrated_zero_point_density, lambda_bound,
                            predicted_contrast_loss, zero_point_energy_density)
from confdec.core import NATURAL
from confdec.field import (CorrelationModel, FieldGrid, estimate_g1,
                           estimate_g2, odd_moment_check, sample_field)
from confdec.master import (GrwParams, evolve_pure_decoherence,
                            evolve_with_free_hamiltonian, general_kernel,
                            grw_params, superposed_gaussians)
from confdec.montecarlo import (McParams, coherence_mc, fit_decoherence_rate,
                                sample_phases)

A0, MASS, TAU = 0.1, 1.0, 1.0
GP = grw_params(MASS, A0, TAU)  # lambda = 1.2533e-4, alpha = 8


def check(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def rate_fit(a0, dx, t_list, n_samples, seed):
    params = McParams(a0=a0, mass=MASS, tau=TAU, positions=(0.0, dx),
                      t_list=t_list, n_samples=n_samples, seed=seed)
    return fit_decoherence_rate(coherence_mc(params))


@pytest.fixture(scope="module")
def rate_at_5tau():
    # shared by the rate, kernel-shape, and amplitude-scaling criteria
    return rate_fit(A0, 5.0, (100.0, 200.0, 300.0, 400.0), 100_000, seed=101)


def test_01_correlation_fidelity():
    model = CorrelationModel.gaussian(TAU)
    grid = FieldGrid(dt=TAU / 8.0, n_steps=32768)  # 4096 correlation lengths
    realization = sample_field(model, grid, 42)
    g1 = estimate_g1(realization, 3.0 * TAU)
    g2 = estimate_g2(realization, 3.0 * TAU)
    worst = 0.0
    for lag in (0.0, 0.5 * TAU, TAU, 2.0 * TAU, 3.0 * TAU):
        k = int(round(lag / grid.dt))
        target = model.g1(g1.lags[k])
        for stream in ("plus", "minus"):
            worst = max(worst, abs(g1.estimates[stream][k] - target)
                        / g1.stderrs[stream][k])
            worst = max(worst, abs(g2.estimates[stream][k] - (1 + 2 * target**2))
                        / g2.stderrs[stream][k])
        worst = max(worst, abs(g1.estimates["cross"][k]) / g1.stderrs["cross"][k])
        worst = max(worst, abs(g2.estimates["cross"][k] - 1.0)
                    / g2.stderrs["cross"][k])
    moment_worst = max(abs(est) / err
                       for _order, est, err in odd_moment_check(realization))
    ok = worst <= 3.0 and moment_worst <= 3.0
    check(1, "correlation-fidelity", ok,
          f"worst g1/g2 pull {worst:.2f}, worst odd-moment pull "
          f"{moment_worst:.2f}, limit 3")


def test_02_first_order_cancellation():
    params = McParams(a0=A0, mass=MASS, tau=TAU, positions=(0.0, 5.0),
                      t_list=(100.0,), n_samples=10_000, seed=107)
    phi_a, phi_b = sample_phases(params, 100.0)
    diffs = phi_b - phi_a
    mean = diffs.mean()
    stderr = diffs.std(ddof=1) / math.sqrt(diffs.size)
    pull = abs(mean) / stderr
    check(2, "first-order-cancellation", pull <= 4.0,
          f"mean phase difference {mean:.2e}, pull {pull:.2f}, limit 4")


def test_03_decoherence_rate(rate_at_5tau):
    target = GP.lambda_grw  # saturated kernel at dx = 5 tau
    dev = abs(rate_at_5tau.rate - target) / target
    pull = (rate_at_5tau.rate - target) / rate_at_5tau.stderr
    check(3, "decoherence-rate", dev <= 0.10,
          f"fit {rate_at_5tau.rate:.4e} vs {target:.4e}, dev {dev:.2%} "
          f"({pull:+.2f} stderr), tol 10%")


def test_04_kernel_shape(rate_at_5tau):
    runs = {0.25: (16_000, 102), 0.5: (16_000, 103),
            1.0: (16_000, 104), 2.0: (24_000, 105)}
    devs = {}
    for dx, (n, seed) in runs.items():
        t_list = (100.0, 200.0, 300.0, 400.0)
        target = GP.lambda_grw * (1.0 - math.exp(-2.0 * (dx / TAU) ** 2))
        devs[dx] = abs(rate_fit(A0, dx, t_list, n, seed).rate - target) / target
    devs[5.0] = abs(rate_at_5tau.rate - GP.lambda_grw) / GP.lambda_grw
    zero = coherence_mc(McParams(a0=A0, mass=MASS, tau=TAU,
                                 positions=(0.0, 0.0),
                                 t_list=(100.0, 200.0, 300.0, 400.0),
                                 n_samples=1000, seed=100))
    zero_ok = all(r.mean == 1.0 + 0.0j for r in zero.records)
    worst = max(devs.values())
    check(4, "kernel-shape", worst <= 0.15 and zero_ok,
          f"worst dev {worst:.2%} over dx {sorted(devs)}, tol 15%; "
          f"dx=0 rate exactly 0: {zero_ok}")


def test_05_amplitude_scaling(rate_at_5tau):
    half = rate_fit(0.05, 5.0, (400.0, 800.0, 1200.0, 1600.0), 32_000,
                    seed=109)
    ratio = rate_at_5tau.rate / half.rate
    dev = abs(ratio - 16.0) / 16.0
    check(5, "amplitude-scaling", dev <= 0.25,
          f"rate ratio {ratio:.2f} vs 16, dev {dev:.2%}, tol 25%")


def test_06_kernel_reduction():
    model = CorrelationModel.gaussian(TAU)
    worst = {100.0: 0.0, 1000.0: 0.0}
    for t_total, tol in ((100.0, 1e-2), (1000.0, 1e-3)):
        for dx in (0.0, TAU, 5.0 * TAU):
            general = general_kernel(model, dx, t_total, MASS, A0, NATURAL)
            closed = 0.0 - GP.rate(dx) * t_total   # large-T limit: -rate(dx) T
            if closed == 0.0:
                assert general == 0.0
                continue
            worst[t_total] = max(worst[t_total], abs(general - closed)
                                 / abs(closed))
    ok = worst[100.0] <= 1e-2 and worst[1000.0] <= 1e-3
    check(6, "general-kernel-reduction", ok,
          f"rel dev {worst[100.0]:.2e} at T=100 (tol 1e-2), "
          f"{worst[1000.0]:.2e} at T=1000 (tol 1e-3)")


def test_07_master_equation_invariants():
    x = np.linspace(-10.0, 10.0, 256)
    rho = superposed_gaussians(x, sigma=1.0, separation=4.0)
    evolved = evolve_pure_decoherence(rho, GP, 400.0)
    trace_dev = abs(evolved.trace() - 1.0)
    herm_dev = float(np.abs(evolved.entries - evolved.entries.conj().T).max())
    min_eig = evolved.min_eigenvalue()
    part1 = evolve_pure_decoherence(evolve_pure_decoherence(rho, GP, 300.0),
                                    GP, 400.0)
    semigroup_dev = float(np.abs(part1.entries
                                 - evolve_pure_decoherence(rho, GP, 700.0).entries).max())
    # lambda = 0 split-step against the analytic spreading of a pure Gaussian
    free = GrwParams(lambda_grw=0.0, alpha=GP.alpha)
    xs = np.linspace(-24.0, 24.0, 256)
    sigma, t = 1.0, 2.0
    spread = evolve_with_free_hamiltonian(
        superposed_gaussians(xs, sigma=sigma, separation=0.0), free,
        mass=1.0, dt=0.05, n_steps=40)
    probs = np.real(np.diag(spread.entries)) * (xs[1] - xs[0])
    var = float(np.sum(probs * xs**2) - np.sum(probs * xs) ** 2)
    var_expected = sigma**2 + (t / (2.0 * sigma)) ** 2  # hbar = m = 1
    spread_dev = abs(var - var_expected) / var_expected
    ok = (trace_dev <= 1e-9 and herm_dev <= 1e-12 and min_eig >= -1e-9
          and semigroup_dev <= 1e-12 and spread_dev <= 1e-4)
    check(7, "master-equation-invariants", ok,
          f"trace dev {trace_dev:.1e}, herm {herm_dev:.1e}, min eig "
          f"{min_eig:.1e}, semigroup {semigroup_dev:.1e}, spreading dev "
          f"{spread_dev:.1e}")


def test_08_zero_point_identity():
    worst = 0.0
    for omega, constants in ((1.0, NATURAL),
                             (build_cutoff_model(30.0).omega_max, None)):
        kwargs = {} if constants is None else {"constants": constants}
        quad_val = integrated_zero_point_density(omega, **kwargs)
        closed = zero_point_energy_density(omega, **kwargs)
        worst = max(worst, abs(quad_val - closed) / closed)
    check(8, "zero-point-identity", worst <= 1e-10,
          f"quadrature vs closed form rel dev {worst:.2e}, tol 1e-10")


def test_09_bound_reproduction():
    exp = ExperimentParams(mass_amu=132.9, flight_time=0.32, contrast_loss=0.03)
    bound = lambda_bound(exp)
    report = bound_report(exp, reference_bound=18.0)
    disc = report["checks"]["reference_discrepancy"]
    round_trip = abs(predicted_contrast_loss(exp, build_cutoff_model(bound))
                     - exp.contrast_loss) / exp.contrast_loss
    ok = (10.0 <= bound <= 40.0
          and disc["same_order_of_magnitude"]
          and round_trip <= 1e-9)
    check(9, "bound-reproduction", ok,
          f"bound {bound:.2f} in [10, 40], discrepancy factor "
          f"{disc['factor']:.2f} flagged, round trip {round_trip:.1e}")


def test_10_cosmological_infeasibility():
    exp = ExperimentParams(mass_amu=132.9, flight_time=0.32, contrast_loss=0.03)
    loss = cosmological_feasibility(CosmoSourceParams(), exp)
    check(10, "cosmological-infeasibility", loss < 1e-100,
          f"predicted loss {loss:.3e}, required < 1e-100")
