import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import confdec
from confdec import montecarlo
from confdec.core import NATURAL
from confdec.errors import (FitDegenerate, InsufficientSamples, OutOfRange,
                            UndersampledSignal)
from confdec.field import (FieldGrid, FieldRealization, _embedding,
                           embedding_spectrum, sample_field)
from confdec.montecarlo import (CoherenceEstimate, CoherenceRecord, McParams,
                                _ConditionalScorer, _mc_grid, accumulate_phase,
                                coherence_mc, fit_decoherence_rate, sample_phases)


def default_params(**kw):
    base = dict(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, 5.0),
                t_list=(100.0, 200.0, 300.0, 400.0), n_samples=200, seed=7)
    base.update(kw)
    return McParams(**base)


def long_grid(params: McParams) -> FieldGrid:
    """The grid of the longest T, which every draw is synthesized on."""
    return _mc_grid(params, max(params.t_list))


def reference_phases(params: McParams, t: float,
                     signs: tuple[float, float] = (1.0, 1.0)) -> np.ndarray:
    """Every draw's phases by direct quadrature: ``(n_samples, 2 positions)``.

    Each draw is rebuilt with ``sample_field`` from its ``(seed, j)`` key on
    the grid of the longest T.  At a position ``off`` steps from x = 0 it
    reads xi+ at the nodes ``k0 + k - off`` (t' - x/c) and xi- at ``k0 + k +
    off`` (t' + x/c), for the nodes t' = k dt of [0, t], and integrates the
    potential ``a0 s + a0^2 s^2 / 2`` of ``s = signs[0] xi+ + signs[1] xi-``
    with an explicit trapezoid.
    """
    k0, k_t, offsets, w, pref, _cov = stream_setup(params, t)
    grid = long_grid(params)
    nodes = k0 + np.arange(k_t + 1)
    out = np.empty((params.n_samples, 2))
    for j in range(params.n_samples):
        r = sample_field(params.model, grid, (params.seed, j))
        for i, off in enumerate(offsets):
            s = signs[0] * r.xi_plus[nodes - off] + signs[1] * r.xi_minus[nodes + off]
            out[j, i] = pref * ((params.a0 * s + 0.5 * params.a0**2 * s * s) @ w)
    return out


def projected_stderr(z: np.ndarray) -> float:
    """Sample std of ``z`` along its mean direction, over ``sqrt(n)``."""
    u = z.mean() / abs(z.mean())
    along = z.real * u.real + z.imag * u.imag
    return float(along.std(ddof=1) / math.sqrt(z.size))


class TestParams:
    def test_defaults(self):
        p = default_params()
        assert p.dt_effective == pytest.approx(0.125)
        assert p.delta_x == 5.0
        assert p.model.kind == "gaussian"

    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            default_params(a0=0.0)
        with pytest.raises(ValueError):
            default_params(a0=0.25)
        with pytest.warns(UserWarning):
            default_params(a0=0.15)

    def test_flight_time_vs_separation(self):
        with pytest.raises(ValueError):
            default_params(t_list=(40.0,))  # needs T > 10 dx
        default_params(t_list=(51.0,))

    def test_t_multiple_of_dt(self):
        with pytest.raises(ValueError):
            default_params(t_list=(100.06,))

    @pytest.mark.parametrize("positions", [(0.0, 0.4375), (0.40625, 1.0)],
                             ids=["half_step_off", "quarter_step_off"])
    def test_positions_on_nodes(self, positions):
        with pytest.raises(ValueError, match="c\\*dt = 0.125"):
            default_params(positions=positions, t_list=(16.0,))

    def test_dt_resolution(self):
        with pytest.raises(Exception):
            default_params(dt=0.5)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            default_params(seed=-1)
        with pytest.raises(ValueError):
            default_params(seed=1.5)
        for bad in (2**64, (1, 2, 3, 4), (), True):
            with pytest.raises(ValueError, match="seed"):
                default_params(seed=bad)

    def test_repeated_flight_time_refused(self):
        # every T scores the same draws: a repeat, or a T within the node
        # tolerance of another, would make their covariance singular
        for t_list in ((100.0, 100.0, 200.0, 300.0, 400.0),
                       (100.0, 200.0, 200.0 + 1e-12, 300.0)):
            with pytest.raises(ValueError, match="t_list repeats a flight time"):
                default_params(t_list=t_list)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_non_positive_sample_count_refused(self, n_samples):
        # refused where the params are built, before sample_phases has no
        # draws to concatenate
        with pytest.raises(ValueError, match=f"n_samples must be an int of at least 1, "
                                             f"got {n_samples}"):
            default_params(n_samples=n_samples)


def constant_realization(value_plus, value_minus, dt=0.125, k0=24, k_t=8):
    grid = FieldGrid(dt=dt, n_steps=2 * k0 + k_t + 1, t_start=-k0 * dt)
    return FieldRealization(grid=grid,
                            xi_plus=np.full(grid.n_steps, value_plus),
                            xi_minus=np.full(grid.n_steps, value_minus))


class TestPhaseAccumulation:
    def test_constant_field_closed_form(self):
        # s = 1 everywhere: integrand a0 + a0^2/2 = 0.105, so
        # phi(T=1) = -0.105 in natural units with M = 1, whatever the
        # realization's step; params.dt (0.125) must not enter
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        for r in (constant_realization(1.0, 0.0),
                  constant_realization(1.0, 0.0, dt=0.0625, k0=48, k_t=16)):
            assert accumulate_phase(r, 0.0, 1.0, p) == pytest.approx(-0.105, rel=1e-12)

    def test_constant_field_scales_with_time(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        r = constant_realization(0.5, 0.5)
        phi1 = accumulate_phase(r, 0.0, 0.5, p)
        phi2 = accumulate_phase(r, 0.0, 1.0, p)
        assert phi2 == pytest.approx(2.0 * phi1, rel=1e-12)

    def test_against_field_at_quadrature(self):
        # independent reimplementation, at positions on either side of x = 0
        for positions in ((0.0, 1.0), (0.5, -0.25)):
            p = default_params(positions=positions, t_list=(16.0,), n_samples=2)
            ref = reference_phases(p, 16.0)
            grid = _mc_grid(p, 16.0)
            for j in range(p.n_samples):
                r = sample_field(p.model, grid, (p.seed, j))
                for i, x in enumerate(positions):
                    assert accumulate_phase(r, x, 16.0, p) == pytest.approx(
                        ref[j, i], rel=1e-10)

    def test_window_not_covered(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        r = constant_realization(1.0, 0.0, k0=24, k_t=8)  # grid ends at t = 4
        with pytest.raises(OutOfRange):
            accumulate_phase(r, 0.0, 4.125, p)
        with pytest.raises(OutOfRange):
            # the advanced (minus) lookup at x = 1 pushes past the grid end
            accumulate_phase(r, 1.0, 3.5, p)

    @pytest.mark.parametrize("x", [0.4375, 0.40625],
                             ids=["half_step_off", "quarter_step_off"])
    def test_position_not_on_grid(self, x):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        r = constant_realization(1.0, 0.0)
        with pytest.raises(ValueError, match="position"):
            accumulate_phase(r, x, 1.0, p)

    def test_t_not_on_grid(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        r = constant_realization(1.0, 0.0)
        with pytest.raises(ValueError):
            accumulate_phase(r, 0.0, 0.51, p)

    def test_grid_without_zero_node(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,))
        grid = FieldGrid(dt=0.125, n_steps=64, t_start=-0.0625)
        r = FieldRealization(grid=grid, xi_plus=np.zeros(64), xi_minus=np.zeros(64))
        with pytest.raises(ValueError):
            accumulate_phase(r, 0.0, 1.0, p)


class TestSampling:
    def test_batch_matches_per_sample_synthesis(self):
        # block-batched sampling must agree bit for bit with sampling each
        # realization individually through the public field API, on both
        # sides of block boundaries (blocks hold 48 samples)
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,), n_samples=258)
        phi_a, phi_b = sample_phases(p, 16.0)
        assert phi_a.shape == phi_b.shape == (258,)
        grid = _mc_grid(p, 16.0)
        for j in (0, 47, 48, 239, 240, 257):
            r = sample_field(p.model, grid, (p.seed, j))
            assert accumulate_phase(r, 0.0, 16.0, p) == phi_a[j]
            assert accumulate_phase(r, 1.0, 16.0, p) == phi_b[j]

    def test_every_t_scores_prefixes_of_one_ensemble(self):
        # every T scores the prefix of the same (seed, j) draw on the longest
        # T's grid: records and covariance equal the dense oracle's on those
        # prefixes, over 130 draws (past the first block boundary) at dx = 1
        # and on the gate's grid at dx = 5
        for positions, t_list, n in (((0.0, 1.0), (16.0, 24.0, 32.0), 130),
                                     ((0.0, 5.0), (56.0, 64.0, 80.0), 100)):
            p = default_params(positions=positions, t_list=t_list, n_samples=n)
            est = coherence_mc(p)
            z = np.array([conditional_coherences(p, t) for t in t_list])
            for rec, zt in zip(est.records, z):
                assert rec.mean == pytest.approx(complex(zt.mean()), rel=1e-12)
                assert rec.stderr == pytest.approx(projected_stderr(zt), rel=1e-12)
            u = z.mean(axis=1) / abs(z.mean(axis=1))
            along = z.real * u.real[:, None] + z.imag * u.imag[:, None]
            np.testing.assert_allclose(est.covariance, np.cov(along) / n,
                                       rtol=1e-12, atol=0.0)
            assert np.diag(est.covariance) == pytest.approx(
                [r.stderr**2 for r in est.records], rel=1e-15)

    def test_sample_phases_share_the_scored_draws(self):
        # sample_phases reads the draws coherence_mc scores: the longest T's
        # grid, so a shorter T's phases equal accumulate_phase on that grid
        p = default_params(positions=(0.0, 1.0), t_list=(16.0, 32.0), n_samples=3)
        phi_a, phi_b = sample_phases(p, 16.0)
        for j in range(p.n_samples):
            r = sample_field(p.model, long_grid(p), (p.seed, j))
            assert accumulate_phase(r, 0.0, 16.0, p) == phi_a[j]
            assert accumulate_phase(r, 1.0, 16.0, p) == phi_b[j]
        with pytest.raises(OutOfRange):
            sample_phases(p, 40.0)

    def test_records_do_not_depend_on_the_block_size(self, monkeypatch):
        # the gate's grid: with BLAS on one thread per scoring thread, the
        # blocks of 100 rows and those of 48 (and the last one, of 12) sum
        # the BLAS projections in the same order
        p = default_params(n_samples=300)
        est = coherence_mc(p)
        monkeypatch.setattr(montecarlo, "_BLOCK", 100)
        other = coherence_mc(p)
        assert other.records == est.records
        assert np.array_equal(other.covariance, est.covariance)

    def test_zero_separation_coherence_is_exactly_one(self):
        p = default_params(positions=(3.0, 3.0), t_list=(100.0,), n_samples=150)
        est = coherence_mc(p)
        rec = est.records[0]
        assert rec.mean == 1.0 + 0.0j
        assert rec.stderr == 0.0

    def test_mean_phase_drift(self):
        # M[phi] = -(M c^2 / hbar) A0^2 T; check the MC mean against it
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,), n_samples=3000,
                           seed=2024)
        phi_a, _ = sample_phases(p, 16.0)
        target = -(p.mass * p.constants.c**2 / p.constants.hbar) * p.a0**2 * 16.0
        assert target == pytest.approx(-0.01 * 16.0)
        se = phi_a.std(ddof=1) / math.sqrt(phi_a.size)
        assert abs(phi_a.mean() - target) <= 4.0 * se

    def test_mean_phase_difference_vanishes(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,), n_samples=3000,
                           seed=2025)
        phi_a, phi_b = sample_phases(p, 16.0)
        d = phi_b - phi_a
        se = d.std(ddof=1) / math.sqrt(d.size)
        assert abs(d.mean()) <= 4.0 * se

    def test_coherence_is_mean_of_exact_conditional_coherences(self):
        # exact link: each draw scores E[exp(i dphi) | xi-], the plus stream
        # integrated out densely, and the stderr is the std of those scores
        # along the mean over sqrt(n); 258 draws cross the first block boundary,
        # and dx = 5 puts the gate's edge set (about 80 nodes) on the BLAS branch
        for positions, t, n in (((0.0, 1.0), 16.0, 258), ((0.5, -0.25), 16.0, 258),
                                ((0.0, 5.0), 56.0, 100)):
            p = default_params(positions=positions, t_list=(t,), n_samples=n)
            z = conditional_coherences(p, t)
            rec = coherence_mc(p).records[0]
            assert rec.mean == pytest.approx(complex(z.mean()), rel=1e-12)
            assert rec.stderr == pytest.approx(projected_stderr(z), rel=1e-12)

    def test_stderr_is_projected_std_of_sampled_phases(self):
        # the record's stderr is the sample std of the per-draw conditional
        # coherence z_j along the mean direction, over sqrt(n), at each
        # T of the run
        p = default_params(positions=(0.0, 1.0), t_list=(16.0, 32.0),
                           n_samples=128)
        for rec in coherence_mc(p).records:
            z = conditional_coherences(p, rec.t)
            assert rec.stderr == pytest.approx(projected_stderr(z), rel=1e-12)

    def test_coherence_averages_the_four_sign_patterns(self):
        # each stream-sign pattern (+-xi+, +-xi-) of a draw has the draw's
        # law, so the per-draw average of exp(i dphi) over the four patterns
        # has the coherence as its mean, as does the conditional score; on
        # the same keyed draws the paired difference of the two must vanish
        # within its own sampling noise
        p = default_params(positions=(0.0, 1.0), t_list=(16.0,), n_samples=200)
        four = np.mean([np.exp(1j * np.diff(reference_phases(p, 16.0, signs),
                                            axis=1)[:, 0])
                        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=0)
        d = conditional_coherences(p, 16.0) - four
        assert np.all(np.abs(d) > 0.0)
        for part in (d.real, d.imag):
            assert abs(part.mean()) <= 4.0 * part.std(ddof=1) / math.sqrt(d.size)

    def test_conditioning_cuts_the_stderr(self):
        # on the gate's grid the conditional estimator beats the plain
        # single-pattern one, exp(i dphi) of the same keyed draws with both
        # streams as synthesized (ratio 24.6 at this seed; 1.97 when only
        # xi+ is integrated out)
        p = default_params(positions=(0.0, 5.0), t_list=(100.0,), n_samples=2000)
        rec = coherence_mc(p).records[0]
        phi_a, phi_b = sample_phases(p, 100.0)
        plain = projected_stderr(np.exp(1j * (phi_b - phi_a)))
        assert plain > 10.0 * rec.stderr

    @pytest.mark.parametrize("a0, positions, t_list", [
        (0.1, (0.0, dx), (100.0, 200.0, 300.0, 400.0)) for dx in (0.25, 0.5, 1.0, 2.0, 5.0)
    ] + [(0.05, (0.0, 5.0), (400.0, 800.0, 1200.0, 1600.0)),
         (0.1, (0.5, -0.25), (16.0, 32.0)),
         (0.1, (3.0, 3.0), (100.0,))])
    def test_linear_direction_spread_is_at_least_one(self, a0, positions, t_list):
        # Re(1 - 2 gamma sigma^2) = 1 + sigma^2 Re K(h_u, h_u) >= 1, since
        # |z| <= 1 for every h forces Re K >= 0: the principal root of the
        # score is the right one on the gate's grids; coincident positions
        # give sigma^2 = 0 and exactly 1
        p = default_params(a0=a0, positions=positions, t_list=t_list)
        for t in t_list:
            spread = _ConditionalScorer(p, t).spread
            assert spread.real >= 1.0
            if positions[0] == positions[1]:
                assert spread == 1.0

    def test_insufficient_samples(self):
        p = default_params(n_samples=50)
        with pytest.raises(InsufficientSamples):
            coherence_mc(p)

    @pytest.mark.parametrize("mass, bad_t", [(1e17, "100, 300, 400"),
                                             (1e20, "100, 200, 300, 400")])
    def test_scores_too_large_to_score_refused(self, mass, bad_t):
        # the phase per step is so large that the scores overflow: a numerical
        # error naming each T whose scores are not finite, and no RuntimeWarning
        # (which the test configuration turns into an error)
        p = default_params(mass=mass, n_samples=100, seed=1234)
        with pytest.raises(UndersampledSignal,
                           match=f"scores are not finite at T = {bad_t}:"):
            coherence_mc(p)

    def test_records_structure(self):
        p = default_params(positions=(0.0, 1.0), t_list=(16.0, 32.0),
                           n_samples=128)
        est = coherence_mc(p)
        assert est.delta_x == 1.0
        assert [r.t for r in est.records] == [16.0, 32.0]
        assert all(r.n_samples == 128 for r in est.records)
        assert all(0.0 < abs(r.mean) <= 1.0 for r in est.records)


class TestBandedScorer:
    @pytest.mark.parametrize("positions, t", [
        ((0.0, 5.0), 100.0), ((5.0, 0.0), 100.0), ((-3.0, 2.0), 100.0),
        ((-3.0, 3.0), 100.0), ((0.0, 5.0), 400.0), ((0.0, 0.25), 100.0)])
    def test_band_drops_only_roundoff(self, positions, t):
        # rebuild the dense C_{E,:} and k_u = C h_u - C_{E,:}^T W g_u over all
        # n columns: what the band drops is at most eps C[0, 0] of C_{E,:}
        # and 1e-15 of max |k_u|, and the kept k_u is the projection's
        p = default_params(positions=positions, t_list=(t,))
        scorer = _ConditionalScorer(p, t)
        n = scorer.n
        L, _amp, row, eig = _embedding(p.model, p.dt_effective, n)
        nodes = np.arange(n)
        u = scorer.v @ row[np.abs(scorer.edge_m[:, None] - nodes)] / scorer.sigma2
        h_u = scorer.h_scale * scorer.carry(u[None])[0, :n]
        c_edge = row[np.abs(scorer.edge[:, None] - nodes)]
        k_u = (np.fft.irfft(eig * np.fft.rfft(h_u, n=L), n=L)[:n]
               - (scorer.woodbury @ (c_edge @ h_u)) @ c_edge)
        dropped = np.setdiff1d(nodes, scorer.cols)
        assert dropped.size >= 100
        assert np.abs(c_edge[:, dropped]).max() <= np.finfo(float).eps * row[0]
        assert np.abs(k_u[dropped]).max() <= 1e-15 * np.abs(k_u).max()
        np.testing.assert_array_equal(scorer.project[:-2], c_edge[:, scorer.cols])
        np.testing.assert_allclose(scorer.project[-2] + 1j * scorer.project[-1],
                                   k_u[scorer.cols], rtol=0.0, atol=1e-15 * np.abs(k_u).max())


# the grids of the benchmark's mc-gate and mc-short workloads
GATE = dict(positions=(0.0, 5.0), t_list=(100.0, 200.0, 300.0, 400.0))
SHORT = dict(positions=(0.0, 0.25), t_list=(25.0, 50.0, 75.0, 100.0))


@pytest.mark.parametrize("grid", [GATE, SHORT, dict(positions=(-3.0, 2.0),
                                                    t_list=(100.0, 200.0))],
                         ids=["gate", "short", "off-origin"])
def test_each_scorer_covariance_matches_the_drawn_prefix(grid):
    # each T scores with its own grid's covariance row, while its streams are
    # the prefix of draws on the longest grid: on its n_T nodes the two rows
    # agree to 2 eps absolute (1.0, 1.0 and 0.64 eps here)
    p = default_params(**grid)
    n_max = _mc_grid(p, max(p.t_list)).n_steps
    row_max = _embedding(p.model, p.dt_effective, n_max)[2]
    for t in p.t_list:
        n_t = _mc_grid(p, t).n_steps
        row_t = _embedding(p.model, p.dt_effective, n_t)[2]
        assert np.abs(row_t[:n_t] - row_max[:n_t]).max() <= 2.0 * np.finfo(float).eps


def record_threads(monkeypatch) -> set:
    """The idents of the threads that draw a block of keyed draws, filled as it runs."""
    idents, draw_streams = set(), montecarlo._draw_streams

    def draw(*args, **kw):
        idents.add(threading.get_ident())
        return draw_streams(*args, **kw)

    monkeypatch.setattr(montecarlo, "_draw_streams", draw)
    return idents


class TestScoringThreads:
    @pytest.mark.parametrize("grid", [GATE, SHORT], ids=["gate", "short"])
    def test_records_do_not_depend_on_the_worker_count(self, monkeypatch, grid):
        # 300 draws are 7 blocks, so up to 3 threads share them; a short
        # switch interval interleaves them often, so a block lost or scored
        # twice would show
        p = default_params(n_samples=300, **grid)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
            idents = record_threads(monkeypatch)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                runs.append(coherence_mc(p))
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.undo()
            pinned = montecarlo._blas_thread_setter() is not None
            assert len(idents) <= workers and (len(idents) > 1) == (pinned and workers > 1)
        for est in runs[1:]:
            assert est.records == runs[0].records
            assert np.array_equal(est.covariance, runs[0].covariance)

    @pytest.mark.parametrize("grid", [GATE, SHORT], ids=["gate", "short"])
    def test_phases_do_not_depend_on_the_worker_count(self, monkeypatch, grid):
        # sample_phases sums each row off BLAS, so its blocks run on every
        # core with any BLAS, and every phase is bit-identical
        p = default_params(n_samples=300, **grid)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
            idents = record_threads(monkeypatch)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                runs.append(np.stack(sample_phases(p, max(p.t_list))))
            finally:
                sys.setswitchinterval(interval)
            monkeypatch.undo()
            assert len(idents) <= workers and (len(idents) > 1) == (workers > 1)
        for phases in runs[1:]:
            assert np.array_equal(phases, runs[0])

    def test_each_block_returns_its_results_in_block_order(self):
        # one result per block of _BLOCK keyed draws, the short last block
        # included, in block order and bit-identical on one and two threads
        block = montecarlo._BLOCK
        p = default_params(n_samples=2 * block + 5, **SHORT)
        grid = long_grid(p)
        runs = [montecarlo._each_block(p, (1,), lambda xi: xi[0], threads)
                for threads in (1, 2)]
        for results in runs:
            assert [r.shape for r in results] == [(b, grid.n_steps) for b in (block, block, 5)]
            for k, minus in enumerate(results):
                for j in (0, len(minus) - 1):
                    key = (p.seed, k * block + j)
                    assert np.array_equal(minus[j], sample_field(p.model, grid, key).xi_minus)
        for one, two in zip(*runs):
            assert np.array_equal(one, two)

    def test_phases_run_on_every_core_without_a_blas_setter(self, monkeypatch):
        # sample_phases makes no BLAS call, so it neither needs the setter nor
        # waits for the BLAS lock
        p = default_params(n_samples=300, **SHORT)
        phases = np.stack(sample_phases(p, max(p.t_list)))
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        monkeypatch.setattr(montecarlo, "_blas_thread_setter", lambda: None)
        idents = record_threads(monkeypatch)
        assert np.array_equal(np.stack(sample_phases(p, max(p.t_list))), phases)
        assert len(idents) == 2

    def test_records_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the 100-draw noise-dominated run of scripts/output_digests.py, whose
        # last block is partial, in fresh interpreters with 1 and 2 BLAS threads
        src = str(Path(confdec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        tables = []
        for blas_threads in ("1", "2"):
            out = tmp_path / blas_threads
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from confdec.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", "mc", "--mass", "13", "--dx", "5",
                 "--t-list", "100,125,150,200", "--n-samples", "100", "--seed", "9",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path,
                     "OPENBLAS_NUM_THREADS": blas_threads})
            assert done.returncode == 3, done.stderr
            tables.append((out / "coherence.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_a_helper_error_reaches_the_caller(self, monkeypatch):
        # the caller waits until a helper has failed on a block, so that the
        # failure is the helper's; a stand-in setter runs the helper route on
        # any BLAS, and the real one, where there is one, must get back the
        # count it had before
        caller, failed = threading.get_ident(), threading.Event()
        draw_streams = montecarlo._draw_streams

        def draw_or_fail(*args, **kw):
            if threading.get_ident() == caller:
                failed.wait(30)
                return draw_streams(*args, **kw)
            failed.set()
            raise RuntimeError("a helper failed")

        set_threads = montecarlo._blas_thread_setter()
        previous = set_threads(2) if set_threads else None
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        monkeypatch.setattr(montecarlo, "_blas_thread_setter",
                            lambda: set_threads or (lambda n: 1))
        monkeypatch.setattr(montecarlo, "_draw_streams", draw_or_fail)
        before = threading.active_count()
        try:
            with pytest.raises(RuntimeError, match="a helper failed"):
                coherence_mc(default_params(n_samples=300))
            assert failed.is_set()
            assert threading.active_count() == before
            monkeypatch.setattr(montecarlo, "_draw_streams", draw_streams)
            coherence_mc(default_params(n_samples=300))
            assert threading.active_count() == before
        finally:
            if set_threads:
                assert set_threads(previous) == 2

    def test_overlapping_calls_restore_the_blas_thread_count(self):
        # numpy's OpenBLAS keeps one thread count for the process: calls that
        # overlap on two threads must leave it as they found it, and score
        # as one call alone does
        p = default_params(n_samples=150, **SHORT)
        est = coherence_mc(p)
        set_threads = montecarlo._blas_thread_setter()
        previous = set_threads(2) if set_threads else None
        results = []
        try:
            for _ in range(10):
                callers = [threading.Thread(target=lambda: results.append(coherence_mc(p)))
                           for _ in range(2)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                if set_threads:
                    assert set_threads(2) == 2
        finally:
            if set_threads:
                set_threads(previous)
        assert len(results) == 20
        assert all(other.records == est.records for other in results)

    def test_no_helper_without_a_blas_setter(self, monkeypatch):
        # the caller scores every block alone, with BLAS as it is: here on one
        # thread, where the records are those of the threaded route
        p = default_params(n_samples=300)
        est = coherence_mc(p)
        set_threads = montecarlo._blas_thread_setter()
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
        monkeypatch.setattr(montecarlo, "_blas_thread_setter", lambda: None)
        idents = record_threads(monkeypatch)
        previous = set_threads(1) if set_threads else None
        try:
            other = coherence_mc(p)
        finally:
            if set_threads:
                set_threads(previous)
        assert idents == {threading.get_ident()}
        assert other.records == est.records
        assert np.array_equal(other.covariance, est.covariance)


def gaussian_quadratic_expectation(sigma, beta, quad, const=0.0):
    """``E[exp(i (const + beta.x + x^T quad x))]`` for ``x ~ N(0, sigma)``.

    With ``sigma = R R^T`` from its eigendecomposition and ``d, v`` the
    eigenpairs of the whitened form ``R^T quad R``, it is
    prod (1 - 2 i d_k)^{-1/2} exp(i const - b_k^2 / (2 (1 - 2 i d_k))),
    ``b = v^T R^T beta``, with principal roots.  ``beta`` may stack vectors
    on leading axes, with ``const`` broadcast against them.
    """
    evals, evecs = np.linalg.eigh(sigma)
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    m = root.T @ quad @ root
    d, v = np.linalg.eigh(0.5 * (m + m.T))
    b = (beta @ root) @ v
    fac = 1.0 - 2.0j * d
    return np.prod(fac ** -0.5) * np.exp(1j * const - 0.5 * np.sum(b * b / fac, axis=-1))


def stream_setup(params: McParams, t: float):
    """Node offsets, trapezoid weights, phase prefactor and one stream's covariance.

    Returns ``(k0, k_t, offsets, w, pref, cov)``: the t = 0 node of the
    realization grid, the step count, each position in steps (the oracle
    wants node positions), the unit-step trapezoid weights, ``-(M c^2 /
    hbar) dt`` and the covariance of the retained points of one stream.
    """
    dt = params.dt_effective
    grid = _mc_grid(params, t)
    k0, k_t = round(-grid.t_start / dt), round(t / dt)
    offsets = [int(round(x / (params.constants.c * dt))) for x in params.positions]
    assert all(o * params.constants.c * dt == x
               for o, x in zip(offsets, params.positions))
    L, _amp = embedding_spectrum(params.model, grid)
    k = np.arange(L)
    row = params.model.g1(np.minimum(k, L - k) * dt)
    n = np.arange(grid.n_steps)
    cov = row[np.abs(n[:, None] - n[None, :])]
    w = np.ones(k_t + 1)
    w[0] = w[-1] = 0.5
    pref = -params.mass * params.constants.c**2 / params.constants.hbar * dt
    return k0, k_t, offsets, w, pref, cov


def exact_characteristic_function(params: McParams, t: float) -> complex:
    """Gaussian quadratic-form characteristic function for the sampled grid.

    The sampled streams are jointly Gaussian with the circulant-embedding
    covariance, and the accumulated phase difference is a linear-plus-
    quadratic form in them, so M[e^{i dphi}] has a closed form.
    """
    k0, k_t, offsets, w, pref, cov = stream_setup(params, t)
    n = cov.shape[0]
    nodes = np.arange(k_t + 1)
    beta = np.zeros(2 * n)
    quad = np.zeros((2 * n, 2 * n))
    for sign, off in zip((-1.0, 1.0), offsets):
        # s(x, t_k) reads xi+ at node k0 + k - off and xi- at node k0 + k + off
        idx = (k0 + nodes - off, n + k0 + nodes + off)
        for i in idx:
            np.add.at(beta, i, sign * pref * params.a0 * w)
            for j in idx:
                np.add.at(quad, (i, j), sign * pref * 0.5 * params.a0**2 * w)
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = sigma[n:, n:] = cov
    return complex(gaussian_quadratic_expectation(sigma, beta, quad))


def conditional_coherences(params: McParams, t: float) -> np.ndarray:
    """Every draw's ``E[exp(i dphi) | m_perp]``, with both integrals done densely.

    xi- of draw j is the prefix, on T's own grid, of ``sample_field``'s
    under the key ``(seed, j)`` on the grid of the longest T.
    Given xi-, the phase difference is linear plus diagonal-quadratic in xi+,
    which is integrated out in closed form.  The linear a0 part of the
    phase in xi- is ``s = v.xi-``; with ``u = cov v / (v^T cov v)``, xi- =
    m_perp + s u splits into independent parts, and the score given xi- is
    averaged over ``s ~ N(0, v^T cov v)`` along u at 64 Gauss-Hermite nodes.
    """
    k0, k_t, offsets, w, pref, cov = stream_setup(params, t)
    grid = _mc_grid(params, t)
    nodes = np.arange(k_t + 1)
    quad = np.zeros(cov.shape)
    v = np.zeros(cov.shape[0])
    for sign, off in zip((-1.0, 1.0), offsets):
        np.add.at(quad, (k0 + nodes - off, k0 + nodes - off),
                  sign * pref * 0.5 * params.a0**2 * w)
        np.add.at(v, k0 + nodes + off, sign * pref * params.a0 * w)
    sigma2 = v @ cov @ v
    u = cov @ v / sigma2 if sigma2 > 0.0 else np.zeros_like(v)
    x, gh = np.polynomial.hermite_e.hermegauss(64)
    gh /= math.sqrt(2.0 * math.pi)
    xi_m = np.array([sample_field(params.model, long_grid(params), (params.seed, j))
                     .xi_minus[:grid.n_steps] for j in range(params.n_samples)])
    perp = xi_m - np.outer(xi_m @ v, u)
    ms = perp[:, None, :] + math.sqrt(sigma2) * x[:, None] * u      # (draws, nodes, n)
    beta = np.zeros(ms.shape)
    const = np.zeros(ms.shape[:2])
    for sign, off in zip((-1.0, 1.0), offsets):
        m = ms[..., k0 + nodes + off]
        beta[..., k0 + nodes - off] += sign * pref * w * (params.a0 + params.a0**2 * m)
        const += sign * pref * ((params.a0 * m + 0.5 * params.a0**2 * m * m) @ w)
    return gaussian_quadratic_expectation(cov, beta, quad, const) @ gh


def test_coherence_matches_exact_characteristic_function():
    # end-to-end oracle: no large-T or small-amplitude approximations; the
    # conditional estimator agrees with it along the mean within 4 of its own
    # stderr (pulls -1.35 and -0.66 at this seed)
    for dx, t in ((1.0, 16.0), (5.0, 64.0)):
        p = default_params(positions=(0.0, dx), t_list=(t,), n_samples=2000,
                           seed=31415)
        exact = exact_characteristic_function(p, t)
        rec = coherence_mc(p).records[0]
        u = rec.mean / abs(rec.mean)
        along = ((rec.mean - exact) * u.conjugate()).real
        assert abs(along) <= 4.0 * rec.stderr, (dx, t, along / rec.stderr)


def test_sampled_phases_match_exact_characteristic_function():
    # the draws as synthesized, both streams, are unbiased for the oracle too
    p = default_params(positions=(0.0, 1.0), t_list=(16.0,), n_samples=20000,
                       seed=31415)
    exact = exact_characteristic_function(p, 16.0)
    phi_a, phi_b = sample_phases(p, 16.0)
    z = np.exp(1j * (phi_b - phi_a))
    se_re = z.real.std(ddof=1) / math.sqrt(z.size)
    se_im = z.imag.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.real.mean() - exact.real) <= 4.0 * se_re
    assert abs(z.imag.mean() - exact.imag) <= 4.0 * se_im


class TestRateFit:
    @staticmethod
    def synthetic(rate, intercept, ts, stderr=1e-6):
        recs = tuple(
            CoherenceRecord(t=t, mean=math.exp(-(intercept + rate * t)),
                            stderr=stderr, n_samples=1000)
            for t in ts)
        return CoherenceEstimate(delta_x=5.0, records=recs,
                                 covariance=np.diag(np.full(len(ts), stderr**2)))

    def test_recovers_exact_exponential(self):
        est = self.synthetic(2.5e-4, 0.17, (100.0, 200.0, 300.0, 400.0))
        fit = fit_decoherence_rate(est)
        assert fit.rate == pytest.approx(2.5e-4, rel=1e-9)
        assert fit.intercept == pytest.approx(0.17, rel=1e-9)
        # closed-form slope stderr of the weighted fit, w = (|mean|/stderr)^2
        ts = np.array([r.t for r in est.records])
        w = np.array([abs(r.mean) / r.stderr for r in est.records]) ** 2
        delta = w.sum() * (w * ts * ts).sum() - (w * ts).sum() ** 2
        assert fit.stderr == pytest.approx(math.sqrt(w.sum() / delta), rel=1e-12)

    def test_zero_stderr_exact_fit(self):
        est = self.synthetic(1e-3, 0.0, (100.0, 200.0, 300.0, 400.0), stderr=0.0)
        fit = fit_decoherence_rate(est)
        assert fit.rate == pytest.approx(1e-3, rel=1e-12)
        assert fit.stderr == 0.0

    def test_weighting_prefers_tight_points(self):
        # one wildly uncertain outlier should barely move the fit
        ts = (100.0, 200.0, 300.0, 400.0)
        recs = list(self.synthetic(2e-4, 0.1, ts).records)
        recs[2] = CoherenceRecord(t=300.0, mean=0.5, stderr=0.09,
                                  n_samples=1000)
        stderr = np.array([r.stderr for r in recs])
        fit = fit_decoherence_rate(CoherenceEstimate(delta_x=5.0, records=tuple(recs),
                                                     covariance=np.diag(stderr**2)))
        assert fit.rate == pytest.approx(2e-4, rel=1e-2)

    def test_gls_matches_closed_form(self):
        # correlated estimates: slope, intercept and slope stderr are those of
        # (X^T V^-1 X)^-1 X^T V^-1 y, V_ij = cov_ij / (|mean_i| |mean_j|)
        ts = np.array([100.0, 200.0, 300.0, 400.0])
        y = 0.17 + 2.5e-4 * ts + np.array([3e-4, -2e-4, 5e-4, -1e-4])
        sd = np.array([1.0, 1.5, 2.0, 3.0]) * 1e-4
        cov = 0.6 ** np.abs(np.subtract.outer(np.arange(4), np.arange(4))) * np.outer(sd, sd)
        recs = tuple(CoherenceRecord(t=t, mean=math.exp(-yt) * complex(0.6, 0.8),
                                     stderr=s, n_samples=1000)
                     for t, yt, s in zip(ts, y, sd))
        fit = fit_decoherence_rate(CoherenceEstimate(delta_x=5.0, records=recs,
                                                     covariance=cov))
        x = np.column_stack([ts, np.ones(4)])
        v_inv = np.linalg.inv(cov * np.outer(np.exp(y), np.exp(y)))
        a = np.linalg.inv(x.T @ v_inv @ x)
        rate, intercept = a @ x.T @ v_inv @ y
        assert fit.rate == pytest.approx(rate, rel=1e-9)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9)
        assert fit.stderr == pytest.approx(math.sqrt(a[0, 0]), rel=1e-9)
        # the diagonal covariance is the weighted fit of independent records
        wls = fit_decoherence_rate(CoherenceEstimate(delta_x=5.0, records=recs,
                                                     covariance=np.diag(sd * sd)))
        assert fit.rate != pytest.approx(wls.rate, rel=1e-3)   # the correlations count

    def test_covariance_not_positive_definite(self):
        ts = (100.0, 200.0, 300.0, 400.0)
        est = self.synthetic(2e-4, 0.1, ts, stderr=1e-4)
        cov = np.eye(4) * 1e-8
        cov[0, 1] = cov[1, 0] = 2e-8     # a correlation of 2
        with pytest.raises(FitDegenerate):
            fit_decoherence_rate(CoherenceEstimate(delta_x=5.0, records=est.records,
                                                   covariance=cov))

    def test_needs_four_times(self):
        est = self.synthetic(1e-4, 0.0, (100.0, 200.0, 300.0))
        with pytest.raises(ValueError):
            fit_decoherence_rate(est)

    def test_needs_factor_two_span(self):
        est = self.synthetic(1e-4, 0.0, (100.0, 110.0, 120.0, 130.0))
        with pytest.raises(FitDegenerate):
            fit_decoherence_rate(est)

    def test_undersampled_signal(self):
        recs = tuple(CoherenceRecord(t=t, mean=0.01, stderr=0.01,
                                     n_samples=1000)
                     for t in (100.0, 200.0, 300.0, 400.0))
        with pytest.raises(UndersampledSignal):
            fit_decoherence_rate(CoherenceEstimate(delta_x=5.0, records=recs,
                                                   covariance=np.diag(np.full(4, 0.01**2))))
