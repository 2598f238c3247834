import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confdec.errors import IndefiniteCovariance, ResolutionError
from confdec.field import (_PAD_CORR_TIMES, CorrelationModel, FieldGrid,
                           _draw_streams, _embedding, _in_threads, _smooth_length,
                           embedding_spectrum, estimate_g1, estimate_g2,
                           odd_moment_check, sample_field)

TAU = 1.0
DT = TAU / 8.0


def make_realization(n_steps=32768, seed=42):
    model = CorrelationModel.gaussian(TAU)
    grid = FieldGrid(dt=DT, n_steps=n_steps)
    return sample_field(model, grid, seed)


def philox_streams(key, streams, L, amp, n_steps):
    """The streams of ``key`` from a fresh numpy generator each.

    Stream ``s`` of ``key = (e0[, e1[, e2]])``, a missing component counting
    as 0, draws from ``Generator(Philox(key=(e0, e1), counter=(0, e2,
    len(key), s)))``, with the 128-bit key and 256-bit counter given as ints
    whose little-endian 64-bit words those are.  The spectrum is filled real
    part first, then ``+= 1j * ...``, then weighted in place, independently of
    the library's assembly.
    """
    e0, e1, e2 = key + (0,) * (3 - len(key))
    half = L // 2 + 1
    out = []
    for s in streams:
        gen = np.random.Generator(np.random.Philox(
            key=e0 | e1 << 64, counter=e2 << 64 | len(key) << 128 | s << 192))
        z = gen.standard_normal(L)
        spec = np.zeros(half, dtype=complex)
        spec.real = z[:half]
        spec[1:-1] += 1j * z[half:]
        spec *= amp
        out.append(np.fft.irfft(spec, n=L)[:n_steps])
    return np.array(out)


# keys of one, two and three components, with the largest component, mixed in one batch
MIXED_KEYS = [(0,), (2**64 - 1,), (7, 1), (2**64 - 1, 2**64 - 1), (11, 3, 0),
              (11, 3, 255), (0, 2**64 - 1, 1), (2**64 - 1, 0, 2**64 - 1)]


class TestCorrelationModel:
    def test_gaussian_values(self):
        m = CorrelationModel.gaussian(2.0)
        assert m.g1(0.0) == 1.0
        assert m.g1(2.0) == pytest.approx(math.exp(-1.0))
        assert m.g1(-2.0) == m.g1(2.0)

    def test_gaussian_array(self):
        m = CorrelationModel.gaussian(1.0)
        s = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(m.g1(s), np.exp(-s**2))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            CorrelationModel.gaussian(0.0)
        with pytest.raises(ValueError):
            CorrelationModel.gaussian(-1.0)

    def test_tabulated_basic(self):
        lags = np.linspace(0.0, 5.0, 41)
        m = CorrelationModel.tabulated(lags, np.exp(-lags**2))
        assert m.kind == "tabulated"
        assert m.g1(0.0) == 1.0
        # beyond the table the correlation is zero
        assert m.g1(6.0) == 0.0
        # linear interpolation between knots
        mid = 0.5 * (m.g1(lags[3]) + m.g1(lags[4]))
        assert m.g1(0.5 * (lags[3] + lags[4])) == pytest.approx(mid)

    def test_tabulated_tau_inferred(self):
        lags = np.linspace(0.0, 5.0, 41)
        m = CorrelationModel.tabulated(lags, np.exp(-lags**2))
        # first knot below 1/e
        assert m.g1(m.tau) <= math.exp(-1.0)

    def test_tabulated_even_folding(self):
        pos = np.linspace(0.0, 5.0, 41)
        lags = np.concatenate([-pos[:0:-1], pos])
        vals = np.exp(-lags**2)
        m = CorrelationModel.tabulated(lags, vals)
        assert m.max_lag == 5.0
        assert m.g1(1.0) == pytest.approx(math.exp(-1.0))

    def test_tabulated_uneven_rejected(self):
        pos = np.linspace(0.0, 5.0, 41)
        lags = np.concatenate([-pos[:0:-1], pos])
        vals = np.exp(-lags**2)
        vals[3] += 1e-3  # breaks the mirror symmetry
        with pytest.raises(ValueError):
            CorrelationModel.tabulated(lags, vals)

    def test_tabulated_unordered_rejected(self):
        with pytest.raises(ValueError):
            CorrelationModel.tabulated([0.0, 0.5, 0.3, 1.0],
                                       [1.0, 0.8, 0.4, 0.0])

    def test_tabulated_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CorrelationModel.tabulated([0.5, 1.0], [1.0, 0.0])

    def test_tabulated_must_be_normalized(self):
        with pytest.raises(ValueError):
            CorrelationModel.tabulated([0.0, 1.0], [0.9, 0.0])

    def test_tabulated_must_decay(self):
        with pytest.raises(ValueError):
            CorrelationModel.tabulated([0.0, 1.0], [1.0, 0.5])

    @pytest.mark.parametrize("lags, values", [
        ([0.0, 1.0, 2.0], [1.0, math.nan, 0.0]),
        ([0.0, 1.0, math.inf], [1.0, 0.5, 0.0]),
    ], ids=["nan_value", "inf_lag"])
    def test_tabulated_must_be_finite(self, lags, values):
        with pytest.raises(ValueError, match="finite"):
            CorrelationModel.tabulated(lags, values, tau=1.0)

    def test_breakpoints(self):
        assert CorrelationModel.gaussian(1.0).breakpoints() == []
        m = CorrelationModel.tabulated([0.0, 1.0, 2.0], [1.0, 0.3, 0.0])
        assert m.breakpoints() == [0.0, 1.0, 2.0]


class TestGrid:
    def test_times(self):
        g = FieldGrid(dt=0.5, n_steps=4, t_start=-1.0)
        np.testing.assert_allclose(g.times(), [-1.0, -0.5, 0.0, 0.5])
        assert g.duration == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldGrid(dt=0.0, n_steps=8)
        with pytest.raises(ValueError):
            FieldGrid(dt=0.1, n_steps=1)

    def test_embedding_length_is_scipy_next_fast_len(self):
        # every target up to 20000, which covers the MC grids, the 2048
        # above each of the two longest sampled grids, 2**15 and 2**18 steps,
        # and two targets far from the next 5-smooth length, that of
        # --dt 1e-11 among them: 5.3e9 below 805306368000
        from scipy.fft import next_fast_len
        targets = [*range(1, 20001), *range(2**15, 2**15 + 2048),
                   *range(2**18, 2**18 + 2048), 10**12 + 1, 8 * 10**11 + 32768]
        assert [_smooth_length(t) for t in targets] == [next_fast_len(t, real=True)
                                                        for t in targets]

    def test_embedding_length_is_the_least_even_smooth_length(self):
        # the even 5-smooth lengths are twice the 5-smooth ones; check L
        # against a direct search that steps a 5-smooth length up until it
        # is even, for every n_steps up to 4096 (targets 66 to 4160)
        def stepped(target):
            n = _smooth_length(target)
            while n % 2:
                n = _smooth_length(n + 1)
            return n
        pad = math.ceil(_PAD_CORR_TIMES * TAU / DT)
        model = CorrelationModel.gaussian(TAU)
        steps = range(2, 4097)
        # the uncached function, so the run leaves the memo as it found it
        assert [_embedding.__wrapped__(model, DT, n)[0] for n in steps] == [
            stepped(n + pad) for n in steps]

    @pytest.mark.parametrize("dt, n_steps", [
        (1e-11, 32768),     # `confdec field --dt 1e-11`: L = 805306368000
        (DT, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8),
    ], ids=["dt_1e-11", "physical_memory_in_points"])
    def test_embedding_beyond_physical_memory_refused(self, dt, n_steps):
        # refused from its length alone, before any array is allocated
        with pytest.raises(ValueError, match=f"dt = {dt!r} and n_steps = {n_steps} "
                                             "need an embedding of .* physical memory"):
            _embedding(CorrelationModel.gaussian(TAU), dt, n_steps)


class TestSampling:
    def test_deterministic(self):
        r1 = make_realization(n_steps=512, seed=7)
        r2 = make_realization(n_steps=512, seed=7)
        assert np.array_equal(r1.xi_plus, r2.xi_plus)
        assert np.array_equal(r1.xi_minus, r2.xi_minus)

    def test_int_and_singleton_tuple_seed_agree(self):
        r1 = make_realization(n_steps=256, seed=5)
        r2 = make_realization(n_steps=256, seed=(5,))
        assert np.array_equal(r1.xi_plus, r2.xi_plus)

    def test_streams_independent_draws(self):
        r = make_realization(n_steps=512, seed=7)
        assert not np.array_equal(r.xi_plus, r.xi_minus)

    def test_seeds_differ(self):
        r1 = make_realization(n_steps=256, seed=1)
        r2 = make_realization(n_steps=256, seed=2)
        assert not np.array_equal(r1.xi_plus, r2.xi_plus)

    def test_bad_seeds(self):
        model = CorrelationModel.gaussian(TAU)
        grid = FieldGrid(dt=DT, n_steps=16)
        for bad in (-1, 1.5, (1, -2), (), "abc", 2**64, (1, 2, 3, 4), True):
            with pytest.raises(ValueError, match="seed"):
                sample_field(model, grid, bad)

    def test_resolution_guard(self):
        model = CorrelationModel.gaussian(TAU)
        with pytest.raises(ResolutionError):
            sample_field(model, FieldGrid(dt=TAU / 4.0, n_steps=64), 0)
        # dt exactly tau/8 is allowed
        sample_field(model, FieldGrid(dt=TAU / 8.0, n_steps=64), 0)

    def test_arrays_read_only(self):
        r = make_realization(n_steps=64, seed=0)
        with pytest.raises(ValueError):
            r.xi_plus[0] = 3.0

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
    def test_sample_field_is_numpy_route(self, seed):
        model = CorrelationModel.gaussian(TAU)
        grid = FieldGrid(dt=DT, n_steps=100)
        L, amp = embedding_spectrum(model, grid)
        r = sample_field(model, grid, seed)
        ref = philox_streams((seed,), (0, 1), L, amp, grid.n_steps)
        np.testing.assert_array_equal(r.xi_plus, ref[0])
        np.testing.assert_array_equal(r.xi_minus, ref[1])

    @pytest.mark.parametrize("streams", [(0,), (1,), (0, 1)])
    def test_draws_are_philox_layout(self, streams):
        grid = FieldGrid(dt=DT, n_steps=100)
        L, amp = embedding_spectrum(CorrelationModel.gaussian(TAU), grid)
        xi = _draw_streams(MIXED_KEYS, L, amp, grid.n_steps, streams)
        assert xi.shape == (len(streams), len(MIXED_KEYS), grid.n_steps)
        for j, key in enumerate(MIXED_KEYS):
            np.testing.assert_array_equal(
                xi[:, j], philox_streams(key, streams, L, amp, grid.n_steps))

    def test_sample_field_keys_by_seed_and_its_length(self):
        # the component count is a counter word, so trailing zeros still key
        # three different draws
        model = CorrelationModel.gaussian(TAU)
        grid = FieldGrid(dt=DT, n_steps=64)
        L, amp = embedding_spectrum(model, grid)
        draws = []
        for seed in ((5,), (5, 0), (5, 0, 0)):
            r = sample_field(model, grid, seed)
            np.testing.assert_array_equal(
                [r.xi_plus, r.xi_minus], philox_streams(seed, (0, 1), L, amp, grid.n_steps))
            draws.append(r.xi_plus)
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_determinism_over_seeds(self, seed):
        r1 = make_realization(n_steps=64, seed=seed)
        r2 = make_realization(n_steps=64, seed=seed)
        assert np.array_equal(r1.xi_plus, r2.xi_plus)
        assert np.array_equal(r1.xi_minus, r2.xi_minus)

    def test_spectrum_positive_gaussian(self):
        # Poisson summation makes the periodized Gaussian spectrum positive;
        # in floats the ~1e-40 tail lands below FFT rounding noise, so the
        # only clipping allowed is at the noise floor
        model = CorrelationModel.gaussian(TAU)
        grid = FieldGrid(dt=DT, n_steps=4096)
        L, amp = embedding_spectrum(model, grid)
        assert L % 2 == 0
        assert L >= 4096
        assert amp.shape == (L // 2 + 1,)
        assert np.all(amp >= 0.0)
        k = np.arange(L)
        eig = np.fft.fft(model.g1(np.minimum(k, L - k) * DT)).real
        assert eig.min() >= -1e-13 * eig.max()

    def test_spectrum_memoized_read_only(self):
        # one spectrum per (model, dt, n_steps): a second call, on a grid
        # that differs only in its start, returns the same read-only arrays
        model = CorrelationModel.gaussian(TAU)
        L, amp = embedding_spectrum(model, FieldGrid(dt=DT, n_steps=300))
        again = embedding_spectrum(CorrelationModel.gaussian(TAU),
                                   FieldGrid(dt=DT, n_steps=300, t_start=-5.0))
        assert again[0] == L and again[1] is amp
        emb = _embedding(model, DT, 300)
        assert emb is _embedding(model, DT, 300) and emb[1] is amp
        for arr in emb[1:]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("model", [
        CorrelationModel.gaussian(TAU),
        CorrelationModel.tabulated(np.linspace(0.0, 8.0, 65),
                                   np.exp(-2.0 * np.linspace(0.0, 8.0, 65))),
    ], ids=["gaussian", "tabulated"])
    def test_spectrum_hands_over_the_covariance(self, model):
        # the identities the Monte Carlo scorer relies on: amp and row come
        # from the clipped half-spectrum eig, C h is one FFT product, and
        # h^T C h is the Parseval sum of eig over rfft(h)
        n = 300
        L, amp, row, eig = _embedding(model, DT, n)
        half = L // 2 + 1
        assert eig.shape == amp.shape == (half,) and row.shape == (L,)
        assert np.all(eig >= 0.0)
        assert np.array_equal(amp[1:-1], np.sqrt(eig[1:-1] * L / 2.0))
        assert np.array_equal(amp[[0, -1]], np.sqrt(eig[[0, -1]] * L))
        assert np.array_equal(row, np.fft.irfft(eig, n=L))
        cov = row[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        h = np.random.default_rng(11).standard_normal((4, n))
        spec = np.fft.rfft(h, n=L)
        c_h = np.fft.irfft(eig * spec, n=L)[:, :n]
        np.testing.assert_allclose(c_h, h @ cov, rtol=0.0, atol=1e-12 * np.abs(h @ cov).max())
        weights = np.full(half, 2.0 / L) * eig
        weights[[0, -1]] *= 0.5
        quad = np.einsum("ij,jk,ik->i", h, cov, h)
        np.testing.assert_allclose((np.abs(spec) ** 2) @ weights, quad, rtol=1e-12)

    def test_indefinite_table_rejected(self):
        m = CorrelationModel(tau=1.0, table=((0.0, 1.0), (1.0, -0.9), (2.0, 0.8),
                                             (3.0, -0.6), (4.0, 0.0)))
        with pytest.raises(IndefiniteCovariance):
            embedding_spectrum(m, FieldGrid(dt=0.125, n_steps=256))

    def test_ensemble_covariance_matches_target(self):
        # average lagged products over many short realizations and compare
        # with the requested correlation
        model = CorrelationModel.gaussian(TAU)
        grid = FieldGrid(dt=DT, n_steps=64)
        n_real = 3000
        lags = np.arange(0, 17)
        acc = np.zeros(lags.size)
        for s in range(n_real):
            r = sample_field(model, grid, (99, s))
            for i, k in enumerate(lags):
                acc[i] += np.mean(r.xi_plus[:64 - k] * r.xi_plus[k:])
        acc /= n_real
        target = model.g1(lags * DT)
        # ~1/sqrt(n_real * n_eff) fluctuation; generous fixed tolerance
        np.testing.assert_allclose(acc, target, atol=0.05)

    def test_long_run_variance_near_unity(self):
        r = make_realization(n_steps=262144, seed=3)
        assert r.xi_plus.var() == pytest.approx(1.0, abs=0.05)
        assert r.xi_minus.var() == pytest.approx(1.0, abs=0.05)


@pytest.fixture(scope="module")
def realization():
    return make_realization(n_steps=32768, seed=42)


class TestEstimators:

    def test_g1_matches_model(self, realization):
        est = estimate_g1(realization, 3.0)
        model = CorrelationModel.gaussian(TAU)
        for lag in (0.0, 0.5, 1.0, 2.0, 3.0):
            k = int(round(lag / DT))
            target = model.g1(lag)
            for stream in ("plus", "minus"):
                dev = abs(est.estimates[stream][k] - target)
                assert dev <= 4.0 * est.stderrs[stream][k], (stream, lag)

    def test_g1_cross_consistent_with_zero(self, realization):
        est = estimate_g1(realization, 3.0)
        for k in range(0, 25, 4):
            assert abs(est.estimates["cross"][k]) <= 4.0 * est.stderrs["cross"][k]

    def test_g2_same_stream(self, realization):
        est = estimate_g2(realization, 3.0)
        model = CorrelationModel.gaussian(TAU)
        for lag in (0.0, 0.5, 1.0, 2.0):
            k = int(round(lag / DT))
            target = 1.0 + 2.0 * model.g1(lag) ** 2
            dev = abs(est.estimates["plus"][k] - target)
            assert dev <= 4.0 * est.stderrs["plus"][k], lag

    def test_g2_cross_is_product_of_variances(self, realization):
        est = estimate_g2(realization, 3.0)
        for k in range(0, 25, 8):
            dev = abs(est.estimates["cross"][k] - 1.0)
            assert dev <= 4.0 * est.stderrs["cross"][k]

    def test_odd_moments_vanish(self, realization):
        moments = odd_moment_check(realization)
        assert [order for order, _est, _err in moments] == [1, 3, 5]
        for order, est, err in moments:
            assert abs(est) <= 4.0 * err, order

    def test_short_series_stderrs_finite(self):
        # 200 steps hold fewer than 8 of the default blocks, so the blocks
        # shrink; unshrunk, the longest lag products form one block, whose
        # standard error is NaN
        short = make_realization(n_steps=200, seed=5)
        for est in (estimate_g1(short, 3.0), estimate_g2(short, 3.0)):
            for err in est.stderrs.values():
                assert np.all(np.isfinite(err) & (err > 0))
        for order, _est, err in odd_moment_check(short):
            assert math.isfinite(err) and err > 0, order

    def test_max_lag_guard(self, realization):
        for estimate in (estimate_g1, estimate_g2):
            with pytest.raises(ValueError, match="quarter of the duration"):
                estimate(realization, realization.grid.duration)
            with pytest.raises(ValueError, match="max_lag must be non-negative"):
                estimate(realization, -1.0)

    def test_lag_axis(self, realization):
        est = estimate_g1(realization, 2.0)
        assert est.lags[0] == 0.0
        assert est.lags[-1] == pytest.approx(2.0)
        np.testing.assert_allclose(np.diff(est.lags), DT)


class TestInThreads:
    def test_results_in_call_order(self):
        # more threads than cores and a short switch interval interleave the
        # threads often, so a call lost or made twice would show; the first
        # calls sleep longest, so the results are placed, not appended
        made = []

        def call(k):
            time.sleep(0.001 * max(8 - k, 0))
            made.append(k)
            return k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _in_threads([lambda k=k: call(k) for k in range(300)], 4)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(300))
        assert sorted(made) == list(range(300))

    def test_each_call_on_its_own_thread(self):
        # the barrier holds every call until all four run at once, so no
        # thread ident can be reused by a later thread
        barrier = threading.Barrier(4)

        def ident():
            barrier.wait(timeout=30)
            return threading.get_ident()

        idents = _in_threads([ident] * 4, 8)
        assert idents[0] == threading.get_ident()
        assert len(set(idents)) == 4

    def test_one_thread_runs_every_call_on_the_caller(self):
        before = threading.active_count()
        seen = _in_threads([lambda: (threading.get_ident(), threading.active_count())] * 5, 1)
        assert seen == [(threading.get_ident(), before)] * 5

    def test_an_exception_stops_the_calls_not_started(self):
        # calls 0-2 start at once on the caller and two helpers; call 1 fails,
        # and calls 0 and 2 return only once its helper has stopped, so both
        # threads see the failure and take no further call; the error is
        # raised only after helper 2 has finished call 2 and joined
        started, finished, threads = set(), [], {}
        barrier = threading.Barrier(3)

        def call(k):
            started.add(k)
            threads[k] = threading.current_thread()
            barrier.wait(timeout=30)
            if k == 1:
                raise RuntimeError("call 1 failed")
            threads[1].join(30)
            if k == 2:
                time.sleep(0.05)
                finished.append(k)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="call 1 failed"):
            _in_threads([lambda k=k: call(k) for k in range(10)], 3)
        assert started == {0, 1, 2}
        assert finished == [2]
        assert threading.active_count() == before

    def test_no_calls(self):
        assert _in_threads([], 4) == []
