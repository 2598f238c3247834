"""Monte Carlo verification of wavepacket decoherence by phase accumulation.

Each sample draws an independent field realization, integrates the effective
potential at two positions to get the accumulated phases

    phi(x) = -(1/hbar) * integral_0^T V(x, t) dt,
    V(x, t) = (M c^2 / 2) * ((1 + A0 * (xi+ + xi-))^2 - 1),

and averages ``exp(i * (phi(x') - phi(x)))`` over the ensemble.  The decay of
that average with T gives the decoherence rate for separation ``|x' - x|``.

The phase API is ``accumulate_phase`` (one realization at one position)
and ``sample_phases`` (every draw at both positions); both integrate the
potential of the streams as drawn.  ``coherence_mc`` draws the minus stream
only and scores each draw by an exact conditional coherence (conditional
Monte Carlo, or Rao-Blackwellization), with two Gaussian integrals done in
closed form.  Given xi-, the phase difference is linear plus quadratic in
the Gaussian plus stream, with the quadratic part confined to the window
edges where the two light cones do not overlap, so the integral over xi+
has a closed form.  The part of the phase in xi- alone is read on the
minus-window edges, since the interiors of the two minus windows cancel;
its linear a0 part is one scalar ``s = v.xi-`` there, and the integral over
s, with the rest of xi- held fixed, has a closed form too.  That halves
the synthesis per draw and cuts the per-draw variance about 100x at dx = 5
and 9-20x at dx <= 1 against scoring by ``E[exp(i dphi) | xi-]`` alone.

One ensemble serves every T.  Draws are keyed by ``(master seed, sample
index)`` and synthesized by ``field`` on the realization grid of the longest
T; every shorter T reads a prefix of the same streams, since all the grids
start at the same node.  So the phases are reproducible and bit-identical
whatever the block batching, and equal to those of ``sample_field`` under
the same key and grid; ``coherence_mc`` reads stream 1 of the same keys,
the minus stream of ``sample_field``.  Each T's coherence, its standard
error and their covariance across T are reduced with numpy over the full
ensemble of draws, and ``fit_decoherence_rate`` fits the rate by
generalized least squares on that covariance.

``coherence_mc`` and ``sample_phases`` run their blocks of draws on every
usable core; README "Reproducibility" says why their results do not depend
on the core or BLAS thread count.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .core import NATURAL, PhysicalConstants
from .errors import (FitDegenerate, InsufficientSamples, OutOfRange,
                     UndersampledSignal)
from .field import (CorrelationModel, FieldGrid, FieldRealization,
                    _draw_streams, _embedding, _grid_step, _in_threads, _is_int,
                    _refuse_beyond_memory, _seed_entropy, _usable_cores,
                    embedding_spectrum)

_BLOCK = 48             # samples per synthesis batch: bounds the streams each thread holds
_SCORE_BYTES = 34       # peak bytes per score (tracemalloc): z and the block results it joins
_GRID_MARGIN_TAUS = 2.0  # realization slack beyond the light-cone offsets


@dataclass(frozen=True)
class McParams:
    """Configuration of one Monte Carlo coherence run.

    positions
        Pair ``(x, x')`` whose phase difference is tracked.  Each must be a
        whole number of steps ``c dt``, so that the light-cone windows
        t -/+ x/c read the streams at grid nodes.
    t_list
        Flight times, none repeated; each must be a whole number of steps
        ``dt`` and exceed ``10 |x - x'| / c`` so edge effects stay
        subdominant.
    dt
        Integration step, defaulting to ``tau / 8``.

    A position or flight time off a node raises ``ValueError``: reading the
    streams between nodes would bias the rate.
    """

    a0: float
    mass: float
    tau: float
    positions: tuple
    t_list: tuple
    n_samples: int
    seed: int
    dt: float | None = None
    constants: PhysicalConstants = dc_field(default_factory=lambda: NATURAL)

    def __post_init__(self):
        if not self.a0 > 0:
            raise ValueError("a0 must be positive")
        if self.a0 > 0.2:
            raise ValueError("a0 > 0.2 is outside the perturbative regime")
        if self.a0 > 0.1:
            warnings.warn("a0 > 0.1: quartic-order corrections may be visible",
                          stacklevel=2)
        if not (0 < self.mass < math.inf and 0 < self.tau < math.inf):
            raise ValueError("mass and tau must be positive and finite")
        if len(self.positions) != 2:
            raise ValueError("positions must be a pair (x, x')")
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        object.__setattr__(self, "t_list", tuple(float(t) for t in self.t_list))
        if not self.t_list:
            raise ValueError("t_list must not be empty")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        dt = self.dt_effective    # ResolutionError if coarser than tau/8
        for x in self.positions:
            _whole_steps(x, self.constants.c * dt, "position", "c*dt")
        dx_time = abs(self.positions[1] - self.positions[0]) / self.constants.c
        steps = []
        for t in self.t_list:
            if t <= 10.0 * dx_time:
                raise ValueError(
                    f"T = {t} must exceed 10 |x - x'| / c = {10.0 * dx_time}")
            steps.append(_whole_steps(t, dt, "T"))
        if len(set(steps)) < len(steps):
            # every T scores the same draws, so a repeat would make their
            # covariance singular
            raise ValueError(f"t_list repeats a flight time: {self.t_list}")
        if not _is_int(self.n_samples) or self.n_samples < 1:
            raise ValueError(f"n_samples must be an int of at least 1, got {self.n_samples!r}")
        if isinstance(self.seed, (tuple, list)):
            raise ValueError("seed must be a single non-negative int, not a tuple")
        _seed_entropy(self.seed)

    @property
    def dt_effective(self) -> float:
        return _grid_step(self.model, self.dt)

    @property
    def delta_x(self) -> float:
        return abs(self.positions[1] - self.positions[0])

    @property
    def model(self) -> CorrelationModel:
        return CorrelationModel.gaussian(self.tau)


@dataclass(frozen=True)
class CoherenceRecord:
    t: float
    mean: complex
    stderr: float
    n_samples: int


@dataclass(frozen=True, eq=False)
class CoherenceEstimate:
    """Coherence records, one per T, and the covariance of their estimates.

    ``covariance[i, j]`` is the sample covariance, over the draws and
    divided by their number, of the scores of T_i and T_j, each projected
    on its own record's mean direction; its diagonal is each record's
    ``stderr**2``.
    """

    delta_x: float
    records: tuple
    covariance: np.ndarray


@dataclass(frozen=True)
class RateFit:
    rate: float
    stderr: float
    intercept: float


def _whole_steps(value: float, step: float, name: str, step_name: str = "dt") -> int:
    """``value / step`` as an int; ``ValueError`` unless it is a finite whole number.

    The one rule for lying on a grid node, within a relative 1e-9.
    """
    steps = value / step
    if not (math.isfinite(steps)
            and abs(steps - round(steps)) <= 1e-9 * max(1.0, abs(steps))):
        raise ValueError(f"{name} = {value} is not a whole number of steps "
                         f"{step_name} = {step}")
    return int(round(steps))


def _mc_grid(params: McParams, t: float) -> FieldGrid:
    """Realization grid covering [-max|x|/c - 2 tau, T + max|x|/c + 2 tau], t = 0 on a node."""
    dt = params.dt_effective
    margin = (max(abs(x) for x in params.positions) / params.constants.c
              + _GRID_MARGIN_TAUS * params.tau)
    k0 = int(math.ceil(margin / dt - 1e-9))
    return FieldGrid(dt=dt, n_steps=2 * k0 + _whole_steps(t, dt, "T") + 1,
                     t_start=-k0 * dt)


def _windows(grid: FieldGrid, t: float, x: float, c: float) -> tuple:
    """``(k_t, plus_start, minus_start)`` of the light-cone windows at x over [0, t].

    ``grid`` alone sets the t = 0 node, the step count ``k_t`` and the
    shift: the window reads xi+ at nodes ``plus_start .. plus_start + k_t``
    (retarded, t - x/c) and xi- at ``minus_start .. minus_start + k_t``
    (advanced, t + x/c).  ``OutOfRange`` if the grid does not cover both.
    """
    k0 = -_whole_steps(grid.t_start, grid.dt, "realization start t_start")
    k_t = _whole_steps(t, grid.dt, "t_final")
    if k_t < 1:
        raise ValueError("t_final must be at least one step")
    shift = _whole_steps(x, c * grid.dt, "position", "c*dt")
    starts = (k0 - shift, k0 + shift)
    if min(starts) < 0 or max(starts) + k_t > grid.n_steps - 1:
        raise OutOfRange("realization does not cover the shifted integration window")
    return (k_t, *starts)


def _trapezoid(k_t: int) -> np.ndarray:
    """Trapezoid weights, per unit step, of a window of ``k_t`` steps."""
    w = np.ones(k_t + 1)
    w[0] = w[-1] = 0.5
    return w


def _phase_scale(params: McParams, dt: float) -> float:
    """``-(M c^2 / hbar) dt``: phase per step and unit of ``V / (M c^2/2)``."""
    return -params.mass * params.constants.c**2 / params.constants.hbar * dt


def _phase_at(xi_p, xi_m, grid: FieldGrid, t: float, x: float,
              params: McParams) -> np.ndarray:
    """Phase at x from 0 to t of each realization, for streams stacked as (b, n).

    With ``s = xi+ + xi-`` along the windows of ``_windows``, the trapezoid
    integral of the potential ``V = (M c^2/2)((1 + A0 s)^2 - 1)``:

        -(M c^2 / hbar) dt [A0 sum' s + A0^2/2 sum' s^2].
    """
    k_t, plus, minus = _windows(grid, t, x, params.constants.c)
    s = xi_p[..., plus:plus + k_t + 1] + xi_m[..., minus:minus + k_t + 1]
    # row by row off BLAS, so that a row's sum does not depend on the batch
    return _phase_scale(params, grid.dt) * np.einsum(
        "ij,j->i", params.a0 * s + 0.5 * params.a0**2 * s * s, _trapezoid(k_t))


def accumulate_phase(realization: FieldRealization, x: float, t_final: float,
                     params: McParams) -> float:
    """Phase accumulated at position ``x`` from t = 0 to ``t_final``.

    The step is the realization's ``grid.dt``, whatever ``params.dt`` says.
    The realization start (so that t = 0 is a node), ``t_final`` and ``x``
    must be whole numbers of steps (``ValueError`` otherwise), and the
    realization must cover the shifted window for this position
    (``OutOfRange`` otherwise).
    """
    return float(_phase_at(realization.xi_plus[None, :], realization.xi_minus[None, :],
                           realization.grid, t_final, x, params)[0])


@functools.cache
def _blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` as bundled with numpy, or None.

    It sets the BLAS thread count and returns the count it replaces.  In
    the pthreads OpenBLAS of numpy's wheels that count is the one of the
    whole process, whatever the name says.  Looked up on first use, so that
    importing the module loads no library.
    """
    libs = Path(np.__file__).parent
    for path in sorted((*libs.parent.glob("numpy.libs/*openblas*"),
                        *libs.glob(".dylibs/*openblas*"))):
        try:
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """BLAS on one thread in the block; yields the threads to score blocks on.

    The BLAS thread count is the whole process's, so ``coherence_mc`` calls
    take turns on one lock: each sets the count to 1 and restores the count
    it found.  It yields a usable core each where numpy's BLAS has the
    setter, and 1 where it has none, leaving BLAS as it is.
    """
    with _blas_lock:
        set_threads = _blas_thread_setter()
        if set_threads is None:
            yield 1
            return
        previous = set_threads(1)
        try:
            yield _usable_cores()
        finally:
            set_threads(previous)


def _each_block(params: McParams, streams, func, threads: int) -> list:
    """``func(xi)`` of each batch of ``_BLOCK`` draws keyed ``(seed, j)``, in batch order.

    ``xi`` holds the batch's given streams, ``(len(streams), b, n)``, on the
    grid of the longest T.  The batches share ``threads`` threads and no
    buffer: each call returns its own result.
    """
    grid = _mc_grid(params, max(params.t_list))
    L, amp = embedding_spectrum(params.model, grid)

    def batch(start):
        keys = [(params.seed, j) for j in range(start, min(start + _BLOCK, params.n_samples))]
        return func(_draw_streams(keys, L, amp, grid.n_steps, streams))

    return _in_threads([functools.partial(batch, start)
                        for start in range(0, params.n_samples, _BLOCK)], threads)


def sample_phases(params: McParams, t: float):
    """All per-sample phases ``(phi_x, phi_x')`` at flight time ``t``, streams as drawn.

    The draws are those ``coherence_mc`` scores: keyed ``(seed, j)`` on the
    grid of the longest T of ``params``, so ``t`` may be any whole number of
    steps up to it (``OutOfRange`` beyond).
    """
    grid = _mc_grid(params, max(params.t_list))

    def phase_block(xi):
        return np.array([_phase_at(*xi, grid, t, x, params) for x in params.positions])

    phases = np.concatenate(_each_block(params, (0, 1), phase_block, _usable_cores()), axis=1)
    return phases[0], phases[1]


class _ConditionalScorer:
    """``E[exp(i dphi) | m_perp]`` at flight time ``t``, on T's own grid.

    ``scorer(m)`` scores each row of a block of minus streams m (stream 1
    of the draw keys) on the prefix ``m[:, :n]`` that T's grid spans.  Two
    Gaussian integrals are done in closed form.

    The plus stream.  Given m, the phase difference is ``const(m) + h(m).p
    + p^T diag(D) p`` in the plus stream ``p ~ N(0, C)``, with C the clipped
    circulant covariance the sampler draws from.  D, the difference of the
    two windows' trapezoid weights, is non-zero only on the edge set E where
    the windows do not overlap.  With g = C h and Woodbury on E,

        z(m) = det(I - 2i D_E C_EE)^(-1/2) exp(i const - K(h, h) / 2),
        K(a, b) = a^T C b - g_a^T ((-2i D_E)^-1 + C_EE)^-1 g_b.

    ``h^T C h`` is a Parseval sum and ``g_E = C_{E,:} h`` a projection, both
    from ``field``'s covariance.  The reflection that swaps the two windows
    maps D to -D and keeps the Toeplitz C, so the real eigenvalues of
    ``D_E C_EE`` pair as +-mu and the determinant ``prod (1 + 4 mu^2)`` is
    real and positive.

    The linear direction of m.  The interiors of the two minus windows
    cancel, so ``const(m) = s + m_E^T Q m_E`` is read on their edges E_m,
    with ``s = v.m_E`` and Q diagonal.  With ``sigma^2 = v^T C v`` and
    ``u = C v / sigma^2``, ``m = m_perp + s u`` splits m into independent
    parts, ``s ~ N(0, sigma^2)``, and along u

        log z(m_perp + s u) = alpha + beta s + gamma s^2,
        beta = i + 2i m_perp^T Q u - K(h(m_perp), h_u),
        gamma = i u^T Q u - K(h_u, h_u) / 2,

    ``h_u = h(u) - h(0)``.  So the score is ``(1 - 2 gamma sigma^2)^(-1/2)
    exp(alpha + beta^2 sigma^2 / (2 (1 - 2 gamma sigma^2)))``.  Since
    ``|z(m)| <= 1`` for every h, Re K(h, h) >= 0 and Re(1 - 2 gamma sigma^2)
    >= 1: the principal root is the right one.  alpha and beta come from the
    slope of log z at m itself, with no second Parseval or Woodbury pass:
    ``K(h, h_u) = h.k_u`` with ``k_u = C h_u - C_{E,:}^T W g_u`` fixed per T
    (W the Woodbury matrix above), so it comes out of the same projection
    as ``g_E``, as two more rows next to ``C_{E,:}``.
    Coincident positions give v = 0 and sigma^2 = 0: then u = 0 and the
    score is z(m).

    The band.  Let ``reach`` be 1 plus the last lag k < n with ``|C[k, 0]| >
    eps C[0, 0]`` (49 steps, about 6 tau, for the Gaussian at dt = tau/8).
    The projection reads h only on the columns within ``2 reach + shift``
    of E, with ``shift`` the largest offset ``|plus - minus|`` between a
    position's windows: a row of ``C_{E,:}`` is at most eps C[0, 0] beyond
    ``reach`` of its edge, and so is k_u beyond the band, since u lies
    within ``reach`` of E_m, ``h_u`` within ``shift`` more of E and
    ``C h_u`` within ``reach`` more.  So the band drops only terms at the
    roundoff of the full sums.  A covariance that never falls below eps
    keeps every column.

    The setup keeps, per T: the grid's ``n`` nodes and embedding length
    ``L``; the ``windows`` of ``_windows`` (x's first) and their trapezoid
    weights ``w``; the edge sets ``edge`` (E) and ``edge_m`` (E_m); the
    band's ``cols``; ``project``, whose rows are C_{E,cols}, Re k_u and
    Im k_u; the ``woodbury`` matrix W; ``parseval_ri``, the Parseval
    weights on the interleaved (re, im) of ``rfft(h, n=L)``; ``v``, the
    diagonal ``q`` of Q and ``qu = Q u`` on E_m; ``h_0 = h(0)`` on E and
    ``h_scale``, the factor of ``carry`` in h; ``sigma2``, ``gamma``,
    ``spread = 1 - 2 gamma sigma^2`` and ``factor``, the determinant
    factor over the root of ``spread``.  A call writes none of them, so
    threads can share one scorer.
    """

    def __init__(self, params: McParams, t: float):
        grid = _mc_grid(params, t)
        self.n = n = grid.n_steps
        a0, scale = params.a0, _phase_scale(params, grid.dt)
        self.h_scale = scale * a0**2
        # the phase difference is phi(x') - phi(x): position x enters with sign -1
        self.windows = [_windows(grid, t, x, params.constants.c) for x in params.positions]
        self.L, _amp, row, eig = _embedding(params.model, grid.dt, n)
        self.w = _trapezoid(self.windows[0][0])
        plus_w, minus_w = self.carry(np.ones((1, n)))[0, :n], np.zeros(n)
        for sign, (k_t, _plus, minus) in zip((-1.0, 1.0), self.windows):
            minus_w[minus:minus + k_t + 1] += sign * self.w
        self.edge = edge = np.flatnonzero(plus_w)
        reach = np.flatnonzero(np.abs(row[:n]) > np.finfo(float).eps * row[0])[-1] + 1
        band = 2 * reach + max(abs(plus - minus) for _k_t, plus, minus in self.windows)
        edges_below = np.concatenate(([0], np.cumsum(plus_w != 0.0)))
        j = np.arange(n)
        self.cols = cols = np.flatnonzero(edges_below[np.minimum(j + band + 1, n)]
                                          > edges_below[np.maximum(j - band, 0)])
        d_edge = 0.5 * scale * a0**2 * plus_w[edge]
        c_edge = row[np.abs(edge[:, None] - cols)]      # C_{E,cols}
        m_ee = np.eye(edge.size) - 2.0j * d_edge[:, None] * row[np.abs(edge[:, None] - edge)]
        det_factor = math.exp(-0.5 * np.linalg.slogdet(m_ee).logabsdet)
        # ((-2i D_E)^-1 + C_EE)^-1 = (I - 2i D_E C_EE)^-1 (-2i D_E)
        self.woodbury = np.linalg.solve(m_ee, np.diag(-2.0j * d_edge))

        self.edge_m = edge_m = np.flatnonzero(minus_w)
        self.v = v = scale * a0 * minus_w[edge_m]
        self.q = 0.5 * a0 * v       # the diagonal of Q
        # C v and C h_u both by the FFT, on vectors zero-padded to L
        cv = np.fft.irfft(eig * np.fft.rfft(scale * a0 * minus_w, n=self.L), n=self.L)[:n]
        self.sigma2 = sigma2 = float(v @ cv[edge_m])
        u = cv / sigma2 if sigma2 > 0.0 else cv
        self.qu = self.q * u[edge_m]
        self.h_0 = scale * a0 * plus_w[edge]            # h(0), zero off E
        h_u = self.h_scale * self.carry(u[None])[0]     # h(u) - h(0)
        # K(h, h_u) = h.k_u: k_u = C h_u - C_{E,:}^T W g_u
        c_h_u = np.fft.irfft(eig * np.fft.rfft(h_u), n=self.L)[cols]
        h_u = h_u[cols]
        w_g_u = self.woodbury @ (c_edge @ h_u)
        k_u = c_h_u - w_g_u.real @ c_edge - 1j * (w_g_u.imag @ c_edge)
        self.project = np.vstack([c_edge, k_u.real, k_u.imag])  # rows: C_{E,:}, Re k_u, Im k_u
        # h^T C h = sum_j parseval_j |rfft(h, n=L)_j|^2, on the interleaved (re, im)
        parseval = np.full(eig.size, 2.0 / self.L) * eig
        parseval[[0, -1]] *= 0.5
        self.parseval_ri = np.repeat(parseval, 2)

        self.gamma = 1j * (self.qu @ u[edge_m]) - 0.5 * (h_u @ k_u)
        self.spread = 1.0 - 2.0 * self.gamma * sigma2
        self.factor = det_factor * self.spread**-0.5

    def carry(self, m):
        """The weighted, signed minus windows of m, moved onto the plus ones, padded to L."""
        out = np.zeros((m.shape[0], self.L))
        for sign, (k_t, plus, minus) in zip((-1.0, 1.0), self.windows):
            out[:, plus:plus + k_t + 1] += sign * self.w * m[:, minus:minus + k_t + 1]
        return out

    def __call__(self, m):
        m = m[:, :self.n]      # a view of the prefix: a copy costs time
        h = self.carry(m)
        h *= self.h_scale
        h[:, self.edge] += self.h_0
        ri = np.fft.rfft(h, axis=-1).view(np.float64)
        # take, not h[:, cols]: that copy is F-ordered, and BLAS sums one of a
        # few rows in another order than the C-ordered rows of the full h
        proj = h.take(self.cols, axis=1) @ self.project.T
        g, k_h_u = proj[:, :-2], proj[:, -2] + 1j * proj[:, -1]
        m_edge = m[:, self.edge_m]
        s = m_edge @ self.v
        log_z = 1j * (s + (m_edge * m_edge) @ self.q) - 0.5 * (
            np.einsum("ij,ij,j->i", ri, ri, self.parseval_ri)
            - ((g @ self.woodbury) * g).sum(axis=-1))
        # the slope of log z along u at m, moved back to m_perp = m - s u
        beta = 1j + 2j * (m_edge @ self.qu) - k_h_u - 2.0 * self.gamma * s
        alpha = log_z - (beta + self.gamma * s) * s
        return self.factor * np.exp(alpha + 0.5 * self.sigma2 * beta * beta / self.spread)


def coherence_mc(params: McParams) -> CoherenceEstimate:
    """Ensemble coherence ``M[exp(i (phi(x') - phi(x)))]`` for every T.

    One ensemble of ``n_samples`` draws, keyed ``(seed, j)``, serves every T:
    each draw's minus stream is synthesized once on the grid of the longest
    T, and each T scores the prefix of it that its own grid spans (every
    grid starts at the same node).  Only the minus stream is drawn: each
    draw is scored as its exact conditional coherence ``z_j = E[exp(i dphi)
    | m_perp]``, the plus stream and the linear direction of the minus
    stream integrated in closed form (``_ConditionalScorer``; conditional
    Monte Carlo, or Rao-Blackwellization).  The mean of ``z_j`` is unbiased
    for the coherence, with a smaller variance than ``exp(i dphi)`` of the
    draws.  Each T's scorer uses the covariance of its own grid's
    embedding; its row agrees with the longest grid's, which the prefix is
    drawn from, to 2 eps absolute on the grids of
    ``tests/test_montecarlo.py::test_each_scorer_covariance_matches_the_drawn_prefix``.

    The standard error is that of the coherence magnitude: the sample
    standard deviation of ``z_j`` along the mean direction over
    ``sqrt(n_samples)``.  Since the T share draws, their estimates
    correlate; ``covariance`` holds the sample covariance of those
    projected scores over ``n_samples``, for ``fit_decoherence_rate``.
    """
    if params.n_samples < 100:
        raise InsufficientSamples(
            f"n_samples = {params.n_samples} < 100 gives meaningless statistics")
    n, n_t = params.n_samples, len(params.t_list)
    _refuse_beyond_memory(n_t * n * _SCORE_BYTES,
                          f"n_samples = {n} at {n_t} flight times need {n_t * n} scores")

    def score_block(xi):
        # a phase too large to score overflows; the scores are checked below
        with np.errstate(all="ignore"):     # the error state is per thread
            return np.array([score(xi[0]) for score in scorers])

    # one BLAS thread throughout: a BLAS call on more threads leaves them
    # spinning for a while, against the scoring threads
    with _one_blas_thread() as threads:
        with np.errstate(all="ignore"):
            scorers = [_ConditionalScorer(params, t) for t in params.t_list]
        z = np.concatenate(_each_block(params, (1,), score_block, threads), axis=1)
        bad = ~np.isfinite(z).all(axis=1)
        if bad.any():
            raise UndersampledSignal(
                "the conditional coherence scores are not finite at T = "
                + ", ".join(f"{t:g}" for t in np.asarray(params.t_list)[bad])
                + f": the phase at mass {params.mass:g} is too large to score")
        mean = z.mean(axis=1)
        along = (z * np.exp(-1j * np.angle(mean))[:, None]).real
        along -= along.mean(axis=1, keepdims=True)
        covariance = (along @ along.T) / ((n - 1) * n)
    stderr = np.sqrt(np.diag(covariance))
    records = tuple(CoherenceRecord(t=t, mean=complex(m), stderr=float(e), n_samples=n)
                    for t, m, e in zip(params.t_list, mean, stderr))
    return CoherenceEstimate(delta_x=params.delta_x, records=records,
                             covariance=covariance)


def _check_fit_times(t_list) -> None:
    """Refuse a T grid the rate fit cannot use: under 4 distinct T, or a span under 2x."""
    ts = np.asarray(t_list, dtype=float)
    if np.unique(ts).size < 4:
        raise ValueError("rate fit needs at least 4 distinct T values")
    if ts.max() < 2.0 * ts.min():
        raise FitDegenerate(
            f"T range [{ts.min()}, {ts.max()}] spans less than a factor of 2")


def fit_decoherence_rate(estimate: CoherenceEstimate) -> RateFit:
    """Generalized least-squares fit of ``-ln|mean|`` against T (Aitken 1935).

    The slope estimates the decoherence rate; the intercept absorbs the
    T-independent boundary dephasing.  The covariance of ``-ln|mean_i|`` is
    taken to first order, ``V_ij = covariance_ij / (|mean_i| |mean_j|)``;
    with a diagonal covariance this is the weighted fit with weights
    ``(|mean| / stderr)^2``.  When every stderr is zero the points are exact
    and the fit is unweighted, with zero stderr.  Requires at least four
    distinct T spanning a factor of two, with every coherence at least five
    standard errors above zero; a covariance that is not positive definite
    raises ``FitDegenerate``.
    """
    recs = estimate.records
    ts = np.array([r.t for r in recs])
    _check_fit_times(ts)
    mags = np.array([abs(r.mean) for r in recs])
    errs = np.array([r.stderr for r in recs])
    low = mags <= 5.0 * errs
    if low.any():
        raise UndersampledSignal("coherence magnitude within 5 stderr of zero at T = "
                                 + ", ".join(f"{t:g}" for t in ts[low]))
    exact = errs.max() == 0.0
    if exact:
        v = np.eye(ts.size)
    else:
        v = np.asarray(estimate.covariance, dtype=float) / np.outer(mags, mags)
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        raise FitDegenerate("the covariance of the coherence estimates is not "
                            "positive definite") from None
    # whiten by the Cholesky factor, then ordinary least squares
    design = np.linalg.solve(chol, np.column_stack([ts, np.ones_like(ts)]))
    (rate, intercept), *_ = np.linalg.lstsq(design, np.linalg.solve(chol, -np.log(mags)),
                                            rcond=None)
    stderr = 0.0 if exact else math.sqrt(np.linalg.inv(design.T @ design)[0, 0])
    return RateFit(rate=float(rate), stderr=stderr, intercept=float(intercept))
