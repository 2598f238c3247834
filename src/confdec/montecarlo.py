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
only and scores each draw by its exact conditional coherence
``E[exp(i dphi) | xi-]``: given xi-, the phase difference is linear plus
quadratic in the Gaussian plus stream, with the quadratic part confined to
the window edges where the two light cones do not overlap, so the integral
over xi+ has a closed form (conditional Monte Carlo, or Rao-Blackwellization).
That halves the synthesis per draw and lowers the per-draw variance.

Draws are keyed by ``(master seed, T index, sample index)`` and synthesized
by ``field``, so the phases are reproducible and bit-identical whatever the
block batching, and equal to those of ``sample_field`` under the same key;
``coherence_mc`` reads stream 1 of the same keys, the minus stream of
``sample_field``.  Each T's coherence and its standard error are reduced
with numpy over the full ensemble of draws.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import NATURAL, PhysicalConstants
from .errors import (FitDegenerate, InsufficientSamples, OutOfRange,
                     UndersampledSignal)
from .field import (CorrelationModel, FieldGrid, FieldRealization,
                    _draw_streams, _embedding, _grid_step, embedding_spectrum)

_BLOCK = 256            # samples per synthesis batch: bounds the streams held in memory
_GRID_MARGIN_TAUS = 2.0  # realization slack beyond the light-cone offsets


@dataclass(frozen=True)
class McParams:
    """Configuration of one Monte Carlo coherence run.

    positions
        Pair ``(x, x')`` whose phase difference is tracked.  Each must be a
        whole number of steps ``c dt``, so that the light-cone windows
        t -/+ x/c read the streams at grid nodes.
    t_list
        Flight times; each must be a whole number of steps ``dt`` and exceed
        ``10 |x - x'| / c`` so edge effects stay subdominant.
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
        for t in self.t_list:
            if t <= 10.0 * dx_time:
                raise ValueError(
                    f"T = {t} must exceed 10 |x - x'| / c = {10.0 * dx_time}")
            _whole_steps(t, dt, "T")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

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


@dataclass(frozen=True)
class CoherenceEstimate:
    delta_x: float
    records: tuple


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


def _potential_sum(s: np.ndarray, a0: float) -> np.ndarray:
    """Row-wise trapezoid sum of ``a0 s + a0^2 s^2 / 2`` for 2-D ``s``, per unit step."""
    return (a0 * (s.sum(axis=-1) - 0.5 * (s[:, 0] + s[:, -1]))
            + 0.5 * a0**2 * (np.einsum("ij,ij->i", s, s)
                             - 0.5 * (s[:, 0] * s[:, 0] + s[:, -1] * s[:, -1])))


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
    return _phase_scale(params, grid.dt) * _potential_sum(s, params.a0)


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


def _keyed_blocks(params: McParams, t_index: int, grid: FieldGrid, streams=(0, 1)):
    """``(slice, xi)`` per batch of the draws keyed ``(seed, t_index, j)``.

    ``xi`` holds the given streams of the batch, ``(len(streams), b, n)``.
    """
    L, amp = embedding_spectrum(params.model, grid)
    for start in range(0, params.n_samples, _BLOCK):
        stop = min(start + _BLOCK, params.n_samples)
        yield slice(start, stop), _draw_streams(
            [(params.seed, t_index, j) for j in range(start, stop)],
            L, amp, grid.n_steps, streams)


def sample_phases(params: McParams, t: float, t_index: int = 0):
    """All per-sample phases ``(phi_x, phi_x')`` at flight time ``t``, streams as drawn."""
    grid = _mc_grid(params, t)
    phases = np.empty((2, params.n_samples))
    for block, xi in _keyed_blocks(params, t_index, grid):
        for out, x in zip(phases, params.positions):
            out[block] = _phase_at(xi[0], xi[1], grid, t, x, params)
    return phases[0], phases[1]


def _conditional_coherences(params: McParams, t: float, t_index: int) -> np.ndarray:
    """Every draw's ``z_j = E[exp(i dphi) | xi-]`` at flight time ``t``.

    Given the minus stream m of draw j (stream 1 of its key), the phase
    difference is ``const(m) + h(m).p + p^T diag(D) p`` in the plus stream
    ``p ~ N(0, C)``, with C the clipped circulant covariance the sampler
    draws from.  D, the difference of the two windows' trapezoid weights,
    is non-zero only on the edge set E where the windows do not overlap.
    The Gaussian integral over p, with g = C h and Woodbury on E, is

        z_j = det(I - 2i D_E C_EE)^(-1/2) exp(i const)
              exp(-1/2 [h^T C h - g_E^T ((-2i D_E)^-1 + C_EE)^-1 g_E]).

    ``h^T C h`` is a Parseval sum and ``g_E = C_{E,:} h`` a matmul, both from
    ``field``'s covariance.  The reflection that swaps the two windows maps D
    to -D and keeps the Toeplitz C, so the real eigenvalues of ``D_E C_EE``
    pair as +-mu and the determinant ``prod (1 + 4 mu^2)`` is real and positive.
    """
    grid = _mc_grid(params, t)
    n, a0 = grid.n_steps, params.a0
    scale = _phase_scale(params, grid.dt)
    # the phase difference is phi(x') - phi(x): position x enters with sign -1
    signed = [(sign, *_windows(grid, t, x, params.constants.c))
              for sign, x in zip((-1.0, 1.0), params.positions)]
    k_t = signed[0][1]
    w = np.ones(k_t + 1)
    w[0] = w[-1] = 0.5

    weights = np.zeros(n)
    for sign, _k_t, plus, _minus in signed:
        weights[plus:plus + k_t + 1] += sign * w
    edge = np.flatnonzero(weights)
    d_edge = 0.5 * scale * a0**2 * weights[edge]
    L, _amp, row, parseval = _embedding(params.model, grid.dt, n)
    c_edge = row[np.abs(edge[:, None] - np.arange(n))]     # C_{E,:}
    m_ee = np.eye(edge.size) - 2.0j * d_edge[:, None] * c_edge[:, edge]
    det_factor = math.exp(-0.5 * np.linalg.slogdet(m_ee).logabsdet)
    # ((-2i D_E)^-1 + C_EE)^-1 = (I - 2i D_E C_EE)^-1 (-2i D_E)
    woodbury = np.linalg.solve(m_ee, np.diag(-2.0j * d_edge))

    z = np.empty(params.n_samples, dtype=complex)
    for block, xi in _keyed_blocks(params, t_index, grid, streams=(1,)):
        m = xi[0]
        h = np.zeros_like(m)
        const = 0.0
        for sign, _k_t, plus, minus in signed:
            seg = m[:, minus:minus + k_t + 1]
            h[:, plus:plus + k_t + 1] += sign * w * (a0 + a0**2 * seg)
            const = const + sign * _potential_sum(seg, a0)
        h *= scale
        spec = np.fft.rfft(h, n=L, axis=-1)
        h_c_h = (spec.real**2 + spec.imag**2) @ parseval
        g = h @ c_edge.T
        quad = h_c_h - ((g @ woodbury) * g).sum(axis=-1)
        z[block] = det_factor * np.exp(1j * scale * const - 0.5 * quad)
    return z


def coherence_mc(params: McParams) -> CoherenceEstimate:
    """Ensemble coherence ``M[exp(i (phi(x') - phi(x)))]`` for every T.

    Each T uses its own independent ensemble of ``n_samples`` draws.  Only
    the minus stream is drawn: each draw is scored as its exact conditional
    coherence ``z_j = E[exp(i dphi) | xi-]``, the plus stream integrated in
    closed form (``_conditional_coherences``; conditional Monte Carlo, or
    Rao-Blackwellization).  The mean of ``z_j`` is unbiased for the
    coherence, with a smaller variance than ``exp(i dphi)`` of the draws.
    The standard error is that of the coherence magnitude: the sample
    standard deviation of ``z_j`` along the mean direction over
    ``sqrt(n_samples)``.
    """
    if params.n_samples < 100:
        raise InsufficientSamples(
            f"n_samples = {params.n_samples} < 100 gives meaningless statistics")
    records = []
    for t_index, t in enumerate(params.t_list):
        z = _conditional_coherences(params, t, t_index)
        mean = z.mean()
        along = (z * np.exp(-1j * np.angle(mean))).real
        records.append(CoherenceRecord(
            t=t, mean=complex(mean), n_samples=z.size,
            stderr=float(along.std(ddof=1) / math.sqrt(z.size))))
    return CoherenceEstimate(delta_x=params.delta_x, records=tuple(records))


def _check_fit_times(t_list) -> None:
    """Refuse a T grid the rate fit cannot use: under 4 distinct T, or a span under 2x."""
    ts = np.asarray(t_list, dtype=float)
    if np.unique(ts).size < 4:
        raise ValueError("rate fit needs at least 4 distinct T values")
    if ts.max() < 2.0 * ts.min():
        raise FitDegenerate(
            f"T range [{ts.min()}, {ts.max()}] spans less than a factor of 2")


def fit_decoherence_rate(estimate: CoherenceEstimate) -> RateFit:
    """Weighted linear fit of ``-ln|mean|`` against T.

    The slope estimates the decoherence rate; the intercept absorbs the
    T-independent boundary dephasing.  Requires at least four distinct T
    spanning a factor of two, with every coherence at least five standard
    errors above zero.
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
    y = -np.log(mags)
    if errs.max() == 0.0:
        (rate, intercept), stderr = np.polyfit(ts, y, 1), 0.0
    else:
        (rate, intercept), cov = np.polyfit(ts, y, 1, w=mags / errs, cov="unscaled")
        stderr = math.sqrt(cov[0, 0])
    return RateFit(rate=float(rate), stderr=stderr, intercept=float(intercept))
