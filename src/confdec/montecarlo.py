"""Monte Carlo verification of wavepacket decoherence by phase accumulation.

Each sample draws an independent field realization, integrates the effective
potential at two positions to get the accumulated phases

    phi(x) = -(1/hbar) * integral_0^T V(x, t) dt,
    V(x, t) = (M c^2 / 2) * ((1 + A0 * (xi+ + xi-))^2 - 1),

and averages ``exp(i * (phi(x') - phi(x)))`` over the ensemble.  The decay of
that average with T gives the decoherence rate for separation ``|x' - x|``.

The phase at x is assembled from five trapezoid integrals of the streams
along its light cones, ``(Ip, Im, Ipp, Imm, Ipm)`` of xi+, xi-, xi+^2, xi-^2
and xi+ xi-, so it is known at once for every stream-sign pattern
``(xi+, xi-) -> (s+ xi+, s- xi-)``.  Those patterns leave the Gaussian measure
unchanged, and ``coherence_mc`` scores each draw as the average of
``exp(i dphi)`` over all four.  The phase API is ``accumulate_phase`` (one
realization at one position) and ``sample_phases`` (every draw at both
positions); both return the draw as synthesized, the pattern (+, +).

Draws are keyed by ``(master seed, T index, sample index)`` and synthesized
by ``field``, so the phases are reproducible and bit-identical whatever the
block batching, and equal to those of ``sample_field`` under the same key.
Each T's coherence and its standard error are reduced with numpy over the
full ensemble of draws.
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
                    _check_resolution, _draw_streams, embedding_spectrum)

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
        _check_resolution(self.model, self.dt_effective)
        for x in self.positions:
            _whole_steps(x, self.constants.c * self.dt_effective, "position", "c*dt")
        dx_time = abs(self.positions[1] - self.positions[0]) / self.constants.c
        for t in self.t_list:
            if t <= 10.0 * dx_time:
                raise ValueError(
                    f"T = {t} must exceed 10 |x - x'| / c = {10.0 * dx_time}")
            _whole_steps(t, self.dt_effective, "T")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def dt_effective(self) -> float:
        return self.tau / 8.0 if self.dt is None else self.dt

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


def _shifted_segment(arr: np.ndarray, start: int, k_t: int) -> np.ndarray:
    """Last-axis slice ``start .. start + k_t``; ``OutOfRange`` if not covered."""
    if start < 0 or start + k_t > arr.shape[-1] - 1:
        raise OutOfRange("realization does not cover the shifted integration window")
    return arr[..., start:start + k_t + 1]


def _trapz(f: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """Row-wise trapezoid sum of ``f`` (or of ``f * g``) for 2-D ``f``, per unit step."""
    if g is None:
        return f.sum(axis=-1) - 0.5 * (f[:, 0] + f[:, -1])
    return (np.einsum("ij,ij->i", f, g)
            - 0.5 * (f[:, 0] * g[:, 0] + f[:, -1] * g[:, -1]))


def _integrals_at(xi_p, xi_m, grid: FieldGrid, t: float, x: float,
                  c: float) -> np.ndarray:
    """The five stream integrals from 0 to t at position x, for streams stacked as (b, n).

    ``grid`` alone sets the t = 0 node, the step count and the light-cone
    shift.  With ``p`` and ``m`` the plus and minus streams along the
    shifted window of x, returns ``(Ip, Im, Ipp, Imm, Ipm)`` as a ``(5, b)``
    array: the trapezoid integrals (in units of ``dt``) of p, m, p^2, m^2
    and p*m.
    """
    k0 = -_whole_steps(grid.t_start, grid.dt, "realization start t_start")
    k_t = _whole_steps(t, grid.dt, "t_final")
    if k_t < 1:
        raise ValueError("t_final must be at least one step")
    shift = _whole_steps(x, c * grid.dt, "position", "c*dt")
    p = _shifted_segment(xi_p, k0 - shift, k_t)
    m = _shifted_segment(xi_m, k0 + shift, k_t)
    return np.stack([_trapz(p), _trapz(m), _trapz(p, p), _trapz(m, m),
                     _trapz(p, m)])


def _phase_terms(ints, dt: float, params: McParams, sign_minus=1.0):
    """Linear and quadratic parts of the phase under stream signs (+, s-).

    The phase of the realization with xi- -> s- xi- is

        -(M c^2 / hbar) dt [A0 (Ip + s- Im) + A0^2/2 (Ipp + Imm + 2 s- Ipm)],

    the trapezoid integral of the potential ``V = (M c^2/2)((1 + A0 s)^2 - 1)``
    with ``s = xi+ + s- xi-``; returned as ``(linear, quadratic)``.  Flipping
    xi+ as well negates the linear part and leaves the quadratic one.
    """
    i_p, i_m, i_pp, i_mm, i_pm = ints
    pref = -params.mass * params.constants.c**2 / params.constants.hbar * dt
    a0 = params.a0
    return (pref * a0 * (i_p + sign_minus * i_m),
            pref * 0.5 * a0**2 * (i_pp + i_mm + 2.0 * sign_minus * i_pm))


def _phase(ints, dt: float, params: McParams) -> np.ndarray:
    """Phase of the realization as drawn, the identity sign pattern (+, +)."""
    linear, quadratic = _phase_terms(ints, dt, params)
    return linear + quadratic


def accumulate_phase(realization: FieldRealization, x: float, t_final: float,
                     params: McParams) -> float:
    """Phase accumulated at position ``x`` from t = 0 to ``t_final``.

    The step is the realization's ``grid.dt``, whatever ``params.dt`` says.
    The realization start (so that t = 0 is a node), ``t_final`` and ``x``
    must be whole numbers of steps (``ValueError`` otherwise), and the
    realization must cover the shifted window for this position
    (``OutOfRange`` otherwise).
    """
    grid = realization.grid
    ints = _integrals_at(realization.xi_plus[None, :], realization.xi_minus[None, :],
                         grid, t_final, x, params.constants.c)
    return float(_phase(ints, grid.dt, params)[0])


def _sample_integrals(params: McParams, t: float, t_index: int) -> np.ndarray:
    """Stream integrals of every draw at flight time ``t``: ``(2, 5, n_samples)``.

    Axis 0 is the position pair, axis 1 the five integrals of
    ``_integrals_at``.
    """
    grid = _mc_grid(params, t)
    L, amp = embedding_spectrum(params.model, grid)
    ints = np.empty((2, 5, params.n_samples))
    for start in range(0, params.n_samples, _BLOCK):
        stop = min(start + _BLOCK, params.n_samples)
        xi = _draw_streams([(params.seed, t_index, j) for j in range(start, stop)],
                           L, amp, grid.n_steps)
        for out, x in zip(ints, params.positions):
            out[:, start:stop] = _integrals_at(xi[0], xi[1], grid, t, x,
                                               params.constants.c)
    return ints


def sample_phases(params: McParams, t: float, t_index: int = 0):
    """All per-sample phases ``(phi_x, phi_x')`` at flight time ``t``."""
    ints_a, ints_b = _sample_integrals(params, t, t_index)
    dt = params.dt_effective
    return _phase(ints_a, dt, params), _phase(ints_b, dt, params)


def coherence_mc(params: McParams) -> CoherenceEstimate:
    """Ensemble coherence ``M[exp(i (phi(x') - phi(x)))]`` for every T.

    Each T uses its own independent ensemble of ``n_samples`` draws.  The
    streams' Gaussian measure is unchanged by ``xi+ -> -xi+`` and
    ``xi- -> -xi-``, so each draw is scored as ``z_j``, the average of
    ``exp(i dphi)`` over its four sign patterns.  The patterns ``(s+, s-)``
    and ``(-s+, -s-)`` share the quadratic phase ``Q`` and negate the linear
    one ``L``, so ``z_j = (exp(i Q_same) cos L_same + exp(i Q_opp) cos L_opp)
    / 2``.  The standard error is that of the coherence magnitude: the
    sample standard deviation of ``z_j`` along the mean direction over
    ``sqrt(n_samples)``.
    """
    if params.n_samples < 100:
        raise InsufficientSamples(
            f"n_samples = {params.n_samples} < 100 gives meaningless statistics")
    records = []
    for t_index, t in enumerate(params.t_list):
        ints_a, ints_b = _sample_integrals(params, t, t_index)
        z = np.zeros(params.n_samples, dtype=complex)
        for sign_minus in (1.0, -1.0):
            (lin_a, quad_a), (lin_b, quad_b) = (
                _phase_terms(ints, params.dt_effective, params, sign_minus)
                for ints in (ints_a, ints_b))
            z += np.exp(1j * (quad_b - quad_a)) * np.cos(lin_b - lin_a)
        z *= 0.5
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
