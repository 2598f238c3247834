"""GRW-form master equation: kernel parameters and density-matrix evolution.

At second order the ensemble-averaged evolution of a single massive
particle's position-space density matrix takes the localization form

    d rho / dt = -lambda (1 - exp(-(alpha/4) (x - x')^2)) rho - (i/hbar)[H0, rho]

with rate ``lambda = sqrt(pi/2) M^2 c^4 A0^4 tau / hbar^2`` and inverse-square
localization scale ``alpha = 8 / (c tau)^2``.  Without H0 the equation is
diagonal in ``(x, x')`` and solved exactly; with a free kinetic H0 we use
Strang splitting with a spectral kinetic step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NATURAL, PhysicalConstants
from .errors import StepTooLarge
from .field import CorrelationModel, _in_threads, _is_int, _usable_cores

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-9
_HALVING_TOL = 1e-6
# 8-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree
# <= 15: numpy.polynomial.legendre.leggauss(8), written out so that
# importing the module loads no numpy.polynomial
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])


def grw_params(mass: float, a0: float, tau: float,
               constants: PhysicalConstants = NATURAL) -> "GrwParams":
    """Localization rate and scale implied by the fluctuation model.

    ``ValueError`` when an input is not positive and finite, or when the
    rate or scale it implies is not a finite float.
    """
    if not (0 < mass < math.inf and 0 < a0 < math.inf and 0 < tau < math.inf):
        raise ValueError("mass, a0 and tau must be positive and finite")
    c, hbar = constants.c, constants.hbar
    try:
        lam = math.sqrt(math.pi / 2.0) * mass**2 * c**4 * a0**4 * tau / hbar**2
        alpha = 8.0 / (c * tau) ** 2
    except (OverflowError, ZeroDivisionError):   # a power overflows or underflows
        lam = alpha = math.inf
    if not (lam < math.inf and 0 < alpha < math.inf):
        raise ValueError(f"mass = {mass!r}, a0 = {a0!r} and tau = {tau!r} give a "
                         "lambda_grw or alpha that is not a finite float")
    return GrwParams(lambda_grw=lam, alpha=alpha)


@dataclass(frozen=True)
class GrwParams:
    """Localization parameters: decay rate ``lambda_grw`` and scale ``alpha``."""

    lambda_grw: float
    alpha: float

    def __post_init__(self):
        if not (0 <= self.lambda_grw < math.inf and 0 < self.alpha < math.inf):
            raise ValueError("lambda_grw must be >= 0 and alpha > 0, both finite")

    def rate(self, delta_x):
        """Localization rate ``lambda_grw (1 - exp(-(alpha/4) dx^2))`` at separation ``delta_x``.

        Zero at zero separation; ``delta_x = math.inf`` gives the saturated
        rate ``lambda_grw`` exactly, and NaN raises ``ValueError``.  Scalars
        in, float out; arrays broadcast.
        """
        dx = np.asarray(delta_x, dtype=float)
        if np.isnan(dx).any():
            raise ValueError("delta_x must not be NaN")
        with np.errstate(over="ignore"):    # a huge dx saturates: exp(-inf) = 0
            out = self.lambda_grw * (1.0 - np.exp(-0.25 * self.alpha * dx * dx))
        return float(out) if out.ndim == 0 else out


def decoherence_factor(delta_x, t, params: GrwParams):
    """Exact off-diagonal suppression ``exp(-params.rate(delta_x) t)``.

    Monotonically decreasing in both ``|delta_x|`` and ``t``; equals 1 at
    either argument zero and saturates at ``exp(-lambda t)`` for separations
    far beyond the correlation length.
    """
    tt = np.asarray(t, dtype=float)
    if not np.all((0 <= tt) & (tt < math.inf)):
        raise ValueError("t must be non-negative and finite")
    out = np.exp(-params.rate(delta_x) * tt)
    return float(out) if out.ndim == 0 else out


def _grid_and_entries(x_grid, entries) -> tuple:
    """``(x, e)`` as float and complex arrays, refused unless e is n x n on the n-point grid x."""
    x = np.asarray(x_grid, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x_grid must be 1-d with at least two points")
    e = np.asarray(entries, dtype=complex)
    if e.shape != (x.size, x.size):
        raise ValueError("entries must be square and match the grid")
    return x, e


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Position-space density matrix on a uniform grid.

    ``entries[i, j]`` approximates ``rho(x_i, x_j)``; normalization is
    ``trace * dx = 1``.  Construction validates hermiticity, grid uniformity
    and the trace; positivity is checked on demand (``min_eigenvalue``).
    """

    x_grid: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        x, e = _grid_and_entries(self.x_grid, self.entries)
        if not (np.isfinite(x).all() and np.isfinite(e).all()):
            raise ValueError("x_grid and entries must be finite")
        steps = np.diff(x)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.mean():
            raise ValueError("x_grid must be uniformly spaced and increasing")
        scale = max(np.abs(e).max(), 1e-300)
        if np.abs(e - e.conj().T).max() > _HERMITICITY_TOL * scale:
            raise ValueError("entries are not Hermitian within tolerance")
        tr = float(np.real(np.trace(e))) * float(steps.mean())
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace * dx = {tr} differs from 1 beyond tolerance")
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "entries", e)
        x.setflags(write=False)
        e.setflags(write=False)

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def n(self) -> int:
        return self.x_grid.size

    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)) * self.dx)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the (Hermitian) entries matrix times dx."""
        return float(np.linalg.eigvalsh(self.entries).min() * self.dx)

    @classmethod
    def from_unnormalized(cls, x_grid, entries) -> "DensityMatrix":
        """Hermitize roundoff and rescale so that ``trace * dx = 1``."""
        x, e = _grid_and_entries(x_grid, entries)
        e = 0.5 * (e + e.conj().T)
        dx = float(x[1] - x[0])
        tr = float(np.real(np.trace(e))) * dx
        if tr <= 0:
            raise ValueError("cannot normalize: non-positive trace")
        return cls(x_grid=x, entries=e / tr)


def superposed_gaussians(x_grid, sigma: float, separation: float) -> DensityMatrix:
    """Equal superposition of two Gaussians separated by ``separation``."""
    x = np.asarray(x_grid, dtype=float)
    psi = (np.exp(-((x - separation / 2.0) ** 2) / (4.0 * sigma**2))
           + np.exp(-((x + separation / 2.0) ** 2) / (4.0 * sigma**2)))
    return DensityMatrix.from_unnormalized(x, np.outer(psi, psi.conj()))


def _factor_matrix(rho: DensityMatrix, params: GrwParams, t: float) -> np.ndarray:
    dx_mat = rho.x_grid[:, None] - rho.x_grid[None, :]
    return decoherence_factor(np.abs(dx_mat), t, params)


def evolve_pure_decoherence(rho: DensityMatrix, params: GrwParams,
                            t: float) -> DensityMatrix:
    """Exact solution with H0 = 0: elementwise off-diagonal suppression.

    The diagonal is untouched (factor 1), so the trace is preserved exactly;
    the factor matrix is positive semidefinite, so positivity survives by
    the Schur product theorem.  Composition over time intervals is exact:
    evolving t1 then t2 equals evolving t1 + t2.
    """
    return DensityMatrix(x_grid=rho.x_grid,
                         entries=rho.entries * _factor_matrix(rho, params, t))


def _kinetic_phase(rho: DensityMatrix, mass: float, dt: float,
                   hbar: float) -> np.ndarray:
    k = 2.0 * math.pi * np.fft.fftfreq(rho.n, d=rho.dx)
    return np.exp(-1j * hbar * k * k * dt / (2.0 * mass))


def _strang_run(rho: DensityMatrix, params: GrwParams, mass: float, dt: float,
                n_steps: int, hbar: float) -> np.ndarray:
    """Entries of the Hermitian part of ``rho`` after ``n_steps`` Strang steps of ``dt``.

    A Hermitian rho = A + iB (A symmetric, B antisymmetric) is held whole by
    the real r = A + B, so the run evolves r: one ``rfft2`` and one
    ``irfft2`` per step.  With R = rfft2(r), Phi(k, k') = p(k) conj p(k')
    for the kinetic phase p, and R^T(k, k') = R(k', k), the kinetic step
    rho -> U rho U+ is rfft2(r') = Re Phi R + Im Phi R^T.  That needs
    p(-k) = p(k), exact on the ``fftfreq`` grid, whose frequencies are exact
    negatives of each other.  R^T is read off the half spectrum through
    R(-k, -k') = conj R(k, k').  The decoherence factor is real and
    symmetric, so multiplying r by it keeps the encoding.  The result,
    (r + r^T)/2 + i (r - r^T)/2, is exactly Hermitian.
    """
    n = rho.n
    m = n // 2 + 1                            # columns of the half spectrum
    half = _factor_matrix(rho, params, dt / 2.0)
    p = _kinetic_phase(rho, mass, dt, hbar)
    phi = p[:, None] * p[None, :m].conj()
    # flat indices into R of R^T(k, k'): R(k', k) in the rows k < m, and in
    # the rows k >= m R(-k' mod n, n - k), to be conjugated
    k, kp = np.arange(n)[:, None], np.arange(m)[None, :]
    flip = np.where(k < m, kp * m + k, (-kp % n) * m + n - k)
    e = rho.entries
    h = e + e.conj().T                        # twice the Hermitian part
    r = 0.5 * (h.real + h.imag)
    for _ in range(n_steps):
        r *= half
        spec = np.fft.rfft2(r)
        spec_t = spec.reshape(-1)[flip]
        np.conjugate(spec_t[m:], out=spec_t[m:])
        r = np.fft.irfft2(phi.real * spec + phi.imag * spec_t, s=(n, n))
        r *= half
    out = np.empty((n, n), dtype=complex)
    out.real = 0.5 * (r + r.T)
    out.imag = 0.5 * (r - r.T)
    return out


def evolve_with_free_hamiltonian(rho: DensityMatrix, params: GrwParams,
                                 mass: float, dt: float, n_steps: int,
                                 constants: PhysicalConstants = NATURAL
                                 ) -> DensityMatrix:
    """Strang-split evolution with a free kinetic Hamiltonian.

    Each step is a decoherence half-step, a spectral kinetic step on both
    density-matrix indices (periodic boundaries), and another half-step.
    The steps act on the Hermitian part of ``rho``, held in one real
    matrix, and the result is exactly Hermitian.  The result is recomputed
    at half the step; if the two disagree by more than 1e-6 in max entry
    norm the step is too coarse (``StepTooLarge``) and the caller should
    reduce ``dt``.  The finer result is returned.  The two runs go at once
    through ``field._in_threads`` where the process has two usable cores,
    and one after the other on the caller where it has one.  ``n_steps``
    must be an int (a numpy int will do, a ``bool`` will not).
    """
    if not (0 < mass < math.inf and 0 < dt < math.inf):
        raise ValueError("mass and dt must be positive and finite")
    if not _is_int(n_steps):
        raise ValueError("n_steps must be an int")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    if n_steps == 0:
        return rho
    hbar = constants.hbar
    # Neither run reads the other, and FFTs and elementwise products release
    # the GIL and give the same bits on any thread, so they overlap.
    fine, coarse = _in_threads(
        [lambda: _strang_run(rho, params, mass, dt / 2.0, 2 * n_steps, hbar),
         lambda: _strang_run(rho, params, mass, dt, n_steps, hbar)], _usable_cores())
    diff = np.abs(fine - coarse).max()
    if diff > _HALVING_TOL:
        raise StepTooLarge(
            f"halving dt changed the result by {diff:.3e} > {_HALVING_TOL}")
    return DensityMatrix(x_grid=rho.x_grid, entries=fine)


def general_kernel(g1_model: CorrelationModel, delta_x: float, t_total: float,
                   mass: float, a0: float,
                   constants: PhysicalConstants = NATURAL) -> float:
    """Relative off-diagonal change for an arbitrary even correlation g1.

    Evaluates

        (M^2 c^4 A0^4 / hbar^2) * [ I1 - 2 I2 ],
        I1 = int_0^T int_0^T g1(t - t' - dx/c) g1(t - t' + dx/c) dt dt',
        I2 = int_0^T int_0^t g1(t - t')^2 dt' dt,

    with both double integrals reduced to single lag integrals weighted by
    (T - |s|), over only the lags where the integrand is non-zero.  Each is
    an 8-point Gauss-Legendre sum on panels split at every kink of the
    integrand, summed with ``math.fsum``.  A tabulated g1 is piecewise
    linear, so both integrands are piecewise cubic and the sums are exact
    up to roundoff; a Gaussian g1, which has no kinks, gets panels of at
    most tau/4, where the rule agrees with the exact integral to roundoff.
    For the Gaussian g1 and T >> tau the kernel approaches
    ``sqrt(pi/2) (M c^2 A0^2 / hbar)^2 tau T (exp(-2 dx^2/(c tau)^2) - 1)``
    with finite-T edge terms of order tau / T.
    """
    if not 0 < t_total < math.inf:
        raise ValueError("t_total must be positive and finite")
    if math.isnan(delta_x):
        raise ValueError("delta_x must not be NaN")
    tau, c = g1_model.tau, constants.c
    d = abs(delta_x) / c
    if t_total < 10.0 * max(tau, d):
        raise ValueError("validity needs T >= 10 max(tau, delta_x / c)")
    knots = g1_model.breakpoints()

    def weighted(f, support, kinks):
        """``int_0^support (T - s) f(s) ds`` on panels split at ``kinks``."""
        hi = min(t_total, support)
        if hi <= 0.0:
            return 0.0
        if knots:   # cubic between kinks: exact on them alone, whatever tau is
            edges = np.unique([0.0, hi, *(p for p in kinks if 0.0 < p < hi)])
        else:
            edges = np.linspace(0.0, hi, math.ceil(4.0 * hi / tau) + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        s = mid[:, None] + half[:, None] * _GL_NODES
        return math.fsum(((half[:, None] * _GL_WEIGHTS) * (t_total - s) * f(s)).ravel())

    # I1: even integrand over [-T, T] -> twice the half-line integral;
    # g1(s + d) vanishes beyond max_lag - d, and so does the product.
    i1 = 2.0 * weighted(lambda s: g1_model.g1(s - d) * g1_model.g1(s + d),
                        g1_model.max_lag - d,
                        [d + k for k in knots] + [d - k for k in knots]
                        + [k - d for k in knots])
    i2 = weighted(lambda s: g1_model.g1(s) ** 2, g1_model.max_lag, knots)
    pref = (mass * c**2 * a0**2 / constants.hbar) ** 2
    return pref * (i1 - 2.0 * i2)
