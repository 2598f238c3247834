"""Synthesis and statistics of the counter-propagating stochastic streams.

The field amplitude is ``A(x, t) = A0 * (xi_plus(t - x/c) + xi_minus(t + x/c))``
where each stream is a stationary, zero-mean, unit-variance Gaussian process
with autocorrelation ``g1``.  Streams are mutually independent.

Sampling uses circulant embedding: the target covariance sequence is
periodized onto a grid padded by at least eight correlation times, its FFT
gives the (non-negative) spectral weights, and one inverse real FFT of
weighted white noise yields an exact-covariance realization.  The pad is
discarded so the retained samples carry no periodicity artifacts.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndefiniteCovariance, ResolutionError

_SPECTRUM_TOL = 1e-8     # relative tolerance for negative circulant eigenvalues
_PAD_CORR_TIMES = 8.0    # pad length in units of tau
_EMBEDDING_BYTES = 56    # peak bytes per point while _embedding builds a Gaussian spectrum


@dataclass(frozen=True)
class CorrelationModel:
    """First-order correlation ``g1`` of a single stream.

    tau
        Correlation time; sets resolution and padding requirements.
    table
        ``None`` for the Gaussian ``exp(-(s/tau)^2)``, or ``((lag, value),
        ...)`` pairs of an even, linearly interpolated table: lags
        non-negative and strictly increasing, ``value(0) == 1``, final
        ``|value| < 1e-6``.
    """

    tau: float = 1.0
    table: tuple | None = None

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.table is not None:
            if len(self.table) < 2:
                raise ValueError("tabulated model needs at least two (lag, value) pairs")
            lags = np.array([p[0] for p in self.table], dtype=float)
            vals = np.array([p[1] for p in self.table], dtype=float)
            if not (np.isfinite(lags).all() and np.isfinite(vals).all()):
                raise ValueError("table lags and values must be finite")
            if np.any(np.diff(lags) <= 0):
                raise ValueError("table lags must be strictly increasing")
            if lags[0] != 0.0:
                raise ValueError("table must start at lag 0")
            if abs(vals[0] - 1.0) > 1e-9:
                raise ValueError("g1(0) must be 1 (unit-variance streams)")
            if abs(vals[-1]) >= 1e-6:
                raise ValueError("table must decay: |last value| < 1e-6")
            object.__setattr__(self, "_lags", lags)
            object.__setattr__(self, "_vals", vals)

    @property
    def kind(self) -> str:
        """``"gaussian"`` without a table, ``"tabulated"`` with one."""
        return "gaussian" if self.table is None else "tabulated"

    @classmethod
    def gaussian(cls, tau: float) -> "CorrelationModel":
        return cls(tau=tau)

    @classmethod
    def tabulated(cls, lags: Sequence[float], values: Sequence[float],
                  tau: float | None = None) -> "CorrelationModel":
        """Build a tabulated model, folding and checking an even table.

        Tables may include negative lags; they must then mirror the positive
        side to within 1e-9 or a ``ValueError`` is raised.  When ``tau`` is
        omitted it is taken as the first lag where the table drops below 1/e.
        """
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=float)
        if lags.shape != values.shape or lags.ndim != 1:
            raise ValueError("lags and values must be 1-d arrays of equal length")
        if np.any(lags < 0):
            # Folding an even table needs canonical order; positive-only
            # tables keep caller order so bad ordering is caught below.
            order = np.argsort(lags)
            lags, values = lags[order], values[order]
        neg = lags < 0
        if np.any(neg):
            nl, nv = -lags[neg][::-1], values[neg][::-1]
            pos_mask = lags > 0
            pl, pv = lags[pos_mask], values[pos_mask]
            if (nl.size != pl.size or np.max(np.abs(nl - pl)) > 1e-9
                    or np.max(np.abs(nv - pv)) > 1e-9):
                raise ValueError("tabulated g1 is not even in the lag")
            lags, values = lags[~neg], values[~neg]
        if tau is None:
            below = np.nonzero(values < math.exp(-1.0))[0]
            if below.size == 0:
                raise ValueError("cannot infer tau: table never drops below 1/e")
            tau = float(lags[below[0]])
        return cls(tau=float(tau),
                   table=tuple((float(l), float(v)) for l, v in zip(lags, values)))

    def g1(self, s):
        """Evaluate the correlation at lag ``s`` (scalar or array)."""
        s = np.abs(np.asarray(s, dtype=float))
        if self.table is None:
            out = np.exp(-((s / self.tau) ** 2))
        else:
            out = np.interp(s, self._lags, self._vals, right=0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def max_lag(self) -> float:
        """Lag beyond which g1 is treated as zero."""
        if self.table is None:
            return 15.0 * self.tau          # exp(-225) is far below float noise
        return self._lags[-1]

    def breakpoints(self):
        """Lags where g1 is not smooth (table knots; empty for gaussian)."""
        if self.table is None:
            return []
        return [float(l) for l in self._lags]


def _is_int(value) -> bool:
    """True for a Python or numpy int; a ``bool`` is not one, although Python counts it."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FieldGrid:
    """Uniform time grid ``t_start + k*dt`` for ``k = 0 .. n_steps-1``.

    ``n_steps`` must be an int (a numpy int will do, a ``bool`` will not) and
    ``t_start`` finite; otherwise ``ValueError``.
    """

    dt: float
    n_steps: int
    t_start: float = 0.0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not _is_int(self.n_steps):
            raise ValueError(f"n_steps must be an int, got {self.n_steps!r}")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not math.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start!r}")

    @property
    def duration(self) -> float:
        return (self.n_steps - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps)


@dataclass(frozen=True, eq=False)
class FieldRealization:
    """One sampled pair of streams on a grid; arrays are read-only."""

    grid: FieldGrid
    xi_plus: np.ndarray
    xi_minus: np.ndarray

    def __post_init__(self):
        for arr in (self.xi_plus, self.xi_minus):
            if arr.shape != (self.grid.n_steps,):
                raise ValueError("stream length does not match grid")
            arr.setflags(write=False)


def _seed_entropy(seed) -> tuple:
    """The one seed rule: a seed as the tuple of ints that keys its draws.

    A seed is an int in [0, 2**64), or a tuple or list of one to three of
    them: the words of a ``Philox`` key and counter (see ``_draw_streams``).
    A ``bool`` is refused, although Python counts it as an int.
    """
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    if not 1 <= len(parts) <= 3 or any(not _is_int(s) or not 0 <= s < 2**64
                                       for s in parts):
        raise ValueError("seed must be a non-negative int below 2**64, or a tuple of "
                         f"one to three of them, got {seed!r}")
    return tuple(int(s) for s in parts)


def _grid_step(model: CorrelationModel, dt: float | None = None) -> float:
    """The step: ``dt``, or ``tau / 8`` if None; ``ResolutionError`` if coarser."""
    finest = model.tau / 8.0
    if dt is not None and dt > finest * (1.0 + 1e-12):
        raise ResolutionError(f"dt = {dt} exceeds tau/8 = {finest}; refine the grid")
    return finest if dt is None else dt


def _smooth_length(target: int) -> int:
    """Smallest integer >= ``target`` with no prime factor above 5.

    These 5-smooth lengths are the ones numpy's pocketfft transforms fastest
    as real FFTs; the same rule as ``scipy.fft.next_fast_len(target,
    real=True)``.  The candidates ``2**a * 3**b * 5**c`` are enumerated
    directly, so a target near 10**12 takes a few hundred steps.
    """
    target = max(target, 1)
    n = 2 ** (target - 1).bit_length()      # the smallest power of two >= target
    p5 = 1
    while p5 < n:
        p35 = p5
        while p35 < n:   # each 3**b * 5**c below n, times the least 2**a reaching target
            n = min(n, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return n


def _refuse_beyond_memory(nbytes: float, need: str) -> None:
    """Refuse ``nbytes`` beyond physical memory with a ``ValueError`` naming ``need``.

    Called before the arrays are allocated, so that a run too large for the
    host is refused with a message rather than failing, or being killed,
    part way.
    """
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):     # no sysconf: nothing to check against
        return
    if nbytes > memory:
        raise ValueError(f"{need}, about {nbytes / 2**30:.3g} GiB, more than the "
                         f"{memory / 2**30:.3g} GiB of physical memory")


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_threads(calls, threads: int) -> list:
    """The results of the argument-free ``calls`` in call order, on ``threads`` threads.

    The caller and up to ``threads - 1`` helpers share the calls: thread k
    starts on call k, the caller on call 0, then each takes the next call
    not yet taken.  The calls share no buffer: each returns its result, so
    no result depends on the thread that made it.  The first exception a
    call raises stops the calls not yet started, and is raised once every
    helper has joined.
    """
    if not calls:
        return []
    results, errors = [None] * len(calls), []
    n_threads = max(1, min(threads, len(calls)))
    todo = iter(range(n_threads, len(calls)))

    def run(k):
        try:
            while k is not None and not errors:
                results[k] = calls[k]()
                k = next(todo, None)
        except BaseException as exc:      # raised again by the caller below
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(k,)) for k in range(1, n_threads)]
    try:
        for thread in helpers:
            thread.start()
        run(0)
    finally:
        for thread in helpers:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return results


@functools.lru_cache(maxsize=64)
def _embedding(model: CorrelationModel, dt: float, n_steps: int):
    """Circulant length, amplitudes, covariance row and half-spectrum.

    The one owner of the embedding spectrum, memoized on ``(model, dt,
    n_steps)``.  Its ``L`` circulant eigenvalues are clipped at zero, so
    that the synthesized streams have exactly the covariance C they define.
    Returns ``(L, amp, row, eig)`` with read-only arrays: ``L`` is the
    (even) embedding length, ``amp`` the ``L//2 + 1`` amplitudes that
    ``_irfft_normals`` weights the normals by, ``row = irfft(eig, n=L)`` the
    circulant covariance ``C[k, 0]`` for ``k < L``, and ``eig`` the clipped
    eigenvalues of its first ``L//2 + 1`` frequencies, so that ``C h =
    irfft(eig * rfft(h, n=L), n=L)`` for real h of length ``L``.  An ``L``
    whose arrays would not fit in physical memory is refused with
    ``ValueError`` before anything is allocated.
    """
    pad = int(math.ceil(_PAD_CORR_TIMES * model.tau / dt))
    L = 2 * _smooth_length(-(-(n_steps + pad) // 2))    # the least even 5-smooth length
    _refuse_beyond_memory(L * _EMBEDDING_BYTES, f"dt = {dt!r} and n_steps = {n_steps} "
                                                 f"need an embedding of {L} points")
    k = np.arange(L)
    circ_lag = np.minimum(k, L - k) * dt
    eig = np.fft.fft(model.g1(circ_lag)).real
    top = eig.max()
    if eig.min() < -_SPECTRUM_TOL * top:
        raise IndefiniteCovariance(
            f"negative spectral component {eig.min():.3e} for tabulated correlation")
    half = L // 2 + 1
    eig = np.clip(eig[:half], 0.0, None)
    amp = np.empty(half)
    amp[0] = math.sqrt(eig[0] * L)
    amp[-1] = math.sqrt(eig[L // 2] * L)
    amp[1:-1] = np.sqrt(eig[1:L // 2] * L / 2.0)
    row = np.fft.irfft(eig, n=L)
    for arr in (amp, row, eig):
        arr.setflags(write=False)
    return L, amp, row, eig


def embedding_spectrum(model: CorrelationModel, grid: FieldGrid):
    """Circulant length and half-spectrum amplitudes for the padded grid.

    Returns ``(L, amp)`` where ``L`` is the (even) embedding length and
    ``amp`` (read-only) has length ``L//2 + 1``; feeding ``amp * (a + i b)``
    with unit normals ``a, b`` through ``irfft`` yields a realization whose
    retained covariance matches ``g1`` up to terms of order ``g1(8 tau)``.
    """
    return _embedding(model, grid.dt, grid.n_steps)[:2]


def _irfft_normals(z: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Full-length real signals from unit normals ``z`` on the last axis.

    With ``L = z.shape[-1]``, the first ``L//2 + 1`` normals are the real
    parts of the half-spectrum and the remaining ``L//2 - 1`` the imaginary
    parts of its interior bins.  Each is weighted by ``amp`` straight into
    the complex spectrum buffer, which is inverted with ``irfft``.  Leading
    axes are batch axes.
    """
    L = z.shape[-1]
    half = L // 2 + 1
    spec = np.empty(z.shape[:-1] + (half,), dtype=complex)
    np.multiply(z[..., :half], amp, out=spec.real)
    np.multiply(z[..., half:], amp[1:-1], out=spec.imag[..., 1:-1])
    spec.imag[..., [0, -1]] = 0.0
    return np.fft.irfft(spec, n=L, axis=-1)


def synthesize_stream(rng: np.random.Generator, L: int, amp: np.ndarray,
                      n_steps: int) -> np.ndarray:
    """Draw one real stream of length ``n_steps`` from the embedding spectrum."""
    return _irfft_normals(rng.standard_normal(L), amp)[:n_steps].copy()


def _draw_streams(entropies, L: int, amp: np.ndarray, n_steps: int,
                  streams=(0, 1)) -> np.ndarray:
    """The given streams of every keyed draw, retained part only: ``(s, b, n_steps)``.

    Stream ``s`` of the key ``e = entropies[j]`` (one to three components, a
    missing one counting as 0) draws its normals from ``Philox(key=(e0, e1),
    counter=(0, e2, len(e), s))``.  Philox is counter-based (Salmon et al.,
    SC 2011): distinct keys and counters give independent streams with no
    hashing, and a draw steps only counter word 0, far fewer than 2**64
    times, so no two draws overlap.  The ``len(e)`` word keeps ``(5,)``,
    ``(5, 0)`` and ``(5, 0, 0)`` apart.  Each stream is reproducible on its
    own, whatever the batch or the other streams it is drawn with.  The
    key and counter words of the batch are tabled once and set, in turn,
    on one reused generator; ``standard_normal`` keeps no state of its own,
    so that equals a fresh generator per stream.  That generator is built
    per call, so that calls on concurrent threads share no generator state.
    The result is a view of the full-length ``(s, b, L)`` synthesis.
    """
    words = np.zeros((len(streams), len(entropies), 6), dtype=np.uint64)
    words[..., [0, 1, 3]] = np.array([e + (0,) * (3 - len(e)) for e in entropies],
                                     dtype=np.uint64)
    words[..., 4] = [len(e) for e in entropies]
    words[..., 5] = np.array(streams, dtype=np.uint64)[:, None]
    z = np.empty((len(streams), len(entropies), L))
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    philox = {}
    seeded = {"bit_generator": "Philox", "state": philox, "buffer": np.zeros(4, np.uint64),
              "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for out, row in zip(z.reshape(-1, L), words.reshape(-1, 6)):
        philox["key"], philox["counter"] = row[:2], row[2:]
        bit_generator.state = seeded
        generator.standard_normal(out=out)
    return _irfft_normals(z, amp)[..., :n_steps]


def sample_field(model: CorrelationModel, grid: FieldGrid, seed) -> FieldRealization:
    """Sample both streams on ``grid`` from disjoint RNG streams.

    ``seed`` is an int in [0, 2**64) or a tuple or list of one to three of
    them; anything else is refused with ``ValueError`` before any draw.
    Deterministic: identical ``(model, grid, seed)`` give bit-identical
    realizations.  The plus and minus streams are streams 0 and 1 of the
    seed's ``Philox`` key (see ``_draw_streams``), so they are independent
    and individually reproducible.
    """
    entropy = _seed_entropy(seed)
    _grid_step(model, grid.dt)
    L, amp = embedding_spectrum(model, grid)
    xi = _draw_streams([entropy], L, amp, grid.n_steps)
    return FieldRealization(grid=grid, xi_plus=xi[0, 0].copy(),
                            xi_minus=xi[1, 0].copy())


@dataclass(frozen=True, eq=False)
class CorrelationEstimate:
    """Sample correlation curves keyed by 'plus', 'minus', 'cross'."""

    lags: np.ndarray
    estimates: dict
    stderrs: dict


def _block_means(series: np.ndarray, block_len: int) -> np.ndarray:
    nb = series.size // block_len
    while nb < 8 and block_len > 1:
        block_len = max(block_len // 2, 1)
        nb = series.size // block_len
    return series[:nb * block_len].reshape(nb, block_len).mean(axis=1)


def _block_stderr(block_len: int, *series: np.ndarray) -> float:
    """Standard error of a mean from the block means of each series, blocked apart."""
    means = np.concatenate([_block_means(x, block_len) for x in series])
    return float(means.std(ddof=1) / math.sqrt(means.size))


def _correlation_scan(realization, max_lag, transform):
    grid = realization.grid
    if not max_lag >= 0:
        raise ValueError(f"max_lag must be non-negative, got {max_lag}")
    if max_lag > grid.duration / 4.0:
        raise ValueError("max_lag must not exceed a quarter of the duration")
    n_lags = int(math.floor(max_lag / grid.dt + 1e-9))
    lags = np.arange(n_lags + 1) * grid.dt
    # blocks much longer than the correlation structure of the products
    block_len = max(4 * (n_lags + 1), 32)
    xp = transform(realization.xi_plus)
    xm = transform(realization.xi_minus)
    pairs = {"plus": (xp, xp), "minus": (xm, xm), "cross": (xp, xm)}
    estimates, stderrs = {}, {}
    for key, (a, b) in pairs.items():
        est = np.empty(n_lags + 1)
        err = np.empty(n_lags + 1)
        for k in range(n_lags + 1):
            prod = a[:a.size - k] * b[k:]
            est[k] = prod.mean()          # unbiased: population mean is known zero
            err[k] = _block_stderr(block_len, prod)
        estimates[key], stderrs[key] = est, err
    return CorrelationEstimate(lags=lags, estimates=estimates, stderrs=stderrs)


def estimate_g1(realization: FieldRealization, max_lag: float) -> CorrelationEstimate:
    """Sample autocovariance of each stream and their cross-covariance.

    Standard errors come from block averaging of the lag products with
    blocks spanning several correlation times.
    """
    return _correlation_scan(realization, max_lag, lambda x: x)


def estimate_g2(realization: FieldRealization, max_lag: float) -> CorrelationEstimate:
    """Sample second-order correlation ``M[xi(t)^2 xi(t+lag)^2]``.

    For Gaussian streams the same-stream curve is ``1 + 2 g1(lag)^2`` and
    the cross-stream curve is 1.
    """
    return _correlation_scan(realization, max_lag, lambda x: x * x)


def odd_moment_check(realization: FieldRealization) -> list:
    """Sample odd moments 1, 3 and 5 of the pooled streams; all should vanish.

    Returns ``[(order, estimate, stderr), ...]``.
    """
    results = []
    for order in (1, 3, 5):
        plus, minus = realization.xi_plus ** order, realization.xi_minus ** order
        results.append((order, float(np.concatenate([plus, minus]).mean()),
                        _block_stderr(64, plus, minus)))
    return results
