"""Physical source models for the fluctuations and experimental bounds.

A zero-point model cuts the fluctuation spectrum off at ``lambda_cut``
Planck lengths, which fixes the correlation time ``tau = lambda_cut * t_p``
and amplitude ``a0 = lambda_cut**-2``.  Feeding these into the decoherence
rate and comparing with the contrast retained in an atom-interferometry
experiment turns an observed contrast loss into a lower bound on
``lambda_cut``.  A cosmological source model takes its correlation time
as an input and derives its amplitude from an energy-density limit on
conformal waves, through the relation between amplitude, correlation time
and density that the zero-point model implies (``conformal_amplitude``).

The zero-point energy density has a closed form
(``zero_point_energy_density``) and a numerical oracle
(``integrated_zero_point_density``), the 8-point Gauss-Legendre rule that
``master`` also uses for the kernel, on numpy alone.

The calculator works in SI: masses in amu, times in seconds, separations in
meters and densities in g/cm^3.  Only ``lambda_bound``, ``mode_density`` and
the zero-point density functions take a ``constants`` argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SI, PhysicalConstants
from .errors import SubPlanckCutoff
from .master import _GL_NODES, _GL_WEIGHTS, grw_params


@dataclass(frozen=True)
class CutoffModel:
    """Zero-point fluctuation model truncated at ``lambda_cut`` Planck lengths."""

    lambda_cut: float
    omega_max: float
    a0: float
    tau: float


def build_cutoff_model(lambda_cut: float) -> CutoffModel:
    """Derive ``(omega_max, a0, tau)`` from the cutoff length.

    ``omega_max = 2 pi / (lambda_cut t_p)``, ``a0 = lambda_cut**-2`` and
    ``tau = lambda_cut t_p``.  Cutoffs below one Planck length are refused,
    and so are NaN and infinite ones.
    """
    if lambda_cut < 1.0:
        raise SubPlanckCutoff(f"lambda_cut = {lambda_cut} is below the Planck scale")
    if not 1.0 <= lambda_cut < math.inf:
        raise ValueError(f"lambda_cut = {lambda_cut} must be finite")
    t_p = SI.t_planck
    return CutoffModel(lambda_cut=float(lambda_cut),
                       omega_max=2.0 * math.pi / (lambda_cut * t_p),
                       a0=lambda_cut**-2.0,
                       tau=lambda_cut * t_p)


def mode_density(omega: float, constants: PhysicalConstants = SI) -> float:
    """Spectral mode density ``4 pi omega^2 / (2 pi c)^3`` per unit volume."""
    if not 0 <= omega < math.inf:
        raise ValueError("omega must be non-negative and finite")
    return 4.0 * math.pi * omega**2 / (2.0 * math.pi * constants.c) ** 3


def zero_point_energy_density(omega_max: float,
                              constants: PhysicalConstants = SI) -> float:
    """Zero-point energy density up to the cutoff: ``hbar omega_max^4 / (16 pi^2 c^3)``.

    Equal to the integral of ``(hbar omega / 2) * mode_density(omega)`` from
    0 to ``omega_max`` (see ``integrated_zero_point_density``).
    """
    if not 0 <= omega_max < math.inf:
        raise ValueError("omega_max must be non-negative and finite")
    return constants.hbar * omega_max**4 / (16.0 * math.pi**2 * constants.c**3)


def conformal_amplitude(mass_density: float, tau: float) -> float:
    """Amplitude ``a0 = G rho tau^2 / pi^2`` of conformal waves of mass density ``rho``.

    ``rho`` is the energy density divided by ``c^2``.  ``a0`` is the
    dimensionless Newtonian potential of that density over one correlation
    length ``c tau``.  It is the zero-point model with the cutoff eliminated:
    at ``tau = lambda_cut t_p`` and ``rho = zero_point_energy_density(2 pi /
    tau) / c^2`` it returns ``lambda_cut**-2``.
    """
    if not 0 <= mass_density < math.inf:
        raise ValueError("mass_density must be non-negative and finite")
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    return SI.G * mass_density * tau**2 / math.pi**2


def integrated_zero_point_density(omega_max: float,
                                  constants: PhysicalConstants = SI) -> float:
    """Gauss-Legendre sum of ``(hbar omega / 2) * mode_density`` over ``[0, omega_max]``.

    Numerical verification path for the closed form.  The integrand is a
    cubic in ``omega``, so ``master``'s 8-point rule (exact to degree 15) on
    the single panel, summed with ``math.fsum``, agrees with
    ``zero_point_energy_density`` up to roundoff.
    """
    half = 0.5 * omega_max
    nodes = half + half * _GL_NODES
    return math.fsum(half * _GL_WEIGHTS * 0.5 * constants.hbar * nodes
                     * [mode_density(w, constants) for w in nodes])


@dataclass(frozen=True)
class ExperimentParams:
    """Matter-wave interferometry run: mass, flight time, observed contrast loss.

    ``separation`` (wavepacket split, meters) is optional; when omitted the
    separation is assumed far beyond the correlation length ``c tau`` so the
    localization kernel is saturated.
    """

    mass_amu: float
    flight_time: float
    contrast_loss: float
    separation: float | None = None

    def __post_init__(self):
        if not (0 < self.mass_amu < math.inf and 0 < self.flight_time < math.inf):
            raise ValueError("mass_amu and flight_time must be positive and finite")
        if not 0.0 < self.contrast_loss < 1.0:
            raise ValueError("contrast_loss must lie in (0, 1)")
        if self.separation is not None and not 0 < self.separation < math.inf:
            raise ValueError("separation must be positive and finite when given")


@dataclass(frozen=True)
class CosmoSourceParams:
    """Conformal-wave source limited by the cosmological energy density.

    ``energy_density_limit`` is a mass density in g/cm^3 and
    ``correlation_time`` is in seconds.  The amplitude is the one that
    density implies at that correlation time (``conformal_amplitude``),
    unless an explicit ``amplitude`` overrides it.
    """

    energy_density_limit: float = 1e-29
    correlation_time: float = 1e-13
    amplitude: float | None = None

    def __post_init__(self):
        if not (0 < self.energy_density_limit < math.inf
                and 0 < self.correlation_time < math.inf):
            raise ValueError("energy density limit and correlation time must be positive")
        if self.amplitude is not None and not 0 <= self.amplitude < math.inf:
            raise ValueError("amplitude must be non-negative and finite")

    def resolved_amplitude(self) -> float:
        """The explicit ``amplitude``, else the one derived from the density limit.

        The density is converted from g/cm^3 to the SI kg/m^3.
        """
        if self.amplitude is not None:
            return self.amplitude
        return conformal_amplitude(self.energy_density_limit * 1e3,
                                   self.correlation_time)


def _contrast_loss(experiment: ExperimentParams, a0: float, tau: float) -> float:
    """``grw_params(M, a0, tau).rate(dx) * T``, saturated (dx = inf) without a separation."""
    dx = math.inf if experiment.separation is None else experiment.separation
    gp = grw_params(experiment.mass_amu * SI.amu, a0, tau, SI)
    return gp.rate(dx) * experiment.flight_time


def predicted_contrast_loss(experiment: ExperimentParams, model: CutoffModel) -> float:
    """Fractional contrast loss the cutoff model predicts for the experiment.

    The localization rate at the experiment's separation times the flight
    time, ``grw_params(M, a0, tau).rate(dx) * T``; without a separation the
    kernel is saturated and the rate is ``lambda_grw``.  Scales as the
    fourth power of the amplitude and linearly in both the correlation time
    and the flight time.
    """
    return _contrast_loss(experiment, model.a0, model.tau)


def lambda_bound(experiment: ExperimentParams,
                 constants: PhysicalConstants = SI) -> float:
    """Smallest cutoff compatible with the observed contrast loss.

    With ``a0 = lambda_cut**-2`` and ``tau = lambda_cut t_p`` the saturated
    loss is ``lambda_grw(a0=1, tau=t_p) T / lambda_cut**7``; setting it equal
    to the observed loss ``delta`` and inverting gives

        lambda_cut >= (sqrt(pi/2) M^2 c^4 t_p T / (hbar^2 delta)) ** (1/7).

    Inverse of ``predicted_contrast_loss`` over the saturated-kernel regime:
    feeding a predicted loss back in recovers the cutoff exactly.  A
    separation at which the kernel at the bound is not saturated in double
    precision, ``rate(dx) < lambda_grw``, is refused with ``ValueError``:
    there the saturated loss overstates the loss, and the bound would not
    invert it.
    """
    mass = experiment.mass_amu * constants.amu
    try:
        gp = grw_params(mass, 1.0, constants.t_planck, constants)
    except ValueError:
        raise ValueError(f"mass_amu = {experiment.mass_amu!r} gives a lambda_grw that "
                         "is not a finite float") from None
    bound = (gp.lambda_grw * experiment.flight_time
             / experiment.contrast_loss) ** (1.0 / 7.0)
    if experiment.separation is not None:
        tau = bound * constants.t_planck
        at_bound = grw_params(mass, bound**-2.0, tau, constants)
        if at_bound.rate(experiment.separation) < at_bound.lambda_grw:
            raise ValueError(
                f"separation = {experiment.separation!r} m does not saturate the kernel "
                f"at the bound {bound:.6g}, where c tau = {constants.c * tau:.6g} m: "
                "the bound inverts the saturated loss")
    return bound


def cosmological_feasibility(source: CosmoSourceParams,
                             experiment: ExperimentParams) -> float:
    """Contrast loss the cosmological source would produce in the experiment.

    Uses the source's resolved amplitude and its correlation time; the
    result is astronomically small because of the fourth power of the
    amplitude, and exactly zero for a zero amplitude.
    """
    a0 = source.resolved_amplitude()
    if a0 == 0.0:
        return 0.0
    return _contrast_loss(experiment, a0, source.correlation_time)


def bound_report(experiment: ExperimentParams,
                 lambda_cut: float | None = None,
                 source: CosmoSourceParams | None = None,
                 reference_bound: float | None = None) -> dict:
    """The full bound computation as ``{"results", "checks"}``, in SI.

    The results hold the cutoff bound, intermediate quantities, the
    predicted loss for an explicit ``lambda_cut`` (default: the bound
    itself), optionally the cosmological-source loss, and a comparison
    against an externally published reference bound when one is supplied.
    Only results and checks are returned: the CLI frames them with the run's
    inputs and constants, as it does every summary.
    """
    if reference_bound is not None and not 0 < reference_bound < math.inf:
        raise ValueError(f"reference_bound must be positive and finite, "
                         f"got {reference_bound!r}")
    mass_kg = experiment.mass_amu * SI.amu
    bound = lambda_bound(experiment)
    results = {
        "mass_kg": mass_kg,
        "rest_energy_J": mass_kg * SI.c**2,
        "lambda_bound": bound,
    }
    checks = {}
    model = build_cutoff_model(lambda_cut if lambda_cut is not None else bound)
    results["cutoff_model"] = {
        "lambda_cut": model.lambda_cut,
        "omega_max_rad_per_s": model.omega_max,
        "a0": model.a0,
        "tau_s": model.tau,
        "zero_point_energy_density_J_per_m3":
            zero_point_energy_density(model.omega_max),
    }
    results["predicted_loss_at_cutoff"] = predicted_contrast_loss(experiment, model)
    checks["loss_round_trip"] = {
        "recovered_lambda": lambda_bound(
            ExperimentParams(experiment.mass_amu, experiment.flight_time,
                             min(results["predicted_loss_at_cutoff"], 1.0 - 1e-12))),
        "target_lambda": model.lambda_cut,
    }
    if reference_bound is not None:
        results["reference_bound"] = reference_bound
        results["bound_over_reference"] = bound / reference_bound
        checks["reference_discrepancy"] = {
            "factor": bound / reference_bound,
            "same_order_of_magnitude":
                0.1 <= bound / reference_bound <= 10.0,
        }
    if source is not None:
        results["cosmological_amplitude"] = source.resolved_amplitude()
        results["cosmological_loss"] = cosmological_feasibility(source, experiment)
        checks["cosmological_unobservable"] = (
            results["cosmological_loss"] < experiment.contrast_loss * 1e-12)
    return {"results": results, "checks": checks}
