"""Exception types shared across the package.

Validation-type errors signal bad inputs or configuration and are also
``ValueError``s; numerical-type errors signal a computation that started
from valid inputs but could not be completed to the requested accuracy.
The CLI exits 2 on any ``ValueError`` and 3 on any other ``ConfdecError``.
"""


class ConfdecError(Exception):
    """Base class for all package-specific errors."""


class ResolutionError(ConfdecError, ValueError):
    """Grid step too coarse for the correlation time (dt > tau/8)."""


class IndefiniteCovariance(ConfdecError, ValueError):
    """Tabulated correlation has a negative spectral component."""


class OutOfRange(ConfdecError, ValueError):
    """Field lookup outside the sampled interval."""


class InsufficientSamples(ConfdecError, ValueError):
    """Monte Carlo ensemble smaller than the minimum (100 samples)."""


class UndersampledSignal(ConfdecError):
    """Coherence magnitude indistinguishable from noise (|mean| <= 5 stderr)."""


class FitDegenerate(ConfdecError, ValueError):
    """Rate fit on a T range spanning less than a factor of two, or on a
    covariance of the coherence estimates that is not positive definite."""


class QuadratureFailure(ConfdecError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StepTooLarge(ConfdecError):
    """Split-step halving check changed the result by more than the tolerance."""


class SubPlanckCutoff(ConfdecError, ValueError):
    """Cutoff model requested below the Planck scale (lambda_cut < 1)."""

