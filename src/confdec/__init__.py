"""Stochastic conformal-fluctuation decoherence toolkit.

Synthesizes counter-propagating Gaussian stochastic fields, accumulates
the phase they imprint on massive wavepackets, verifies the resulting
coherence decay against a closed-form localization kernel, evolves
density matrices under that kernel (with or without free dynamics), and
turns interferometer contrast measurements into cutoff bounds.
"""
__version__ = "0.1.0"

from .bounds import (CosmoSourceParams, CutoffModel, ExperimentParams,
                     bound_report, build_cutoff_model, conformal_amplitude,
                     cosmological_feasibility, integrated_zero_point_density,
                     lambda_bound, mode_density, predicted_contrast_loss,
                     zero_point_energy_density)
from .core import NATURAL, SI, PhysicalConstants
from .errors import (ConfdecError, FitDegenerate, IndefiniteCovariance,
                     InsufficientSamples, OutOfRange, QuadratureFailure,
                     ResolutionError, StepTooLarge, SubPlanckCutoff,
                     UndersampledSignal)
from .field import (CorrelationEstimate, CorrelationModel, FieldGrid,
                    FieldRealization, estimate_g1, estimate_g2,
                    odd_moment_check, sample_field)
from .master import (DensityMatrix, GrwParams, closed_form_kernel,
                     decoherence_factor, evolve_pure_decoherence,
                     evolve_with_free_hamiltonian, general_kernel,
                     grw_params, superposed_gaussians)
from .montecarlo import (CoherenceEstimate, CoherenceRecord, McParams, RateFit,
                         accumulate_phase, coherence_mc, fit_decoherence_rate,
                         sample_phases)

__all__ = [
    "__version__",
    "ConfdecError", "ResolutionError",
    "IndefiniteCovariance", "OutOfRange",
    "InsufficientSamples", "UndersampledSignal", "FitDegenerate",
    "QuadratureFailure", "StepTooLarge", "SubPlanckCutoff",
    "PhysicalConstants", "SI", "NATURAL",
    "CorrelationModel", "FieldGrid", "FieldRealization", "CorrelationEstimate",
    "sample_field", "estimate_g1", "estimate_g2", "odd_moment_check",
    "McParams", "CoherenceRecord", "CoherenceEstimate", "RateFit",
    "accumulate_phase", "sample_phases", "coherence_mc", "fit_decoherence_rate",
    "GrwParams", "grw_params", "decoherence_factor", "DensityMatrix",
    "superposed_gaussians", "evolve_pure_decoherence",
    "evolve_with_free_hamiltonian", "general_kernel", "closed_form_kernel",
    "CutoffModel", "build_cutoff_model", "mode_density",
    "zero_point_energy_density", "integrated_zero_point_density",
    "conformal_amplitude",
    "ExperimentParams", "CosmoSourceParams", "predicted_contrast_loss",
    "lambda_bound", "cosmological_feasibility", "bound_report",
]
