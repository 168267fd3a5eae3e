"""Radiation-pressure fluctuations on a scattering mirror in one dimension.

A mirror couples counterpropagating components of a massless field through a
frequency-dependent scattering matrix.  This package computes the quantities
that characterize the resulting force: the static force kernel and its
algebraic identities, mean force and energy exchange, the motional force
susceptibility, force-noise and commutator spectra with their
fluctuation-dissipation relation, squeezing-like output correlations for an
oscillating mirror, and time-domain causality diagnostics.  A command-line
interface (``vacmirror``) wraps the analyses into reproducible runs.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .causality import CausalityReport, causality_report
from .core import (
    ETA,
    FrequencyGrid,
    PhysicsContext,
    SingularFrequencyError,
    Spectrum,
    dagger,
    max_entry,
)
from .fluctuations import (
    FdtReport,
    cff_kernel,
    commutator_kernel,
    fdt_check,
    mean_force,
    noise_spectrum,
    noise_spectrum_grid,
    xi_spectrum,
)
from .mirrors import (
    Mirror,
    PerfectMirror,
    SinglePoleMirror,
    TabulatedMirror,
    ValidationReport,
    validate_model,
)
from .numerics import (
    NonConvergenceError,
    QuadratureConfig,
    hilbert_transform,
    integrate_batch,
    inverse_fourier_to_time,
)
from .pressure import (
    alpha,
    alpha_beta,
    energy_exchange_kernel,
    force_kernel,
    mean_force_integrand,
    unitarity_identities,
)
from .response import (
    MonochromaticOscillation,
    TabulatedSpectrum,
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    comoving_covariance_perturbation,
    delta_smatrix,
    motional_force_spectrum,
    susceptibility,
    susceptibility_grid,
)
from .squeezing import (
    delta_cout,
    delta_cout_vacuum,
    oscillation_line_strength,
    oscillation_squeeze_lines,
    secular_hamiltonian_kernel,
)
from .states import (
    CustomState,
    FieldState,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
)

__all__ = [
    "CausalityReport",
    "CustomState",
    "ETA",
    "FdtReport",
    "FieldState",
    "FrequencyGrid",
    "Mirror",
    "MonochromaticOscillation",
    "NonConvergenceError",
    "PerfectMirror",
    "PhysicsContext",
    "QuadratureConfig",
    "SingularFrequencyError",
    "SinglePoleMirror",
    "Spectrum",
    "TabulatedMirror",
    "TabulatedSpectrum",
    "ThermalState",
    "TwoTemperatureState",
    "VacuumState",
    "ValidationReport",
    "__version__",
    "alpha",
    "alpha_beta",
    "causality_report",
    "cff_kernel",
    "chi_kernel",
    "chi_kernel_comoving",
    "chi_kernel_symmetrized",
    "commutator_kernel",
    "comoving_covariance_perturbation",
    "dagger",
    "delta_cout",
    "delta_cout_vacuum",
    "delta_smatrix",
    "energy_exchange_kernel",
    "fdt_check",
    "force_kernel",
    "hilbert_transform",
    "integrate_batch",
    "inverse_fourier_to_time",
    "max_entry",
    "mean_force",
    "mean_force_integrand",
    "motional_force_spectrum",
    "noise_spectrum",
    "noise_spectrum_grid",
    "oscillation_line_strength",
    "oscillation_squeeze_lines",
    "secular_hamiltonian_kernel",
    "susceptibility",
    "susceptibility_grid",
    "unitarity_identities",
    "validate_model",
    "xi_spectrum",
]
