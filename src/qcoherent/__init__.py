"""qcoherent: deformed (q-exponential) coherent states, validated numerics.

A small laboratory for the one-parameter deformation of harmonic-
oscillator coherent states built on the Tsallis q-exponential: state
construction, normalisation, overlaps, position/momentum moments,
momentum-space densities, and the q -> 1 Gaussian-limit recovery,
with every closed-form expression cross-checked against an independent
adaptive-quadrature oracle.

Layers (import order is dependency order):

    errors      shared exception taxonomy
    quadrature  Gauss-Kronrod machinery: finite, whole-line, oscillatory
    specfun     Hermite, Pochhammer, Kummer phi, Lauricella F_D
    states      wavefunctions, beta roots, normalisation, overlaps
    closedforms Lauricella assembly of the moment integrals (internal)
    moments     <x>, <x^2>, <p>, <p^2>, uncertainty products
    momentum    Bessel-K and Fourier amplitudes, |phi(k)|^2 densities
    limits      Gaussian references and the q -> 1 convergence harness
    cli         sweep / verify / pd command-line frontend
"""

from .errors import (
    BranchCrossing,
    ConventionMismatch,
    DivergentSeries,
    NotConverged,
    NumericsError,
    OutOfValidityWindow,
    ParameterPole,
    PoleHit,
    RegimeWarning,
    SlowDecay,
    ZeroAmplitude,
)
from .limits import (
    LimitReport,
    coherent_reference_moments,
    gaussian_momentum_pd,
    limit_convergence_check,
    q_expansion_state,
)
from .moments import MomentReport, moments_closed, moments_oracle, uncertainty_product
from .momentum import (
    MomentumDistribution,
    MomentumSample,
    default_k_grid,
    grid_momentum_moments,
    momentum_amplitude_bessel,
    momentum_amplitude_closed,
    momentum_amplitude_oracle,
    momentum_pd,
)
from .quadrature import (
    IntegrandSpec,
    QuadratureResult,
    fourier_transform_line,
    integrate_interval,
    integrate_line,
)
from .specfun import (
    LauricellaArgs,
    hermite_function,
    hermite_poly,
    kummer_phi,
    lauricella_fd,
    lauricella_fd_integral,
    lauricella_fd_series,
    pochhammer,
)
from .states import (
    BetaRoots,
    StateLabel,
    WaveFunctionSample,
    apply_aq,
    beta_roots,
    coherent_coefficients,
    coherent_psi,
    coherent_wavefunction,
    normalization_constant,
    overlap,
    pseudo_coherent_wavefunction,
    psi_unnormalized,
    q_exponential,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "NumericsError", "ParameterPole", "DivergentSeries", "NotConverged",
    "BranchCrossing", "PoleHit", "ZeroAmplitude", "OutOfValidityWindow",
    "SlowDecay", "ConventionMismatch", "RegimeWarning",
    # quadrature
    "IntegrandSpec", "QuadratureResult", "integrate_interval",
    "integrate_line", "fourier_transform_line",
    # specfun
    "LauricellaArgs", "hermite_poly", "hermite_function", "pochhammer",
    "kummer_phi", "lauricella_fd_series", "lauricella_fd_integral",
    "lauricella_fd",
    # states
    "StateLabel", "BetaRoots", "WaveFunctionSample", "q_exponential",
    "coherent_psi", "coherent_coefficients", "beta_roots",
    "psi_unnormalized", "normalization_constant", "overlap", "apply_aq",
    "coherent_wavefunction", "pseudo_coherent_wavefunction",
    # moments
    "MomentReport", "moments_oracle", "moments_closed", "uncertainty_product",
    # momentum
    "MomentumSample", "MomentumDistribution", "default_k_grid",
    "momentum_amplitude_bessel", "momentum_amplitude_oracle", "momentum_amplitude_closed",
    "momentum_pd",
    "grid_momentum_moments",
    # limits
    "LimitReport", "coherent_reference_moments", "gaussian_momentum_pd",
    "q_expansion_state", "limit_convergence_check",
]
