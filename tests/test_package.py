"""The public API in ``qcoherent.__all__`` is part of the behaviour
contract: a name leaves or joins it only on purpose."""

import qcoherent

PUBLIC_API = [
    "BetaRoots", "BranchCrossing", "ConventionMismatch", "DivergentSeries",
    "IntegrandSpec", "LauricellaArgs", "LimitReport", "MomentReport",
    "MomentumDistribution", "MomentumSample", "NotConverged", "NumericsError",
    "OutOfValidityWindow", "ParameterPole", "PoleHit", "QuadratureResult",
    "RegimeWarning", "SlowDecay", "StateLabel", "WaveFunctionSample",
    "ZeroAmplitude", "__version__", "apply_aq", "beta_roots",
    "coherent_coefficients", "coherent_psi", "coherent_reference_moments",
    "coherent_wavefunction", "default_k_grid", "fourier_transform_line",
    "gaussian_momentum_pd", "grid_momentum_moments", "hermite_function",
    "hermite_poly", "integrate_interval", "integrate_line", "kummer_phi",
    "lauricella_fd", "lauricella_fd_integral", "lauricella_fd_series",
    "limit_convergence_check", "moments_closed", "moments_oracle",
    "momentum_amplitude_closed", "momentum_amplitude_oracle", "momentum_pd",
    "normalization_constant", "overlap", "pochhammer",
    "pseudo_coherent_wavefunction", "psi_unnormalized", "q_expansion_state",
    "q_exponential", "uncertainty_product",
]


def test_public_api_is_frozen():
    assert sorted(qcoherent.__all__) == PUBLIC_API
    assert all(hasattr(qcoherent, name) for name in PUBLIC_API)
