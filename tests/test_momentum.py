"""Momentum-space amplitude and probability distribution.

The Fourier-quadrature oracle is authoritative.  The printed closed form is
implemented as published and tested for exactly the behavior the library
documents: finite values, |k| symmetry, and the k -> 0 discrepancy against
the oracle that the verify report records.
"""

import cmath
import math

import numpy as np
import pytest

from qcoherent.errors import OutOfValidityWindow
from qcoherent.momentum import (
    MomentumDistribution,
    default_k_grid,
    grid_momentum_moments,
    momentum_amplitude_closed,
    momentum_amplitude_oracle,
    momentum_pd,
)

SQRT2 = math.sqrt(2.0)

# frozen oracle outputs (Fourier quadrature, tol=1e-11)
AMP_FROZEN = {
    (1.5, 0.3, 1.0): 0.33094714182068058 - 0.14948775642045714j,
    (1.4, 0.0, 1.0): 0.38108252580035379 + 0.0j,
}


def test_oracle_frozen_values():
    for (q, alpha, k), want in AMP_FROZEN.items():
        got = momentum_amplitude_oracle(q, alpha, k, tol=1e-11)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_oracle_sentinel_gaussian_formula():
    for alpha in (0.0, 0.5, 0.4 + 0.3j):
        for k in (-1.3, 0.0, 0.8, 2.5):
            want = math.pi ** -0.25 * cmath.exp(
                -(k * k + 2 * SQRT2 * 1j * alpha * k - alpha * alpha
                  + abs(alpha) ** 2) / 2.0
            )
            got = momentum_amplitude_oracle(1.0, alpha, k)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_oracle_hermitian_symmetry_alpha_zero():
    # real even wavefunction: amplitude(-k) is the conjugate
    for k in (0.4, 1.1, 2.6):
        plus = momentum_amplitude_oracle(1.4, 0.0, k, tol=1e-10)
        minus = momentum_amplitude_oracle(1.4, 0.0, -k, tol=1e-10)
        assert minus == pytest.approx(plus.conjugate(), rel=1e-8, abs=1e-11)


def test_oracle_stable_under_tol_halving():
    v1 = momentum_amplitude_oracle(1.4, 0.0, 1.0, tol=1e-8)
    v2 = momentum_amplitude_oracle(1.4, 0.0, 1.0, tol=5e-9)
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v2))


@pytest.mark.parametrize("q, alpha", [(1.1, 1.0 + 0.5j), (1.3, 0.3 + 0.1j), (1.7, 0.3 + 0.1j)])
def test_oracle_continuous_down_to_tiny_k(q, alpha):
    # pi/|k| far wider than the state: the core panels must still sample it
    # instead of straddling it and reading zero
    a0 = momentum_amplitude_oracle(q, alpha, 0.0)
    for k in 10.0 ** -np.arange(3.0, 16.0):
        for kk in (k, -k):
            got = momentum_amplitude_oracle(q, alpha, kk)
            assert abs(got - a0) <= 20.0 * k * abs(a0) + 1e-8


def test_closed_form_k_symmetry_real_alpha():
    for k in (0.3, 0.9, 1.7):
        plus = momentum_amplitude_closed(1.5, 0.3, k)
        minus = momentum_amplitude_closed(1.5, 0.3, -k)
        assert abs(plus) == pytest.approx(abs(minus), rel=1e-10)


def test_closed_form_finite_and_deviation_reported():
    v = momentum_amplitude_closed(1.5, 0.0, 1.0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    oracle = momentum_amplitude_oracle(1.5, 0.0, 1.0, tol=1e-10)
    dev = abs(v - oracle) / abs(oracle)
    # the published expression does not reproduce the transform; the
    # deviation is the documented finding, not a tolerance target
    assert dev > 1e-3


def test_closed_form_vanishes_toward_k_zero_unlike_oracle():
    q = 1.5
    closed_small = abs(momentum_amplitude_closed(q, 0.0, 1e-3))
    oracle_zero = abs(momentum_amplitude_oracle(q, 0.0, 0.0, tol=1e-10))
    assert closed_small < 1e-3          # |k| power forces decay to zero
    assert oracle_zero > 0.3            # transform peaks near the origin


def test_closed_form_guards():
    with pytest.raises(ValueError):
        momentum_amplitude_closed(1.5, 0.3, 0.0)
    with pytest.raises(OutOfValidityWindow):
        momentum_amplitude_closed(3.4, 0.3, 1.0)
    for amplitude in (momentum_amplitude_closed, momentum_amplitude_oracle):
        with pytest.raises(ValueError):
            amplitude(1.5, 0.3, math.nan)


def test_pd_sentinel_gaussian():
    # alpha = (x0 + i p0)/sqrt2: the distribution is the displaced Gaussian
    x0, p0 = 0.6, -0.4
    alpha = (x0 + 1j * p0) / SQRT2
    ks = np.linspace(-5.0, 5.0, 41)
    dist = momentum_pd(1.0, alpha, ks)
    want = math.pi ** -0.5 * np.exp(-((ks - p0) ** 2))
    np.testing.assert_allclose(dist.pd_values, want, rtol=1e-9, atol=1e-12)


def test_pd_parseval_and_samples():
    dist = momentum_pd(1.4, 0.3, tol=1e-9)
    assert isinstance(dist, MomentumDistribution)
    assert abs(dist.parseval_total - 1.0) < 1e-4
    for s in dist.samples[:: 40]:
        assert s.pd == pytest.approx(abs(s.amplitude) ** 2, abs=1e-12)
        assert s.method == "oracle"


def test_pd_centre_sample_matches_k_zero():
    # linspace rounds this default grid's centre to about -1.8e-15
    alpha = 2.250025j
    centre = momentum_pd(1.5, alpha).samples[200]
    assert centre.k != 0.0 and abs(centre.k) < 1e-14
    want = momentum_amplitude_oracle(1.5, alpha, 0.0)
    assert centre.amplitude == pytest.approx(want, rel=1e-8)


def test_parseval_total_grades_the_k_zero_kink(monkeypatch):
    # the |k|^(2p-1) kink at k = 0 sits at a hint graded on both sides, so
    # the total needs few amplitudes on top of the two grid points
    from qcoherent import momentum

    calls = []
    amplitude = momentum.momentum_amplitude_oracle
    monkeypatch.setattr(momentum, "momentum_amplitude_oracle",
                        lambda *a, **k: calls.append(a) or amplitude(*a, **k))
    alpha = 0.3 + 0.1j
    dist = momentum_pd(1.7, alpha, default_k_grid(alpha, 2))
    assert abs(dist.parseval_total - 1.0) < 1e-6
    assert len(calls) <= 200


def test_pd_even_for_alpha_zero():
    ks = np.linspace(-4.0, 4.0, 33)
    dist = momentum_pd(1.5, 0.0, ks, tol=1e-9)
    pd = dist.pd_values
    np.testing.assert_allclose(pd, pd[::-1], rtol=1e-7, atol=1e-12)


def test_pd_grid_moments_match_position_route():
    from qcoherent.moments import moments_oracle

    q, alpha = 1.5, 0.3j
    dist = momentum_pd(q, alpha, tol=1e-9)
    k1, k2 = grid_momentum_moments(dist)
    m = moments_oracle(q, alpha, tol=1e-9)
    assert k1 == pytest.approx(m.mean_p.real, abs=1e-4)
    assert k2 == pytest.approx(m.mean_p2.real, abs=1e-4)


def test_default_k_grid_widens_with_alpha():
    g0 = default_k_grid(0.0)
    g1 = default_k_grid(2.0 + 1.0j)
    assert g0[0] == -8.0 and g0[-1] == 8.0
    assert g1[-1] > g0[-1]
    assert len(g0) == 401


def test_pd_closed_method_is_labelled_and_quarantined():
    ks = np.array([-1.0, 0.0, 1.0])
    dist = momentum_pd(1.5, 0.0, ks, method="closed-form")
    assert all(s.method == "closed-form" for s in dist.samples)
    # the printed form's own k -> 0 limit: zero amplitude at the origin
    assert dist.samples[1].amplitude == 0.0 + 0.0j


def test_pd_window():
    with pytest.raises(OutOfValidityWindow):
        momentum_pd(5.5, 0.0)
    for bad in ([0.0, math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            momentum_pd(1.5, 0.3, bad)
