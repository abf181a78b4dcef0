"""Adaptive quadrature oracle: finite intervals, the whole line, and the
oscillatory Fourier path.

The whole point of this module is to be trustworthy independently of the
closed forms it later judges, so expected values here come from textbook
integrals (Gamma/Beta identities, Gaussian moments, the Lorentzian
transform) evaluated through the standard library, never from the package's
own physics layer.
"""

import math

import numpy as np
import pytest

from qcoherent import quadrature
from qcoherent.errors import NotConverged, SlowDecay
from qcoherent.quadrature import (
    IntegrandSpec,
    fourier_transform_line,
    integrate_interval,
    integrate_line,
)

SQRT_PI = math.sqrt(math.pi)


# ------------------------------------------------------ finite interval

def test_interval_constant():
    r = integrate_interval(lambda x: np.ones_like(x), 0.0, 1.0, tol=1e-12)
    assert r.value.real == pytest.approx(1.0, rel=1e-13)
    assert r.err_estimate >= 0.0
    assert r.evaluations >= 1


def test_interval_inverse_sqrt_endpoint():
    spec = IntegrandSpec(lambda u: u ** -0.5, singularities=(0.0,))
    r = integrate_interval(spec, 0.0, 1.0, tol=1e-10)
    assert r.value.real == pytest.approx(2.0, rel=1e-9)


def test_interval_beta_function():
    r = integrate_interval(lambda u: u ** 0.2 * (1 - u) ** 0.3, 0.0, 1.0, tol=1e-11)
    want = math.exp(
        math.lgamma(1.2) + math.lgamma(1.3) - math.lgamma(2.5)
    )
    assert r.value.real == pytest.approx(want, rel=1e-10)


def test_interval_complex_integrand():
    r = integrate_interval(lambda x: np.exp(1j * x), 0.0, math.pi / 2, tol=1e-12)
    assert r.value == pytest.approx(1.0 + 1.0j, rel=1e-12)


def test_interval_interior_hint_splits_kink():
    spec = IntegrandSpec(lambda x: np.abs(x - 0.3), singularities=(0.3,))
    r = integrate_interval(spec, 0.0, 1.0, tol=1e-12)
    want = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert r.value.real == pytest.approx(want, rel=1e-13)


def test_interval_interior_hint_next_to_hinted_ends():
    # each side of every hint is graded over its own half segment, so the
    # substitution next to an end hint never rounds onto the interior one
    spec = IntegrandSpec(lambda u: np.abs(u - 0.3) ** -0.5, singularities=(0.0, 0.3, 1.0))
    tol = 1e-10
    r = integrate_interval(spec, 0.0, 1.0, tol=tol)
    assert abs(r.value - 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))) <= tol


def test_interval_hint_failure_names_the_callers_x():
    # next to a non-zero hint the graded nodes round onto it, where this
    # integrand is infinite: the failure names u and the hint, not the
    # graded variable; at hint 0 the same singularity resolves
    def f(h):
        def ev(x):
            with np.errstate(divide="ignore"):
                return np.abs(x - h) ** -0.3
        return IntegrandSpec(ev, singularities=(h,))

    with pytest.raises(NotConverged, match=r"u=\[0\.3\].*hint 0\.3"):
        integrate_interval(f(0.3), -1.0, 2.0, tol=1e-10)
    r = integrate_interval(f(0.0), -1.0, 2.0, tol=1e-10)
    assert abs(r.value - (1.0 + 2.0 ** 0.7) / 0.7) <= 1e-12


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_interval(IntegrandSpec(f, singularities=(0.0, 0.3, 1.0)), 0.0, 1.0),
    integrate_line,
])
def test_one_adaptive_pass_per_integral(monkeypatch, integrate):
    # hinted pieces, the line core and both tails share one error budget
    calls = []
    adaptive = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda *a, **k: calls.append(len(a[0])) or adaptive(*a, **k))
    integrate(lambda x: 1.0 / (1.0 + x * x))
    assert len(calls) == 1 and calls[0] >= 3


def test_interval_budget_exhaustion():
    with pytest.raises(NotConverged):
        integrate_interval(lambda u: np.abs(u) ** -0.5, 0.0, 1.0,
                           tol=1e-13, max_evals=60)


def test_interval_orientation_and_degenerate_bounds():
    fwd = integrate_interval(lambda x: x * x, 0.0, 1.0, tol=1e-13)
    rev = integrate_interval(lambda x: x * x, 1.0, 0.0, tol=1e-13)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-13)
    assert integrate_interval(lambda x: x, 0.7, 0.7).value == 0.0
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 0.0, math.inf)


# ---------------------------------------------------------- whole line

def test_line_gaussian():
    r = integrate_line(lambda x: np.exp(-x * x), tol=1e-12)
    assert r.value.real == pytest.approx(SQRT_PI, rel=1e-12)


def test_line_x2_gaussian():
    r = integrate_line(lambda x: x * x * np.exp(-x * x), tol=1e-12)
    assert r.value.real == pytest.approx(SQRT_PI / 2.0, rel=1e-12)


def test_line_lorentzian():
    r = integrate_line(lambda x: 1.0 / (1.0 + x * x), tol=1e-11)
    assert r.value.real == pytest.approx(math.pi, rel=1e-10)


def test_line_slow_algebraic_decay():
    # (1+x^2)^(-s) integrates to sqrt(pi) Gamma(s-1/2)/Gamma(s); s = 0.8
    # decays like |x|^(-1.6), the regime the q-state tails live in
    s = 0.8
    r = integrate_line(lambda x: (1.0 + x * x) ** -s, tol=1e-9)
    want = SQRT_PI * math.exp(math.lgamma(s - 0.5) - math.lgamma(s))
    assert r.value.real == pytest.approx(want, rel=1e-8)
    assert abs(r.value.real - want) <= 5.0 * r.err_estimate


def test_line_vector_integrand_meets_each_component_target():
    # Gaussian and algebraic tails share one pass: each component meets its
    # own target and agrees with its scalar integral
    s = 0.8
    parts = [
        (lambda x: np.exp(-x * x), SQRT_PI),
        (lambda x: x * x * np.exp(-x * x), SQRT_PI / 2.0),
        (lambda x: 1.0 / (1.0 + x * x), math.pi),
        (lambda x: (1.0 + x * x) ** -s,
         SQRT_PI * math.exp(math.lgamma(s - 0.5) - math.lgamma(s))),
    ]
    tol = 1e-10
    r = integrate_line(lambda x: np.stack([f(x) for f, _ in parts]), tol=tol)
    assert r.value.shape == r.err_estimate.shape == (4,)
    for (f, exact), value in zip(parts, r.value):
        assert abs(value - exact) <= tol * max(1.0, exact)
        assert value == pytest.approx(integrate_line(f, tol=tol).value, rel=1e-12)


def test_line_offset_complex_gaussian():
    mu = 1.7
    r = integrate_line(lambda x: np.exp(-(x - mu) ** 2) * np.exp(1j * 0.4 * x),
                       tol=1e-12)
    want = SQRT_PI * np.exp(1j * 0.4 * mu) * np.exp(-0.04)
    assert r.value == pytest.approx(complex(want), rel=1e-11)


def test_line_rejects_nonintegrable_tail():
    with pytest.raises(SlowDecay):
        integrate_line(lambda x: 1.0 / (1.0 + np.abs(x)), tol=1e-8)


def test_line_normalization_closure_q_state():
    # the normalization constant from the hypergeometric closed-form route
    # must square-integrate the raw state back to one
    from qcoherent.closedforms import norm_squared_closed
    from qcoherent.states import _psi_un_arrays

    q, alpha = 1.5, 0.4
    a_const = norm_squared_closed(q, alpha, tol=1e-12) ** -0.5

    def dens(x):
        v, _, _ = _psi_un_arrays(q, alpha, x)
        return (abs(a_const) ** 2) * (v * np.conj(v)).real

    r = integrate_line(dens, tol=1e-10)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)


def _gauss_poly_exact(coeffs, a, mu):
    """Exact integral of (sum c_k x^k) exp(-a (x-mu)^2) via central moments."""
    total = 0.0
    for k, c in enumerate(coeffs):
        for j in range(0, k + 1, 2):  # odd central moments vanish
            mj = math.gamma((j + 1) / 2.0) / a ** ((j + 1) / 2.0)
            total += c * math.comb(k, j) * mu ** (k - j) * mj
    return total


def test_line_error_estimate_is_practical_upper_bound():
    # randomized Gaussian-times-polynomial integrands with known values:
    # the reported estimate must bound the true error within a small factor
    rng = np.random.default_rng(42)
    for _ in range(100):
        coeffs = rng.normal(size=rng.integers(1, 6))
        a = rng.uniform(0.3, 3.0)
        mu = rng.uniform(-2.0, 2.0)
        exact = _gauss_poly_exact(coeffs, a, mu)

        def f(x):
            return np.polyval(coeffs[::-1], x) * np.exp(-a * (x - mu) ** 2)

        r = integrate_line(f, tol=1e-10)
        true_err = abs(r.value.real - exact)
        assert true_err <= max(5.0 * r.err_estimate, 1e-13 * max(1.0, abs(exact)))


def test_line_halving_tol_never_hurts():
    rng = np.random.default_rng(99)
    for _ in range(20):
        coeffs = rng.normal(size=4)
        a = rng.uniform(0.4, 2.0)
        mu = rng.uniform(-1.5, 1.5)
        exact = _gauss_poly_exact(coeffs, a, mu)

        def f(x):
            return np.polyval(coeffs[::-1], x) * np.exp(-a * (x - mu) ** 2)

        err_loose = abs(integrate_line(f, tol=1e-6).value.real - exact)
        err_tight = abs(integrate_line(f, tol=5e-7).value.real - exact)
        # ties at machine precision are allowed; regressions are not
        assert err_tight <= err_loose + 1e-14 * max(1.0, abs(exact))


# ------------------------------------------------------------- Fourier

def test_fourier_gaussian_k_zero():
    r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), 0.0, tol=1e-12)
    assert r.value.real == pytest.approx(1.0, rel=1e-11)


def test_fourier_gaussian_self_transform():
    for k in (0.4, 1.0, 2.7, -1.3):
        r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), k, tol=1e-11)
        assert r.value == pytest.approx(math.exp(-0.5 * k * k), rel=1e-9, abs=1e-12)


def test_fourier_lorentzian_known_transform():
    # algebraic decay + oscillation: transform of 1/(1+x^2) is
    # sqrt(pi/2) e^{-|k|}
    for k in (0.5, 2.0):
        r = fourier_transform_line(lambda x: 1.0 / (1.0 + x * x), k, tol=1e-9)
        want = math.sqrt(math.pi / 2.0) * math.exp(-abs(k))
        assert r.value.real == pytest.approx(want, rel=1e-7)
        assert abs(r.value.imag) < 1e-9


def test_fourier_tails_are_one_stream():
    # every evaluator call past the core end X reaches both tails at once
    k = 1.0
    X = math.ceil(16.0 / math.pi) * math.pi  # core end at core_halfwidth 16
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1.0 + x * x)

    r = fourier_transform_line(f, k, tol=1e-9)
    assert r.value.real == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-k), rel=1e-7)
    tails = [x for x in calls if np.max(np.abs(x)) > X]
    assert tails
    assert all(x.min() < -X and x.max() > X for x in tails)


def test_fourier_divergent_tail_raises():
    # exp(i x) cancels the kernel at k = 1: the tails are non-oscillating
    # |x|^-0.6, the integral diverges, and the panel cap must say so
    with pytest.raises(NotConverged, match="remainder"):
        fourier_transform_line(lambda x: np.exp(1j * x) / (1.0 + x * x) ** 0.3, 1.0, tol=1e-9)


def test_fourier_q_state_matches_momentum_oracle():
    # two routes to the same amplitude: direct transform of the raw state
    # times the normalization, and the momentum module's oracle
    from qcoherent.momentum import momentum_amplitude_oracle
    from qcoherent.states import _psi_un_arrays, normalization_constant

    q, k = 1.4, 1.0
    a_const = normalization_constant(q, 0.0, tol=1e-11)

    def f(x):
        v, _, _ = _psi_un_arrays(q, 0.0, x)
        return v

    direct = a_const * fourier_transform_line(f, k, tol=1e-10).value
    oracle = momentum_amplitude_oracle(q, 0.0, k, tol=1e-10)
    assert direct == pytest.approx(oracle, rel=1e-8)


def test_fourier_stability_under_tol_halving():
    from qcoherent.states import _psi_un_arrays

    def f(x):
        v, _, _ = _psi_un_arrays(1.4, 0.0, x)
        return v

    v1 = fourier_transform_line(f, 1.0, tol=1e-8).value
    v2 = fourier_transform_line(f, 1.0, tol=5e-9).value
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v2))
