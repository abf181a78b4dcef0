"""Scalar special functions: Hermite, Pochhammer, Kummer phi, Lauricella F_D.

Cross-checks use independent routes wherever possible: mpmath for the
confluent and Gauss hypergeometrics, the quadrature oracle for
orthonormality, and the in-package private 2F1 for reduction identities.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from qcoherent import specfun
from qcoherent.errors import DivergentSeries, NotConverged, ParameterPole
from qcoherent.quadrature import integrate_line
from qcoherent.specfun import (
    LauricellaArgs,
    hermite_function,
    hermite_poly,
    kummer_phi,
    lauricella_fd,
    lauricella_fd_integral,
    lauricella_fd_series,
    pochhammer,
)


# ------------------------------------------------------------- Hermite

def test_hermite_poly_base_cases():
    assert hermite_poly(0, 3.7) == 1.0
    assert hermite_poly(1, 0.25) == 0.5
    assert hermite_poly(2, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert hermite_poly(3, 0.5) == pytest.approx(-5.0, rel=1e-15)


def test_hermite_poly_matches_scipy_grid():
    xs = np.linspace(-4.0, 4.0, 17)
    for n in range(0, 12):
        want = sp.eval_hermite(n, xs)
        got = np.array([hermite_poly(n, x) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)


def test_hermite_function_values_at_origin():
    assert hermite_function(0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert hermite_function(1, 0.0) == 0.0


def test_hermite_function_matches_direct_formula():
    # direct n! formula is representable comfortably for n <= 30, |x| <= 6;
    # abs tolerance covers cancellation right at polynomial zeros, where the
    # function scale is O(1) but the value itself crosses zero
    xs = np.linspace(-6.0, 6.0, 25)
    for n in range(0, 31, 5):
        norm = (math.sqrt(math.pi) * 2.0 ** n * math.factorial(n)) ** -0.5
        for x in xs:
            direct = norm * math.exp(-0.5 * x * x) * hermite_poly(n, x)
            assert hermite_function(n, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_hermite_function_large_n_stable():
    # the direct n! route overflows near n ~ 170; the evaluator must not
    v = hermite_function(400, 1.3)
    assert math.isfinite(v)
    assert abs(v) < 1.0  # orthonormal-family amplitude bound


def test_hermite_orthonormality_quadrature():
    for m in range(0, 11, 2):
        for n in range(m, 11, 3):
            def f(x, m=m, n=n):
                return hermite_function(m, x) * hermite_function(n, x)

            val = integrate_line(f, tol=1e-11).value.real
            want = 1.0 if m == n else 0.0
            assert val == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------- Pochhammer

def test_pochhammer_base_and_factorial():
    assert pochhammer(4.2 + 1j, 0) == 1
    assert pochhammer(1.0, 5) == pytest.approx(120.0, rel=1e-15)
    assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)


def test_pochhammer_recurrence_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = complex(rng.normal(), rng.normal())
        m = int(rng.integers(1, 12))
        assert pochhammer(a, m) == pytest.approx(
            pochhammer(a, m - 1) * (a + m - 1), rel=1e-12
        )


# ------------------------------------------------------------- Kummer

def test_kummer_phi_trivial_points():
    assert kummer_phi(0.7 - 0.2j, 1.5, 0.0) == 1.0
    assert kummer_phi(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert kummer_phi(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)


def test_kummer_phi_pole_parameter():
    with pytest.raises(ParameterPole):
        kummer_phi(1.2, 0.0, 0.5)
    with pytest.raises(ParameterPole):
        kummer_phi(1.2, -3.0, 0.5)


def test_kummer_phi_matches_mpmath_moderate_and_large():
    pts = [
        (0.8, 1.6, 0.3 + 0.4j),
        (2.5, 4.0, -6.0),
        (1.0 + 0.5j, 2.0, 3.0 - 2.0j),
        (2.0, 4.0, -40.0j),   # the momentum closed form feeds large imaginary z
        (2.0, 4.0, 55.0j),
        (2.0, 1.5, 40.0),     # Re b <= Re a: the large-|z| asymptotic branch
        (3.0, 2.0, 31.0j),    # b - a a non-positive integer: 1/Gamma(b-a) = 0
        (2.5, 1.5, 45.0j),
        (4.0, 2.0, -35.0),
        (-1.0, 0.5, 40.0),    # a a non-positive integer: 1/Gamma(a) = 0
    ]
    for a, b, z in pts:
        want = complex(mpmath.hyp1f1(a, b, z))
        got = kummer_phi(a, b, z)
        assert got == pytest.approx(want, rel=5e-9)


def test_kummer_phi_derivative_recurrence():
    # d/dz phi(a,b;z) = (a/b) phi(a+1,b+1;z), probed with a central difference
    for a, b, z in [(0.9, 1.7, 0.4), (1.3, 2.2, -0.8), (0.6, 1.1, 0.25 + 0.3j)]:
        h = 1e-5
        lhs = (kummer_phi(a, b, z + h) - kummer_phi(a, b, z - h)) / (2 * h)
        rhs = (a / b) * kummer_phi(a + 1, b + 1, z)
        assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------- Lauricella

def test_fd_series_degenerate_to_one():
    r = lauricella_fd_series(
        LauricellaArgs(1.3, (0, 0, 0, 0), 2.0, (0.4, 0.1, -0.3, 0.2)), tol=1e-12
    )
    assert r.value == pytest.approx(1.0, rel=1e-14)
    r = lauricella_fd_series(
        LauricellaArgs(1.3, (0.5, 0.5, 0.5, 0.5), 2.0, (0, 0, 0, 0)), tol=1e-12
    )
    assert r.value == pytest.approx(1.0, rel=1e-14)


def test_fd_series_divergent_outside_polydisc():
    with pytest.raises(DivergentSeries):
        lauricella_fd_series(
            LauricellaArgs(1.0, (0.5,) * 4, 3.0, (1.0, 0.2, 0.2, 0.2)), tol=1e-10
        )


def test_fd_series_equal_arguments_reduce_to_2f1():
    # F_D(a; b; c; x,...,x) collapses to 2F1(a, sum b; c; x)
    args = LauricellaArgs(1.0, (0.5, 0.5, 0.5, 0.5), 3.0, (0.2,) * 4)
    got = lauricella_fd_series(args, tol=1e-13)
    want = specfun._gauss_2f1(1.0, 2.0, 3.0, 0.2)
    assert got.value == pytest.approx(want, rel=1e-10)


def test_fd_integral_beta_normalization():
    r = lauricella_fd_integral(
        LauricellaArgs(1.4, (0, 0, 0, 0), 2.9, (0.3, -0.2, 0.1, 0.25)), tol=1e-12
    )
    assert r.value == pytest.approx(1.0, rel=1e-11)


def test_euler_integrals_take_one_adaptive_pass(monkeypatch):
    # F_D and Kummer share one Euler integral; its two graded halves are
    # pieces of one pass with one error budget
    calls = []
    adaptive = specfun._adaptive
    monkeypatch.setattr(specfun, "_adaptive",
                        lambda *a, **k: calls.append(len(a[0])) or adaptive(*a, **k))
    lauricella_fd_integral(LauricellaArgs(0.4, (0.4, 0.3, 0.2, 0.1), 1.2, (0.3, -0.2, 0.1, 0.25)))
    kummer_phi(2.0, 4.0, -40.0j)  # |z| > 30 with Re b > Re a > 0: the integral
    assert calls == [2, 2]


def test_fd_series_vs_integral_spotcheck():
    args = LauricellaArgs(1.2, (0.4, 0.3, 0.2, 0.1), 2.5, (0.3, -0.2, 0.1, 0.25))
    s = lauricella_fd_series(args, tol=1e-13)
    i = lauricella_fd_integral(args, tol=1e-13)
    assert abs(s.value - i.value) <= 1e-8 * abs(i.value)


def test_fd_series_vs_integral_randomized():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        a = 0.5 + 2.0 * rng.random()
        b = tuple(0.3 + rng.random(4))
        c = a + 0.7 + 2.0 * rng.random()
        x = tuple((rng.random(4) - 0.5) * 0.9)
        args = LauricellaArgs(a, b, c, x)
        s = lauricella_fd_series(args, tol=1e-13)
        i = lauricella_fd_integral(args, tol=1e-13)
        assert abs(s.value - i.value) <= 1e-8 * abs(i.value)


def test_fd_single_variable_reduces_to_2f1():
    args = LauricellaArgs(1.1, (0.7, 0, 0, 0), 2.3, (0.5, 0, 0, 0))
    got = lauricella_fd_integral(args, tol=1e-13)
    want = specfun._gauss_2f1(1.1, 0.7, 2.3, 0.5)
    assert got.value == pytest.approx(want, rel=1e-9)


def test_private_2f1_against_scipy_and_mpmath():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(0.2, 2.5)
        b = rng.uniform(0.2, 2.5)
        c = rng.uniform(2.6, 5.0)
        x = rng.uniform(-0.8, 0.8)
        mine = specfun._gauss_2f1(a, b, c, x)
        assert mine == pytest.approx(sp.hyp2f1(a, b, c, x), rel=1e-10)
        assert mine == pytest.approx(complex(mpmath.hyp2f1(a, b, c, x)), rel=1e-10)


def test_fd_dispatcher_routes_by_polydisc():
    inside = LauricellaArgs(1.2, (0.4, 0.3, 0.2, 0.1), 2.5, (0.3, -0.2, 0.1, 0.25))
    r_in = lauricella_fd(inside, tol=1e-12)
    assert r_in.value == pytest.approx(
        lauricella_fd_series(inside, tol=1e-12).value, rel=1e-10
    )
    # exterior point off the real-axis cut (real x >= 1 would cross it)
    outside = LauricellaArgs(
        1.2, (0.4, 0.3, 0.2, 0.1), 2.5, (1.7 + 0.4j, -0.2, 0.1, 0.25)
    )
    r_out = lauricella_fd(outside, tol=1e-12)
    assert r_out.value == pytest.approx(
        lauricella_fd_integral(outside, tol=1e-12).value, rel=1e-10
    )


def test_fd_dispatcher_on_state_normalization_arguments():
    # the argument pattern the physics layer produces: 1 + beta with
    # beta the conjugate root pairs of the bracket quartic
    from qcoherent.states import beta_roots

    q, alpha = 1.3, 0.3
    p = 1.0 / (q - 1.0)
    roots = beta_roots(q, alpha).as_tuple()
    args = LauricellaArgs(
        4 * p - 1.0, (p, p, p, p), 4 * p, tuple(1.0 + b for b in roots)
    )
    r = lauricella_fd(args, tol=1e-10)
    assert np.isfinite(r.value.real) and np.isfinite(r.value.imag)
    assert r.err_estimate < 1e-8 * abs(r.value)


def test_fd_series_not_converged_when_capped():
    args = LauricellaArgs(1.2, (0.9,) * 4, 2.5, (0.97, 0.96, 0.95, 0.94))
    with pytest.raises(NotConverged):
        lauricella_fd_series(args, tol=1e-14, max_degree=40)
