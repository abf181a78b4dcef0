"""Scalar special functions: Hermite, Pochhammer, Kummer phi, Lauricella F_D.

Cross-checks use independent routes wherever possible: mpmath for the
confluent and Gauss hypergeometrics, the quadrature oracle for
orthonormality, and the in-package private 2F1 for reduction identities.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from qcoherent import specfun
from qcoherent.errors import BranchCrossing, DivergentSeries, NotConverged, ParameterPole
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
from qcoherent.states import coherent_coefficients


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


def _hermite_by_order(n, x):
    # one order per call, the recurrence hermite_function ran before it
    # took its last row from the all-orders pass
    x = np.asarray(x, dtype=float)
    p_prev = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return p_prev
    p = math.sqrt(2.0) * x * p_prev
    for k in range(1, n):
        p, p_prev = math.sqrt(2.0 / (k + 1)) * x * p - math.sqrt(k / (k + 1)) * p_prev, p
    return p


def test_all_hermite_orders_in_one_pass_are_bitwise_per_order_values():
    x = np.linspace(-12.0, 12.0, 301)
    rows = specfun._hermite_functions(40, x)
    assert rows.shape == (41, 301)
    for n in range(41):
        want = _hermite_by_order(n, x)
        assert rows[n].tobytes() == want.tobytes(), n
        assert hermite_function(n, x).tobytes() == want.tobytes(), n
    assert hermite_function(7, 0.9) == float(_hermite_by_order(7, 0.9))
    assert specfun._hermite_functions(0, 0.5).shape == (1,)


def test_verify_hermite_check_unchanged_by_the_one_pass_orders():
    from qcoherent import cli
    from qcoherent.states import coherent_coefficients, coherent_psi

    alpha = 0.7 + 0.3j
    proj = integrate_line(lambda x: np.stack([_hermite_by_order(n, x) for n in range(11)])
                          * coherent_psi(alpha, x), tol=1e-12).value
    want = float(np.max(np.abs(proj - coherent_coefficients(alpha, 10))))
    assert cli._hermite_projection_dev(alpha, 10) == want


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


@pytest.mark.parametrize("call, match", [
    (lambda: hermite_poly(-1, 0.3), "order must be >= 0"),
    (lambda: hermite_function(-2, 0.3), "order must be >= 0"),
    (lambda: pochhammer(0.5, -1), "m must be >= 0"),
    (lambda: coherent_coefficients(0.3 + 0.1j, -1), "n_max must be >= 0"),
])
def test_a_negative_order_is_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ------------------------------------------------------------- Kummer

def test_kummer_phi_trivial_points():
    assert kummer_phi(0.7 - 0.2j, 1.5, 0.0) == 1.0
    assert kummer_phi(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-13)
    assert kummer_phi(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13)


_BAD_TOLS = [math.nan, -1.0, 0.0, math.inf]


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_kummer_phi_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # both the series branch and the Euler integral branch
    for z in (2.0, 40j):
        with pytest.raises(ValueError, match="tol"):
            kummer_phi(0.5, 1.5, z, tol=tol)


def test_kummer_phi_pole_parameter():
    with pytest.raises(ParameterPole):
        kummer_phi(1.2, 0.0, 0.5)
    with pytest.raises(ParameterPole):
        kummer_phi(1.2, -3.0, 0.5)


@pytest.mark.parametrize("a, b, z", [
    (2.0, 1.5, math.inf),        # was a bare OverflowError in the asymptotic branch
    (1.0, 2.0, math.inf),        # were NaN RuntimeWarnings, then NotConverged
    (1.0, 2.0, -math.inf),
    (math.nan, 2.0, 0.5),        # was "Kummer series stalled"
    (1.0, math.nan, 0.5),
    (1.0, math.inf, 0.5),
    (1.0, 2.0, complex(0.5, math.nan)),
])
def test_kummer_phi_refuses_arguments_that_are_not_finite(a, b, z):
    # at entry, as q_exponential does, under the suite's error::RuntimeWarning
    with pytest.raises(ValueError, match="finite"):
        kummer_phi(a, b, z)


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


def test_kummer_phi_integral_branch_matches_mpmath():
    # |z| > 30 with Re b > Re a > 0 takes the Euler integral, here with
    # non-integer exponents a and b - a drawn from (0.002, 3)
    rng = np.random.default_rng(31)
    for _ in range(40):
        a = rng.uniform(0.002, 3.0)
        b = a + rng.uniform(0.002, 3.0)
        z = complex(rng.uniform(30.0, 70.0) * np.exp(1j * rng.uniform(-math.pi, math.pi)))
        want = complex(mpmath.hyp1f1(a, b, z))
        assert abs(kummer_phi(a, b, z) - want) <= 1e-13 * max(1.0, abs(want)), (a, b, z)


def test_kummer_phi_integral_branch_refuses_exponents_below_the_grading_cap():
    with pytest.raises(NotConverged, match="grading power"):
        kummer_phi(0.001, 1.5, -40.0)
    with pytest.raises(NotConverged, match="grading power"):
        kummer_phi(1.0, 1.001, 40.0j)


@pytest.mark.parametrize("z", [720.0, 1e4, 1e6, 1e300])
def test_kummer_phi_integral_branch_refuses_an_overflow_without_a_warning(z):
    # phi(1/2, 3/2; z) ~ e^z / (2z): past the doubles either the value or,
    # from z ~ 1e6, a node value between the scaling probes overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConverged, match="overflows double precision"):
            kummer_phi(0.5, 1.5, z)


def test_kummer_phi_derivative_recurrence():
    # d/dz phi(a,b;z) = (a/b) phi(a+1,b+1;z), probed with a central difference
    for a, b, z in [(0.9, 1.7, 0.4), (1.3, 2.2, -0.8), (0.6, 1.1, 0.25 + 0.3j)]:
        h = 1e-5
        lhs = (kummer_phi(a, b, z + h) - kummer_phi(a, b, z - h)) / (2 * h)
        rhs = (a / b) * kummer_phi(a + 1, b + 1, z)
        assert lhs == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("nu", [0.3, 5.5, 29.5, 30.5, 45.3, 200.5])
def test_log_bessel_g_matches_mpmath_across_the_debye_switch(nu):
    # g(z) = 2 (z/2)^nu K_nu(z) / Gamma(nu): scipy's kve below order 30,
    # Debye's expansion from 30 up
    zs = np.array([1e-3, 0.7 + 0.2j, 4.0 - 3.0j, 40.0 + 10.0j])
    got = np.exp(specfun._log_bessel_g(nu, zs))
    with mpmath.workdps(30):
        for z, g in zip(zs, got):
            z = mpmath.mpc(z)
            want = complex(2 * (z / 2) ** nu * mpmath.besselk(nu, z) / mpmath.gamma(nu))
            assert abs(g - want) <= 1e-11 * abs(want), (z, g, want)


@pytest.mark.parametrize("nu", [0.02, 0.5, 1.0, 7.5, 29.99, 30.0, 999.5])
def test_log_bessel_g_is_finite_from_zero_to_huge_arguments(nu):
    # kve overflows near 0 (at subnormal z for every order) and reads nan
    # past |z| ~ 1e12
    zs = np.array([0.0, 1e-320, 1e-300, 1e-15, 1e-6, 1.0, 1e8, 2e8, 1e12 + 1e11j, 1e30])
    out = specfun._log_bessel_g(nu, zs)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0
    # g falls from 1 on the real axis; near kve's overflow edge log g sums
    # terms of size ~700, so it carries ~1e-13 of rounding
    assert np.all(np.diff(out.real[:8]) <= 1e-12)


@pytest.mark.parametrize("nu", [0.3, 5.0, 40.0])
def test_log_bessel_g_in_one_pass_is_each_lane_on_its_own(nu):
    # below order 30 one kve pass takes every lane and the odd ones are
    # patched after it: z = 0, subnormal, below kve's range, past 1e8 and
    # past 1e300 must read what each reads alone, bit for bit
    rng = np.random.default_rng(20)
    odd = [0.0, 5e-324, 1e-310, 3e-306 + 1e-306j, 1e-200, 2e8, 3e12 - 1e12j, 5e300, 1.7e308]
    mid = rng.uniform(1e-3, 60.0, 24) * np.exp(0.7j * rng.uniform(-1.0, 1.0, 24))
    zs = rng.permutation(np.concatenate([odd, mid]).astype(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = specfun._log_bessel_g(nu, zs)
        want = np.concatenate([specfun._log_bessel_g(nu, zs[i:i + 1]) for i in range(zs.size)])
        assert got.tobytes() == want.tobytes() and np.isfinite(got).all()
        # a batch of kve's own range takes the unpatched pass and still agrees
        fast = specfun._log_bessel_g(nu, mid)
    assert fast.tobytes() == np.concatenate(
        [specfun._log_bessel_g(nu, mid[i:i + 1]) for i in range(mid.size)]).tobytes()


@pytest.mark.parametrize("nu, z", [
    (40.5, 1e200 + 0j),       # Debye's w^2 = (z/nu)^2 overflowed: nan+nanj
    (40.5, 1.7e308 + 1e307j),
    (1.5, 1e307),             # Hankel's 8z, 16z and 24z overflowed
    (1.5, 1.7e308 + 1.6e308j),
    (0.6, 1e-306),            # kve refuses |z| below ~2.2e-305: inf
    (0.6, 2.1e-305 + 7.3e-306j),
    (7.5, 1e-306),
])
def test_log_bessel_g_is_finite_and_silent_at_the_ends_of_the_doubles(nu, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = specfun._log_bessel_g(nu, np.array([z]))
    assert np.all(np.isfinite(got))
    if z.real > 1.0:  # log g ~ -z there, to the last digit
        assert got[0].real == pytest.approx(-z.real, rel=1e-15)
    else:  # g = 1 - O(z^(2 nu))
        assert abs(got[0]) < 1e-300


@pytest.mark.parametrize("x", [0.6, 2.0, 5.99, 6.0, 30.0, 1000.0, 2000.0, 1e6])
def test_log_gamma_ratio_half_matches_mpmath(x):
    # log Gamma(x - 1/2) - log Gamma(x): loggamma below x = 6, the ratio
    # series from 6 up, where the difference of two loggamma values would
    # lose 9.3e-13 by x = 1000
    with mpmath.workdps(40):
        want = float(mpmath.loggamma(mpmath.mpf(x) - 0.5) - mpmath.loggamma(x))
    assert abs(specfun._log_gamma_ratio_half(x) - want) <= 2e-15


def test_ratio_series_is_exact_to_the_last_bit():
    # the coefficients come from an exact Bernoulli table, rounded once;
    # scipy.special.bernoulli's B_4 is 1.7e-12 and its B_6 6.1e-14 off, relative
    with mpmath.workdps(50):
        want = [float((-1) ** k * ((mpmath.mpf(2) ** (1 - k) - 2) * mpmath.bernoulli(k)
                                   - k * mpmath.mpf(-0.5) ** (k - 1)) / (k * (k - 1)))
                for k in range(2, 21)]
    assert specfun._RATIO_SERIES.tolist() == want


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


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_fd_series_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    args = LauricellaArgs(1.3, (0.5, 0.5, 0.5, 0.5), 2.0, (0.4, 0.1, -0.3, 0.2))
    with pytest.raises(ValueError, match="tol"):
        lauricella_fd_series(args, tol=tol)


@pytest.mark.parametrize("tol", _BAD_TOLS)
def test_euler_pass_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    args = LauricellaArgs(1.4, (0.5, 0.5, 0.5, 0.5), 2.9, (0.95, -0.2, 0.1, 0.25))
    with pytest.raises(ValueError, match="tol"):
        lauricella_fd_integral(args, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        specfun._euler_integral(lambda u: np.zeros((1, u.size)), [0.5], [1.5], tol, "test")


def test_fd_series_divergent_outside_polydisc():
    with pytest.raises(DivergentSeries):
        lauricella_fd_series(
            LauricellaArgs(1.0, (0.5,) * 4, 3.0, (1.0, 0.2, 0.2, 0.2)), tol=1e-10
        )


_X_OUT = (1.5, 0.2, 0.2, 0.2)


@pytest.mark.parametrize("call, exc, match", [
    # the Euler integral needs Re a > 0, and no real x_i >= 1
    (lambda: lauricella_fd_integral(LauricellaArgs(-0.5, (0.5,) * 4, 3.0, (0.2,) * 4)),
     ValueError, "Re a > 0"),
    (lambda: lauricella_fd_integral(LauricellaArgs(0.0, (0.5,) * 4, 3.0, (0.2,) * 4)),
     ValueError, "Re a > 0"),
    (lambda: lauricella_fd_integral(LauricellaArgs(1.0, (0.5,) * 4, 3.0, (1.0, 0.2, 0.2, 0.2))),
     BranchCrossing, "principal cut"),
    (lambda: lauricella_fd_integral(LauricellaArgs(1.0, (0.5,) * 4, 3.0, _X_OUT)),
     BranchCrossing, "principal cut"),
    # outside the polydisc with the Euler form inadmissible, no route is left
    (lambda: lauricella_fd(LauricellaArgs(1.0, (0.5,) * 4, 3.0, _X_OUT)),
     DivergentSeries, "inadmissible"),
    (lambda: lauricella_fd(LauricellaArgs(-1.0, (0.5,) * 4, 3.0, (1.5j, 0.2, 0.2, 0.2))),
     DivergentSeries, "inadmissible"),
    # the bundle itself: four b's and a c off the poles
    (lambda: LauricellaArgs(1.0, (0.5,) * 3, 3.0, (0.2,) * 4), ValueError, "four entries"),
    (lambda: LauricellaArgs(1.0, (0.5,) * 4, -2.0, (0.2,) * 4), ParameterPole, "non-positive"),
])
def test_fd_refuses_what_it_cannot_evaluate(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


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
    assert abs(s.value - i.value) <= 1e-12 * abs(i.value)


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
        assert abs(s.value - i.value) <= 1e-12 * abs(i.value)


def test_fd_integral_matches_series_at_non_integer_exponents():
    # exponents a and c - a in (0.002, 3), none an integer: each Euler half
    # is graded to v^(g*e-1) with g*e >= 5, or at the cap g = 1000
    rng = np.random.default_rng(808)
    for _ in range(30):
        a, ca = rng.uniform(0.002, 3.0, 2)
        args = LauricellaArgs(a, tuple(rng.uniform(-1.0, 2.0, 4)), a + ca,
                              tuple((rng.random(4) - 0.5) * 0.9))
        s = lauricella_fd_series(args, tol=1e-16)
        i = lauricella_fd_integral(args, tol=1e-13)
        assert abs(s.value - i.value) <= 1e-14 * abs(s.value), (a, ca)


def test_verify_fd_draws_cost_at_most_1200_evaluations(monkeypatch):
    # verify's five F_D draws have non-integer exponents a in (0.5, 2.5) and
    # c - a in (0.7, 2.7); a grading that left v^(g*e-1) rough there took
    # 5910 evaluations
    from qcoherent import cli

    evals = []
    adaptive = specfun._adaptive

    def counted(*args, **kwargs):
        res = adaptive(*args, **kwargs)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(specfun, "_adaptive", counted)
    cli._verify_fd_entries()
    assert len(evals) == 5
    assert sum(evals) <= 1200


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
