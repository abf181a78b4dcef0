"""Hypergeometric closed forms for the quartic-root power integrals.

Every identity here is checked against the adaptive quadrature oracle on
the same integrand: two genuinely different code paths (Euler/series
hypergeometrics vs panel subdivision) meeting at the same number.
"""

import math

import numpy as np
import pytest

from qcoherent import closedforms, moments_closed
from qcoherent.closedforms import (
    calibrated_reflection,
    line_power_moment,
    momentum_first_closed,
    momentum_second_closed,
    norm_squared_closed,
    overlap_closed,
    position_moment_closed,
    real_alpha_norm_squared_exact,
)
from qcoherent.errors import BranchCrossing, NotConverged, OutOfValidityWindow
from qcoherent.quadrature import integrate_line
from qcoherent.states import SQRT2, StateLabel, beta_roots, normalization_constant


def _quartic_integrand(m, bvec, betas):
    def f(x):
        out = np.asarray(x, dtype=complex) ** m
        for b, beta in zip(bvec, betas):
            out = out * (np.asarray(x, dtype=complex) - beta) ** (-b)
        return out

    return f


def _root_config(q, alpha):
    r = beta_roots(q, alpha)
    return (r.beta1, r.beta2, r.beta3, r.beta4)


def test_line_power_moment_matches_quadrature_norm_family():
    # the m = 0 member with equal exponents is the normalization integrand
    for q, alpha in [(1.2, 0.3), (1.6, 0.3 + 0.1j), (2.0, 0.5 + 0.2j)]:
        p = 1.0 / (q - 1.0)
        betas = _root_config(q, alpha)
        bvec = (p, p, p, p)
        closed = line_power_moment(0, bvec, betas, tol=1e-12)
        oracle = integrate_line(_quartic_integrand(0, bvec, betas), tol=1e-11)
        assert closed == pytest.approx(oracle.value, rel=1e-9)


def test_line_power_moment_first_and_second_moments():
    q, alpha = 1.3, 0.25 + 0.15j
    p = 1.0 / (q - 1.0)
    betas = _root_config(q, alpha)
    for m in (1, 2):
        bvec = (p + 1, p + 1, p + 1, p + 1) if m == 2 else (p, p, p, p)
        closed = line_power_moment(m, bvec, betas, tol=1e-12)
        oracle = integrate_line(_quartic_integrand(m, bvec, betas), tol=1e-11)
        assert closed == pytest.approx(oracle.value, rel=1e-8)


def test_line_power_moment_requires_decay():
    # total exponent must exceed m + 1 for the line integral to converge
    betas = _root_config(1.5, 0.2)
    with pytest.raises(OutOfValidityWindow):
        line_power_moment(2, (0.6, 0.6, 0.6, 0.6), betas, tol=1e-10)


def test_line_power_moment_rejects_real_roots():
    with pytest.raises(BranchCrossing):
        line_power_moment(0, (1.5, 1.5, 1.5, 1.5), (1.0, 2.0j, -2.0j, 3.0j),
                          tol=1e-10)


def test_calibration_selects_reflection_term():
    # single-anchor decision: the whole-line convention (with the
    # reflected hypergeometric term) is what matches the oracle
    assert calibrated_reflection() is True


def test_halfline_variant_disagrees_at_anchor():
    q, alpha = 1.2, 0.3
    full = norm_squared_closed(q, alpha, tol=1e-11)
    half = norm_squared_closed(q, alpha, tol=1e-11, reflection=False)
    oracle = normalization_constant(q, alpha, tol=1e-11) ** -2.0
    assert full == pytest.approx(oracle.real, rel=1e-9)
    assert abs(half - oracle.real) > 1e-3 * abs(oracle.real)


def test_norm_squared_closed_vs_exact_real_alpha_identity():
    # independent pin: for real alpha the squared norm has an elementary
    # Gamma-ratio value, alpha-independent
    for q in (1.2, 1.5, 2.0, 2.5, 3.5):
        exact = real_alpha_norm_squared_exact(q)
        closed = norm_squared_closed(q, 0.3, tol=1e-12)
        assert closed == pytest.approx(exact, rel=1e-10)


def test_closed_norm_never_reads_an_underflowed_zero():
    # below q ~ 1.013 every probe of the Euler integrand underflows; the
    # norm must refuse rather than return 0j (which moments_closed divided by)
    with pytest.raises(NotConverged, match="underflows"):
        norm_squared_closed(1.008, 0.3 + 0.2j)
    with pytest.raises(NotConverged, match="underflows"):
        moments_closed(1.008, 0.3 + 0.2j)


def test_position_moment_closed_windows():
    with pytest.raises(OutOfValidityWindow):
        position_moment_closed(2.5, 0.3, 2, tol=1e-10)   # needs q < 7/3
    with pytest.raises(OutOfValidityWindow):
        position_moment_closed(3.2, 0.3, 1, tol=1e-10)   # needs q < 3


def test_position_moments_against_density_quadrature():
    from qcoherent.states import _psi_un_arrays

    q, alpha = 1.4, 0.3 + 0.1j
    for m in (0, 1, 2):
        closed = position_moment_closed(q, alpha, m, tol=1e-12)

        def f(x):
            v, _, _ = _psi_un_arrays(q, alpha, x)
            return (np.asarray(x) ** m) * (v * np.conj(v))

        oracle = integrate_line(f, tol=1e-11).value
        assert closed == pytest.approx(oracle, rel=1e-9)


def test_momentum_numerators_against_derivative_quadrature():
    from qcoherent.states import _psi_un_arrays

    q, alpha = 1.3, 0.3 + 0.1j

    def first(x):
        v, d1, _ = _psi_un_arrays(q, alpha, x)
        return -1j * np.conj(v) * d1

    def second(x):
        _, d1, _ = _psi_un_arrays(q, alpha, x)
        return d1 * np.conj(d1)

    got1 = momentum_first_closed(q, alpha, tol=1e-12)
    want1 = integrate_line(first, tol=1e-11).value
    assert got1 == pytest.approx(want1, rel=1e-8)

    got2 = momentum_second_closed(q, alpha, tol=1e-12)
    want2 = integrate_line(second, tol=1e-11).value
    assert got2 == pytest.approx(want2, rel=1e-8)


def test_overlap_closed_against_cross_density_quadrature():
    from qcoherent.states import _psi_un_arrays

    q, aa, ab = 1.4, 0.3, -0.2 + 0.1j

    def cross(x):
        va, _, _ = _psi_un_arrays(q, aa, x)
        vb, _, _ = _psi_un_arrays(q, ab, x)
        return np.conj(va) * vb

    got = overlap_closed(q, aa, ab, tol=1e-12)
    want = integrate_line(cross, tol=1e-11).value
    assert got == pytest.approx(want, rel=1e-8)
