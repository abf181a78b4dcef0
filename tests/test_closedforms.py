"""Hypergeometric closed forms for the quartic-root power integrals.

Every identity here is checked against the adaptive quadrature oracle on
the same integrand: two genuinely different code paths (Euler/series
hypergeometrics vs panel subdivision) meeting at the same number.
"""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from qcoherent import closedforms, moments_closed, specfun
from qcoherent.closedforms import (
    calibrated_reflection,
    norm_squared_closed,
    overlap_closed,
    real_alpha_norm_squared_exact,
)
from qcoherent.errors import NotConverged, NumericsError
from qcoherent.quadrature import integrate_line
from qcoherent.states import CONVENTION_TOL, SQRT2, StateLabel, beta_roots, normalization_constant


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


def _generic_identity(q, alpha, m, shift):
    # the builder's (shift, shift, {m: 1}) term with its bracket scale
    # ((q-1)/2)^(-S/2) taken off, S = 4 (p + shift), is the generic
    # int x^m prod (x - beta_i)^(-b_i) dx at the uniform b = p + shift;
    # returns it with the quadrature of that integrand
    p = 1.0 / (q - 1.0)
    alpha = complex(alpha)
    halves = closedforms._state_halves(q, alpha, alpha, [(shift, shift, {m: 1.0})], 1e-12)[0]
    closed = closedforms._whole(halves) * (0.5 * (q - 1.0)) ** (2.0 * (p + shift))
    integrand = _quartic_integrand(m, (p + shift,) * 4, _root_config(q, alpha))
    return closed, integrate_line(integrand, tol=1e-11).value


def test_state_halves_match_quadrature_norm_family():
    # the m = 0 member with equal exponents is the normalization integrand
    for q, alpha in [(1.2, 0.3), (1.6, 0.3 + 0.1j), (2.0, 0.5 + 0.2j)]:
        closed, oracle = _generic_identity(q, alpha, 0, 0)
        assert closed == pytest.approx(oracle, rel=1e-9)


def test_state_halves_first_and_second_moments():
    q, alpha = 1.3, 0.25 + 0.15j
    for m, shift in ((1, 0), (2, 1)):
        closed, oracle = _generic_identity(q, alpha, m, shift)
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_calibration_selects_reflection_term():
    # single-anchor decision: the whole-line convention (with the
    # reflected hypergeometric term) is what matches the oracle
    assert calibrated_reflection() is True


def test_halfline_variant_disagrees_at_anchor():
    q, alpha = 1.2, 0.3
    full = norm_squared_closed(q, alpha, tol=1e-11)
    # the plus half alone, the positive-half-line convention
    _, _, (half, _) = closedforms._closed_moments(q, alpha, 1e-11)
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
    # below q ~ 1.013 every linear-space probe of the Euler integrand
    # underflows; in log space the norm is the oracle's, not 0j, and
    # moments_closed passes its own CONVENTION_TOL cross-check
    q, alpha = 1.008, 0.3 + 0.2j
    oracle = abs(normalization_constant(q, alpha, tol=1e-12)) ** -2.0
    assert abs(norm_squared_closed(q, alpha) - oracle) <= 1e-10 * oracle
    report = moments_closed(q, alpha)
    assert report.method == "closed-form"
    assert max(report.deviations.values()) <= CONVENTION_TOL


def test_closed_route_is_warning_free_at_the_window_edges():
    # the suite turns every RuntimeWarning into an error; in linear space
    # q = 1.014 divided by a subnormal probe scale and q >= 4.9 raised an
    # underflowed u = 0 to a negative power
    for q in (1.001, 1.014):
        assert moments_closed(q, 0.3 + 0.2j).method == "closed-form"
    for q in (4.9, 4.95):
        exact = real_alpha_norm_squared_exact(q)
        assert abs(norm_squared_closed(q, 0.3) - exact) <= 1e-10 * exact


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [700 + 700j, 300 + 3j, 100 + 700j])
def test_closed_norm_that_underflows_is_refused(alpha):
    # the closed pass read 0j here, and _closed_moments then divided by it
    # (a bare ZeroDivisionError)
    with pytest.raises(NumericsError, match="closed norm came out zero"):
        norm_squared_closed(1.014, alpha)
    with pytest.raises(NumericsError, match="closed norm came out zero"):
        closedforms._closed_moments(1.014, alpha, 1e-9)


@pytest.mark.xfail(strict=True, reason="the closed pass misses a narrow state far from x = 0 "
                   "at q = 1.014 and reads 1.06e-8 with no error (ROADMAP item 3)")
def test_closed_norm_of_a_narrow_state_far_out_real_alpha():
    exact = real_alpha_norm_squared_exact(1.014)
    assert abs(norm_squared_closed(1.014, 30.0) - exact) <= 1e-10 * exact


@pytest.mark.xfail(strict=True, reason="the closed pass misses a narrow state far from x = 0 "
                   "at q = 1.014 and reads 8.5e-9 with no error (ROADMAP item 3)")
def test_closed_norm_of_a_narrow_state_far_out_complex_alpha():
    oracle = abs(normalization_constant(1.014, 30.0 + 0.2j, tol=1e-12)) ** -2.0
    assert abs(norm_squared_closed(1.014, 30.0 + 0.2j) - oracle) <= 1e-10 * oracle


def test_position_moments_against_density_quadrature():
    from qcoherent.states import _psi_un_arrays

    q, alpha = 1.4, 0.3 + 0.1j
    n2, (mean_x, mean_x2, _, _), _ = closedforms._closed_moments(q, alpha, 1e-12)
    for m, closed in enumerate((n2, mean_x * n2, mean_x2 * n2)):

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

    n2, (_, _, mean_p, mean_p2), _ = closedforms._closed_moments(q, alpha, 1e-12)
    want1 = integrate_line(first, tol=1e-11).value
    assert mean_p * n2 == pytest.approx(want1, rel=1e-8)

    want2 = integrate_line(second, tol=1e-11).value
    assert mean_p2 * n2 == pytest.approx(want2, rel=1e-8)


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


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
def test_closed_pass_refuses_a_tolerance_that_is_not_positive(tol):
    # min(tol, 1e-10) keeps nan and negative targets, which the Euler pass
    # refuses up front instead of spending its evaluation budget
    with pytest.raises(ValueError, match="tol"):
        norm_squared_closed(1.5, 0.3 + 0.1j, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        overlap_closed(1.5, 0.3 + 0.1j, 0.5 + 0.1j, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        closedforms._closed_moments(1.5, 0.3 + 0.1j, tol)


def test_overlap_closed_applies_the_norm_accuracy_floor():
    # overlap_closed(tol) equals overlap_closed(min(tol, 1e-10)), bit for bit
    for tol in (1e-6, 1e-9):
        assert (overlap_closed(1.5, 0.3 + 0.1j, 0.5, tol=tol)
                == overlap_closed(1.5, 0.3 + 0.1j, 0.5, tol=1e-10))


def test_exact_real_alpha_norm_holds_its_digits_as_q_approaches_one():
    # Gamma(2p - 1/2)/Gamma(2p) at p = 1/(q-1) up to 1000: a loggamma
    # difference lost 4.8e-13 relative at q = 1.001
    with mpmath.workdps(40):
        for q in (1.001, 1.01, 1.3, 4.9):
            p = 1 / (mpmath.mpf(q) - 1)
            want = mpmath.sqrt(2 * mpmath.pi * p) * mpmath.gamma(2 * p - 0.5) / mpmath.gamma(2 * p)
            assert abs(real_alpha_norm_squared_exact(q) / float(want) - 1.0) <= 1e-15


def _var_x_or_refusal(q, alpha):
    try:
        _, (mean_x, mean_x2, _, _), _ = closedforms._closed_moments(q, alpha, 1e-10)
    except NotConverged:
        return None
    return (mean_x2 - mean_x ** 2).real


def test_var_x_next_to_the_grading_cap_is_exact_or_refused():
    # <x^2>'s Euler exponent 4/(q-1) - 3 falls to 0.0015 at q = 2.332667;
    # up to there each value is the exact anchor 2/(7 - 3q), past it the
    # pass raises
    for alpha in (0.0, 0.3, -1.2):
        for q in np.linspace(2.325, 2.3327, 40):
            got = _var_x_or_refusal(q, alpha)
            if 4.0 / (q - 1.0) - 3.0 < 0.0015:
                assert got is None, (q, alpha)
            else:
                want = 2.0 / (7.0 - 3.0 * q)
                assert abs(got - want) <= 1e-11 * want, (q, alpha, got)


def test_norm_next_to_the_grading_cap_is_exact_or_refused():
    # the norm's exponent 4/(q-1) - 1 falls to 0.0015 at q = 4.994009
    for q in np.linspace(4.97, 4.9945, 40):
        want = real_alpha_norm_squared_exact(q)
        if 4.0 / (q - 1.0) - 1.0 < 0.0015:
            with pytest.raises(NotConverged, match="grading power"):
                norm_squared_closed(q, 0.3)
        else:
            assert abs(norm_squared_closed(q, 0.3) - want) <= 1e-11 * want, q


def _closed_pass_evaluations(monkeypatch, q):
    calibrated_reflection()
    evals = []
    adaptive = specfun._adaptive

    def counted(*args, **kwargs):
        res = adaptive(*args, **kwargs)
        evals.append(res.evaluations)
        return res

    monkeypatch.setattr(specfun, "_adaptive", counted)
    closedforms._closed_moments(q, 0.4 + 0.1j, 1e-10)
    return evals


@pytest.mark.parametrize("q, ceiling", [(2.1, 450), (2.25, 660), (2.32, 870)])
def test_closed_pass_grades_non_integer_exponents_to_a_smooth_end(monkeypatch, q, ceiling):
    # the ceilings are the counts of a grading that only made each end
    # factor integrable, v^(g*e-1) with g*e >= 1.5
    (evals,) = _closed_pass_evaluations(monkeypatch, q)
    assert evals < ceiling


@pytest.mark.parametrize("q", [1.5, 2.0])
def test_closed_pass_leaves_integer_exponents_ungraded(monkeypatch, q):
    # p = 1/(q-1) is an integer, so every row's exponents are: the end
    # factors are polynomials and no grading can cheapen the pass
    assert _closed_pass_evaluations(monkeypatch, q) == [120]


def _sha256(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=complex).tobytes())
    return h.hexdigest()


# SHA-256 of the closed route's outputs, pinned when the Euler pass was
# last made faster with every output kept to its bit.  A change that moves
# them must re-pin them and say so.  At q = 2.33 the left half's grading
# power is 667, so its nodes next to v = 0 underflow to u = 0 exactly.
MOMENTS_SHA256 = {
    (1.4, 0.3 + 0.1j): "361da816a523567e2f36e86a1e0c004c6c3c22898a0650c315f9947ddb826010",
    (1.77, -1.2 + 0.4j): "482dd1540429e63a17c2508b966b4c82cc2c7ad4fb2277058f82525f520a07cb",
    (2.33, 0.3 + 0.2j): "d1920664efce45944b90ed35d516c60749b4ade119e7d3d2d37886f2d6d68780",
}


@pytest.mark.parametrize("q, alpha", list(MOMENTS_SHA256))
def test_closed_moments_keep_their_frozen_bits(q, alpha):
    n2, quotients, halves = closedforms._closed_moments(q, alpha, 1e-9)
    assert _sha256(n2, quotients, halves) == MOMENTS_SHA256[q, alpha]


def test_closed_norm_overlap_fd_and_kummer_keep_their_frozen_bits():
    assert (_sha256(overlap_closed(1.7, 0.3 + 0.1j, 0.5 + 0.1j))
            == "09179a3dc74b8f4160ace2ae55ead91654f442e5baad4d2b2eabb7c0616788eb")
    assert (_sha256(norm_squared_closed(4.9, 0.3 + 0.2j))
            == "fe51064a09e79d5ef024ac1d7a70365eb365c905aef5c07b1ff0d9fec598aa07")
    fd = specfun.lauricella_fd_integral(specfun.LauricellaArgs(
        1.2 + 0.3j, (0.5, -0.7 + 0.2j, 1.1, 0.3j), 2.9 - 0.1j,
        (0.95 + 0.4j, -2.5 - 0.3j, 1.5 + 0.7j, 3.0 - 1.2j)), tol=1e-10)
    assert (_sha256(fd.value, fd.err_estimate, fd.evaluations)
            == "cf5122027cd4d0b8996ffbb41ee270358ef680f0fca31859aa32c4220c842a4d")
    # |z| = 40 > 30 with Re b > Re a > 0: Kummer's integral branch
    assert (_sha256(specfun.kummer_phi(1.5, 3.0, 40j))
            == "3ccd2415aefd6bab0bb60e060c1604030fa869b8fca73bae86f83c434d714189")


class _Captured(Exception):
    pass


def _state_log_f(monkeypatch, q, alpha_bra, alpha_ket, eight_logs=False):
    """The log_f that ``_state_halves`` hands to its Euler pass for the
    five moment terms (16 rows); with eight_logs, the reference form that
    takes all eight logs log(1 - x_i u) directly."""
    alpha_bra, alpha_ket = complex(alpha_bra), complex(alpha_ket)
    captured = []

    def capture(log_f, *args):
        captured.append(log_f)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(closedforms, "_euler_integral", capture)
        if eight_logs:
            m.setattr(closedforms, "_bracket_logs",
                      lambda xs: lambda u: np.log(1.0 - xs[:, None] * u))
        with pytest.raises(_Captured):
            closedforms._state_halves(q, alpha_bra, alpha_ket,
                                      list(closedforms._moment_terms(alpha_ket).values()), 1e-10)
    return captured[0]


def _euler_nodes():
    # u of both Euler halves at the gradings the closed passes use, from
    # v^1000/2 (which underflows to 0 or a subnormal next to v = 0) to 1
    v = np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 61), [0.25, 0.4, 0.49, 0.5]])
    u = [np.exp(math.log(0.5) + g * np.log(v)) for g in (1, 7, 667, 1000)]
    edge = [0.0, 5e-324, 1e-310, 1e-300, 1e-160, 1e-16, 0.5, 1.0 - 2.0 ** -53, 1.0]
    return np.concatenate(u + [1.0 - t for t in u] + [edge])


SIGNED_ZERO_ALPHAS = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
LOG_ALPHAS = SIGNED_ZERO_ALPHAS + [1e-300, complex(1e-300, -1e-300), 0.3 + 0.1j, -1.2 + 0.4j,
                                   0.5j, -0.7 - 2.0j, 1e3, -1e3j, 700.0 + 700.0j]


@pytest.mark.parametrize("q", [1.0001, 1.014, 1.5, 2.33, 3.7, 4.9, 4.999])
def test_same_state_log_f_takes_mirrored_logs_bit_for_bit(monkeypatch, q):
    # compared as bytes: == would pass a zero of the other sign, and where
    # x*u underflows the mirrored logs differ from the direct ones in the
    # sign of a zero imaginary part, which log_f must not pass on
    u = _euler_nodes()
    assert (u == 0.0).any() and (u[u > 0.0] < 1e-307).any()
    for alpha in LOG_ALPHAS:
        mirrored = _state_log_f(monkeypatch, q, alpha, alpha)(u)
        direct = _state_log_f(monkeypatch, q, alpha, alpha, eight_logs=True)(u)
        assert mirrored.tobytes() == direct.tobytes(), (q, alpha)


def _log_count(monkeypatch, log_f, u):
    # complex logs taken per node by one log_f call
    count, log = [], np.log

    def counted(z, *args, **kwargs):
        count.append(np.size(z))
        return log(z, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "log", counted)
        log_f(u)
    return sum(count) / u.size


def test_only_one_state_takes_four_logs_a_node(monkeypatch):
    u = _euler_nodes()
    for q, alpha in ((1.5, 0.3 + 0.1j), (4.9, complex(-0.0, 0.0)), (2.2, 1e3)):
        assert _log_count(monkeypatch, _state_log_f(monkeypatch, q, alpha, alpha), u) == 4
    for q, bra, ket in ((1.7, 0.3 + 0.1j, 0.5 + 0.1j), (1.4, 0.3, -0.2 + 0.1j),
                        (2.2, 0.3 + 0.1j, 0.3 - 0.1j), (4.9, 0.0, 0.2j)):
        log_f = _state_log_f(monkeypatch, q, bra, ket)
        assert _log_count(monkeypatch, log_f, u) == 8
        direct = _state_log_f(monkeypatch, q, bra, ket, eight_logs=True)
        assert log_f(u).tobytes() == direct(u).tobytes()
