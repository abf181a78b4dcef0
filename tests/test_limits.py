"""Classical-limit harness: exact Gaussian references, the small-(q-1)
expansion of the state, and the convergence report."""

import math
import warnings

import numpy as np
import pytest

from qcoherent import limits, moments
from qcoherent.errors import RegimeWarning
from qcoherent.limits import (
    LimitReport,
    coherent_reference_moments,
    gaussian_momentum_pd,
    limit_convergence_check,
    q_expansion_state,
)
from qcoherent.quadrature import integrate_line
from qcoherent.states import coherent_psi

SQRT2 = math.sqrt(2.0)


def test_reference_moments_exact_values():
    for alpha in (0.0, 1.0, 1.0j, 0.7 + 0.3j):
        alpha = complex(alpha)
        m = coherent_reference_moments(alpha)
        assert m.mean_x.real == pytest.approx(SQRT2 * alpha.real, rel=1e-14, abs=1e-14)
        assert m.mean_x2.real == pytest.approx(0.5 + m.mean_x.real ** 2, rel=1e-14)
        assert m.mean_p.real == pytest.approx(SQRT2 * alpha.imag, rel=1e-14, abs=1e-14)
        assert m.mean_p2.real == pytest.approx(0.5 + m.mean_p.real ** 2, rel=1e-14)
        assert m.product == 0.5


def test_reference_moments_match_quadrature_of_exact_state():
    # the closed Gaussian moments against direct integrals of coherent_psi
    for alpha in (0.0, 1.0, 1.0j, 0.7 + 0.3j):
        alpha = complex(alpha)
        m = coherent_reference_moments(alpha)

        def dens(x, w=lambda x: 1.0):
            v = coherent_psi(alpha, x)
            return w(x) * (v * np.conj(v)).real

        n0 = integrate_line(lambda x: dens(x), tol=1e-11).value.real
        x1 = integrate_line(lambda x: dens(x, lambda t: t), tol=1e-11).value.real
        x2 = integrate_line(lambda x: dens(x, lambda t: t * t), tol=1e-11).value.real
        assert n0 == pytest.approx(1.0, abs=1e-8)
        assert x1 == pytest.approx(m.mean_x.real, abs=1e-8)
        assert x2 == pytest.approx(m.mean_x2.real, abs=1e-8)


def test_gaussian_momentum_pd_shape_and_norm():
    alpha = (0.4 + 0.9j) / SQRT2
    ks = np.linspace(-8.0, 8.0, 801)
    pd = gaussian_momentum_pd(alpha, ks)
    assert pd.max() == pytest.approx(math.pi ** -0.5, rel=1e-3)
    assert np.trapezoid(pd, ks) == pytest.approx(1.0, abs=1e-6)
    assert ks[int(np.argmax(pd))] == pytest.approx(0.9, abs=0.05)


def test_q_expansion_state_order_of_accuracy():
    # L2 distance to the exact normalized state must shrink like (q-1)^2
    from qcoherent.states import StateLabel

    alpha = 0.4
    errs = []
    for q in (1.1, 1.05, 1.02):
        s = StateLabel(q, alpha)

        def diff2(x):
            d = q_expansion_state(q, alpha, x) - np.asarray(
                [s.psi(xi) for xi in np.atleast_1d(x)]
            )
            return (d * np.conj(d)).real

        errs.append(math.sqrt(integrate_line(diff2, tol=1e-10).value.real))
    ratios = [e / (q - 1.0) ** 2 for e, q in zip(errs, (1.1, 1.05, 1.02))]
    # a genuine second-order remainder keeps the fitted constant bounded
    assert max(ratios) < 3.0 * min(ratios)
    assert errs[-1] < 1e-3


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_q_expansion_state_refuses_a_q_that_is_not_finite(q):
    # the norm's overflow check read it as "overflows double precision"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="q must be finite"):
            q_expansion_state(q, 0.3, 0.0, regime=math.inf)


def test_q_expansion_state_warns_outside_regime():
    with pytest.warns(RegimeWarning):
        q_expansion_state(1.5, 0.3, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_expansion_state(1.1, 0.3, 0.0)   # boundary value stays quiet


@pytest.mark.parametrize("x", [1e77, 1e160, -1e300, 1.7e308])
def test_q_expansion_state_is_zero_and_silent_at_huge_finite_x(x):
    # W^2 overflowed from |x| ~ 1e77, and inf * exp(-inf) read nan+nanj
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_expansion_state(1.05, 0.3 + 0.1j, x) == 0.0
        got = q_expansion_state(1.05, 0.3 + 0.1j, np.array([0.5, x]))
    assert got[0] == q_expansion_state(1.05, 0.3 + 0.1j, 0.5) and got[1] == 0.0


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, [0.0, math.nan]])
def test_q_expansion_state_refuses_a_non_finite_x(x):
    with pytest.raises(ValueError, match="x must be finite"):
        q_expansion_state(1.05, 0.3, x)


@pytest.mark.parametrize("alpha, x", [(100.0, 141.4), (1e30, 0.0), (1e30, SQRT2 * 1e30)])
def test_q_expansion_state_centred_far_out_is_the_state_at_zero(alpha, x):
    # the norm is taken about the state's centre: it read 0 there and
    # 0 ** -0.5 raised a bare ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert limits._expansion_norm(1.05, alpha, 0.0) == limits._expansion_norm(1.05, 0.0, 0.0)
        got = q_expansion_state(1.05, alpha, x)
        want = q_expansion_state(1.05, 0.0, x - SQRT2 * alpha)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("alpha", [1e80 + 1e80j, 1e40 + 1e40j, 1e78j])
def test_q_expansion_state_refuses_an_overflowing_expansion_quietly(alpha):
    # W^2 (at 1e80 + 1e80i) or the norm's density overflows double
    # precision; 1e80 + 1e80i warned of an overflow and went on
    from qcoherent.errors import NotConverged

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConverged, match="overflows double precision"):
            q_expansion_state(1.05, alpha, 0.0)


def test_q_expansion_state_forms_w_about_the_centre():
    # W = y^2 - 2i Im alpha (sqrt2 y + Re alpha) at y = x - sqrt2 Re alpha is
    # the state's quadratic form; far from x = 0 it keeps its digits
    import mpmath

    q, alpha, x = 1.05, 60.0 + 0.2j, 84.9
    with mpmath.workdps(40):
        a, xm = mpmath.mpc(alpha), mpmath.mpf(x)
        w = xm ** 2 - 2 * mpmath.sqrt(2) * a * xm + abs(a) ** 2 + a ** 2
        raw = complex((1 + mpmath.mpf(q - 1) / 8 * w ** 2) * mpmath.exp(-w / 2))
    got = q_expansion_state(q, alpha, x) / limits._expansion_norm(q, alpha.real, alpha.imag)
    assert abs(got - raw) <= 1e-13 * abs(raw)


def _expansion_labels(n=40, seed=29):
    # q in (1, 1.3], |alpha| up to 4 in every direction
    rng = np.random.default_rng(seed)
    q = 1.0 + 0.3 * (1.0 - rng.random(n))
    r, t = 4.0 * np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
    return [(float(qi), complex(ri * math.cos(ti), ri * math.sin(ti)))
            for qi, ri, ti in zip(q, r, t)]


def test_expansion_norm_closed_form_meets_a_30_digit_quadrature():
    # the closed form against int exp(-y^2) |1 + (q-1)/8 W^2|^2 dy by
    # mpmath's 8-node Gauss-Hermite rule at 30 digits, exact on this
    # degree-8 polynomial times the Gaussian weight
    import mpmath

    with mpmath.workdps(30):
        nodes = list(zip(*mpmath.gauss_quadrature(8, "hermite")))
        for q, alpha in _expansion_labels():
            e, a, b = mpmath.mpf(q) - 1, mpmath.mpf(alpha.real), mpmath.mpf(alpha.imag)

            def poly(y):
                w = y * y - 2j * b * (mpmath.sqrt(2) * y + a)
                return abs(1 + e / 8 * w * w) ** 2

            want = mpmath.fsum(wt * poly(y) for y, wt in nodes) ** -0.5
            got = limits._expansion_norm(q, alpha.real, alpha.imag)
            assert abs(got - want) <= 1e-15 * want, (q, alpha, got)


@pytest.mark.parametrize("are", [1e30, 1e100, 1e150])
def test_expansion_norm_of_a_real_alpha_is_the_value_at_zero(are):
    # a real alpha shifts the state without changing its shape, and the
    # closed form sees Re alpha only through Re alpha * Im alpha
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1.05, 1.3, 1.0):
            assert limits._expansion_norm(q, are, 0.0) == limits._expansion_norm(q, 0.0, 0.0)


@pytest.mark.parametrize("gaps, verdict", [
    ((0.1, 0.05, 0.001), "converged"),
    ((0.1, 0.2, 0.001), "not-converged"),    # last gap below final_tol, not monotone
    ((0.1, 0.05, 0.05), "not-converged"),    # monotone, last gap above final_tol
    ((0.1, 1e-13, 1e-13), "converged"),      # a machine-zero plateau
])
def test_verdict_needs_falling_gaps_and_a_small_last_gap(gaps, verdict):
    assert limits._verdict(gaps, 0.01) == verdict


def test_limit_convergence_headline_run():
    rep = limit_convergence_check(0.5)
    assert isinstance(rep, LimitReport)
    assert rep.q_sequence == (1.2, 1.1, 1.05, 1.02)
    assert set(rep.verdicts) == {
        "mean_x", "mean_x2", "mean_p", "mean_p2", "product", "pd_distance"
    }
    assert rep.all_converged, rep.verdicts
    for gaps in rep.gaps.values():
        assert gaps[-1] < rep.final_tol


def test_limit_convergence_strictness():
    with pytest.raises(ValueError):
        limit_convergence_check(0.5, q_sequence=(1.1, 1.2))   # not decreasing
    with pytest.raises(ValueError):
        limit_convergence_check(0.5, q_sequence=(2.5, 1.2))   # outside window


def test_limit_convergence_rejects_an_empty_sequence():
    with pytest.raises(ValueError, match="at least one q"):
        limit_convergence_check(0.5, q_sequence=())


@pytest.mark.parametrize("bad", [
    {"final_tol": math.nan},   # read every quantity "converged": gaps[-1] >= nan is False
    {"final_tol": math.inf},
    {"final_tol": 0.0},
    {"k_points": 0},           # failed in numpy's max over an empty grid
    {"k_halfwidth": math.inf},  # warned, then failed inside the Bessel form
    {"k_halfwidth": math.nan},
    {"k_halfwidth": 0.0},
    {"tol": math.inf},         # min(tol, 1e-10) alone would take it to 1e-10
    {"tol": math.nan},
])
def test_limit_convergence_refuses_malformed_settings_up_front(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("a q was run before the settings were checked")

    monkeypatch.setattr(limits, "_oracle_pass", refuse)
    with pytest.raises(ValueError, match=next(iter(bad))):
        limit_convergence_check(0.3, **bad)


def test_limit_convergence_samples_each_k_once_per_q(monkeypatch):
    # the pd distance needs only the amplitude at the k points, one
    # vectorised call per q: no Parseval total (the mirrored amplitudes) or
    # other momentum_pd extra may be paid for on top
    calls = []
    real = limits._bessel_amplitudes

    def counted(q, alpha, a_const):
        amplitudes, _ = real(q, alpha, a_const)

        def sampled(k):
            calls.append(np.size(k))
            return amplitudes(k)

        def mirrored(k):
            raise AssertionError("the limit check took mirrored amplitudes")

        return sampled, mirrored

    monkeypatch.setattr(limits, "_bessel_amplitudes", counted)
    qs, k_points = (1.2, 1.1), 7
    limit_convergence_check(0.3, q_sequence=qs, k_points=k_points)
    assert calls == [k_points] * len(qs)


def test_limit_convergence_takes_one_line_pass_for_its_whole_sequence(monkeypatch):
    # the moments and A of every q come from one line pass, six rows a q, at
    # min(tol, 1e-10); each q's moments are within round-off of its own pass
    passes, lines = [], []
    real_pass, real_line = limits._oracle_pass, moments.integrate_line

    def counted_pass(states, tol):
        passes.append((states, tol))
        return real_pass(states, tol)

    def counted_line(f, tol=1e-10, **kwargs):
        lines.append(tol)
        return real_line(f, tol=tol, **kwargs)

    monkeypatch.setattr(limits, "_oracle_pass", counted_pass)
    monkeypatch.setattr(moments, "integrate_line", counted_line)
    qs, alpha = (1.2, 1.1, 1.05, 1.02), complex(0.3, 0.1)
    rep = limit_convergence_check(alpha, q_sequence=qs, tol=1e-9, k_points=21)
    assert passes == [(tuple((q, alpha, ()) for q in qs), 1e-10)]
    assert lines == [1e-10]
    ref = coherent_reference_moments(alpha)
    for q, gap in zip(qs, rep.gaps["mean_x2"]):
        own = moments._oracle_report(q, alpha, real_pass(((q, alpha, ()),), 1e-10)[0])
        assert abs(gap - abs(own.mean_x2 - ref.mean_x2)) <= 1e-14 * own.mean_x2


def test_limit_report_is_immutable():
    rep = limit_convergence_check(0.0, q_sequence=(1.2, 1.1), k_points=41)
    with pytest.raises(AttributeError):
        rep.final_tol = 1.0
