"""Classical-limit harness: exact Gaussian references, the small-(q-1)
expansion of the state, and the convergence report."""

import math
import warnings

import numpy as np
import pytest

from qcoherent import limits
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


def test_q_expansion_state_warns_outside_regime():
    with pytest.warns(RegimeWarning):
        q_expansion_state(1.5, 0.3, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q_expansion_state(1.1, 0.3, 0.0)   # boundary value stays quiet


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


def test_limit_convergence_samples_each_k_once_per_q(monkeypatch):
    # the pd distance needs only the amplitude at the k points: no Parseval
    # total or other momentum_pd extra may be paid for on top
    calls = []
    real = limits.momentum_amplitude_oracle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(limits, "momentum_amplitude_oracle", counted)
    qs, k_points = (1.2, 1.1), 7
    limit_convergence_check(0.3, q_sequence=qs, k_points=k_points)
    assert len(calls) == len(qs) * k_points


def test_limit_report_is_immutable():
    rep = limit_convergence_check(0.0, q_sequence=(1.2, 1.1), k_points=41)
    with pytest.raises(AttributeError):
        rep.final_tol = 1.0
