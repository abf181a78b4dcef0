"""Position/momentum moments and the uncertainty product, both routes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qcoherent import closedforms, moments, momentum, specfun
from qcoherent.errors import ConventionMismatch, NotConverged, OutOfValidityWindow, SlowDecay
from qcoherent.moments import (
    IMAG_TOL,
    MomentReport,
    moments_closed,
    moments_oracle,
    uncertainty_product,
)
from qcoherent.quadrature import IntegrandSpec, QuadratureResult
from qcoherent.states import CONVENTION_TOL, SQRT2, normalization_constant

# frozen oracle outputs at (q, alpha) = (1.3, 0.3), quadrature tol 1e-11;
# mean_x is exactly sqrt(2)*alpha by the density's reflection symmetry
FROZEN_13_03 = {
    "mean_x": 0.42426406871192851,
    "mean_x2": 0.82516129032258034,
    "mean_p2": 0.40217391304347827,
    "product": 0.50937907365066704,
}


def test_oracle_frozen_point():
    m = moments_oracle(1.3, 0.3, tol=1e-11)
    assert m.mean_x.real == pytest.approx(FROZEN_13_03["mean_x"], rel=1e-9)
    assert m.mean_x2.real == pytest.approx(FROZEN_13_03["mean_x2"], rel=1e-9)
    assert m.mean_p2.real == pytest.approx(FROZEN_13_03["mean_p2"], rel=1e-9)
    assert m.product == pytest.approx(FROZEN_13_03["product"], rel=1e-9)
    assert m.method == "oracle"


def test_oracle_is_one_line_pass(monkeypatch):
    # the norm and all five moment weights share one integrate_line pass
    calls = []
    real = moments.integrate_line

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(moments, "integrate_line", counted)
    moments._oracle_integrals.cache_clear()  # a memo hit would take no pass
    moments_oracle(1.5, 0.4 + 0.1j)
    assert len(calls) == 1


def test_a_one_state_pass_is_the_memoised_oracle_pass():
    # _oracle_integrals is the one-state case of the multi-state pass: the
    # same rows in the same order, so the same bits, with and without a
    # partner state
    for q, alpha, partners in ((1.5, 0.4 + 0.1j, ()), (2.2, 0.37 + 0.13j, (0.57 + 0.13j,)),
                               (1.05, -0.8 + 0.2j, (0.3j, 1.1))):
        moments._oracle_integrals.cache_clear()
        want = moments._oracle_integrals(q, alpha.real, alpha.imag, 1e-10, *partners)
        got = moments._oracle_pass(((q, alpha, partners),), 1e-10)
        assert len(got) == 1 and np.array(got[0]).tobytes() == np.array(want).tobytes()


def test_a_multi_state_pass_gives_each_state_its_own_integrals():
    # several states on one pass's nodes, each row held to its own target:
    # every state's integrals are its own pass's to round-off
    states = ((1.2, 0.3 + 0.1j, (0.5 + 0.1j,)), (1.7, 0.3 + 0.1j, (0.5 + 0.1j,)),
              (2.2, 0.3 + 0.1j, (0.5 + 0.1j,)), (1.05, -0.6 + 0.2j, ()))
    got = moments._oracle_pass(states, 1e-10)
    assert [len(g) for g in got] == [8, 8, 8, 6]
    for (q, alpha, partners), items in zip(states, got):
        own = moments._oracle_pass(((q, alpha, partners),), 1e-10)[0]
        for g, w in zip(items, own):
            assert abs(g - w) <= 1e-14 * max(1.0, abs(w)), (q, g, w)


def _pass_evaluator(monkeypatch, states):
    """The evaluator ``_oracle_pass`` hands its line pass for ``states``."""
    seen = []
    rows = sum(6 + 2 * len(partners) for _, _, partners in states)

    def capture(f, tol):
        seen.append(f)
        return QuadratureResult(np.ones(rows, dtype=complex), np.zeros(rows), 0, "gk-line")

    monkeypatch.setattr(moments, "integrate_line", capture)
    moments._oracle_pass(states, 1e-10)
    return seen[0].evaluator


_WIDE = 0.4 + 1e151j  # |Im B / Re B| passes 2^500 on the line (a wide states._States)


@pytest.mark.parametrize("states", [
    ((1.2, 0.3 + 0.1j, (0.5 + 0.1j,)), (1.7, 0.3 + 0.1j, (0.5 + 0.1j,)),
     (2.2, 0.3 + 0.1j, (0.5 + 0.1j,)), (1.1, 0.3 + 0.1j, ()), (1.05, 0.3 + 0.1j, ()),
     (1.02, 0.3 + 0.1j, ())),
    ((1.05, -0.8 + 0.2j, (0.3j, 1.1)), (2.3, 1.4 - 1.3j, ()), (1.6, 0.0, (-0.2 - 0.7j,))),
    ((1.5, 0.4 + 0.1j, ()), (1.5, _WIDE, (0.1,)), (2.2, 0.3, ())),
    ((1.5, 0.4 + 0.1j, ()), (1.5, 0.2, (_WIDE,))),
    ((1.5, 0.4 + 0.1j, (0.6 + 0.1j,)),),
    ((1.5, 0.4 + 0.1j, (_WIDE,)),),
])
def test_a_pass_evaluates_each_state_as_its_own_rows(monkeypatch, states):
    # one evaluator, whatever the state count, q and alpha (S, 1) columns
    # against x for several labels; a state's rows keep their bits whatever
    # else the pass holds, a wide state (as a state or as a partner)
    # included.  Each state's rows are bit for bit its own one-state pass's,
    # its six moment rows those of its pass without partners, and each
    # partner's density row that partner's own norm row
    x = np.concatenate([np.linspace(-120.0, 120.0, 481), [0.0, 1e3, -1e3, 3e7, -1e30,
                                                           1e151, 1e200, -1e300]])
    got = _pass_evaluator(monkeypatch, states)(x)
    start = 0
    for q, alpha, partners in states:
        own = _pass_evaluator(monkeypatch, ((q, alpha, partners),))(x)
        assert got[start:start + len(own)].tobytes() == own.tobytes()
        lone = _pass_evaluator(monkeypatch, ((q, alpha, ()),))(x)
        assert own[:6].tobytes() == lone.tobytes()
        for i, beta in enumerate(partners):
            norm_row = _pass_evaluator(monkeypatch, ((q, beta, ()),))(x)[0]
            assert own[6 + 2 * i].tobytes() == norm_row.tobytes()
        start += len(own)
    assert start == len(got)


def _evaluator_log(monkeypatch, module, name="integrate_line", arg=0):
    """Route the evaluator of module.<name>, its positional argument ``arg``
    (a callable or an IntegrandSpec), through a (calls, nodes, evaluations)
    log."""
    log = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        entry = [0, 0, 0]
        log.append(entry)
        f = args[arg]
        spec = f if isinstance(f, IntegrandSpec) else IntegrandSpec(f)

        def ev(x):
            entry[0] += 1
            entry[1] += np.size(x)
            return spec.evaluator(x)

        f = dataclasses.replace(spec, evaluator=ev) if f is spec else ev
        res = real(*args[:arg], f, *args[arg + 1:], **kwargs)
        entry[2] = res.evaluations
        return res

    monkeypatch.setattr(module, name, counted)
    return log


def test_oracle_passes_cost_one_evaluator_call_per_generation(monkeypatch):
    # q = 1.6, alpha = 0.4+0.1i: one call per adaptive generation, and no
    # decay probe, since the pass states its rows' exact tails.  Seeded with
    # 32 core panels and four on each tail, the six-row pass meets its target
    # in one generation (40 panels of 15 nodes).  Its row 0 is the norm
    # integral, so no separate norm pass runs.
    from qcoherent import states

    norm_log = _evaluator_log(monkeypatch, states)
    moment_log = _evaluator_log(monkeypatch, moments)
    states._norm_integral.cache_clear()
    moments._oracle_integrals.cache_clear()
    moments_oracle(1.6, 0.4 + 0.1j)
    assert norm_log == []  # no norm integral at tol 1e-10
    assert moment_log == [[1, 600, 600]]  # the 6-row moment pass at tol 1e-9


def test_both_routes_take_no_separate_norm_pass():
    # the oracle normalises by its own row 0, and moments_closed takes the
    # oracle's A from the same memoised pass
    from qcoherent import states

    closedforms.calibrated_reflection()  # its anchor norm is a norm pass
    misses = states._norm_integral.cache_info().misses
    moments_oracle(1.37, -0.61 + 0.23j)
    moments_closed(1.37, -0.61 + 0.23j)
    assert states._norm_integral.cache_info().misses == misses


def _moments_window_labels(count):
    """Seeded labels of the moments window: q in (1.05, 2.3), |alpha| <= 1.5."""
    rng = np.random.default_rng(26)
    qs = rng.uniform(1.05, 2.3, count)
    radii = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return [(float(q), complex(r * math.cos(t), r * math.sin(t)))
            for q, r, t in zip(qs, radii, angles)]


def test_oracle_norm_row_closes_on_the_norm_pass():
    # row 0 of the six-row pass (tol 1e-9) against the separate norm pass
    # (tol 1e-10): the closure the oracle no longer pays for on every call
    for q, alpha in _moments_window_labels(60):
        norm = moments._oracle_integrals(q, alpha.real, alpha.imag, 1e-9)[0]
        assert abs(norm * abs(normalization_constant(q, alpha)) ** 2 - 1.0) <= 1e-13, (q, alpha)
        assert moments_closed(q, alpha).deviations["norm_constant"] <= 1e-12, (q, alpha)


def _mpmath_rows(q, alpha):
    """The six integrals of the moment pass by mpmath (20 digits): the norm
    n = int |B|^(-2p) dx and the five moment rows, each over n, from the
    complex bracket B = 1 + s^2 (w^2 + |alpha|^2 - alpha^2).  The core is
    |x - c| <= 64 about the centre c = sqrt2 Re alpha, and each tail is
    mapped by x = c +- 64/t^4 to [0, 1]."""
    import mpmath

    with mpmath.workdps(20):
        q, a = mpmath.mpf(q), mpmath.mpc(alpha)
        p, r2, memo = 1 / (q - 1), mpmath.sqrt(2), {}

        def rows(x):
            if x not in memo:
                w = x - r2 * a
                b = 1 + (q - 1) / 2 * (w * w + abs(a) ** 2 - a * a)
                d = abs(b) ** (-2 * p)
                memo[x] = (d, x * d, x * x * d, 1j * w / b * d, abs(w / b) ** 2 * d,
                           (1 / b - q * (w / b) ** 2) * d)
            return memo[x]

        c = r2 * a.real

        def row(i):
            tails = [mpmath.quad(lambda t: rows(c + side * 64 / t ** 4)[i] * 256 / t ** 5
                                 if t else 0, [0, 1]) for side in (1, -1)]
            return mpmath.quad(lambda x: rows(x)[i], [c - 64, c - 4, c, c + 4, c + 64]) + sum(tails)

        n, *moment_rows = [row(i) for i in range(6)]
        return [complex(n)] + [complex(m / n) for m in moment_rows]


@pytest.mark.parametrize("q, alpha", [(1.01, 0.7 - 0.5j), (1.5, 0.4 + 0.1j), (2.2, 0.3 + 0.6j)])
def test_norm_and_moment_rows_meet_mpmath(q, alpha):
    # the state's real-arithmetic rows (states._bracket) against mpmath's
    # complex bracket, both passes at tol 1e-12
    from qcoherent import states

    want = _mpmath_rows(q, alpha)
    got = moments._oracle_integrals(q, alpha.real, alpha.imag, 1e-12)
    for i, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= 1e-14 * abs(w), (i, g, w)
    norm = states._norm_integral(q, alpha.real, alpha.imag, 1e-12)
    assert abs(norm - want[0]) <= 1e-14 * abs(want[0])


def test_closed_fourier_and_parseval_passes_keep_their_refinement(monkeypatch):
    # (evaluator calls, nodes, evaluations) of three more kinds of pass, so
    # that no change to the adaptive driver's bookkeeping moves a refinement
    # sequence unseen: a state's closed Euler pass (the probe call comes
    # before the pass), one Fourier amplitude (core generations, then tail
    # rounds) and momentum_pd's Parseval integral
    closedforms.calibrated_reflection()
    euler_log = _evaluator_log(monkeypatch, specfun, "_adaptive", arg=1)
    fourier_log = _evaluator_log(monkeypatch, momentum, "fourier_transform_line")
    parseval_log = _evaluator_log(monkeypatch, momentum, "integrate_interval")
    closedforms._closed_moments(1.6, 0.4 + 0.1j, 1e-9)
    momentum.momentum_amplitude_oracle(1.9, -1.2 + 0.7j, 0.3)
    momentum.momentum_pd(1.9, -1.2 + 0.7j)
    # 11 seed panels (the graded left half's ladder adds three), met at once
    assert euler_log == [[1, 165, 165]]
    assert fourier_log == [[11, 810, 810]]
    # the folded window's 6 seed panels meet 1e-6 at once: 90 nodes, each
    # taking the amplitudes at k and -k (12 panels, 180 nodes unfolded)
    assert parseval_log == [[1, 90, 90]]


def test_a_high_q_label_takes_few_generations(monkeypatch):
    # q = 2.25: the six-row pass's slowest tails decay like |x|^(-1.2),
    # substituted with gamma = 25 (an end of v^4), and the closed pass's
    # left half is graded by g = 25 for exponents 0.2 to 6.2, so its seed
    # ladder reaches 2^-8 <= 1/(25 * 6.2).  The six-row pass takes 2
    # generations (4 before its core seed had edges +-0.375) and the Euler
    # pass 1, against 5 and 5 with v^1.5 tails and quarter seeds:
    # (evaluator calls, nodes, evaluations); the line pass states its exact
    # tails and takes no decay probe
    closedforms.calibrated_reflection()
    q, alpha = 2.25, 0.3 + 0.5j
    normalization_constant(q, alpha)
    moments._oracle_integrals.cache_clear()
    moment_log = _evaluator_log(monkeypatch, moments)
    euler_log = _evaluator_log(monkeypatch, specfun, "_adaptive", arg=1)
    moments_closed(q, alpha)
    assert moment_log == [[2, 660, 660]]
    assert euler_log == [[1, 210, 210]]


def test_closed_reuses_the_oracle_pass_of_the_same_label(monkeypatch):
    q, alpha = 1.7, 0.2 - 0.3j
    moments._oracle_integrals.cache_clear()
    oracle = moments_oracle(q, alpha)
    log = _evaluator_log(monkeypatch, moments)
    closed = moments_closed(q, alpha)
    assert log == []
    for name in ("mean_x", "mean_x2", "mean_p", "mean_p2"):
        want = getattr(oracle, name)
        assert closed.deviations[name] == abs(getattr(closed, name) - want) / max(1.0, abs(want))
    # each call builds a fresh report with a fresh deviations dict
    again = moments_oracle(q, alpha)
    assert again == oracle and again is not oracle
    assert again.deviations is not oracle.deviations


def test_oracle_alpha_zero_centered():
    for q in (1.2, 1.6, 2.1):
        m = moments_oracle(q, 0.0, tol=1e-10)
        assert abs(m.mean_x) < 1e-10
        assert abs(m.mean_p) < 1e-10
        assert m.var_x > 0.0 and m.var_p > 0.0


def test_oracle_sentinel_is_minimal_uncertainty():
    m = moments_oracle(1.0, 0.5, tol=1e-10)
    assert m.product == 0.5
    assert m.mean_x.real == pytest.approx(np.sqrt(2.0) * 0.5, rel=1e-12)


def test_oracle_imaginary_parts_are_noise():
    m = moments_oracle(1.5, 0.4 + 0.3j, tol=1e-10)
    for v in (m.mean_x, m.mean_x2, m.mean_p, m.mean_p2):
        assert abs(v.imag) <= 1e-6 * (1.0 + abs(v.real))


def test_oracle_mean_x2_stable_under_doubled_resolution():
    a = moments_oracle(1.5, 0.0, tol=1e-8).mean_x2.real
    b = moments_oracle(1.5, 0.0, tol=5e-9).mean_x2.real
    assert a == pytest.approx(b, rel=1e-6)


def test_oracle_second_route_consistency_recorded():
    # <p^2> carries the integration-by-parts partner gap as a deviation
    m = moments_oracle(1.4, 0.2 + 0.1j, tol=1e-10)
    assert "mean_p2_partner_gap" in m.deviations
    assert m.deviations["mean_p2_partner_gap"] < 1e-6


def test_oracle_window_enforced():
    with pytest.raises(OutOfValidityWindow):
        moments_oracle(2.4, 0.0, tol=1e-8)


def test_oracle_parity_in_alpha():
    # <x> odd and <x^2> even under alpha -> -alpha (real alpha)
    q = 1.4
    plus = moments_oracle(q, 0.6, tol=1e-10)
    minus = moments_oracle(q, -0.6, tol=1e-10)
    assert plus.mean_x.real == pytest.approx(-minus.mean_x.real, rel=1e-9)
    assert plus.mean_x2.real == pytest.approx(minus.mean_x2.real, rel=1e-9)


def test_closed_matches_oracle_and_reports_gaps():
    m = moments_closed(1.3, 0.3, tol=1e-10)
    assert m.method == "closed-form"
    assert m.mean_x.real == pytest.approx(FROZEN_13_03["mean_x"], rel=1e-5)
    assert m.mean_x2.real == pytest.approx(FROZEN_13_03["mean_x2"], rel=1e-5)
    for name in ("mean_x", "mean_x2", "mean_p", "mean_p2", "norm_constant"):
        assert name in m.deviations
        assert m.deviations[name] <= 1e-5


def test_closed_small_q_prefactors_stay_finite():
    # Gamma-ratio prefactors blow up factorially toward q = 1 unless kept
    # in log space; q = 1.05 exercises arguments near 40
    m = moments_closed(1.05, 0.2, tol=1e-9)
    assert np.isfinite(m.product)
    assert m.deviations["mean_x2"] <= 1e-5


def test_closed_complex_alpha_grid():
    for q in (1.2, 1.6, 2.0):
        for alpha in (0.3, 0.3 + 0.1j, 0.5 + 0.2j):
            m = moments_closed(q, alpha, tol=1e-10)
            worst = max(m.deviations.values())
            assert worst <= 1e-5


@pytest.mark.parametrize("q", [1.05, 1.5, 2.0, 2.3, 2.32, 2.33])
def test_closed_moments_match_exact_real_alpha_anchors(q):
    # for real alpha the state is a shift of (1 + (q-1)/2 y^2)^(-1/(q-1)),
    # whose moments are Beta integrals (DLMF 5.12.3), independent of alpha
    var_x, var_p = 2.0 / (7.0 - 3.0 * q), (5.0 - q) / (4.0 * (q + 1.0))
    for alpha in (0.0, 0.3, -1.2):
        _, quotients, _ = closedforms._closed_moments(q, alpha, 1e-10)
        mean_x, mean_x2, mean_p, mean_p2 = (z.real for z in quotients)
        got = (mean_x, mean_p, mean_x2 - mean_x ** 2, mean_p2 - mean_p ** 2,
               (mean_x2 - mean_x ** 2) * (mean_p2 - mean_p ** 2))
        want = (math.sqrt(2.0) * alpha, 0.0, var_x, var_p,
                (5.0 - q) / (2.0 * (7.0 - 3.0 * q) * (q + 1.0)))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


@pytest.mark.parametrize("q, bound", [(2.3, 1e-13), (2.31, 1e-10)])
def test_oracle_product_meets_the_exact_real_alpha_anchor(q, bound):
    # Delta x Delta p = sqrt((5-q) / (2 (7-3q) (q+1))) for real alpha; the
    # x^2 |psi|^2 tail decays like |x|^(-4/(q-1) + 2), which only the whole
    # line's evaluation reaches at q = 2.31
    want = math.sqrt((5.0 - q) / (2.0 * (7.0 - 3.0 * q) * (q + 1.0)))
    assert abs(moments_oracle(q, 0.3, tol=1e-10).product / want - 1.0) <= bound


def _oracle_anchor_gap(q, alpha):
    # largest gap of the oracle to the exact real-alpha anchors: <x> and <p>,
    # both variances (DLMF 5.12.3) and the norm integral, each relative to
    # max(1, |anchor|)
    m = moments_oracle(q, alpha, tol=1e-10)
    norm = abs(normalization_constant(q, alpha, tol=1e-10)) ** -2
    got = (m.mean_x, m.mean_p, m.var_x, m.var_p, norm)
    want = (math.sqrt(2.0) * alpha, 0.0, 2.0 / (7.0 - 3.0 * q),
            (5.0 - q) / (4.0 * (q + 1.0)), closedforms.real_alpha_norm_squared_exact(q))
    return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("q", [1.001, 1.01, 1.05, 1.2, 1.5, 1.8, 2.0, 2.2, 2.3])
def test_oracle_meets_the_exact_real_alpha_anchors_over_the_window(q):
    for alpha in (0.0, 0.3, -1.2):
        assert _oracle_anchor_gap(q, alpha) <= 1e-12, alpha


def test_oracle_next_to_seven_thirds_is_exact_or_refused():
    # x^2 |psi|^2 decays like |x|^(-4/(q-1) + 2): at q = 2.31 the line pass
    # may still return, at 2.32 its tail bound must refuse
    for alpha in (0.0, 0.3, -1.2):
        try:
            assert _oracle_anchor_gap(2.31, alpha) <= 1e-10, alpha
        except SlowDecay:
            pass
        with pytest.raises(SlowDecay):
            moments_oracle(2.32, alpha, tol=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, alpha", [(1.5, 1000.0), (2.0, 300.0), (2.0, 1000.0)])
def test_oracle_of_a_state_centred_past_the_core_meets_the_anchors(q, alpha):
    # these raised SlowDecay "tail exponent ~0.631" (0.970, 0.000): the
    # decay probe read the state's own peak, at x = 1414 or 424, as a tail
    # that does not decay.  With the rows' exact tails the pass returns the
    # real-alpha anchors: Var x = 2/(7-3q), Var p = (5-q)/(4(q+1)) and
    # <x> = sqrt2 alpha (Var x is <x^2> - <x>^2, two terms of size 2 alpha^2)
    m = moments_oracle(q, alpha)
    assert abs(m.var_x / (2.0 / (7.0 - 3.0 * q)) - 1.0) <= 1e-9
    assert abs(m.var_p / ((5.0 - q) / (4.0 * (q + 1.0))) - 1.0) <= 1e-12
    assert abs(m.mean_x / (SQRT2 * alpha) - 1.0) <= 1e-12


@pytest.mark.parametrize("q, alpha", [(2.3333, 0.3), (7.0 / 3.0 - 1e-6, -1.2)])
def test_closed_moments_refuse_past_the_grading_cap(q, alpha):
    # <x^2>'s Euler exponent 4/(q-1) - 3 vanishes as q -> 7/3; once its
    # endpoint grading would pass 1000 the pass raises instead of returning
    # a value the Gauss-Kronrod estimate cannot vouch for
    with pytest.raises(NotConverged, match="grading power"):
        closedforms._closed_moments(q, alpha, 1e-10)


def test_closed_moments_take_one_euler_pass(monkeypatch):
    # the 16 (bracket family, half, power) integrands of a state are rows of
    # one vector pass, not 16 F_D calls
    closedforms.calibrated_reflection()
    calls = []
    real = specfun._adaptive

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_adaptive", counted)
    moments_closed(1.5, 0.4 + 0.1j)
    assert len(calls) == 1


@pytest.mark.parametrize("dev, refused", [(0.9, False), (1.1, True)])
def test_closed_moments_gate_refuses_just_past_convention_tol(monkeypatch, dev, refused):
    # a closed <x^2> off the oracle's by dev * CONVENTION_TOL (relative to
    # max(1, |<x^2>|)); every other gap stays at its own small size
    q, alpha = 1.5, 0.4 + 0.1j
    want = moments_oracle(q, alpha).mean_x2
    shifted = want + dev * CONVENTION_TOL * max(1.0, abs(want))
    closed = closedforms._closed_moments

    def off(*args):
        n2, (x, _, p, p2), halves = closed(*args)
        return n2, (x, complex(shifted), p, p2), halves

    monkeypatch.setattr(closedforms, "_closed_moments", off)
    if refused:
        with pytest.raises(ConventionMismatch,
                           match=r"mean_x2 deviates .* at q=1\.5, alpha=\(0\.4\+0\.1j\)"):
            moments_closed(q, alpha)
    else:
        gap = moments_closed(q, alpha).deviations["mean_x2"]
        assert gap == pytest.approx(dev * CONVENTION_TOL, rel=1e-6)


def _oracle_changed(monkeypatch, change):
    """moments_oracle at (1.5, 0.4+0.1i) on its six integrals (norm, <x>,
    <x^2>, <p>, <p^2> and its partner) after change(list of them)."""
    integrals = moments._oracle_integrals

    def changed(*args):
        values = list(integrals(*args))
        change(values)
        return tuple(values)

    monkeypatch.setattr(moments, "_oracle_integrals", changed)
    return lambda: moments_oracle(1.5, 0.4 + 0.1j)


@pytest.mark.parametrize("size, refused", [(0.9, False), (1.1, True)])
def test_oracle_refuses_an_imaginary_part_past_imag_tol(monkeypatch, size, refused):
    def change(v):  # <x^2> gets an imaginary part of size * IMAG_TOL * (1 + |Re|)
        v[2] = complex(v[2].real, size * IMAG_TOL * (1.0 + abs(v[2].real)))

    run = _oracle_changed(monkeypatch, change)
    if refused:
        with pytest.raises(NotConverged, match="mean_x2 should be real"):
            run()
    else:
        assert run().deviations["mean_x2_imag"] > 0.5 * IMAG_TOL


@pytest.mark.parametrize("gap, refused", [(0.9e-6, False), (1.1e-6, True)])
def test_oracle_refuses_a_p2_partner_gap_past_1e_6(monkeypatch, gap, refused):
    def change(v):  # the partner int -conj(psi) psi'' off int |psi'|^2 by gap
        v[5] = v[4] * (1.0 + gap)

    run = _oracle_changed(monkeypatch, change)
    if refused:
        with pytest.raises(NotConverged, match="two <p\\^2> quadrature routes disagree"):
            run()
    else:
        assert run().deviations["mean_p2_partner_gap"] == pytest.approx(gap, rel=1e-6)


@pytest.mark.parametrize("var, refused", [(-1e-9, True), (0.0, True), (1e-9, False)])
@pytest.mark.parametrize("which", ["x", "p"])
def test_oracle_refuses_a_non_positive_variance(monkeypatch, which, var, refused):
    def change(v):  # the second moment set to the first one squared, plus var
        if which == "x":
            v[2] = v[1].real * v[1].real + var
        else:  # both <p^2> routes, so the partner gap stays 0
            v[4] = v[5] = v[3].real * v[3].real + var

    run = _oracle_changed(monkeypatch, change)
    if refused:
        with pytest.raises(NotConverged, match="non-positive variance"):
            run()
    else:
        assert getattr(run(), f"var_{which}") > 0.0


@pytest.mark.parametrize("norm, refused", [(-1e-300, True), (0.0, True), (1e-300, False)])
def test_oracle_refuses_a_non_positive_norm_row(monkeypatch, norm, refused):
    # row 0 divides the other five, so a norm integral that is not positive
    # must refuse, never divide by zero or flip every moment's sign
    real = moments.integrate_line

    def with_norm(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=np.concatenate([[norm], res.value[1:]]))

    monkeypatch.setattr(moments, "integrate_line", with_norm)
    moments._oracle_integrals.cache_clear()
    if refused:
        with pytest.raises(ConventionMismatch, match="norm integral came out non-positive"):
            moments._oracle_integrals(1.5, 0.4, 0.1, 1e-9)
    else:
        assert moments._oracle_integrals(1.5, 0.4, 0.1, 1e-9)[0] == norm
    moments._oracle_integrals.cache_clear()


def test_uncertainty_product_sentinel_exact():
    for alpha in (0.0, 0.5, 0.5 + 0.2j, 0.3j):
        assert uncertainty_product(1.0, alpha) == 0.5


@pytest.mark.parametrize("alpha", [1.2e154, 1.2e154j, -1e154 + 3.0j])
def test_sentinel_moments_past_the_doubles_are_refused_quietly(alpha):
    # |alpha|^2 is a double, but <x^2> = 1/2 + 2 (Re alpha)^2 is not: the
    # exact Gaussian report raised a bare OverflowError from its **
    from qcoherent.limits import coherent_reference_moments

    calls = (lambda: moments_oracle(1.0, alpha), lambda: moments_closed(1.0, alpha),
             lambda: uncertainty_product(1.0, alpha),
             lambda: coherent_reference_moments(alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NotConverged, match="overflows double precision"):
                call()
        assert moments_oracle(1.0, 9e153j).mean_p2 == 0.5 + (SQRT2 * 9e153) ** 2


def test_uncertainty_product_bound_spot():
    assert uncertainty_product(1.2, 0.0, tol=1e-9) >= 0.5


def test_uncertainty_product_decreases_toward_half():
    gaps = [
        abs(uncertainty_product(q, 0.5, tol=1e-9) - 0.5)
        for q in (1.2, 1.1, 1.05, 1.02)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_heisenberg_on_grid():
    for q in (1.05, 1.4, 2.0, 2.2):
        for alpha in (0.0, 0.5, 0.3j):
            m = moments_oracle(q, alpha, tol=1e-9)
            assert m.product >= 0.5 - 1e-6


def test_report_is_frozen_value_object():
    m = moments_oracle(1.3, 0.1, tol=1e-9)
    assert isinstance(m, MomentReport)
    with pytest.raises(AttributeError):
        m.product = 0.0
