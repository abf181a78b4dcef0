"""The state passes' exact tails.

Every line pass over a state states its rows' exact algebraic tails
(``IntegrandSpec.tails``), so ``integrate_line`` takes no decay probe for it;
every Euler pass evaluates its scale probe's nodes in its first generation's
log f call, so it calls log f once per adaptive generation and no more.
"""

import math

import mpmath
import numpy as np
import pytest

from qcoherent import cli, closedforms, moments, quadrature, specfun, states
from qcoherent.momentum import momentum_pd
from qcoherent.moments import moments_closed, moments_oracle
from qcoherent.quadrature import integrate_line
from qcoherent.states import StateLabel, normalization_constant, overlap


def _pass_log(monkeypatch):
    """Count ``_decay_probe`` calls, and for each Euler pass its log f calls
    and its generations (``_pieces_batch`` batches during the pass)."""
    log = {"probes": 0, "batches": 0, "euler": []}
    real_probe, real_batch = quadrature._decay_probe, quadrature._pieces_batch
    real_euler = specfun._euler_integral

    def probe(ev):
        log["probes"] += 1
        return real_probe(ev)

    def batch(*args, **kwargs):
        log["batches"] += 1
        return real_batch(*args, **kwargs)

    def euler(log_f, *args, **kwargs):
        entry = [0, log["batches"]]

        def counted(u):
            entry[0] += 1
            return log_f(u)

        res = real_euler(counted, *args, **kwargs)
        log["euler"].append((entry[0], log["batches"] - entry[1]))
        return res

    monkeypatch.setattr(quadrature, "_decay_probe", probe)
    monkeypatch.setattr(quadrature, "_pieces_batch", batch)
    for module in (specfun, closedforms):
        monkeypatch.setattr(module, "_euler_integral", euler)
    return log


def _clear_memos():
    states._norm_integral.cache_clear()
    moments._oracle_integrals.cache_clear()


def test_no_state_pass_probes_and_an_euler_pass_calls_log_f_once_per_generation(
        monkeypatch, tmp_path):
    closedforms.calibrated_reflection()
    cli._fixed_checks()  # once per process; the Hermite check is no state pass
    log = _pass_log(monkeypatch)
    _clear_memos()
    moments_oracle(1.6, 0.4 + 0.1j)
    moments_closed(1.6, 0.4 + 0.1j)
    normalization_constant(1.9, -0.3 + 0.2j)
    a, b = StateLabel(1.4, 0.2 + 0.1j), StateLabel(1.4, 0.5 - 0.3j)
    overlap(a, b)
    momentum_pd(1.3, 0.6 - 0.2j)
    assert cli.main(["verify", "--alpha-re", "0.4", "--alpha-im", "0.1",
                     "--out", str(tmp_path / "v.json")]) == 0
    assert log["probes"] == 0
    assert len(log["euler"]) >= 4  # moments_closed's pass and verify's three
    assert all(calls == generations >= 1 for calls, generations in log["euler"])


def test_a_plain_callable_is_still_probed(monkeypatch):
    log = _pass_log(monkeypatch)
    r = integrate_line(lambda x: 1.0 / (1.0 + x ** 4), tol=1e-10)
    assert log["probes"] == 1
    assert r.value.real == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-10)


def _mp_rows(q, alpha, beta=None):
    """mpmath's |row|(x) of each line row: the six moment rows of (q, alpha),
    then, with a partner beta, its density and |psi_un[alpha] psi_un[beta]|."""
    q, a = mpmath.mpf(q), mpmath.mpc(alpha)
    s2, p = (q - 1) / 2, 1 / (q - 1)

    def bracket(x, gamma):
        return 1 + s2 * (x * x - 2 * mpmath.sqrt(2) * gamma * x + abs(gamma) ** 2 + gamma ** 2)

    def rows(x):
        b = bracket(x, a)
        dens = abs(b) ** (-2 * p)
        wb = (x - mpmath.sqrt(2) * a) / b
        out = [dens, abs(x) * dens, x * x * dens, abs(wb) * dens, abs(wb) ** 2 * dens,
               abs(1 / b - q * wb * wb) * dens]
        if beta is not None:
            bb = bracket(x, mpmath.mpc(beta))
            out += [abs(bb) ** (-2 * p), abs(b) ** -p * abs(bb) ** -p]
        return out

    return rows


def _mp_beyond_top(rows, i, e, side):
    """mpmath's int of row i past |x| = 1e250 on ``side``, through
    x = side 1e250 u^(-k), k = 1/(e-1), under which a c |x|^(-e) tail is
    the constant c k 1e250^(1-e)."""
    top, k = mpmath.mpf(10) ** 250, 1 / (mpmath.mpf(e) - 1)
    return mpmath.quad(lambda u: rows(side * top * u ** -k)[i] * k * top * u ** (-k - 1), [0, 1])


@pytest.mark.parametrize("q, alpha, row", [(2.32, 0.3, 2), (2.32, 0.235 - 0.128j, 2),
                                           (4.9, 0.3, 0)])
def test_exact_mass_past_the_top_meets_mpmath(q, alpha, row):
    # the x^2 row at q = 2.32 (|x|^(-1.0303)), whose probed bound read 6.5x
    # too small, and the norm row at q = 4.9 (|x|^(-1.0256))
    e, log_c = moments._moment_tails(q)[row]
    want = quadrature._beyond_top_mass(e, log_c)
    with mpmath.workdps(30):
        rows = _mp_rows(q, alpha)
        for side in (1, -1):
            got = float(_mp_beyond_top(rows, row, e, side))
            assert abs(want / got - 1.0) <= 1e-6, (side, want, got)


def test_every_row_tail_meets_mpmath_past_the_top():
    # each row's exponent and leading coefficient, the partner rows included:
    # at q = 1.8 the masses past 1e250 are ~1e-500, far below any target,
    # but the leading term must still be the row's own
    q, alpha, beta = 1.8, 0.235 - 0.128j, 0.6 + 0.3j
    tails = moments._stack_tails(((q, alpha, (beta,)),))
    assert len(tails) == 8
    with mpmath.workdps(30):
        rows = _mp_rows(q, alpha, beta)
        for i, (e, log_c) in enumerate(tails):
            want = mpmath.exp(log_c) * (mpmath.mpf(10) ** 250) ** (1 - e) / (e - 1)
            got = _mp_beyond_top(rows, i, e, 1)
            assert abs(want / got - 1) <= 1e-6, (i, want, got)


@pytest.mark.parametrize("tails", [
    5.0,  # not a pair of sides
    ((), ()),  # an empty side
    (((5.0, 0.0),), None),  # a side left out
    (((5.0, 0.0),), ((5.0, 0.0), (4.0, 0.0))),  # sides of different lengths
    (((float("nan"), 0.0),), ((5.0, 0.0),)),  # a NaN exponent
    (((5.0, float("inf")),), ((5.0, 0.0),)),  # an infinite coefficient
    (((5.0,),), ((5.0,),)),  # no coefficient
])
def test_malformed_tails_are_refused(tails):
    spec = quadrature.IntegrandSpec(lambda x: 1.0 / (1.0 + x ** 6), tails=tails)
    with pytest.raises(ValueError, match="tails"):
        integrate_line(spec)


def test_tails_must_name_every_component():
    # two components, one tail each side
    spec = quadrature.IntegrandSpec(lambda x: np.array([1.0, 2.0])[:, None] / (1.0 + x ** 6),
                                    tails=(((6.0, 0.0),), ((6.0, 0.0),)))
    with pytest.raises(ValueError, match="2"):
        integrate_line(spec)


def test_exact_tails_give_the_value_and_the_probed_pass_agrees():
    # 1/(1 + x^6) has the exact tail |x|^(-6) with c = 1
    def f(x):
        return 1.0 / (1.0 + x ** 6)

    exact = quadrature.IntegrandSpec(f, tails=(((6.0, 0.0),), ((6.0, 0.0),)))
    want = 2.0 * math.pi / 3.0
    assert integrate_line(exact, tol=1e-12).value.real == pytest.approx(want, rel=1e-12)
    assert integrate_line(f, tol=1e-12).value.real == pytest.approx(want, rel=1e-12)
