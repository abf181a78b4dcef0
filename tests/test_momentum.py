"""Momentum-space amplitude and probability distribution.

The Bessel-K form is the engine of ``momentum_pd``; the Fourier-quadrature
oracle is its independent check.  The printed closed form is implemented as
published and tested for exactly the behavior the library documents: finite
values, |k| symmetry, and the k -> 0 discrepancy against the oracle that the
verify report records.
"""

import cmath
import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from qcoherent.errors import NotConverged, NumericsError, OutOfValidityWindow
from qcoherent.momentum import (
    MomentumDistribution,
    MomentumSample,
    default_k_grid,
    grid_momentum_moments,
    momentum_amplitude_bessel,
    momentum_amplitude_closed,
    momentum_amplitude_oracle,
    momentum_pd,
)
from qcoherent.quadrature import IntegrandSpec, integrate_interval
from qcoherent.states import coherent_psi, normalization_constant

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


# SHA-256 of scalar oracle amplitudes, pinned when the oracle was
# vectorised over k (a number k keeps the one-k-at-a-time transform's bits)
# and re-pinned when the state came to be evaluated as B = 1 + s^2 u
ORACLE_SHA256 = {
    (1.5, 0.3 + 0.1j, 0.8, 1e-9):
        "627b11b82488600641b0e7ce53b6925578eae9cd8992c26dc74883072b91999f",
    (2.2, -1.2 + 0.2j, 2.0, 1e-9):
        "367cfc57e9a7aaf40c843618ed35beb41c28442169efcf17cf93afd4c6c16a8f",
    (1.1, 0.5 - 0.1j, 0.01, 1e-10):
        "b7984eb3be5f5989b793cdad4a73efebcaf53e1776017ccb594565ba7e15cc90",
}


@pytest.mark.parametrize("q, alpha, k, tol", list(ORACLE_SHA256))
def test_scalar_oracle_keeps_its_frozen_bits(q, alpha, k, tol):
    got = momentum_amplitude_oracle(q, alpha, k, tol=tol)
    assert type(got) is complex
    assert hashlib.sha256(np.complex128(got).tobytes()).hexdigest() == ORACLE_SHA256[
        q, alpha, k, tol]


def _seeded_labels(n):
    # q in (1.05, 2.3), |alpha| <= 1.5, the window of the moments cross-check
    rng = np.random.default_rng(20261019)
    labels = []
    while len(labels) < n:
        alpha = complex(*(3.0 * rng.random(2) - 1.5))
        if abs(alpha) <= 1.5:
            labels.append((1.05 + 1.25 * rng.random(), alpha))
    return labels


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_oracle_vector_route_matches_the_scalar_route_and_bessel(tol):
    # verify's three k take one vector call per grid point.  The shared pass
    # refines on the union of the k's panels, so trailing digits move: by
    # about 5e-16 at most over these labels, far below tol
    ks = np.array([0.8, 2.0, 0.01])
    for q, alpha in _seeded_labels(100):
        vector = momentum_amplitude_oracle(q, alpha, ks, tol=tol)
        scalar = np.array([momentum_amplitude_oracle(q, alpha, k, tol=tol)
                           for k in ks.tolist()])
        bessel = momentum_amplitude_bessel(q, alpha, ks, tol=tol)
        assert np.all(np.abs(vector - scalar) <= 1e-14 * np.maximum(1.0, np.abs(scalar)))
        for route in (vector, scalar):
            assert np.all(np.abs(route - bessel) <= 10.0 * tol * np.maximum(1.0, np.abs(bessel)))


@pytest.mark.parametrize("qs, alpha", [((1.2, 1.7, 2.2), 0.3 + 0.1j), ((1.05, 2.9), -1.2 + 0.2j),
                                       ((1.5, 1.5 + 1e-12), 0.0)])
def test_psi_transforms_over_several_q_are_each_qs_rows(qs, alpha):
    # several q are one stacked evaluator, q a column against x, whose rows
    # are each q's own _psi_un bit for bit: the pass gives the bits of the
    # pass over the q-by-q rows.  Each q is its one-q call within the tol:
    # the shared pass refines on every q's panels, and a k's tails sum on
    # until every q's have met their targets (1.5e-12 apart at q = 1.7)
    from qcoherent import momentum
    from qcoherent.quadrature import fourier_transform_line
    from qcoherent.states import _psi_un

    ks = np.array([0.8, 2.0, 0.01])
    got = momentum._psi_transforms(qs, alpha, ks, 1e-10)
    core = max(16.0, 8.0 + 4.0 * abs(alpha))
    want = fourier_transform_line(lambda x: np.array([_psi_un(q, alpha, x) for q in qs]), ks,
                                  tol=1e-10, core_halfwidth=core).value
    assert got.tobytes() == want.tobytes()
    for q, row in zip(qs, got):
        own = momentum._psi_transforms((q,), alpha, ks, 1e-10)[0]
        assert np.all(np.abs(row - own) <= 1e-10 * np.maximum(1.0, np.abs(own)))


def test_oracle_k_array_with_zeros_and_a_repeat_is_the_scalar_calls():
    # one distinct k != 0: the vector call keeps the scalar calls' bits
    q, alpha = 1.6, 0.4 - 0.2j
    got = momentum_amplitude_oracle(q, alpha, [0.0, 0.8, -0.0, 0.8])
    zero, wave = (momentum_amplitude_oracle(q, alpha, k) for k in (0.0, 0.8))
    assert got.tobytes() == np.array([zero, wave, zero, wave]).tobytes()


def test_oracle_returns_a_complex_for_a_number_and_an_array_otherwise():
    for q in (1.0, 1.5):
        one = momentum_amplitude_oracle(q, 0.3 + 0.1j, 0.8)
        many = momentum_amplitude_oracle(q, 0.3 + 0.1j, np.array([0.8, -1.3]))
        assert type(one) is complex
        assert isinstance(many, np.ndarray) and many.shape == (2,)
        assert many[0] == pytest.approx(one, rel=1e-12)


@pytest.mark.parametrize("k", [[0.8, math.nan], np.array([math.inf, 2.0])])
def test_oracle_rejects_a_non_finite_k_in_an_array(k):
    for q in (1.0, 1.5):
        with pytest.raises(ValueError, match="k must be finite"):
            momentum_amplitude_oracle(q, 0.3, k)


def test_oracle_refuses_a_huge_k_before_allocating():
    # the Fourier core's half-period panels overran numpy's array size
    with pytest.raises(NotConverged, match="more than max_evals"):
        momentum_amplitude_oracle(1.5, 0.3 + 0.1j, 1e300)


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
    # each sample is an immutable (k, amplitude, pd, method) with pd the
    # Python abs of the amplitude squared, bit for bit (np.abs differs in
    # the last bit on about a third of these amplitudes)
    dist = momentum_pd(1.4, 0.3, tol=1e-9)
    assert isinstance(dist, MomentumDistribution)
    assert abs(dist.parseval_total - 1.0) < 1e-4
    assert MomentumSample._fields == ("k", "amplitude", "pd", "method")
    for sample, want_k in zip(dist.samples, default_k_grid(0.3).tolist(), strict=True):
        k, amplitude, pd, method = sample
        assert type(sample) is MomentumSample
        assert (k, method) == (want_k, "oracle") and type(amplitude) is complex
        assert pd == abs(amplitude) ** 2
    with pytest.raises(AttributeError):
        dist.samples[0].pd = 0.0


def test_pd_centre_sample_matches_k_zero():
    # linspace rounds this default grid's centre to about -1.8e-15
    alpha = 2.250025j
    centre = momentum_pd(1.5, alpha).samples[200]
    assert centre.k != 0.0 and abs(centre.k) < 1e-14
    want = momentum_amplitude_oracle(1.5, alpha, 0.0)
    assert centre.amplitude == pytest.approx(want, rel=1e-8)


def test_pd_runs_no_fourier_quadrature(monkeypatch):
    # samples and Parseval total both come from the Bessel form: a Fourier
    # quadrature anywhere on the path would raise here
    from qcoherent import momentum

    def refuse(*args, **kwargs):
        raise AssertionError("momentum_pd ran a Fourier quadrature")

    monkeypatch.setattr(momentum, "fourier_transform_line", refuse)
    monkeypatch.setattr(momentum, "momentum_amplitude_oracle", refuse)
    dist = momentum_pd(1.7, 0.3 + 0.1j)
    assert len(dist.samples) == 401
    assert abs(dist.parseval_total - 1.0) < 1e-6


def test_pd_takes_the_normalisation_once(monkeypatch):
    # A and the other k-independent factors of the Bessel form are taken
    # once per distribution, not once per Parseval generation; the samples
    # and the total keep their bits
    from qcoherent import momentum

    q, alpha = 1.9, -1.2 + 0.7j
    want = momentum_pd(q, alpha)
    calls = []
    real = momentum.normalization_constant
    monkeypatch.setattr(momentum, "normalization_constant",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    dist = momentum_pd(q, alpha)
    assert len(calls) == 1
    assert dist == want
    assert np.array_equal(dist.amplitude_values,
                          momentum_amplitude_bessel(q, alpha, dist.k_values, tol=1e-9))


@pytest.mark.parametrize("q", [1.05, 1.3, 1.5, 2.0, 2.5, 2.9])
@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.1j, -1.2 + 0.7j, 1.5j])
def test_bessel_matches_oracle(q, alpha):
    # absolute floor: the oracle's relative error grows where |phi| < 1e-10
    ks = np.array([0.0, 1e-15, -1e-15, 0.01, -0.8, 2.0, 5.0])
    got = momentum_amplitude_bessel(q, alpha, ks, tol=1e-11)
    for k, amp in zip(ks, got):
        want = momentum_amplitude_oracle(q, alpha, float(k), tol=1e-11)
        assert abs(amp - want) <= 1e-10 * max(1.0, abs(want)), (k, amp, want)
        assert amp == pytest.approx(momentum_amplitude_bessel(q, alpha, float(k), tol=1e-11),
                                    rel=1e-14)


@pytest.mark.parametrize("q", [1.2, 1.7, 2.2])
@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.1j, -1.2 + 0.2j])
def test_bessel_vector_call_is_the_scalar_calls_bitwise(q, alpha):
    # verify takes its three Bessel entries from one vectorised call; its
    # report bytes hold only if each element is the scalar call's value
    ks = (0.8, 2.0, 0.01)
    got = momentum_amplitude_bessel(q, alpha, np.array(ks), tol=1e-8)
    want = np.array([momentum_amplitude_bessel(q, alpha, k, tol=1e-8) for k in ks])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [1.001, 1.005, 1.01, 1.02])
def test_bessel_large_orders_are_finite(q):
    # K_{p-1/2} overflows scipy's kve here for small |k|; the amplitude does not
    alpha = 0.3 + 0.1j
    ks = np.array([0.0, 1e-15, 1e-6, 0.01, 0.5, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = momentum_amplitude_bessel(q, alpha, ks)
    assert np.all(np.isfinite(got)) and abs(got[0]) > 0.5
    for k, amp in zip(ks, got):
        try:
            want = momentum_amplitude_oracle(q, alpha, float(k), tol=1e-11)
        except NumericsError:
            continue
        assert abs(amp - want) <= 1e-10 * max(1.0, abs(want)), (k, amp, want)


@pytest.mark.parametrize("q", [1.001, 1.01, 1.3])
def test_bessel_k_zero_amplitude_holds_its_gamma_ratio(q):
    # for real alpha phi(0) = A Gamma(p - 1/2) / (Gamma(p) sqrt(q-1)); the
    # Gamma ratio at p = 1000 lost 9.9e-13 as a loggamma difference
    a_const = normalization_constant(q, 0.3)
    with mpmath.workdps(40):
        p = 1 / (mpmath.mpf(q) - 1)
        ratio = mpmath.gamma(p - 0.5) / mpmath.gamma(p) * mpmath.sqrt(p)
    got = momentum_amplitude_bessel(q, 0.3, 0.0) / a_const
    assert abs(got / float(ratio) - 1.0) <= 2e-15


def test_bessel_sentinel_and_guards():
    ks = np.array([-1.3, 0.0, 2.5])
    want = [momentum_amplitude_oracle(1.0, 0.4 + 0.3j, float(k)) for k in ks]
    np.testing.assert_allclose(momentum_amplitude_bessel(1.0, 0.4 + 0.3j, ks), want,
                               rtol=1e-14)
    with pytest.raises(OutOfValidityWindow):
        momentum_amplitude_bessel(3.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        momentum_amplitude_bessel(1.5, 0.3, [0.0, math.inf])


def test_bessel_large_k_decays_without_warnings():
    # exp(sqrt2 Im(alpha) k) alone would overflow at k = 800; it shares one
    # exponent with K's faster decay, so the amplitude is finite and tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = momentum_amplitude_bessel(1.5, 0.2 + 1.5j, np.array([-1e9, -800.0, 800.0, 1e9]))
    assert np.all(np.isfinite(got)) and np.all(np.abs(got) < 1e-250)


@pytest.mark.parametrize("q", [1.02, 1.5, 2.9])
def test_bessel_is_zero_and_silent_at_huge_finite_k(q):
    # c|k| and sqrt2 alpha k overflow near the largest doubles, and 8 c|k| in
    # the Hankel branch before them; the amplitude there is 0 to any precision
    ks = [1e8, 1e300, 1e307, 1.7e308, -1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = momentum_amplitude_bessel(q, 0.5 + 0.2j, np.array(ks))
        scalars = [momentum_amplitude_bessel(q, 0.5 + 0.2j, k) for k in ks]
    assert np.all(got == 0.0) and all(v == 0.0 for v in scalars)


def test_bessel_amplitude_is_finite_below_kves_range():
    # phi(k) at k ~ 1e-305 read inf or nan below order 1 (q > 5/3)
    q, alpha = 2.5, 0.3 + 0.2j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = momentum_amplitude_bessel(q, alpha, np.array([1e-300, 1e-305, 1e-307, 5e-324]))
    np.testing.assert_allclose(got, momentum_amplitude_bessel(q, alpha, 0.0), rtol=1e-15)


@pytest.mark.parametrize("q, alpha", [(2.3, 1.5j), (2.15, 1.5j), (2.99, 0.5)])
def test_parseval_window_follows_the_decay_rate(q, alpha):
    # |phi|^2 ~ exp(-2 (Re c - sqrt2 |Im alpha|) |k|) decays slowly at these
    # labels; the old fixed window +-(8 + 2|alpha|) missed 1.5e-4 at the first
    dist = momentum_pd(q, alpha)
    assert dist.k_values[-1] == 8.0 + 2.0 * abs(alpha)
    assert abs(dist.parseval_total - 1.0) < 1e-6


@pytest.mark.parametrize("half", [1e6, 1e12, 8.98e307])
def test_parseval_total_closes_on_a_wide_grid(half):
    # a window stretched over the grid spread the one pass's panels too thin
    # to see the peak near k = 0: +-1e12 read 8.0e-12, with no error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1.05, 1.5, 2.9):
            dist = momentum_pd(q, 0.5 + 0.2j, k_grid=[-half, 0.0, half])
            assert abs(dist.parseval_total - 1.0) < 1e-4, q


@pytest.mark.parametrize("q, alpha", [(1.05, 0.3 + 0.1j), (1.9, -1.2 + 0.7j), (2.5, 1.5j),
                                      (2.97, 0.4)])
def test_folded_parseval_total_is_the_unfolded_integral(q, alpha):
    # the pass integrates pd(k) + pd(-k) over [0, own]; its reference is the
    # unfolded integral over [-own, own] with both sides of k = 0 graded
    from qcoherent import momentum

    amplitudes, _ = momentum._bessel_amplitudes(
        q, alpha, normalization_constant(q, alpha, tol=1e-9))
    rate = 2.0 * (momentum._root_c(q, alpha).real - SQRT2 * abs(alpha.imag))
    own = max(8.0 + 2.0 * abs(alpha), 40.0 / rate)
    spec = IntegrandSpec(lambda ks: np.abs(amplitudes(ks)) ** 2, singularities=(0.0,))
    want = integrate_interval(spec, -own, own, tol=1e-12).value.real
    assert abs(momentum_pd(q, alpha).parseval_total - want) < 1e-9


@pytest.mark.parametrize("q, alpha", [(1.0, 0.3 + 0.1j), (1.02, -0.7 + 0.2j),
                                      (1.5, 2.250025j), (2.6, 1.1), (2.97, -0.4 - 1.3j)])
def test_mirrored_amplitudes_are_the_amplitudes_at_both_signs(q, alpha):
    # the folded Parseval integrand takes g(c|k|) once for k and -k: its
    # amplitudes, and the folded density, are those of one call on
    # concatenate([k, -k]) bit for bit (k = 0 and a k past the live bound
    # included)
    from qcoherent import momentum

    amplitudes, mirrored = momentum._bessel_amplitudes(
        q, alpha, normalization_constant(q, alpha, tol=1e-9))
    rng = np.random.default_rng(7)
    ks = np.concatenate([[0.0, 1e-300, 3e-9, 1e40], rng.uniform(0.0, 30.0, 40)])
    plus, minus = mirrored(ks)
    both = amplitudes(np.concatenate([ks, -ks]))
    assert np.array_equal(plus, both[:ks.size]) and np.array_equal(minus, both[ks.size:])
    folded = np.abs(plus) ** 2 + np.abs(minus) ** 2
    d = np.abs(both) ** 2
    assert folded.tobytes() == (d[:ks.size] + d[ks.size:]).tobytes()


def _sha256(dist):
    h = hashlib.sha256()
    for field in ("k", "amplitude", "pd"):
        h.update(np.array([getattr(s, field) for s in dist.samples]).tobytes())
    h.update(np.float64(dist.parseval_total).tobytes())
    return h.hexdigest()


# SHA-256 of the samples and the Parseval total of momentum_pd at three
# labels, pinned when the Bessel pass, the samples and the Parseval fold
# were last made faster with every output kept to its bit, and re-pinned
# when the state came to be evaluated as B = 1 + s^2 u, which moves the
# oracle norm A.  A change that moves them must re-pin them and say so.
# The grid centre of 2.250025i is -1.8e-15, not 0, so its amplitudes take
# the unpatched Bessel pass.
PD_SHA256 = {
    (1.02, 0.7 + 0.3j): "7449aa3673275f293f7b401b13fc7c0b1d529983704f29a58fc538b686a54b69",
    (1.5, 2.250025j): "a041726da5c93ff9f7a8664508da6b1439d7aa21b5b0fba7487f67a4762876e0",
    (2.6, -0.8 + 0.4j): "c1cd4b738096dd088849d7d7965eb5f6870af604cf1d8ae87b17cd63ad55a2ae",
}
PD_CLI_SHA256 = "ac5ce2edbd6a1262aa0ff65bace673b2d210aff99f98626f78953e046cc9e425"


@pytest.mark.parametrize("q, alpha", list(PD_SHA256))
def test_pd_keeps_its_frozen_bits(q, alpha):
    assert _sha256(momentum_pd(q, alpha)) == PD_SHA256[q, alpha]


def test_pd_cli_keeps_its_frozen_bytes(capsys):
    from qcoherent import cli

    assert cli.main(["pd", "--q", "1.5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PD_CLI_SHA256


def test_pd_of_a_state_centred_far_out_closes():
    # parseval_total read 2.4e26, with nothing to say that it is wrong, while
    # the norm pass was centred on x = 0 and the state (centre 424) sat in a
    # power-substituted tail piece; the pass now runs about the centre
    assert abs(momentum_pd(1.05, 300.0).parseval_total - 1.0) < 1e-4


@pytest.mark.parametrize("q", [1.0 + 1e-12, 1.0 + 2.0 ** -52])
def test_pd_just_above_q_one_closes(q):
    # parseval_total read 1 + 8.9e-4 at q = 1 + 1e-12 and 54.6 at 1 + 2^-52
    # while the oracle norm lost log B to rounding just above q = 1
    assert abs(momentum_pd(q, 0.3).parseval_total - 1.0) < 1e-4


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
    zero = dist.samples[1]
    assert zero == (0.0, 0j, 0.0, "closed-form") and type(zero.amplitude) is complex


def test_pd_refuses_a_decay_rate_that_cancels():
    # rate = 2 (Re c - sqrt2 |Im alpha|) reads 0 at 1e9j (and below 0 at
    # 3e8j): the Parseval window 40 / rate raised a bare ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e9j, 3e8j, -1e8j):
            with pytest.raises(NotConverged, match="decay rate"):
                momentum_pd(1.5, alpha)


def test_bessel_amplitude_refuses_a_decay_rate_that_cancels():
    # the public amplitude shares momentum_pd's refusal: at q = 1.5 the rate
    # reads 0 at 1e8j and 1e9j and below 0 at 3e8j and 3e9j, where the
    # amplitude peaked at e^10 and 6.2e27 with no error, and at 3e9j warned
    # of an overflow in exp and returned inf.  At 1e4j the rate is 2.8e-4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e8j, 3e8j, 1e9j, 3e9j):
            with pytest.raises(NotConverged, match="decay rate"):
                momentum_amplitude_bessel(1.5, alpha, default_k_grid(alpha))
        got = momentum_amplitude_bessel(1.5, 1e4j, default_k_grid(1e4j))
    assert np.all(np.isfinite(got)) and abs(got[200]) > 0.0


@pytest.mark.parametrize("alpha", [9e153j, -9e153j, 6e153 + 6e153j, 0.4 - 30j])
def test_sentinel_amplitude_is_the_coherent_state_at_minus_i_alpha(alpha):
    # the Gaussian transform formed k^2, alpha^2 and |alpha|^2 on their own,
    # and read nan at its own peak k = sqrt2 Im alpha from |alpha| ~ 1e154
    ks = SQRT2 * alpha.imag + np.linspace(-3.0, 3.0, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (momentum_amplitude_bessel, momentum_amplitude_oracle):
            got = route(1.0, alpha, ks)
            assert got.tobytes() == coherent_psi(-1j * alpha, ks).tobytes()
            assert abs(route(1.0, alpha, ks[6])) == pytest.approx(math.pi ** -0.25, rel=1e-15)


def test_pd_window():
    with pytest.raises(OutOfValidityWindow):
        momentum_pd(5.5, 0.0)
    for bad in ([0.0, math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(ValueError):
            momentum_pd(1.5, 0.3, bad)
