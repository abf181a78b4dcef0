"""State construction: q-exponential, coherent states, the deformed family,
roots, normalization, overlaps, and the lowering-operator eigenproperty.
"""

import cmath
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qcoherent import closedforms
from qcoherent.errors import (
    ConventionMismatch,
    NotConverged,
    OutOfValidityWindow,
    PoleHit,
    SlowDecay,
    ZeroAmplitude,
)
from qcoherent.closedforms import norm_squared_closed
from qcoherent.limits import limit_convergence_check
from qcoherent.moments import moments_closed, moments_oracle, uncertainty_product
from qcoherent.momentum import (momentum_amplitude_bessel, momentum_amplitude_closed,
                                momentum_amplitude_oracle, momentum_pd)
from qcoherent.quadrature import integrate_line
from qcoherent.states import (
    CONVENTION_TOL,
    SQRT2,
    StateLabel,
    apply_aq,
    beta_roots,
    coherent_coefficients,
    coherent_psi,
    coherent_wavefunction,
    normalization_constant,
    overlap,
    pseudo_coherent_wavefunction,
    psi_unnormalized,
    q_exponential,
    require_window,
)

PI4 = math.pi ** -0.25


# -------------------------------------------------------- q-exponential

def test_q_exponential_values():
    assert q_exponential(1.7, 0.0) == 1.0
    assert q_exponential(1.0, 1.0) == pytest.approx(math.e, rel=1e-15)
    assert q_exponential(1.5, 1.0) == pytest.approx(4.0, rel=1e-15)


def test_q_exponential_approaches_exp():
    # convergence from the deformed side as the index heads to one
    z = 0.35 - 0.8j
    prev = None
    for q in (1.3, 1.1, 1.03, 1.01):
        gap = abs(q_exponential(q, z) - cmath.exp(z))
        if prev is not None:
            assert gap < prev
        prev = gap
    # leading error is (q-1) |z^2 e^z| / 2 ~ 5.4e-3 at q = 1.01
    assert prev < 7e-3


def test_q_exponential_pole():
    # base 1 + (1-q) z = 0 with a negative power diverges
    with pytest.raises(PoleHit):
        q_exponential(1.5, 2.0)


@pytest.mark.parametrize("q, z", [(math.nan, 1.0), (1.5, math.nan), (1.5, math.inf),
                                  (math.inf, 1.0), (1.5, complex(0.0, math.nan))])
def test_q_exponential_refuses_a_q_or_z_that_is_not_finite(q, z):
    with pytest.raises(ValueError, match="must be finite"):
        q_exponential(q, z)


@pytest.mark.parametrize("q, z", [(0.9999, 1e6), (0.5, 1e300), (0.5, -1e300), (1.0, 1e3)])
def test_q_exponential_refuses_an_overflow(q, z):
    with pytest.raises(NotConverged, match="overflows double precision"):
        q_exponential(q, z)


def test_q_exponential_underflows_to_zero():
    # (1 + (1-q) z)^(-2) at q = 1.5: the integer power squares the base on
    # the way, which overflowed to a nan
    for z in (1e300, -1e300):
        assert q_exponential(1.5, z) == 0.0
    assert q_exponential(1.5, 1e150) == pytest.approx(4e-300, rel=1e-14)


def test_q_exponential_is_zero_where_its_base_is_zero_and_its_power_positive():
    # q = 0.5, z = -2: 1 + (1-q) z = 0 and 1/(1-q) = 2
    assert q_exponential(0.5, -2.0) == 0.0


def test_window_guard():
    require_window(1.4, 5.0, "anything")
    with pytest.raises(OutOfValidityWindow):
        require_window(5.0, 5.0, "normalization")
    with pytest.raises(OutOfValidityWindow):
        require_window(0.8, 5.0, "normalization")


# ------------------------------------------------------ coherent states

def test_coherent_psi_ground_state_origin():
    assert coherent_psi(0.0, 0.0) == pytest.approx(PI4, rel=1e-15)


def test_coherent_psi_unit_norm():
    alpha = 0.7 + 0.3j

    def dens(x):
        v = coherent_psi(alpha, x)
        return (v * np.conj(v)).real

    assert integrate_line(dens, tol=1e-11).value.real == pytest.approx(1.0, abs=1e-10)


def test_coherent_psi_lowering_eigenvalue():
    alpha, h = 0.5, 1e-5
    for x in (-1.0, 0.0, 2.0):
        d1 = (coherent_psi(alpha, x + h) - coherent_psi(alpha, x - h)) / (2 * h)
        lhs = (x * coherent_psi(alpha, x) + d1) / SQRT2
        assert abs(lhs - alpha * coherent_psi(alpha, x)) < 1e-9


def test_coherent_psi_is_the_vacuum_moved_to_its_centre():
    # at real alpha the state is the vacuum shifted by sqrt2 alpha, bit for
    # bit; the split prefactor read e^900 e^-900 = nan at alpha = 30
    x = np.linspace(-12.0, 12.0, 49)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.3, -2.5, 30.0, 1e3, -4e8, 1e150):
            for xs in (x, SQRT2 * alpha + x):
                got = coherent_psi(alpha, xs)
                assert got.tobytes() == coherent_psi(0.0, xs - SQRT2 * alpha).tobytes()
        for value in (coherent_psi(30, 42.4), StateLabel(1.0, 30).psi(42.4),
                      coherent_wavefunction(30)(42.4).value):
            assert value == 0.7508637016135873


def test_coherent_psi_against_mpmath_at_complex_alpha():
    rng = np.random.default_rng(20261020)
    with warnings.catch_warnings(), mpmath.workdps(30):
        warnings.simplefilter("error")
        for _ in range(24):
            alpha = 30.0 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            xs = SQRT2 * alpha.real + np.linspace(-6.0, 6.0, 13)
            a = mpmath.mpc(alpha.real, alpha.imag)
            for x, got in zip(xs, coherent_psi(alpha, xs)):
                x = mpmath.mpf(x)
                form = x * x - 2 * mpmath.sqrt(2) * a * x + abs(a) ** 2 + a * a
                want = complex(mpmath.pi ** -0.25 * mpmath.exp(-form / 2))
                assert abs(got - want) <= 1e-13, (alpha, x)
            assert StateLabel(1.0, alpha).psi(xs).tobytes() == coherent_psi(alpha, xs).tobytes()


@pytest.mark.parametrize("alpha", [9e153, -9e153j, 6e153 + 6e153j])
def test_q1_states_are_finite_and_silent_at_the_largest_alphas(alpha):
    x = np.array([-1e300, -3.0, 0.0, 2.5, 1e300]) + SQRT2 * alpha.real
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (coherent_psi(alpha, x), StateLabel(1.0, alpha).psi(x)):
            assert np.isfinite(values).all() and np.abs(values).max() <= PI4
        assert cmath.isfinite(coherent_wavefunction(alpha)(5.0).value)


def test_coherent_coefficients_vacuum_and_poisson():
    cs = coherent_coefficients(0.0, 6)
    assert cs[0] == 1.0 and all(c == 0.0 for c in cs[1:])
    cs = coherent_coefficients(0.7 + 0.3j, 60)
    assert sum(abs(c) ** 2 for c in cs) == pytest.approx(1.0, abs=1e-10)


def test_coherent_coefficients_match_projections():
    from qcoherent.specfun import hermite_function

    alpha = 0.7 + 0.3j
    cs = coherent_coefficients(alpha, 10)
    for n in range(11):
        def f(x, n=n):
            return hermite_function(n, x) * coherent_psi(alpha, x)

        proj = integrate_line(f, tol=1e-12).value
        assert abs(proj - cs[n]) < 1e-8


# ----------------------------------------------------------- beta roots

def test_beta_roots_alpha_zero():
    r = beta_roots(1.5, 0.0)
    # pair membership is the contract; the ordering inside a conjugate
    # pair depends on the sqrt branch at negative reals
    assert {r.beta1, r.beta2} == {2.0j, -2.0j}
    assert {r.beta3, r.beta4} == {2.0j, -2.0j}


def _pinned_alphas():
    rng = np.random.default_rng(16)
    scale = 10.0 ** rng.integers(-3, 4, size=(2000, 1))
    alphas = [complex(a, b) for a, b in rng.standard_normal((2000, 2)) * scale]
    alphas += [complex(v, 0.0) for v in rng.standard_normal(200) * 3.0]
    alphas += [complex(0.0, v) for v in rng.standard_normal(200) * 3.0]
    parts = (0.0, -0.0, 0.7, -0.7, 1e-300, -1e-300, 1e150, -1e150)
    return alphas + [complex(a, b) for a in parts for b in parts]


def test_root_c_is_the_principal_root_bit_for_bit():
    # c is the ket's bracket root turned by -i (or +i); it must equal the
    # principal square root of |alpha|^2 - alpha^2 + 2/(q-1) by repr, signed
    # zeros included
    from qcoherent.states import _root_c

    for q in (1.0001, 1.02, 1.5, 2.0, 2.9, 4.5):
        for alpha in _pinned_alphas():
            want = cmath.sqrt(abs(alpha) ** 2 - alpha * alpha + 2.0 / (q - 1.0))
            assert repr(_root_c(q, alpha)) == repr(want), (q, alpha)


def test_every_bracket_pair_straddles_the_real_axis():
    # Re B >= 1 on the real line, so each bracket has one root in each half
    # plane, and the closed pass takes one log per root pair on that ground;
    # sqrt2 gamma - sr gave both roots one sign at |Im alpha| = 1e150.  The
    # bra pair is the exact conjugate of the ket pair, which the pass reads
    # as the conjugate rows of the ket's logs
    rng = np.random.default_rng(28)
    for q in [1.0 + 2.0 ** -52, 1.0001, 4.999] + list(1.0 + 4.0 * rng.random(5)):
        for alpha in _pinned_alphas():
            r = beta_roots(q, alpha).as_tuple()
            for pair in (r[:2], r[2:]):
                assert min(b.imag for b in pair) < 0.0 < max(b.imag for b in pair), (q, alpha)
            assert r[:2] == tuple(b.conjugate() for b in r[2:]), (q, alpha)


def test_the_root_nearer_the_axis_keeps_its_digits():
    # its imaginary part comes from (Im sr)^2 - 2 (Im gamma)^2 = (Re sr)^2 +
    # 2/(q-1), not from a difference of two near-equal numbers (which lost
    # 2.8e-11 of it at 3 + 1e6i)
    mpmath.mp.dps = 40
    for q, alpha in ((1.5, 3.0 + 1e6j), (1.5, 0.3 + 0.1j), (1.014, 700.0 - 700.0j)):
        a = mpmath.mpc(alpha.real, alpha.imag)
        for got, gamma in ((beta_roots(q, alpha).as_tuple()[:2], mpmath.conj(a)),
                           (beta_roots(q, alpha).as_tuple()[2:], a)):
            sr = mpmath.sqrt(gamma * gamma - abs(a) ** 2 - 2 / mpmath.mpf(q - 1.0))
            for root, want in zip(got, (mpmath.sqrt(2) * gamma + sr, mpmath.sqrt(2) * gamma - sr)):
                assert abs(root - want) <= 1e-15 * abs(want), (q, alpha, root)


def test_beta_roots_vieta():
    q, alpha = 1.3, 0.4 + 0.1j
    r = beta_roots(q, alpha)
    ac = alpha.conjugate()
    two_over = 2.0 / (q - 1.0)
    assert r.beta1 + r.beta2 == pytest.approx(2 * SQRT2 * ac, rel=1e-12)
    assert r.beta1 * r.beta2 == pytest.approx(
        ac * ac + abs(alpha) ** 2 + two_over, rel=1e-12
    )
    assert r.beta3 + r.beta4 == pytest.approx(2 * SQRT2 * alpha, rel=1e-12)
    assert r.beta3 * r.beta4 == pytest.approx(
        alpha * alpha + abs(alpha) ** 2 + two_over, rel=1e-12
    )


def test_beta_roots_conjugate_pairs_for_real_alpha():
    r = beta_roots(1.6, 0.25)
    assert r.beta2 == pytest.approx(r.beta1.conjugate(), rel=1e-14)
    assert r.beta4 == pytest.approx(r.beta3.conjugate(), rel=1e-14)
    # bra pair and ket pair coincide as sets when alpha is real
    assert sorted((r.beta1, r.beta2), key=lambda z: z.imag) == pytest.approx(
        sorted((r.beta3, r.beta4), key=lambda z: z.imag)
    )


def test_beta_roots_reconstruct_quartic():
    q, alpha, x = 1.6, 0.25, 1.7
    s = (q - 1.0) / 2.0
    r = beta_roots(q, alpha)
    lhs = np.prod([x - b for b in r.as_tuple()])
    ac = alpha.conjugate()
    bra = x * x - 2 * SQRT2 * ac * x + abs(alpha) ** 2 + ac * ac + 1.0 / s
    ket = x * x - 2 * SQRT2 * alpha * x + abs(alpha) ** 2 + alpha * alpha + 1.0 / s
    assert lhs == pytest.approx(bra * ket, rel=1e-12)


# ------------------------------------------------------------ raw state

def test_psi_unnormalized_matches_coherent_shape_at_sentinel():
    # the q = 1 path must be exactly proportional to the coherent state
    alpha = 0.4 + 0.2j
    ratios = [
        psi_unnormalized(1.0, alpha, x).value / coherent_psi(alpha, x)
        for x in (-2.0, -0.5, 0.0, 1.0, 2.5)
    ]
    for r in ratios[1:]:
        assert r == pytest.approx(ratios[0], rel=1e-10)


def test_psi_unnormalized_origin_value():
    s = psi_unnormalized(1.5, 0.0, 0.0)
    assert s.value == pytest.approx(1.0, rel=1e-15)
    assert s.x == 0.0


def test_psi_unnormalized_derivatives_match_finite_differences():
    q, alpha, x, h = 1.4, 0.3, 0.8, 1e-4
    s = psi_unnormalized(q, alpha, x)
    vp = psi_unnormalized(q, alpha, x + h).value
    vm = psi_unnormalized(q, alpha, x - h).value
    d1_fd = (vp - vm) / (2 * h)
    d2_fd = (vp - 2 * s.value + vm) / (h * h)
    assert abs(s.d1 - d1_fd) < 1e-6 * abs(s.d1)
    assert abs(s.d2 - d2_fd) < 1e-6 * abs(s.d2)


def test_psi_unnormalized_parity_about_bracket_vertex():
    # for real alpha the density is symmetric about sqrt(2) * alpha
    q, alpha = 1.3, 0.6
    c = SQRT2 * alpha
    for dx in (0.3, 1.1, 2.7):
        left = abs(psi_unnormalized(q, alpha, c - dx).value)
        right = abs(psi_unnormalized(q, alpha, c + dx).value)
        assert left == pytest.approx(right, rel=1e-12)


def _complex_bracket(q, alpha, x):
    # B = 1 + s^2 (w^2 + |alpha|^2 - alpha^2) in plain complex arithmetic,
    # s^2 = (q-1)/2 and w = x - sqrt2 alpha: a reference for moderate |x|
    w = x - SQRT2 * alpha
    return w, 1.0 + 0.5 * (q - 1.0) * (w * w + abs(alpha) ** 2 - alpha * alpha)


_FAR_LANES = [1e30, -1e151, 1e250, -1e300, 1.7976931348623157e308]


def test_psi_un_value_only_matches_full_evaluation_bitwise():
    from qcoherent.states import _psi_un, _psi_un_arrays

    x = np.concatenate([np.linspace(-40.0, 40.0, 801), _FAR_LANES])
    for q, alpha in [(1.0, 0.4 - 0.3j), (1.5, 0.4 + 0.1j), (2.3, -0.7 + 0.2j),
                     (4.2, 1.3j)]:
        v = _psi_un(q, alpha, x)
        assert v.tobytes() == _psi_un_arrays(q, alpha, x)[0].tobytes()
        if q == 1.0:
            # the Gaussian is an exact 0 on every far lane
            assert np.all(v[-len(_FAR_LANES):] == 0.0)
        else:
            # B^(-p) with the principal log of the complex bracket, Re B >= 1
            near = v[:-len(_FAR_LANES)]
            want = np.exp((1.0 / (1.0 - q)) * np.log(_complex_bracket(q, alpha, x[:801])[1]))
            assert np.all(np.abs(near - want) <= 1e-14 * np.abs(want))


def test_psi_un_derivatives_match_the_bracket_powers_bitwise():
    from qcoherent.states import _bracket, _inverse_b, _psi_un_arrays, _States

    # d1 = -(w/B) psi and d2 = (q (w/B)^2 - 1/B) psi, bit for bit, with 1/B
    # and w/B = (x - sqrt2 alpha) (1/B) from the bracket's real parts; on
    # moderate |x| these are the powers -w B^(-p-1) and (q w^2 - B) B^(-p-2)
    x = np.concatenate([np.linspace(-60.0, 60.0, 1201), _FAR_LANES])
    for q, alpha in [(1.5, 0.4 + 0.1j), (2.3, -0.7 + 0.2j), (4.2, 1.3j)]:
        v, d1, d2 = _psi_un_arrays(q, alpha, x)
        st = _States(((q, alpha),))
        _, ratio, inv_re = _bracket(st, x)
        inv_b = _inverse_b(st, ratio, inv_re)
        w_b = (x - SQRT2 * alpha) * inv_b
        assert d1.tobytes() == (-w_b * v).tobytes()
        assert d2.tobytes() == ((q * w_b * w_b - inv_b) * v).tobytes()
        assert all(np.all(np.isfinite(part)) for part in (v, d1, d2))
        w, b = _complex_bracket(q, alpha, x[:1201])
        expo = 1.0 / (1.0 - q)
        log_b = np.log(b)
        want_d1 = -w * np.exp((expo - 1.0) * log_b)
        want_d2 = (q * w * w - b) * np.exp((expo - 2.0) * log_b)
        assert np.all(np.abs(d1[:1201] - want_d1) <= 1e-13 * np.abs(want_d1))
        assert np.all(np.abs(d2[:1201] - want_d2) <= 1e-13 * np.abs(want_d2))


@pytest.mark.parametrize("q", [4.2, 4.9])
def test_psi_far_field_follows_the_power_law(q):
    # |psi_un| -> ((q-1)/2)^(-p) |x|^(-2p): the tails the quadrature samples
    # out to 1e250 are evaluated, not cut off
    from qcoherent.states import _psi_un

    p = 1.0 / (q - 1.0)
    for alpha in (0.4 + 0.1j, 1.3j):
        for x in (1e151, 1e250, 1e300):
            want = ((q - 1.0) / 2.0) ** -p * x ** (-2.0 * p)
            for got in _psi_un(q, alpha, np.array([x, -x])):
                assert abs(abs(got) / want - 1.0) <= 1e-12, (alpha, x, got, want)
            assert abs(abs(psi_unnormalized(q, alpha, x).value) / want - 1.0) <= 1e-12


@pytest.mark.parametrize("q", [1.0, 1.0001, 1.5, 2.3, 4.9, 4.999])
def test_psi_is_finite_without_warnings_at_the_largest_doubles(q):
    from qcoherent.states import _psi_un, _psi_un_arrays

    # finite and silent, and on the far-field law wherever that is a normal
    # double; the q = 1 Gaussian is an exact 0 there
    x = np.array([-1.7976931348623157e308, 1.7976931348623157e308])
    if q == 1.0:
        want = 0.0
    else:
        p = 1.0 / (q - 1.0)
        want = math.exp(-p * math.log(0.5 * (q - 1.0)) - 2.0 * p * math.log(x[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.4 + 0.1j, -1.2 + 0.7j, 1.5j):
            v = _psi_un(q, alpha, x)
            assert np.all(np.abs(np.abs(v) - want) <= 1e-12 * want), (alpha, v, want)
            assert all(np.all(np.isfinite(part)) for part in _psi_un_arrays(q, alpha, x))
            for xi in x:
                s = psi_unnormalized(q, alpha, float(xi))
                assert all(cmath.isfinite(z) for z in (s.value, s.d1, s.d2))
            if q == 1.0:
                assert np.all(StateLabel(q, alpha).psi(x) == 0.0)


def _mp_state(q, alpha, x):
    # (psi_un, d1, d2) at 60 digits from B = 1 + s^2 (x^2 - 2 sqrt2 alpha x +
    # 2 alpha Re alpha), the bracket with |alpha|^2 + alpha^2 cancelled exactly
    mpmath.mp.dps = 60
    a, x, p = mpmath.mpc(alpha.real, alpha.imag), mpmath.mpf(x), 1 / mpmath.mpf(q - 1.0)
    w = x - mpmath.sqrt(2) * a
    b = 1 + (mpmath.mpf(q) - 1) / 2 * (x * x - 2 * mpmath.sqrt(2) * a * x + 2 * a * a.real)
    return b ** -p, -w * b ** (-p - 1), (mpmath.mpf(q) * w * w - b) * b ** (-p - 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, alpha", [(4.999, 1.3e154j), (2.33, 1.3e154j), (1.5, 1e150 + 1e150j),
                                      (1.02, -1e153 - 1e153j)])
def test_a_wide_bracket_ratio_is_finite_silent_and_right(q, alpha):
    # |Im B / Re B| passes 1.3e154 at these labels, and its square overflowed
    # in log|B| and in 1/B; now it is scaled, and the state and its
    # derivatives meet the 60-digit values.  (At the very centre of the
    # 1.3e154j state, x = 0, |d2| = q 2 |alpha|^2 is past the doubles; far
    # out, a part near the bottom of the doubles may underflow on the way,
    # as it does at any alpha.)
    from qcoherent.states import _psi_un_arrays, _States

    assert _States(((q, alpha),)).wide
    centre = alpha.real / SQRT2
    xs = [0.2, centre + 1e-153, centre - 3.0, 1e10, -1e200, 1.7e308]
    got = _psi_un_arrays(q, alpha, np.array(xs))
    for i, x in enumerate(xs):
        for part, want in zip(got, _mp_state(q, alpha, x)):
            assert abs(part[i] - complex(want)) <= 1e-13 * abs(want) + 1e-290, (x, part[i])
    sample = psi_unnormalized(q, alpha, 0.2)
    assert (sample.value, sample.d1, sample.d2) == tuple(part[0] for part in got)


def test_the_scaled_ratio_branch_gives_the_plain_bits_below_two_to_the_500():
    # a wide record takes the scaled branch of log|B| and 1/B for every state
    # it holds; where |Im B / Re B| stays below 2^500, sigma = 1 and that
    # branch gives the plain branch's bytes, so a stack with one wide state
    # leaves every other state its own bits
    from qcoherent.states import _bracket, _inverse_b, _States

    rng = np.random.default_rng(20261021)
    x = np.concatenate([np.linspace(-200.0, 200.0, 2001), _FAR_LANES,
                        [-f for f in _FAR_LANES], [0.0, 3e7, -1e100]])
    scale = np.array([1.0, 1e3, 1e40, 1e70])
    for _ in range(60):
        q = 1.0 + 3.99 * rng.random() + 1e-9
        alpha = complex(*(rng.normal(size=2) * rng.choice(scale, size=2)))
        plain = _States(((q, alpha),))
        assert not plain.wide, (q, alpha)
        scaled = _States(((q, alpha),))
        scaled.wide = True
        log_mod, ratio, inv_re = _bracket(plain, x)
        scaled_parts = _bracket(scaled, x)
        assert log_mod.tobytes() == scaled_parts[0].tobytes(), (q, alpha)
        assert (_inverse_b(plain, ratio, inv_re).tobytes()
                == _inverse_b(scaled, ratio, inv_re).tobytes()), (q, alpha)


@pytest.mark.filterwarnings("error")
def test_state_entry_points_at_a_wide_ratio_are_finite_or_refuse():
    # these warned "overflow encountered in multiply" in the bracket; the
    # closed routes refuse the bracket roots, which overflow at 1.3e154j
    assert cmath.isfinite(normalization_constant(2.33, 1.3e154j))
    for call in (lambda: normalization_constant(2.33, 1.3e154j, method="closed-form"),
                 lambda: momentum_amplitude_closed(2.33, 1.3e154j, 0.7),
                 lambda: momentum_pd(2.33, 1.3e154j)):
        with pytest.raises(NotConverged, match="bracket roots overflow"):
            call()


@pytest.mark.xfail(strict=True, reason="the oracle norm misses a state narrower than its seed "
                   "panels: at 1.3e154j the peak at x = 0 is 4e-155 wide and A reads 8.7e114 "
                   "(ROADMAP item 10)")
def test_oracle_norm_of_a_state_narrower_than_its_panels():
    # n = w int |B(w t)|^(-2p) dt with w = 1/(2 sqrt2 s^2 Im alpha), which
    # mpmath gives as 2.1321e-154 at 40 digits, so A = 6.8485e76
    assert normalization_constant(2.33, 1.3e154j).real == pytest.approx(6.8485e76, rel=1e-4)


@pytest.mark.parametrize("q, alpha", [(4.999, 1.3e154j), (1.0, 1e154j)])
def test_psi_second_derivative_past_the_doubles_is_refused_quietly(q, alpha):
    # |psi''| = q 2 |alpha|^2 at the centre x = 0 is past the doubles: it
    # read -inf+nanj (nan+nanj, normalised) after two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotConverged, match="overflows double precision"):
            psi_unnormalized(q, alpha, 0.0)
        with pytest.raises(NotConverged, match="overflows double precision"):
            pseudo_coherent_wavefunction(q, alpha)(0.0)
        if q != 1.0:
            s = psi_unnormalized(q, alpha, 0.2)
            assert all(cmath.isfinite(z) for z in (s.value, s.d1, s.d2))


def test_coherent_wavefunction_derivatives_are_finite_at_the_largest_doubles():
    from qcoherent.states import coherent_wavefunction

    # d2 = (x - sqrt2 alpha)^2 psi - psi must not square the shift: that
    # overflows past |x| ~ 1.3e154, where psi is 0 and inf * 0 is nan
    f = coherent_wavefunction(0.4 + 0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (-1.7976931348623157e308, -1e160, 1e160, 1.7976931348623157e308):
            s = f(x)
            assert (s.value, s.d1, s.d2) == (0.0, 0.0, 0.0), (x, s)
        for x in (-3.0, 0.0, 2.5, 10.0):
            s = f(x)
            shift = x - SQRT2 * (0.4 + 0.1j)
            assert s.d2 == pytest.approx((shift * shift - 1.0) * s.value, rel=1e-14)


# every public entry point that takes alpha, at the q = 1 sentinel where
# one has a Gaussian dispatch, and those that raised OverflowError at 1e200
_ALPHA_ENTRY_POINTS = {
    "moments_oracle_q1": lambda a: moments_oracle(1.0, a),
    "moments_closed_q1": lambda a: moments_closed(1.0, a),
    "uncertainty_product_q1": lambda a: uncertainty_product(1.0, a),
    "momentum_amplitude_oracle_q1": lambda a: momentum_amplitude_oracle(1.0, a, 0.3),
    "momentum_amplitude_bessel_q1": lambda a: momentum_amplitude_bessel(1.0, a, 0.3),
    "psi_unnormalized_q1": lambda a: psi_unnormalized(1.0, a, 0.2),
    "psi_unnormalized": lambda a: psi_unnormalized(1.5, a, 0.2),
    "pseudo_coherent_wavefunction": lambda a: pseudo_coherent_wavefunction(1.5, a)(0.2),
    "beta_roots": lambda a: beta_roots(1.5, a),
    "coherent_psi": lambda a: coherent_psi(a, 0.0),
    "coherent_coefficients": lambda a: coherent_coefficients(a, 3),
    "normalization_constant": lambda a: normalization_constant(1.5, a),
    "moments_oracle": lambda a: moments_oracle(1.5, a),
    "momentum_pd": lambda a: momentum_pd(1.5, a),
    "norm_squared_closed": lambda a: norm_squared_closed(1.5, a),
    "limit_convergence_check": lambda a: limit_convergence_check(a),
}


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 1j * math.inf, 1e200],
                         ids=["inf", "nan", "1j*inf", "1e200"])
@pytest.mark.parametrize("entry", sorted(_ALPHA_ENTRY_POINTS))
def test_entry_points_refuse_alpha_without_finite_modulus_squared(entry, alpha):
    # nan and infinite alphas came out as nan (or as a report with
    # product 0.5); from |alpha| ~ 1.3e154 abs(alpha) ** 2 overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="alpha must be finite"):
            _ALPHA_ENTRY_POINTS[entry](alpha)


def test_non_finite_q_and_x_are_refused():
    with pytest.raises(OutOfValidityWindow):
        beta_roots(math.nan, 0.3)
    with pytest.raises(ValueError, match="x must be finite"):
        coherent_psi(0.3, math.nan)
    with pytest.raises(ValueError, match="x must be finite"):
        coherent_wavefunction(0.3)(math.nan)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_psi_evaluators_refuse_non_finite_x(x):
    with pytest.raises(ValueError, match="finite"):
        psi_unnormalized(1.5, 0.4 + 0.1j, x)
    with pytest.raises(ValueError, match="finite"):
        pseudo_coherent_wavefunction(1.5, 0.4 + 0.1j)(x)
    for q in (1.0, 1.5):
        label = StateLabel(q, 0.4 + 0.1j)
        with pytest.raises(ValueError, match="finite"):
            label.psi(x)
        with pytest.raises(ValueError, match="finite"):
            label.psi(np.array([0.0, x]))


def test_psi_underflows_to_zero_far_out():
    # the bracket's powers are taken in log form, so huge |x| underflow to 0
    # instead of overflowing into nan with a RuntimeWarning
    label = StateLabel(1.5, 0.4 + 0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e52, 1e78, 1e149):
            assert abs(label.psi(x)) < 1e-200
            s = psi_unnormalized(1.5, 0.4 + 0.1j, x)
            assert all(abs(v) < 1e-200 for v in (s.value, s.d1, s.d2))


def test_psi_unnormalized_window():
    with pytest.raises(OutOfValidityWindow):
        psi_unnormalized(5.2, 0.0, 0.0)


# -------------------------------------------------------- normalization

# frozen oracle outputs (adaptive quadrature at tol=1e-12)
A_FROZEN = {
    (1.5, 0.0): 0.71364964646110951,
    (1.5, 0.4): 0.71364964646110951,   # alpha-independent for real alpha
    (1.3, 0.3): 0.72920748400893332,
    (2.0, 0.5 + 0.2j): 0.67953242271817016,
}


def test_normalization_constant_frozen_values():
    for (q, alpha), want in A_FROZEN.items():
        got = normalization_constant(q, alpha, tol=1e-12)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, rel=1e-11)


def test_normalization_is_never_looser_than_1e_10():
    # A and n2 divide every normalised quantity: a loose tol is tightened
    from qcoherent.closedforms import norm_squared_closed

    q, alpha = 1.5, 0.4 + 0.1j
    for method in ("oracle", "closed-form"):
        assert (normalization_constant(q, alpha, method=method, tol=1e-5)
                == normalization_constant(q, alpha, method=method, tol=1e-10))
    assert norm_squared_closed(q, alpha, tol=1e-5) == norm_squared_closed(q, alpha, tol=1e-10)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
@pytest.mark.parametrize("q", [1.0, 1.5])
def test_the_norm_clamp_rejects_a_tol_that_is_not_positive_and_finite(q, tol):
    # min(tol, 1e-10) would take an infinite tol to 1e-10 and return a value;
    # each route whose tol is the accuracy of a norm refuses it as the
    # integrators do, the q = 1 Gaussian dispatch included
    alpha = 0.3 + 0.1j
    calls = [lambda: normalization_constant(q, alpha, tol=tol),
             lambda: momentum_amplitude_bessel(q, alpha, [0.0, 1.0], tol=tol),
             lambda: momentum_pd(q, alpha, tol=tol),
             lambda: momentum_pd(q, alpha, method="closed-form", tol=tol)]
    if q != 1.0:
        calls += [lambda: normalization_constant(q, alpha, method="closed-form", tol=tol),
                  lambda: norm_squared_closed(q, alpha, tol=tol),
                  lambda: closedforms.overlap_closed(q, alpha, alpha + 0.2, tol=tol),
                  lambda: closedforms._closed_moments(q, alpha, tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            call()


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
@pytest.mark.parametrize("q", [1.0, 1.5])
def test_the_q_one_dispatches_reject_a_tol_that_is_not_positive_and_finite(q, tol):
    # the exact Gaussian dispatch at q = 1 returned a value for any tol
    # (product 0.5, an amplitude, an overlap of 0.980) while every q > 1
    # call refused it; each entry point now checks tol before dispatching
    alpha = 0.3 + 0.1j
    calls = [lambda: moments_oracle(q, alpha, tol=tol),
             lambda: moments_closed(q, alpha, tol=tol),
             lambda: uncertainty_product(q, alpha, tol=tol),
             lambda: momentum_amplitude_oracle(q, alpha, 0.5, tol=tol),
             lambda: momentum_amplitude_oracle(q, alpha, [0.0, 0.5], tol=tol),
             lambda: overlap(StateLabel(q, alpha), StateLabel(q, alpha + 0.2), tol=tol),
             lambda: overlap(StateLabel(q, alpha), StateLabel(q, alpha + 0.2),
                             method="closed-form", tol=tol)]
    if q != 1.0:  # the printed amplitude has no q = 1 dispatch
        calls.append(lambda: momentum_amplitude_closed(q, alpha, 0.5, tol=tol))
    for call in calls:
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            call()


def test_the_kummer_route_takes_a_at_its_own_tol():
    # the printed amplitude's A is normalization_constant's at the call's
    # tol, as the Bessel route's is; it was A at 1e-10 whatever the tol
    from qcoherent import momentum

    q, alpha, k = 1.7, 1.2 - 0.5j, 0.8
    assert normalization_constant(q, alpha, tol=1e-13) != normalization_constant(q, alpha)
    for tol in (1e-10, 1e-13):
        want = momentum._kummer_amplitude(q, alpha, k, normalization_constant(q, alpha, tol=tol),
                                          tol)
        assert momentum_amplitude_closed(q, alpha, k, tol=tol) == want
    assert momentum_amplitude_closed(q, alpha, k) == momentum_amplitude_closed(q, alpha, k, 1e-10)


@pytest.mark.parametrize("q", [1.05, 1.2, 1.5, 2.0, 4.0])
def test_oracle_norm_of_a_state_centred_far_out(q):
    # for real alpha the norm does not depend on alpha; at sqrt2 alpha = 424
    # the oracle read 7.4e-27 (q = 1.05) and 1.6e-11 (q = 1.2), silently,
    # while a state centred past the core |x| <= 96 sat in a power-
    # substituted tail piece, which squeezed its peak between the nodes.
    # Such a state's pass now runs about its centre
    from qcoherent.closedforms import real_alpha_norm_squared_exact
    from qcoherent.states import _norm_integral

    want = real_alpha_norm_squared_exact(q)
    for alpha in (300.0, -1000.0, 1e4):
        assert _norm_integral(q, alpha, 0.0, 1e-10) == pytest.approx(want, rel=1e-10), alpha


@pytest.mark.parametrize("q", [1.014, 1.02, 1.05])
def test_oracle_norm_of_a_narrow_state_next_to_the_core_edge(q):
    # at q = 1.014 and 1.02, alpha = 67 (centre 94.8) read 4e-2 off and
    # alpha = 70 and 100 (centres 99 and 141) 1e0, with no error: the decay
    # probe sampled the + tail below its noise floor and left the side out.
    # The density's exact tails leave a side out only where a bound from
    # Re B >= 1 + s^2 y^2 puts it there
    from qcoherent.closedforms import real_alpha_norm_squared_exact
    from qcoherent.states import _norm_integral

    want = real_alpha_norm_squared_exact(q)
    for alpha in (60.0, 67.0, 70.0, 100.0):
        assert abs(_norm_integral(q, alpha, 0.0, 1e-10) / want - 1.0) <= 1e-14, alpha


@pytest.mark.parametrize("q", [1.0 + 1e-12, 1.0 + 2.0 ** -52])
def test_oracle_norm_just_above_q_one(q):
    # read 4.4e-4 relative off at q = 1 + 1e-12 and a factor 7.4 at
    # q = 1 + 2^-52 (4.4e-6 at 1 + 1e-10), silently, while log B was formed
    # from h = s and the root c rounded apart; log1p(s^2 y^2) keeps it exact
    from qcoherent.closedforms import real_alpha_norm_squared_exact

    want = real_alpha_norm_squared_exact(q) ** -0.5
    assert normalization_constant(q, 0.3).real == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("q", [1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.0 + 1e-10, 1.001, 1.05, 1.5,
                               2.32, 3.0, 4.5])
def test_oracle_norm_meets_the_exact_norm_from_q_one_up(q):
    # the bracket's real part 1 + s^2 y^2 goes through log1p, so the norm
    # pass is as exact at q = 1 + 2^-52 as at q = 4.5
    from qcoherent.closedforms import real_alpha_norm_squared_exact
    from qcoherent.states import _norm_integral

    want = real_alpha_norm_squared_exact(q)
    for alpha in (0.0, 0.3, -1.2):
        assert abs(_norm_integral(q, alpha, 0.0, 1e-10) / want - 1.0) <= 1e-14, alpha


def test_normalization_constant_rejects_non_finite_alpha():
    for alpha in (math.nan, complex(0.3, math.inf)):
        for method in ("oracle", "closed-form"):
            with pytest.raises(ValueError):
                normalization_constant(1.5, alpha, method=method)


def test_normalization_constant_unit_norm():
    q, alpha = 1.5, 0.0
    a_const = normalization_constant(q, alpha, tol=1e-11)

    def dens(x):
        v = np.asarray([psi_unnormalized(q, alpha, xi).value for xi in np.atleast_1d(x)])
        return (abs(a_const) ** 2) * (v * np.conj(v)).real

    total = integrate_line(dens, tol=1e-10).value.real
    assert total == pytest.approx(1.0, abs=1e-8)


def test_normalization_scale_homogeneity():
    # doubling the raw amplitude must halve the normalizing constant
    q, alpha = 1.5, 0.3
    from qcoherent.states import _psi_un_arrays

    def dens(scale):
        def f(x):
            v, _, _ = _psi_un_arrays(q, alpha, x)
            return (scale * v) * np.conj(scale * v)

        return integrate_line(f, tol=1e-11).value.real

    a1 = dens(1.0) ** -0.5
    a2 = dens(2.0) ** -0.5
    assert a2 == pytest.approx(a1 / 2.0, rel=1e-10)


@pytest.mark.parametrize("q, tol, bound", [(4.8, 1e-10, 1e-12), (1.0001, 1e-12, 1e-13),
                                           (1.001, 1e-12, 1e-13), (1.01, 1e-12, 1e-13),
                                           (1.05, 1e-12, 1e-13)])
def test_norm_oracle_meets_the_exact_real_alpha_norm(q, tol, bound):
    # int |psi_un|^2 dx = sqrt(2 pi / (q-1)) Gamma(2p - 1/2) / Gamma(2p) for
    # real alpha; the slow |x|^(-4/(q-1)) tail must be integrated, not cut off
    from qcoherent.states import _norm_integral

    with mpmath.workdps(40):
        p = 1 / (mpmath.mpf(q) - 1)
        want = float(mpmath.sqrt(2 * mpmath.pi * p) * mpmath.gamma(2 * p - 0.5)
                     / mpmath.gamma(2 * p))
    assert abs(_norm_integral(q, 0.3, 0.0, tol) / want - 1.0) <= bound


@pytest.mark.parametrize("q", [4.9, 4.95])
def test_norm_oracle_refuses_a_tail_it_cannot_bound(q):
    # the |x|^(-4/(q-1)) tail's mass past 1e250, which no panel samples, is
    # bounded by 2.6e-5 at q = 4.9 and 0.096 at 4.95, far above the 1e-10
    # target; the integrals there are 3.8e-7 and 6.8e-4 off, relative
    with pytest.raises(SlowDecay, match="beyond"):
        normalization_constant(q, 0.3)


def test_normalization_sentinel_is_quarter_power_of_pi():
    # multiplying convention: the raw q=1 state normalizes with pi^(-1/4)
    # (its reciprocal pi^(1/4) is the dividing convention's constant)
    a_const = normalization_constant(1.0, 0.2 + 0.1j)
    assert a_const == pytest.approx(PI4, rel=1e-12)


def test_normalization_closed_matches_oracle_on_grid():
    for q in (1.2, 1.4, 1.6, 2.0):
        for alpha in (0.0, 0.5, 0.5 + 0.2j):
            a_o = normalization_constant(q, alpha, method="oracle", tol=1e-11)
            a_c = normalization_constant(q, alpha, method="closed-form", tol=1e-11)
            assert abs(a_c - a_o) <= 1e-8 * abs(a_o)


def test_normalization_real_alpha_independent_of_alpha():
    vals = [normalization_constant(1.7, a, tol=1e-11).real for a in (0.0, 0.35, 1.1)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[2] == pytest.approx(vals[0], rel=1e-9)


def test_state_label_caches_unit_norm():
    s = StateLabel(1.4, 0.25 + 0.1j)
    assert s.norm_constant.real > 0.0

    def dens(x):
        v = np.asarray([s.psi(xi) for xi in np.atleast_1d(x)])
        return (v * np.conj(v)).real

    assert integrate_line(dens, tol=1e-9).value.real == pytest.approx(1.0, abs=1e-7)


def test_state_label_computes_its_norm_whatever_it_was_copied_from():
    # the constant is no argument, so a replaced label cannot carry the
    # old label's constant
    s = StateLabel(1.5, 0.3 + 0.4j)
    moved, deformed = replace(s, alpha=2 + 1.5j), replace(s, q=2.2)
    assert moved.norm_constant == StateLabel(1.5, 2 + 1.5j).norm_constant
    assert deformed.norm_constant == StateLabel(2.2, 0.3 + 0.4j).norm_constant
    assert moved.norm_constant.real == pytest.approx(1.4414, abs=1e-4)
    assert deformed.norm_constant.real == pytest.approx(0.6803, abs=1e-4)
    with pytest.raises(TypeError):
        StateLabel(1.5, 0.3, 0.7)


@pytest.mark.parametrize("dev, refused", [(0.9, False), (1.1, True)])
def test_closed_norm_gate_refuses_just_past_convention_tol(monkeypatch, dev, refused):
    # a closed n2 whose A is off the oracle's by dev * CONVENTION_TOL
    q, alpha = 1.5, 0.4 + 0.1j
    a_oracle = normalization_constant(q, alpha).real
    monkeypatch.setattr(closedforms, "norm_squared_closed",
                        lambda *args, **kw: (a_oracle * (1.0 + dev * CONVENTION_TOL)) ** -2)
    if refused:
        with pytest.raises(ConventionMismatch, match=r"at q=1\.5, alpha=\(0\.4\+0\.1j\)"):
            normalization_constant(q, alpha, method="closed-form")
    else:
        a_closed = normalization_constant(q, alpha, method="closed-form")
        assert abs(a_closed / a_oracle - 1.0) == pytest.approx(dev * CONVENTION_TOL, rel=1e-6)


@pytest.mark.parametrize("dev, refused", [(0.9, False), (1.1, True)])
def test_closed_overlap_gate_refuses_just_past_convention_tol(monkeypatch, dev, refused):
    # a closed overlap off the oracle's by dev * CONVENTION_TOL
    a, b = StateLabel(1.5, 0.4 + 0.1j), StateLabel(1.5, -0.3 + 0.2j)
    ref = overlap(a, b)
    raw = ref / (a.norm_constant * b.norm_constant) * (1.0 + dev * CONVENTION_TOL)
    monkeypatch.setattr(closedforms, "overlap_closed", lambda *args, **kw: raw)
    if refused:
        with pytest.raises(ConventionMismatch,
                           match=r"at q=1\.5, alpha_a=\(0\.4\+0\.1j\), alpha_b=\(-0\.3\+0\.2j\)"):
            overlap(a, b, method="closed-form")
    else:
        got = overlap(a, b, method="closed-form")
        assert abs(got / ref - 1.0) == pytest.approx(dev * CONVENTION_TOL, rel=1e-6)


# -------------------------------------------------------------- overlap

def test_overlap_self_is_one():
    s = StateLabel(1.5, 0.5)
    assert overlap(s, s, tol=1e-10) == pytest.approx(1.0, abs=1e-9)


def test_overlap_hermiticity():
    a = StateLabel(1.4, 0.3)
    b = StateLabel(1.4, -0.2)
    ab = overlap(a, b, tol=1e-11)
    ba = overlap(b, a, tol=1e-11)
    assert ab == pytest.approx(ba.conjugate(), rel=1e-9)
    # frozen oracle value (tol=1e-12); real by symmetry of the pair
    assert ab == pytest.approx(0.91162607959372599 + 0.0j, rel=1e-9)


def test_overlap_distinct_states_not_orthogonal_not_unit():
    a = StateLabel(1.5, 0.5)
    b = StateLabel(1.5, -0.5)
    v = overlap(a, b, tol=1e-10)
    assert 0.0 < abs(v) < 1.0


def test_overlap_injective_labels_on_grid():
    # distinct labels never collapse onto the same ray: off-diagonal
    # overlap modulus stays strictly below one
    labels = [StateLabel(1.5, a) for a in (0.0, 0.4, -0.4, 0.3 + 0.2j)]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            assert abs(overlap(a, b, tol=1e-9)) < 1.0 - 1e-6


def test_overlap_closed_form_matches_oracle():
    a = StateLabel(1.4, 0.3)
    b = StateLabel(1.4, -0.2)
    v_o = overlap(a, b, method="oracle", tol=1e-11)
    v_c = overlap(a, b, method="closed-form", tol=1e-11)
    assert abs(v_c - v_o) <= 1e-8 * max(1.0, abs(v_o))


def test_overlap_sentinel_exact_formula():
    a = StateLabel(1.0, 0.6)
    b = StateLabel(1.0, -0.1 + 0.2j)
    want = cmath.exp(
        a.alpha.conjugate() * b.alpha
        - 0.5 * abs(a.alpha) ** 2
        - 0.5 * abs(b.alpha) ** 2
    )
    assert overlap(a, b) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("aa, ab", [
    (1e154, 1e154 + 0.5j), (1e8, 1e8 + 0.2j), (1e3, 1e3 + 0.2), (0.6, -0.1 + 0.2j),
    (-3.0 + 4.0j, 2.0 - 1.5j), (1e150, -1e150), (6e153 + 6e153j, -6e153 - 6e153j),
])
def test_overlap_sentinel_about_the_first_centre(aa, ab):
    # the three terms of size |alpha|^2 summed to 1 at (1e154, 1e154 + 0.5j),
    # where |<a|b>| = e^(-1/8), and raised OverflowError at a huge gap
    with mpmath.workdps(800):
        a, b = mpmath.mpc(aa.real, aa.imag), mpmath.mpc(ab.real, ab.imag)
        want = complex(mpmath.exp(mpmath.conj(a) * b - abs(a) ** 2 / 2 - abs(b) ** 2 / 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = overlap(StateLabel(1.0, aa), StateLabel(1.0, ab))
    eps = np.finfo(float).eps
    assert abs(abs(got) - abs(want)) <= 2 * eps * abs(want)
    # the phase Im(conj(alpha_a) (alpha_b - alpha_a)) is one rounded product
    assert abs(got - want) <= 2 * eps * (1.0 + abs(aa) * abs(ab - aa)) * abs(want)


def test_sentinel_normalization_is_the_gaussian_constant_by_both_methods():
    for method in ("oracle", "closed-form"):
        for alpha in (0.0, 0.4 + 0.2j, -3e100j):
            assert normalization_constant(1.0, alpha, method=method) == complex(PI4)


def test_overlap_rejects_mixed_q():
    with pytest.raises(ValueError):
        overlap(StateLabel(1.3, 0.1), StateLabel(1.4, 0.1))


@pytest.mark.parametrize("call", [
    lambda m: normalization_constant(1.5, 0.3, method=m),
    lambda m: normalization_constant(1.0, 0.3, method=m),
    lambda m: overlap(StateLabel(1.5, 0.3), StateLabel(1.5, 0.4), method=m),
    lambda m: uncertainty_product(1.5, 0.3, method=m),
    lambda m: momentum_pd(1.5, 0.3, method=m),
])
def test_an_unknown_method_is_refused(call):
    with pytest.raises(ValueError, match="unknown method 'exact'"):
        call("exact")


def test_the_closed_routes_return_at_q_one_and_above():
    assert uncertainty_product(1.5, 0.3, "closed-form") == pytest.approx(
        uncertainty_product(1.5, 0.3), rel=1e-6)
    assert moments_closed(1.0, 0.3 + 0.2j).product == 0.5


@pytest.mark.parametrize("grid", [[0.5], np.zeros((2, 3))])
def test_momentum_pd_refuses_a_grid_that_is_not_1d_with_two_points(grid):
    with pytest.raises(ValueError, match="1-d grid with at least two points"):
        momentum_pd(1.5, 0.3, grid)


# ----------------------------------------------------- lowering operator

def test_apply_aq_sentinel_reduces_to_annihilation():
    from qcoherent.states import coherent_wavefunction

    alpha = 0.4
    f = coherent_wavefunction(alpha)
    for x in (-1.0, 0.5, 2.0):
        got = apply_aq(1.0, f, x)
        assert abs(got - alpha * f(x).value) < 1e-10


def test_apply_aq_eigenproperty_on_grid():
    for q in (1.3, 1.7):
        for alpha in (0.3, 0.3 + 0.1j):
            f = pseudo_coherent_wavefunction(q, alpha)
            for x in (-2.0, -0.7, 0.0, 0.9, 2.0):
                fx = f(x).value
                res = abs(apply_aq(q, f, x) - alpha * fx)
                assert res <= 1e-8 * abs(alpha * fx)


def test_apply_aq_zero_eigenvalue():
    f = pseudo_coherent_wavefunction(1.5, 0.0)
    for x in (-1.0, 0.0, 1.3):
        assert abs(apply_aq(1.5, f, x)) < 1e-12


def test_apply_aq_zero_amplitude_guard():
    from qcoherent.states import WaveFunctionSample

    dead = lambda x: WaveFunctionSample(x, 0.0 + 0.0j, 1.0 + 0.0j, 0.0 + 0.0j)
    with pytest.raises(ZeroAmplitude):
        apply_aq(1.5, dead, 0.7)
