"""State construction: q-exponential, coherent states, the deformed family,
roots, normalization, overlaps, and the lowering-operator eigenproperty.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from qcoherent.errors import (
    OutOfValidityWindow,
    PoleHit,
    ZeroAmplitude,
)
from qcoherent.quadrature import integrate_line
from qcoherent.states import (
    SQRT2,
    StateLabel,
    apply_aq,
    beta_roots,
    coherent_coefficients,
    coherent_psi,
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


def test_psi_un_value_only_matches_full_evaluation_bitwise():
    from qcoherent.states import _psi_un, _psi_un_arrays

    # lanes past |x| = 1e150 are masked to exact zeros
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [1e30, -1e151, 1e250, -1e300]])
    for q, alpha in [(1.0, 0.4 - 0.3j), (1.5, 0.4 + 0.1j), (2.3, -0.7 + 0.2j),
                     (4.2, 1.3j)]:
        v = _psi_un(q, alpha, x)
        assert v.tobytes() == _psi_un_arrays(q, alpha, x)[0].tobytes()
        assert np.all(v[-3:] == 0.0)


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


def test_overlap_rejects_mixed_q():
    with pytest.raises(ValueError):
        overlap(StateLabel(1.3, 0.1), StateLabel(1.4, 0.1))


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
