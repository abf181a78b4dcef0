"""Closed-form moment integrals assembled from Lauricella F_D blocks.

Every physics integral this package needs has the shape

    I(m) = int_{-inf}^{inf} x^m prod_i (x - beta_i)^(-b_i) dx,

with the beta_i strictly off the real axis.  Splitting at the origin and
substituting x = s/(1-s) on each half gives one Euler-type kernel per
half, i.e. one Lauricella F_D value per half:

    I(m) = Beta(S-m-1, m+1) * [ F_D(S-m-1; b; S; 1+beta)
             + (-1)^m * Phi * F_D(S-m-1; b; S; 1-beta) ],

where S = sum(b_i) and Phi = prod_i exp(i pi b_i sign(Im beta_i)) carries
the branch phases picked up when the reflected half crosses the cuts.
The first term alone (the positive half-line piece) is a competing
convention found in the literature for the same quantities; which of the
two conventions this package treats as "the" closed form is not assumed
but *calibrated*: both candidates are evaluated once against the direct
quadrature oracle at a single anchor point and the winner is cached.
The rejected convention stays available (``reflection=False``) so the
verification report can quantify its deviation rather than hide it.

Requirements inherited from the derivation: Re(S) > m + 1 for
convergence at infinity (this is exactly the q-window arithmetic of the
moment suite), and Im(beta_i) != 0 so no factor has a real-line cut.

Every public closed form (norm, position moments, both momentum
numerators, overlap) is one call to the private ``_bracket_integral``,
which returns ((q-1)/2)^(-S/2) * sum_m c_m I(m): each state bracket is
(q-1)/2 times a monic quadratic in x, raised to -b over its root pair,
so a product of brackets with exponent sum S carries that scale.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from scipy.special import loggamma

from .errors import BranchCrossing, ConventionMismatch, NotConverged, OutOfValidityWindow
from .quadrature import integrate_line
from .specfun import LauricellaArgs, lauricella_fd
from .states import SQRT2, _pair_roots, _psi_un_density

__all__ = [
    "CALIBRATION_ANCHOR_Q",
    "CALIBRATION_ANCHOR_ALPHA",
    "calibrated_reflection",
    "line_power_moment",
    "norm_squared_closed",
    "position_moment_closed",
    "momentum_first_closed",
    "momentum_second_closed",
    "overlap_closed",
    "real_alpha_norm_squared_exact",
]

CALIBRATION_ANCHOR_Q = 1.2
CALIBRATION_ANCHOR_ALPHA = 0.3 + 0.0j


def _scaled(log_scale, value: complex) -> complex:
    """exp(log_scale) * value computed in log space; exact zero passes through."""
    if value == 0.0:
        return 0.0 + 0.0j
    z = complex(log_scale) + cmath.log(complex(value))
    if z.real > 700.0:
        raise NotConverged("closed-form value overflows double precision")
    return cmath.exp(z)


def line_power_moment(m: int, bvec, betas, tol: float = 1e-10,
                      reflection: bool | None = None) -> complex:
    """int x^m prod (x - beta_i)^(-b_i) dx over the whole real line.

    ``reflection=None`` uses the calibrated convention; False evaluates
    only the positive half-line piece (the competing printed form).
    """
    if m < 0:
        raise ValueError("moment order must be >= 0")
    bvec = tuple(complex(b) for b in bvec)
    betas = tuple(complex(b) for b in betas)
    if any(b.imag == 0.0 for b in betas):
        raise BranchCrossing("a root sits on the real axis; the factorisation has a cut")
    if reflection is None:
        reflection = calibrated_reflection()
    big_s = sum(bvec)
    a = big_s - m - 1.0
    if a.real <= 0.0:
        raise OutOfValidityWindow(
            f"moment of order {m} diverges at infinity (needs Re(sum b) > {m + 1})"
        )
    log_beta = loggamma(a) + loggamma(m + 1.0) - loggamma(big_s)
    plus = lauricella_fd(
        LauricellaArgs(a, bvec, big_s, tuple(1.0 + b for b in betas)), tol=tol
    ).value
    total = plus
    if reflection:
        phase = 1.0 + 0.0j
        for b, beta in zip(bvec, betas):
            phase *= cmath.exp(1j * math.pi * b * math.copysign(1.0, beta.imag))
        minus = lauricella_fd(
            LauricellaArgs(a, bvec, big_s, tuple(1.0 - b for b in betas)), tol=tol
        ).value
        total = plus + (-1.0) ** m * phase * minus
    return _scaled(log_beta, total)


@lru_cache(maxsize=1)
def calibrated_reflection() -> bool:
    """Pick the half-line vs with-reflection convention against the oracle.

    Evaluated once at the anchor (q=1.2, alpha=0.3): the direct
    |psi|^2 quadrature decides; an 1e-8 agreement is demanded of the
    winner.  Result is cached for the process lifetime.
    """
    q, alpha = CALIBRATION_ANCHOR_Q, CALIBRATION_ANCHOR_ALPHA
    oracle = integrate_line(lambda x: _psi_un_density(q, alpha, x), tol=1e-12).value.real
    devs = {}
    for refl in (False, True):
        val = norm_squared_closed(q, alpha, 1e-12, reflection=refl)
        devs[refl] = abs(val - oracle) / abs(oracle)
    winner = min(devs, key=devs.get)
    if devs[winner] > 1e-8:
        raise ConventionMismatch(
            f"neither closed-form convention matches the oracle at the anchor: {devs}"
        )
    return winner


def _window(q: float, upper: float, what: str) -> None:
    if not (1.0 < q < upper):
        raise OutOfValidityWindow(f"{what} needs 1 < q < {upper:.6g}; got q={q:.6g}")


def _bracket_integral(q: float, alpha_bra: complex, alpha_ket: complex, coeffs,
                      tol: float, reflection: bool | None,
                      bra_shift: int = 0, ket_shift: int = 0) -> complex:
    """((q-1)/2)^(-sum(b)/2) * sum_m c_m int x^m prod_i (x - beta_i)^(-b_i) dx.

    conj(psi_un[alpha_bra]) contributes its root pair with b = p + bra_shift,
    psi_un[alpha_ket] its pair with b = p + ket_shift (p = 1/(q-1); a shift
    of one per derivative taken); ``coeffs`` maps each power m to c_m.  Each
    bracket is (q-1)/2 times its monic quadratic, hence the scale.
    """
    p = 1.0 / (q - 1.0)
    betas = (_pair_roots(q, alpha_bra.conjugate(), abs(alpha_bra) ** 2)
             + _pair_roots(q, alpha_ket, abs(alpha_ket) ** 2))
    bvec = (p + bra_shift, p + bra_shift, p + ket_shift, p + ket_shift)
    log_scale = -(2.0 * p + (bra_shift + ket_shift)) * math.log(0.5 * (q - 1.0))
    total = sum(c * line_power_moment(m, bvec, betas, tol, reflection=reflection)
                for m, c in coeffs.items())
    return _scaled(log_scale, total)


def norm_squared_closed(q: float, alpha: complex, tol: float = 1e-10,
                        reflection: bool | None = None) -> complex:
    """int |psi_un|^2 dx in closed form (q < 5), at min(tol, 1e-10): the
    norm divides every normalised quantity."""
    _window(q, 5.0, "closed-form norm")
    alpha = complex(alpha)
    return _bracket_integral(q, alpha, alpha, {0: 1.0}, min(tol, 1e-10), reflection)


def position_moment_closed(q: float, alpha: complex, m: int, tol: float = 1e-10,
                           reflection: bool | None = None) -> complex:
    """int x^m |psi_un|^2 dx in closed form; window q < 1 + 4/(m+1) ... m<=2 intended."""
    upper = {0: 5.0, 1: 3.0, 2: 7.0 / 3.0}.get(m)
    if upper is None:
        raise ValueError("position moments implemented for m in {0, 1, 2}")
    _window(q, upper, f"closed-form <x^{m}>")
    alpha = complex(alpha)
    return _bracket_integral(q, alpha, alpha, {m: 1.0}, tol, reflection)


def momentum_first_closed(q: float, alpha: complex, tol: float = 1e-10,
                          reflection: bool | None = None) -> complex:
    """-i * int conj(psi_un) psi_un' dx in closed form (q < 5).

    psi_un' = -(x - sqrt2 alpha) * ket_bracket^(-p-1), so the integrand is
    a degree-(0 or 1) moment over the root family b = (p, p, p+1, p+1).
    """
    _window(q, 5.0, "closed-form <p>")
    alpha = complex(alpha)
    return 1j * _bracket_integral(q, alpha, alpha, {1: 1.0, 0: -SQRT2 * alpha},
                                  tol, reflection, ket_shift=1)


def momentum_second_closed(q: float, alpha: complex, tol: float = 1e-10,
                           reflection: bool | None = None) -> complex:
    """int |psi_un'|^2 dx in closed form (q < 5).

    |psi_un'|^2 = (x - sqrt2 conj(alpha))(x - sqrt2 alpha) *
    prod (x - beta_i)^(-(p+1)), a quadratic over the uniform b = p+1 family.
    """
    _window(q, 5.0, "closed-form <p^2>")
    alpha = complex(alpha)
    coeffs = {2: 1.0, 1: -SQRT2 * (alpha + alpha.conjugate()), 0: 2.0 * abs(alpha) ** 2}
    return _bracket_integral(q, alpha, alpha, coeffs, tol, reflection,
                             bra_shift=1, ket_shift=1)


def overlap_closed(q: float, alpha_a: complex, alpha_b: complex,
                   tol: float = 1e-10, reflection: bool | None = None) -> complex:
    """int conj(psi_un[alpha_a]) psi_un[alpha_b] dx in closed form (q < 5).

    The bra contributes the root pair of its conjugated bracket, the ket
    its own pair; same uniform b = p weight as the norm.
    """
    _window(q, 5.0, "closed-form overlap")
    return _bracket_integral(q, complex(alpha_a), complex(alpha_b), {0: 1.0},
                             tol, reflection)


def real_alpha_norm_squared_exact(q: float) -> float:
    """For real alpha the norm integral is elementary:

        int (1 + (q-1)/2 x^2)^(-2/(q-1)) dx
            = sqrt(2 pi / (q-1)) * Gamma(2p - 1/2) / Gamma(2p),

    independent of alpha (the shift x -> x + sqrt2 alpha removes it).
    Pins the Lauricella route against something derived with no shared code.
    """
    _window(q, 5.0, "real-alpha exact norm")
    p = 1.0 / (q - 1.0)
    return math.sqrt(2.0 * math.pi / (q - 1.0)) * math.exp(
        loggamma(2.0 * p - 0.5) - loggamma(2.0 * p)
    )
