"""Closed-form moment integrals from one vector Euler pass per state.

Every physics integral this package needs has the shape

    I(m) = int_{-inf}^{inf} x^m prod_i (x - beta_i)^(-b_i) dx,

with the beta_i strictly off the real axis.  Splitting at the origin and
substituting x = s/(1-s) on each half gives one Euler-type kernel per
half, i.e. one Lauricella F_D value per half:

    I(m) = Beta(S-m-1, m+1) * [ F_D(S-m-1; b; S; 1+beta)
             + (-1)^m * Phi * F_D(S-m-1; b; S; 1-beta) ],

where S = sum(b_i) and Phi = prod_i exp(i pi b_i sign(Im beta_i)) carries
the branch phases picked up when the reflected half crosses the cuts.
The F_D prefactor Gamma(S)/(Gamma(S-m-1)Gamma(m+1)) is exactly 1/Beta,
so neither is ever formed: each half is the bare integral

    int_0^1 u^(S-m-2) (1-u)^m prod_i (1 - u x_i)^(-b_i) du,
    x_i = 1 + beta_i (plus half) or 1 - beta_i (reflected half).

The first term alone (the positive half-line piece) is a competing
convention found in the literature for the same quantities; which of the
two conventions this package treats as "the" closed form is not assumed
but *calibrated*: both candidates are evaluated once against the direct
quadrature oracle at a single anchor point and the winner is cached.
The rejected convention stays available (``_closed_moments`` returns the
plus halves of the norm and of <x>) so the verification report can
quantify its deviation rather than hide it.

Requirements inherited from the derivation: Re(S) > m + 1 for
convergence at infinity (this is exactly the q-window arithmetic of the
moment suite), and Im(beta_i) != 0 so no factor has a real-line cut.

One private builder, ``_state_halves``, takes every (alpha_bra, alpha_ket,
bra_shift, ket_shift, coefficient map) term and returns each term's plus
and reflected half of ((q-1)/2)^(-S/2) * sum_m c_m I(m): each state
bracket is (q-1)/2 times a monic quadratic in x, raised to -b over its
root pair, so a product of brackets with exponent sum S carries that
scale.  Its rows, one per (term, half, power m), are the rows of a single
log-space ``specfun._euler_integral`` pass; the scale joins each row's
log, so no value over- or underflows on the way.  Each bracket's roots
straddle the real axis, so its branch phases cancel, and a row's log
takes one complex log a node per distinct root pair and half,
log((1 - x_1 u)(1 - x_2 u)) (``_bracket_logs``): a bra pair is the
conjugate of its state's ket pair and reads the conjugate logs.  That is
two logs a node for one state, four for two.  Three views read it:
``norm_squared_closed`` and ``overlap_closed`` take the norm's row
(``_norm_halves``, which the calibration reads too), and
``_closed_moments`` takes all five moment terms of a state from one call
(``moments_closed`` reads it), with the overlap of the state with each
partner it is given in the same pass (``verify`` reads its moments and
its overlap with alpha + 0.2 so).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import BranchCrossing, ConventionMismatch, NotConverged
from .specfun import _euler_integral, _log_gamma_ratio_half
from .states import (Q_NORMALIZABLE_MAX, SQRT2, _norm_integral, _norm_tol, _pair_roots,
                     _require_open_window, require_alpha)

__all__ = [
    "CALIBRATION_ANCHOR_Q",
    "CALIBRATION_ANCHOR_ALPHA",
    "calibrated_reflection",
    "norm_squared_closed",
    "overlap_closed",
    "real_alpha_norm_squared_exact",
]

CALIBRATION_ANCHOR_Q = 1.2
CALIBRATION_ANCHOR_ALPHA = 0.3 + 0.0j


def _bracket_logs(pairs: list):
    """u -> the log table, shape (4 len(pairs), n): log((1 - x_1 u)(1 - x_2 u))
    for each root pair (beta_1, beta_2) of ``pairs``, at x = 1 + beta (plus
    half), then at x = 1 - beta (reflected half), then the conjugates of
    those rows, which are the same logs for the conjugate pairs.

    One complex log per pair, half and node stands in for log(1 - x_1 u) +
    log(1 - x_2 u).  Re B >= 1 on the real line, so each bracket has one
    root in each half plane; for u in (0, 1] the two factors' imaginary
    parts then have opposite signs, their arguments sum to a value inside
    (-pi, pi), and the principal log of the product is the sum of the
    principal logs.  A pair that does not straddle the real axis raises
    BranchCrossing, and one whose product can overflow (|1 - x u| <=
    2 + |beta| on [0, 1]) NotConverged, before any log is taken.
    """
    for beta_1, beta_2 in pairs:
        if not min(beta_1.imag, beta_2.imag) < 0.0 < max(beta_1.imag, beta_2.imag):
            raise BranchCrossing(f"bracket roots {beta_1}, {beta_2} do not straddle the real axis")
        if not math.isfinite((2.0 + abs(beta_1)) * (2.0 + abs(beta_2))):
            raise NotConverged(f"the product over bracket roots {beta_1}, {beta_2} "
                               "overflows double precision")
    x_1, x_2 = (np.concatenate([1.0 + r, 1.0 - r])[:, None] for r in np.array(pairs).T)

    def logs(u):
        log = np.log((1.0 - x_1 * u) * (1.0 - x_2 * u))
        return np.concatenate([log, log.conj()])

    return logs


def _state_halves(q: float, terms, tol: float) -> np.ndarray:
    """(len(terms), 2) array: each (alpha_bra, alpha_ket, bra_shift,
    ket_shift, coeffs) term's plus and reflected half of
    ((q-1)/2)^(-S/2) * sum_m c_m I(m), from one Euler pass with a plus and a
    reflected row per (term, m), a = S-m-1, c = S.

    conj(psi_un[alpha_bra]) contributes its root pair with b = p + bra_shift,
    psi_un[alpha_ket] its pair with b = p + ket_shift (p = 1/(q-1); a shift
    of one per derivative taken); ``coeffs`` maps each power m to c_m.  The
    row logs come from ``_bracket_logs``, with one root pair per distinct
    state: the bra pair of a state is the exact conjugate of its ket pair,
    so it reads the conjugate rows.  That is two complex logs a node for
    one state and four for two.  Every pair straddles the real axis, so the
    branch phases prod_i exp(i pi b_i sign(Im beta_i)) cancel within each
    pair and the reflected rows take none.  Each term's halves add its
    rows' c_m-weighted values in row order.
    """
    p = 1.0 / (q - 1.0)
    states = list(dict.fromkeys(alpha for bra, ket, *_ in terms for alpha in (bra, ket)))
    n = len(states)
    owner, bra_col, b_bra, ket_col, b_ket, shifts, m, c_m = map(np.array, zip(*[
        (t, states.index(bra) + 2 * n, p + bra_shift, states.index(ket), p + ket_shift,
         bra_shift + ket_shift, m, c_m)
        for t, (bra, ket, bra_shift, ket_shift, coeffs) in enumerate(terms)
        for m, c_m in coeffs.items()]))
    k = len(m)
    r = np.arange(k)
    weights = np.zeros((2 * k, 4 * n), dtype=complex)  # log table columns as in _bracket_logs
    for half in (0, 1):
        weights[r + half * k, bra_col + half * n] = b_bra
        weights[r + half * k, ket_col + half * n] = b_ket
    big_s = b_bra + b_bra + b_ket + b_ket
    a, c = np.concatenate([big_s - m - 1.0] * 2), np.concatenate([big_s] * 2)
    # ((q-1)/2)^(-S/2): each bracket is (q-1)/2 times a monic quadratic
    offsets = np.concatenate([-(2.0 * p + shifts) * math.log(0.5 * (q - 1.0))] * 2)[:, None]
    logs = _bracket_logs([_pair_roots(q, alpha, abs(alpha) ** 2) for alpha in states])
    res = _euler_integral(lambda u: offsets - weights @ logs(u), a, c, tol, "closed-form")
    rows = zip(owner.tolist(), (c_m * res.value[:k]).tolist(),
               (c_m * (-1.0) ** m * res.value[k:]).tolist())
    out = [[0j, 0j] for _ in terms]
    for t, plus, minus in rows:
        out[t][0] += plus
        out[t][1] += minus
    return np.array(out)


def _norm_halves(q: float, alpha_bra: complex, alpha_ket: complex, tol: float) -> np.ndarray:
    """Plus and reflected half of int conj(psi_un[alpha_bra]) psi_un[alpha_ket] dx."""
    return _state_halves(q, [(alpha_bra, alpha_ket, 0, 0, {0: 1.0})], tol)[0]


def _whole(halves) -> complex:
    """The calibrated convention from a (plus, minus) pair."""
    return complex(halves[0] + halves[1] if calibrated_reflection() else halves[0])


def _whole_norm(halves, q: float, alpha: complex) -> complex:
    """The closed n2 of one state from its (plus, minus) pair.  A pass that
    underflows reads 0j, so a norm that is zero, not finite or has
    Re n2 <= 0 raises ConventionMismatch, as the oracle norm does when it
    is not positive."""
    n2 = _whole(halves)
    if not (cmath.isfinite(n2) and n2.real > 0.0):
        raise ConventionMismatch(
            f"closed norm came out zero, non-finite or non-positive at q={q!r}, "
            f"alpha={alpha!r}: {n2!r}")
    return n2


@lru_cache(maxsize=1)
def calibrated_reflection() -> bool:
    """Pick the half-line vs with-reflection convention against the oracle.

    Evaluated once at the anchor (q=1.2, alpha=0.3): the direct
    |psi|^2 quadrature decides; an 1e-8 agreement is demanded of the
    winner.  Result is cached for the process lifetime.
    """
    q, alpha = CALIBRATION_ANCHOR_Q, CALIBRATION_ANCHOR_ALPHA
    oracle = _norm_integral(q, alpha.real, alpha.imag, 1e-12)
    plus, minus = _norm_halves(q, alpha, alpha, 1e-12)
    devs = {refl: abs(val - oracle) / abs(oracle)
            for refl, val in ((False, plus), (True, plus + minus))}
    winner = min(devs, key=devs.get)
    if devs[winner] > 1e-8:
        raise ConventionMismatch(
            f"neither closed-form convention matches the oracle at the anchor: {devs}"
        )
    return winner


def _moment_terms(alpha: complex) -> list:
    """The (alpha, alpha, bra_shift, ket_shift, coeffs) terms of the
    numerators of n2, <x>, <x^2>, <p> and <p^2>, in that order.

    psi_un' = -(x - sqrt2 alpha) * ket_bracket^(-p-1), so -i conj(psi_un)
    psi_un' is a degree-(0 or 1) moment over b = (p, p, p+1, p+1), and
    |psi_un'|^2 = (x - sqrt2 conj(alpha))(x - sqrt2 alpha) * prod (x -
    beta_i)^(-(p+1)) a quadratic over the uniform b = p+1 family.
    """
    return [(alpha, alpha, *term) for term in (
        (0, 0, {0: 1.0}), (0, 0, {1: 1.0}), (0, 0, {2: 1.0}),
        (0, 1, {1: 1j, 0: -1j * SQRT2 * alpha}),
        (1, 1, {2: 1.0, 1: -SQRT2 * (alpha + alpha.conjugate()), 0: 2.0 * abs(alpha) ** 2}))]


def _closed_moments(q: float, alpha: complex, tol: float, *partners):
    """(n2, (<x>, <x^2>, <p>, <p^2>), (n2_half, <x>_half)) of one state,
    from one closed pass at min(tol, 1e-10), the norm's accuracy; unchecked.

    n2 = int |psi_un|^2 dx under the calibrated convention; each moment is
    its closed numerator over n2, still complex.  The third item repeats
    n2 and <x> from the plus halves alone (the half-line convention).  Each
    partner state adds one more item, the overlap_closed value of alpha
    with it, from the same pass.
    """
    alpha = require_alpha(alpha)
    halves = _state_halves(q, _moment_terms(alpha) + [(alpha, require_alpha(b), 0, 0, {0: 1.0})
                                                      for b in partners], _norm_tol(tol))
    n2 = _whole_norm(halves[0], q, alpha)
    return (n2, tuple(_whole(h) / n2 for h in halves[1:5]),
            (halves[0][0], halves[1][0] / halves[0][0]), *map(_whole, halves[5:]))


def norm_squared_closed(q: float, alpha: complex, tol: float = 1e-10) -> complex:
    """int |psi_un|^2 dx in closed form (q < 5), at min(tol, 1e-10): the
    norm divides every normalised quantity."""
    _require_open_window(q, Q_NORMALIZABLE_MAX, "closed-form norm")
    alpha = require_alpha(alpha)
    return _whole_norm(_norm_halves(q, alpha, alpha, _norm_tol(tol)), q, alpha)


def overlap_closed(q: float, alpha_a: complex, alpha_b: complex,
                   tol: float = 1e-10) -> complex:
    """int conj(psi_un[alpha_a]) psi_un[alpha_b] dx in closed form (q < 5):
    the norm's row across two states, at the norm's min(tol, 1e-10)."""
    _require_open_window(q, Q_NORMALIZABLE_MAX, "closed-form overlap")
    alpha_a, alpha_b = require_alpha(alpha_a), require_alpha(alpha_b)
    return _whole(_norm_halves(q, alpha_a, alpha_b, _norm_tol(tol)))


def real_alpha_norm_squared_exact(q: float) -> float:
    """For real alpha the norm integral is elementary:

        int (1 + (q-1)/2 x^2)^(-2/(q-1)) dx
            = sqrt(2 pi / (q-1)) * Gamma(2p - 1/2) / Gamma(2p),

    independent of alpha (the shift x -> x + sqrt2 alpha removes it).
    Pins the Lauricella route against something derived with no shared code.
    """
    _require_open_window(q, Q_NORMALIZABLE_MAX, "real-alpha exact norm")
    p = 1.0 / (q - 1.0)
    return math.sqrt(2.0 * math.pi / (q - 1.0)) * math.exp(_log_gamma_ratio_half(2.0 * p))
