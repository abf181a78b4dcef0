"""Deformed (q-exponential) analogues of harmonic-oscillator coherent states.

The central object is the one-parameter family

    psi(x) = A(q, alpha) * [1 + (q-1)/2 * (x^2 - 2*sqrt2*alpha*x
                                           + |alpha|^2 + alpha^2)]^(1/(1-q)),

which reduces to the ordinary coherent state as q -> 1 and develops
power-law tails |psi|^2 ~ |x|^(-4/(q-1)) for q > 1.  That tail sets the
validity windows enforced here: normalisable for q < 5, finite second
position moment for q < 7/3.  ``q == 1.0`` is an exact sentinel that
dispatches to the Gaussian exp(-W/2) rather than the deformed bracket,
with W formed once, about the state's centre (``_gauss_form``).

The quartic |psi|^2 factors over four complex roots

    beta_{1,2} = sqrt2*conj(alpha) +- sqrt(conj(alpha)^2 - |alpha|^2 - 2/(q-1))
    beta_{3,4} = sqrt2*alpha       +- sqrt(alpha^2      - |alpha|^2 - 2/(q-1))

(principal square roots), which feed every Lauricella closed form in
``closedforms``.  The state itself is evaluated at every finite x in real
arithmetic, from B = 1 + s^2 u with s^2 = (q-1)/2 (``_bracket``): Re B >= 1,
so B has no real root and its principal argument crosses no cut, and
log|B| goes through log1p, exact as q -> 1 and finite out to the largest
doubles; only ``quadrature`` decides where the sampled line ends.  Every
evaluation reads its per-state constants from one ``_States`` record,
formed once per pass for one state or a stack of them; a stack evaluates
every state at once and gives each the bits it has on its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    ConventionMismatch,
    NotConverged,
    OutOfValidityWindow,
    PoleHit,
    ZeroAmplitude,
)
from .quadrature import _check_index, _check_tol, integrate_line

__all__ = [
    "SQRT2",
    "Q_NORMALIZABLE_MAX",
    "Q_MOMENT_SUITE_MAX",
    "CONVENTION_TOL",
    "BetaRoots",
    "WaveFunctionSample",
    "StateLabel",
    "q_exponential",
    "coherent_psi",
    "coherent_coefficients",
    "beta_roots",
    "psi_unnormalized",
    "normalization_constant",
    "overlap",
    "apply_aq",
    "coherent_wavefunction",
    "pseudo_coherent_wavefunction",
]

SQRT2 = math.sqrt(2.0)
Q_NORMALIZABLE_MAX = 5.0        # |psi|^2 ~ |x|^(-4/(q-1)) integrable iff q < 5
Q_MOMENT_SUITE_MAX = 7.0 / 3.0  # x^2 |psi|^2 integrable iff q < 7/3
CONVENTION_TOL = 1e-5           # closed form vs oracle acceptance threshold


def require_window(q: float, upper: float, what: str) -> None:
    """Raise OutOfValidityWindow unless 1 <= q < upper (q = 1 is the sentinel)."""
    if not (1.0 <= q < upper):
        raise OutOfValidityWindow(
            f"{what} requires 1 <= q < {upper:.6g}; got q={q:.6g}"
        )


def _require_open_window(q: float, upper: float, what: str) -> None:
    """Raise OutOfValidityWindow unless 1 < q < upper: the closed forms,
    which have no q = 1 sentinel."""
    if not (1.0 < q < upper):
        raise OutOfValidityWindow(f"{what} needs 1 < q < {upper:.6g}; got q={q:.6g}")


def require_alpha(alpha) -> complex:
    """complex(alpha); ValueError unless |alpha|^2 is a finite double.

    Every public entry point that takes alpha starts here, the q = 1
    Gaussian dispatch included: a nan or infinite alpha would come out as
    nan, and from |alpha| ~ 1.3e154 the formulas' abs(alpha) ** 2 overflows.
    """
    alpha = complex(alpha)
    try:
        modsq = abs(alpha) ** 2
    except OverflowError:
        modsq = math.inf
    if not math.isfinite(modsq):
        raise ValueError(f"alpha must be finite, with a finite |alpha|^2; got {alpha}")
    return alpha


def q_exponential(q: float, z: complex) -> complex:
    """Deformed exponential e_q(z) = [1 + (1-q) z]^(1/(1-q)), principal branch.

    Continuous limit e_1(z) = exp(z); PoleHit when the base vanishes while
    the exponent is negative (q > 1); ValueError for a q or z that is not
    finite; NotConverged where the value overflows double precision.
    """
    z = complex(z)
    if not (math.isfinite(q) and cmath.isfinite(z)):
        raise ValueError(f"q and z must be finite; got q={q!r}, z={z!r}")
    base = 1.0 + (1.0 - q) * z
    if base == 0.0:  # never at q = 1, where the base is 1
        if 1.0 / (1.0 - q) < 0.0:
            raise PoleHit(f"e_q pole: 1 + (1-q) z = 0 at z={z}")
        return 0.0 + 0.0j
    try:
        if q == 1.0:
            return cmath.exp(z)
        value = base ** (1.0 / (1.0 - q))
        if not cmath.isfinite(value):  # an integer power formed |base|^n on the way
            value = cmath.exp(cmath.log(base) / (1.0 - q))
    except OverflowError:
        raise NotConverged(f"e_q(z) at q={q!r}, z={z!r} overflows double precision") from None
    return value


def _gauss_form(alpha: complex, x):
    """The q = 1 state's quadratic form x^2 - 2 sqrt2 alpha x + |alpha|^2 +
    alpha^2, written about its centre sqrt2 Re alpha:

        W = y^2 - 2i Im alpha (sqrt2 y + Re alpha),   y = x - sqrt2 Re alpha.

    |exp(-W/2)| = exp(-y^2/2) is 0 in doubles past |y| = 40, so y is clipped
    there: that leaves every value as it is, and |Im W| <= 2 |Im alpha|
    (57 + |Re alpha|) stays finite for every alpha ``require_alpha`` accepts.
    Split into its terms, the form would take factors such as
    exp(|alpha|^2) and exp(-|alpha|^2) that overflow on their own.
    """
    y = np.clip(x - SQRT2 * alpha.real, -40.0, 40.0)
    return y * y - 2j * alpha.imag * (SQRT2 * y + alpha.real)


def coherent_psi(alpha: complex, x) -> complex:
    """Ordinary oscillator coherent state in closed form,

        psi_alpha(x) = pi^(-1/4) exp(-W/2),   W = x^2 - 2 sqrt2 alpha x
                                                  + |alpha|^2 + alpha^2,

    with W formed about the centre (``_gauss_form``).  Vectorised over
    finite x; finite and silent at every finite x and accepted alpha.
    """
    val = math.pi ** -0.25 * _psi_un(1.0, require_alpha(alpha), _finite_x(x))
    return val if val.ndim else complex(val)


def coherent_coefficients(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients a_n = alpha^n / sqrt(n!) * exp(-|alpha|^2/2).

    Computed through the log-Gamma form so large n never overflows;
    sum |a_n|^2 -> 1 as n_max grows.  ValueError for an n_max that is not
    a non-negative integer.
    """
    n_max = _check_index(n_max, "n_max")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    alpha = require_alpha(alpha)
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        out = np.zeros(n_max + 1, dtype=complex)
        out[0] = 1.0
        return out
    from scipy.special import gammaln

    log_alpha = cmath.log(alpha)
    expo = n * log_alpha - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    return np.exp(expo)


@dataclass(frozen=True)
class BetaRoots:
    """The four roots of the |psi|^2 quartic, conjugate-pair ordered."""

    beta1: complex
    beta2: complex
    beta3: complex
    beta4: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.beta1, self.beta2, self.beta3, self.beta4)


def _bracket_sr(q: float, gamma: complex, modsq: float) -> complex:
    # the square root in the roots of x^2 - 2 sqrt2 gamma x + modsq + gamma^2
    # + 2/(q-1); the bra bracket of a state is gamma = conj(alpha), its ket
    # bracket gamma = alpha, and modsq = |alpha|^2 in both.  From |alpha| ~
    # 1e154 its radicand can overflow, and then it is refused
    sr = cmath.sqrt(gamma * gamma - modsq - 2.0 / (q - 1.0))
    if not cmath.isfinite(sr):
        raise NotConverged(f"the bracket roots overflow double precision at q={q!r}, "
                           f"gamma={gamma!r}")
    return sr


def _pair_roots(q: float, gamma: complex, modsq: float) -> tuple[complex, complex]:
    """The roots sqrt2 gamma + sr, sqrt2 gamma - sr of a bracket, one on each
    side of the real axis.

    Their imaginary parts are sqrt2 Im gamma +- Im sr, and (Im sr)^2 -
    2 (Im gamma)^2 = (Re sr)^2 + 2/(q-1) > 0, so exactly one is positive.
    The one that cancels takes its size from that identity, d = |Im sr| +
    sqrt2 |Im gamma| and Re sr (Re sr / d) + 2/(q-1)/d (|Re sr| < d, so
    nothing overflows), and the pair straddles the axis in floating point
    too: the plain difference reads the wrong sign from |Im alpha| ~
    5e7 / sqrt(q-1) up.
    """
    sr = _bracket_sr(q, gamma, modsq)
    pair = [SQRT2 * gamma + sr, SQRT2 * gamma - sr]
    if gamma.imag != 0.0:
        near = int((sr.imag > 0.0) == (gamma.imag > 0.0))
        d = abs(sr.imag) + SQRT2 * abs(gamma.imag)
        gap = sr.real * (sr.real / d) + 2.0 / (q - 1.0) / d
        pair[near] = complex(pair[near].real, math.copysign(gap, -gamma.imag))
    return tuple(pair)


def beta_roots(q: float, alpha: complex) -> BetaRoots:
    """Quartic factorisation roots; Vieta closure holds to round-off:

    beta1 + beta2 = 2 sqrt2 conj(alpha),
    beta1 * beta2 = conj(alpha)^2 + |alpha|^2 + 2/(q-1), and the alpha
    pair likewise.  Each pair has one root on each side of the real axis,
    and the conj(alpha) pair is the conjugate of the alpha pair.  Needs
    q > 1 (at q = 1 the bracket is no quartic); NotConverged where the
    roots overflow double precision (|alpha| ~ 1.3e154).
    """
    if not q > 1.0:
        raise OutOfValidityWindow("beta roots exist for q > 1 only")
    alpha = require_alpha(alpha)
    modsq = abs(alpha) ** 2
    return BetaRoots(*_pair_roots(q, alpha.conjugate(), modsq),
                     *_pair_roots(q, alpha, modsq))


@dataclass(frozen=True)
class WaveFunctionSample:
    """Pointwise state data: value and first two derivatives at x."""

    x: float
    value: complex
    d1: complex
    d2: complex


def _root_c(q: float, alpha: complex) -> complex:
    """c with c^2 = |alpha|^2 - alpha^2 + 2/(q-1) and Re c > sqrt2 |Im alpha|:
    the ket's ``_bracket_sr`` turned by -i, or by +i where that leaves
    Re c <= 0.  This is the principal root of c^2 bit for bit; the factor is
    complex(0.0, -1.0), not -1j = complex(-0.0, -1.0), whose signed zero
    would flip the sign of Im c = 0 at real alpha."""
    sr = _bracket_sr(q, alpha, abs(alpha) ** 2)
    c = complex(0.0, -1.0) * sr
    return c if c.real > 0.0 else complex(0.0, 1.0) * sr


class _States:
    """The constants of one state (q > 1), or of several, that every
    evaluation against x reads, formed once per pass: q, 1/(1-q),
    s^2 = (q-1)/2, sqrt2 Re alpha (the centre), Re alpha / sqrt2 (where
    Im B = 0), -2 sqrt2 s^2 Im alpha (the slope of Im B) and sqrt2 alpha,
    numbers for one state and (S, 1) columns for several, so that one
    evaluation gives every state's rows; and ``wide``, whether some state's
    Im B / Re B can pass 2^500 (``_wide_ratio``).  A wide record takes the
    scaled branches of ``_bracket`` and ``_inverse_b``, which give the
    plain branches' bits wherever that ratio stays below 2^500, so every
    state of a stack keeps its own bits."""

    __slots__ = ("q", "expo", "s2", "centre", "zero", "slope", "shift", "wide")

    def __init__(self, labels):
        if len(labels) == 1:
            ((q, alpha),) = labels
            alpha = complex(alpha)
        else:
            qs, alphas = zip(*labels)
            q = np.array(qs, dtype=float)[:, None]
            alpha = np.array(alphas, dtype=complex)[:, None]
        self.q, self.expo, self.s2 = q, 1.0 / (1.0 - q), 0.5 * (q - 1.0)
        self.centre, self.zero = SQRT2 * alpha.real, alpha.real / SQRT2
        self.slope, self.shift = -2.0 * SQRT2 * self.s2 * alpha.imag, SQRT2 * alpha
        self.wide = any(_wide_ratio(q, alpha) for q, alpha in labels)


def _bracket(st: _States, x):
    """(log|B|, Im B / Re B, 1 / Re B) at real x for the states of ``st``,
    in real arithmetic.

    With s^2 = (q-1)/2 and y = x - sqrt2 Re alpha the bracket is
    B = 1 + s^2 (w^2 + |alpha|^2 - alpha^2), w = x - sqrt2 alpha, so

        Re B = 1 + s^2 y^2 >= 1,   Im B = -2 s^2 Im alpha (sqrt2 x - Re alpha),

    and arg B = arctan(Im B / Re B) is the principal argument on the whole
    line.  log Re B is log1p(s^2 y^2), exact as s -> 0 where p = 1/(q-1)
    scales its error; past |y| = 2^500, where y^2 would overflow, y is
    scaled down by rho and 2 log rho added back (rho = 1, log rho = 0
    everywhere else).  The ratio Im B / Re B gets the same treatment
    (``_scaled_ratio``) where the record is wide, so every part is finite
    and silent at any finite x and alpha.
    """
    y = x - st.centre
    rho = np.maximum(np.abs(y) * 2.0 ** -500, 1.0)
    ys = y / rho
    t = st.s2 * ys * ys  # Re B / rho^2 - 1
    inv_re = 1.0 / (1.0 + t) / rho / rho
    ratio = st.slope * ((x - st.zero) * inv_re)
    log_mod = np.log1p(t) + 2.0 * np.log(rho)
    if st.wide:  # sigma = 1, log sigma = 0: the plain branch's bits
        sigma, rs = _scaled_ratio(ratio)
        return log_mod + (0.5 * np.log1p(rs * rs) + np.log(sigma)), ratio, inv_re
    return log_mod + 0.5 * np.log1p(ratio * ratio), ratio, inv_re


def _wide_ratio(q: float, alpha: complex) -> bool:
    """Whether |Im B / Re B| can pass 2^500 on the real line, where its
    square nears the end of the doubles.  Its bound there,
    sqrt2 s |Im alpha| + 2 s^2 |Im alpha| |Re alpha| (s^2 = (q-1)/2),
    depends on (q, alpha) alone, so ``_States`` tests it once per pass."""
    s2 = 0.5 * (q - 1.0)
    aim = abs(alpha.imag)
    return SQRT2 * math.sqrt(s2) * aim + 2.0 * s2 * aim * abs(alpha.real) > 2.0 ** 500


def _scaled_ratio(ratio):
    """(sigma, ratio / sigma) with sigma = max(|ratio| 2^-500, 1): then
    1 + ratio^2 = sigma^2 (1 + (ratio/sigma)^2) to 2^-1000 relative, and no
    square overflows."""
    sigma = np.maximum(np.abs(ratio) * 2.0 ** -500, 1.0)
    return sigma, ratio / sigma


def _density(st: _States, x):
    """(|psi_un|^2, |psi_un|, Im B / Re B, 1 / Re B) at real x for the
    states of ``st``: the density r^2 with r = |B|^(-p) = exp(-p log|B|),
    p = 1/(q-1), and the bracket parts the moment rows reuse.  The norm
    pass integrates it, and it is row 0 of the moment pass."""
    log_mod, ratio, inv_re = _bracket(st, x)
    mod = np.exp(st.expo * log_mod)
    return mod * mod, mod, ratio, inv_re


def _psi(st: _States, log_mod, ratio):
    # B^(-p) = exp(-p (log|B| + i arg B)), principal since Re B >= 1
    return np.exp(st.expo * (log_mod + 1j * np.arctan(ratio)))


def _inverse_b(st: _States, ratio, inv_re):
    # 1/B = (1 - i Im B/Re B) / (Re B (1 + (Im B/Re B)^2)), no part above 1;
    # a wide record takes the scaled ratio, the plain bits where sigma = 1
    if st.wide:
        sigma, rs = _scaled_ratio(ratio)
        return (inv_re / sigma / (1.0 + rs * rs)) * (1.0 / sigma - 1j * rs)
    return (inv_re / (1.0 + ratio * ratio)) * (1.0 - 1j * ratio)


def _psi_un(q: float, alpha: complex, x):
    """Vectorised value of the unnormalised state, without derivatives."""
    x = np.asarray(x, dtype=float)
    alpha = complex(alpha)
    if q == 1.0:
        return np.exp(-0.5 * _gauss_form(alpha, x))
    st = _States(((q, alpha),))
    return _psi(st, *_bracket(st, x)[:2])


def _psi_un_arrays(q: float, alpha: complex, x):
    """Vectorised (value, d1, d2) of the unnormalised state.

    With p = 1/(q-1), w = x - sqrt2 alpha and the bracket B (``_bracket``):
    value B^(-p), d1 = -(w/B) B^(-p) and d2 = (q (w/B)^2 - 1/B) B^(-p).
    Each factor is formed on its own, 1/B and w/B small where |x| is huge,
    so no part overflows at any finite x; at the q = 1 sentinel these
    collapse to the Gaussian derivatives, with the value from ``_psi_un``.
    Near the centre of a state with |alpha| ~ 1e154, |d2| ~ q 2 |alpha|^2
    is past the doubles, and there NotConverged is raised, at q = 1 too.
    """
    x = np.asarray(x, dtype=float)
    alpha = complex(alpha)
    if q == 1.0:
        val = _psi_un(q, alpha, x)
        shift = x - SQRT2 * alpha
        d1 = -shift * val
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = shift * (shift * val) - val
    else:
        st = _States(((q, alpha),))
        log_mod, ratio, inv_re = _bracket(st, x)
        val = _psi(st, log_mod, ratio)
        inv_b = _inverse_b(st, ratio, inv_re)
        w_b = (x - st.shift) * inv_b
        d1 = -w_b * val
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = (q * w_b * w_b - inv_b) * val
    if not np.isfinite(d2).all():
        raise NotConverged(f"psi'' at q={q!r}, alpha={alpha!r} overflows double precision")
    return val, d1, d2


def _finite_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def psi_unnormalized(q: float, alpha: complex, x: float) -> WaveFunctionSample:
    """Unnormalised state sample at one finite point, with derivatives."""
    require_window(q, Q_NORMALIZABLE_MAX, "state evaluation")
    v, d1, d2 = _psi_un_arrays(q, require_alpha(alpha), _finite_x([float(x)]))
    return WaveFunctionSample(float(x), complex(v[0]), complex(d1[0]), complex(d2[0]))


def _norm_tol(tol: float) -> float:
    """The accuracy of every norm integral, min(tol, 1e-10): the norm scales
    every normalised quantity, so it is never taken more coarsely than
    1e-10.  ValueError for a tol that is not positive and finite, as every
    integrator raises, so no clamp lets an infinite tol through."""
    _check_tol(tol)
    return min(tol, 1e-10)


@lru_cache(maxsize=512)
def _norm_integral(q: float, are: float, aim: float, tol: float) -> float:
    """int |psi_un|^2 dx by the quadrature oracle (q > 1), memoised."""
    st = _States(((q, complex(are, aim)),))
    nrm = integrate_line(lambda x: _density(st, x)[0], tol=tol).value.real
    if nrm <= 0.0:
        raise ConventionMismatch(f"norm integral came out non-positive: {nrm}")
    return nrm


def normalization_constant(q: float, alpha: complex, method: str = "oracle",
                           tol: float = 1e-10) -> complex:
    """A(q, alpha) such that A * bracket^(1/(1-q)) has unit L2 norm.

    method='oracle' integrates |psi|^2 directly (positive real A by
    construction).  method='closed-form' evaluates the Lauricella
    expression from ``closedforms`` under the calibrated reflection
    convention, checks it against the oracle, and raises
    ConventionMismatch beyond CONVENTION_TOL relative deviation.  A
    scales every normalised wavefunction, momentum amplitude and overlap,
    so it is computed at min(tol, 1e-10) whatever the caller asks for
    (``_norm_tol``; ValueError for a tol that is not positive and
    finite); the moment oracle normalises by the norm row of its own pass
    instead.
    """
    require_window(q, Q_NORMALIZABLE_MAX, "normalization")
    alpha = require_alpha(alpha)
    tol = _norm_tol(tol)
    a_oracle = (math.pi ** -0.25 if q == 1.0
                else _norm_integral(q, alpha.real, alpha.imag, tol) ** -0.5)
    if method == "oracle":
        return complex(a_oracle)
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    if q == 1.0:
        return complex(a_oracle)
    from . import closedforms

    nrm2 = closedforms.norm_squared_closed(q, alpha, tol=tol)
    a_closed = nrm2 ** -0.5
    dev = abs(a_closed - a_oracle) / abs(a_oracle)
    if dev > CONVENTION_TOL:
        raise ConventionMismatch(
            f"closed-form A deviates from oracle by {dev:.3e} at q={q}, alpha={alpha}"
        )
    return a_closed


@dataclass(frozen=True)
class StateLabel:
    """Immutable (q, alpha) label with its normalisation precomputed.

    The constant is evaluated eagerly so instances are cheap to share
    across threads; ``psi`` evaluates the normalised wavefunction.  It is
    not an argument: every label, ``dataclasses.replace`` copies included,
    computes its own from its q and alpha.
    """

    q: float
    alpha: complex
    norm_constant: complex = field(init=False)

    def __post_init__(self):
        require_window(self.q, Q_NORMALIZABLE_MAX, "StateLabel")
        object.__setattr__(self, "alpha", require_alpha(self.alpha))
        object.__setattr__(self, "norm_constant", normalization_constant(self.q, self.alpha))

    def psi(self, x):
        """Normalised wavefunction, vectorised over finite x."""
        out = self.norm_constant * _psi_un(self.q, self.alpha, _finite_x(x))
        return out if np.ndim(x) else complex(out)


def overlap(a: StateLabel, b: StateLabel, method: str = "oracle",
            tol: float = 1e-10) -> complex:
    """<a|b> = int conj(psi_a) psi_b dx for two states sharing one q.

    Hermitian by construction: overlap(a, b) = conj(overlap(b, a));
    |overlap| <= 1 with equality only at identical labels.  q = 1
    dispatches to the exact Gaussian formula exp(conj(alpha_a) alpha_b
    - |alpha_a|^2/2 - |alpha_b|^2/2), written about alpha_a as
    exp(-|d|^2/2 + i Im(conj(alpha_a) d)), d = alpha_b - alpha_a: no terms
    of size |alpha|^2 are summed to cancel, and |d|^2 is a float sum, so a
    gap past the doubles reads 0, not an error.  ValueError for a tol that
    is not positive and finite, at q = 1 too.
    """
    if a.q != b.q:
        raise ValueError("overlap is defined within a single q family")
    _check_tol(tol)
    q = a.q
    if q == 1.0:
        aa, d = a.alpha, b.alpha - a.alpha
        return cmath.exp(complex(-0.5 * (d.real * d.real + d.imag * d.imag),
                                 aa.real * d.imag - aa.imag * d.real))
    if method == "oracle":
        st = _States(((q, a.alpha), (q, b.alpha)))

        def f(x):
            psi = _psi(st, *_bracket(st, x)[:2])
            return np.conj(psi[0]) * psi[1]

        res = integrate_line(f, tol=tol)
        return a.norm_constant * b.norm_constant * res.value
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    from . import closedforms

    raw = closedforms.overlap_closed(q, a.alpha, b.alpha, tol=tol)
    val = a.norm_constant * b.norm_constant * raw
    ref = overlap(a, b, method="oracle", tol=tol)
    dev = abs(val - ref) / max(abs(ref), 1e-12)
    if dev > CONVENTION_TOL:
        raise ConventionMismatch(
            f"closed-form overlap deviates from oracle by {dev:.3e} at q={q}, "
            f"alpha_a={a.alpha}, alpha_b={b.alpha}"
        )
    return val


def apply_aq(q: float, f, x: float) -> complex:
    """Deformed lowering operator,

        (a_q f)(x) = x/sqrt2 * f(x) + f(x)^(1-q)/sqrt2 * f'(x),

    acting on a wavefunction callable that returns WaveFunctionSample.
    The unnormalised deformed state is an exact eigenvector with
    eigenvalue alpha.  Principal-branch caveat: f^(1-q) equals the state
    bracket only while |arg bracket| < pi (q-1), which holds on moderate
    |x| for the parameter ranges this package targets.  ZeroAmplitude
    when f(x) = 0 with q != 1.
    """
    s = f(x)
    value, d1 = s.value, s.d1
    if q == 1.0:
        return (x * value + d1) / SQRT2
    if value == 0.0:
        raise ZeroAmplitude(f"a_q needs f(x) != 0 at x={x} for q != 1")
    return (x * value + value ** (1.0 - q) * d1) / SQRT2


def coherent_wavefunction(alpha: complex):
    """Callable x -> WaveFunctionSample for the ordinary coherent state: the
    q = 1 case of ``pseudo_coherent_wavefunction``, normalised."""
    return pseudo_coherent_wavefunction(1.0, alpha, normalized=True)


def pseudo_coherent_wavefunction(q: float, alpha: complex, normalized: bool = False):
    """Callable x -> WaveFunctionSample for the deformed state.

    The eigenvalue relation a_q f = alpha f holds for the unnormalised
    state (normalisation rescales f^(1-q) and breaks it), hence the
    default normalized=False.
    """
    require_window(q, Q_NORMALIZABLE_MAX, "state evaluation")
    alpha = require_alpha(alpha)
    scale = normalization_constant(q, alpha) if normalized else 1.0

    def f(x: float) -> WaveFunctionSample:
        s = psi_unnormalized(q, alpha, x)
        return WaveFunctionSample(x, scale * s.value, scale * s.d1, scale * s.d2)

    return f
