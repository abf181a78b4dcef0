"""Deformed (q-exponential) analogues of harmonic-oscillator coherent states.

The central object is the one-parameter family

    psi(x) = A(q, alpha) * [1 + (q-1)/2 * (x^2 - 2*sqrt2*alpha*x
                                           + |alpha|^2 + alpha^2)]^(1/(1-q)),

which reduces to the ordinary coherent state as q -> 1 and develops
power-law tails |psi|^2 ~ |x|^(-4/(q-1)) for q > 1.  That tail sets the
validity windows enforced here: normalisable for q < 5, finite second
position moment for q < 7/3.  ``q == 1.0`` is an exact sentinel that
dispatches to the Gaussian formulas rather than the deformed bracket.

The quartic |psi|^2 factors over four complex roots

    beta_{1,2} = sqrt2*conj(alpha) +- sqrt(conj(alpha)^2 - |alpha|^2 - 2/(q-1))
    beta_{3,4} = sqrt2*alpha       +- sqrt(alpha^2      - |alpha|^2 - 2/(q-1))

(principal square roots), which feed every Lauricella closed form in
``closedforms``.  The real part of the bracket is >= 1 for real x, so the
principal-branch power is smooth on the whole line and the per-root
factorisation holds exactly there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConventionMismatch,
    OutOfValidityWindow,
    PoleHit,
    ZeroAmplitude,
)
from .quadrature import integrate_line

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


def q_exponential(q: float, z: complex) -> complex:
    """Deformed exponential e_q(z) = [1 + (1-q) z]^(1/(1-q)), principal branch.

    Continuous limit e_1(z) = exp(z); PoleHit when the base vanishes while
    the exponent is negative (q > 1).
    """
    if q == 1.0:
        return cmath.exp(z)
    base = 1.0 + (1.0 - q) * complex(z)
    if base == 0.0:
        if 1.0 / (1.0 - q) < 0.0:
            raise PoleHit(f"e_q pole: 1 + (1-q) z = 0 at z={z}")
        return 0.0 + 0.0j
    return base ** (1.0 / (1.0 - q))


def coherent_psi(alpha: complex, x) -> complex:
    """Ordinary oscillator coherent state in closed form,

        psi_alpha(x) = pi^(-1/4) exp(-alpha^2/2) exp(-|alpha|^2/2)
                       exp(-x^2/2) exp(sqrt2 alpha x).

    Vectorised over x.
    """
    alpha = complex(alpha)
    x = np.asarray(x, dtype=float)
    pref = math.pi ** -0.25 * cmath.exp(-0.5 * alpha * alpha - 0.5 * abs(alpha) ** 2)
    val = pref * np.exp(-0.5 * x * x + SQRT2 * alpha * x)
    return val if val.ndim else complex(val)


def coherent_coefficients(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients a_n = alpha^n / sqrt(n!) * exp(-|alpha|^2/2).

    Computed through the log-Gamma form so large n never overflows;
    sum |a_n|^2 -> 1 as n_max grows.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    alpha = complex(alpha)
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


def _pair_roots(q: float, gamma: complex, modsq: float) -> tuple[complex, complex]:
    # roots of x^2 - 2 sqrt2 gamma x + modsq + gamma^2 + 2/(q-1); the bra
    # bracket of a state is gamma = conj(alpha), its ket bracket gamma = alpha
    sr = cmath.sqrt(gamma * gamma - modsq - 2.0 / (q - 1.0))
    return (SQRT2 * gamma + sr, SQRT2 * gamma - sr)


def beta_roots(q: float, alpha: complex) -> BetaRoots:
    """Quartic factorisation roots; Vieta closure holds to round-off:

    beta1 + beta2 = 2 sqrt2 conj(alpha),
    beta1 * beta2 = conj(alpha)^2 + |alpha|^2 + 2/(q-1), and the alpha
    pair likewise.  Needs q > 1 (at q = 1 the bracket is no quartic).
    """
    if q <= 1.0:
        raise OutOfValidityWindow("beta roots exist for q > 1 only")
    alpha = complex(alpha)
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


def _quad_poly(q: float, alpha: complex, x):
    # x^2 - 2 sqrt2 alpha x + |alpha|^2 + alpha^2, vectorised
    return x * x - 2.0 * SQRT2 * alpha * x + abs(alpha) ** 2 + alpha * alpha


def _bracket(q: float, alpha: complex, x):
    return 1.0 + 0.5 * (q - 1.0) * _quad_poly(q, alpha, x)


def _bracket_power(b, expo: float):
    """b**expo in log form, exp(expo * log b): a huge bracket underflows to
    0 instead of overflowing the repeated products np.power uses for
    integral exponents (nan + nanj with a RuntimeWarning)."""
    return np.exp(expo * np.log(b))


def _psi_un(q: float, alpha: complex, x):
    """Vectorised value of the unnormalised state, without derivatives."""
    x = np.asarray(x, dtype=float)
    alpha = complex(alpha)
    big = np.abs(x) > 1e150
    if np.any(big):
        x = np.where(big, 0.0, x)
    if q == 1.0:
        val = np.exp(-0.5 * _quad_poly(q, alpha, x))
    else:
        val = _bracket_power(_bracket(q, alpha, x), 1.0 / (1.0 - q))
    return np.where(big, 0.0, val) if np.any(big) else val


def _psi_un_arrays(q: float, alpha: complex, x):
    """Vectorised (value, d1, d2) of the unnormalised state.

    d1 = -(x - sqrt2 alpha) B^(-p-1) and
    d2 = B^(-p-2) [q (x - sqrt2 alpha)^2 - B], with p = 1/(q-1);
    at the q = 1 sentinel these collapse to the Gaussian derivatives.
    Products are associated so the decaying power absorbs the shift
    factors first: the quadrature tails probe |x| up to ~1e250, where a
    bare shift^2 would overflow against an underflowing power.
    """
    x = np.asarray(x, dtype=float)
    alpha = complex(alpha)
    val = _psi_un(q, alpha, x)
    # quadrature tails probe |x| up to ~1e250; past 1e150 every windowed
    # quantity here underflows to an exact double-precision zero, so mask
    # those lanes instead of letting x*x reach inf (complex inf arithmetic
    # breeds NaNs in cross terms)
    big = np.abs(x) > 1e150
    if np.any(big):
        x = np.where(big, 0.0, x)
    shift = x - SQRT2 * alpha
    if q == 1.0:
        d1 = -shift * val
        d2 = shift * (shift * val) - val
    else:
        b = _bracket(q, alpha, x)
        expo = 1.0 / (1.0 - q)
        d1 = -shift * _bracket_power(b, expo - 1.0)
        half_piece = shift * _bracket_power(b, 0.5 * (expo - 2.0))
        d2 = q * half_piece * half_piece - _bracket_power(b, expo - 1.0)
    if np.any(big):
        d1 = np.where(big, 0.0, d1)
        d2 = np.where(big, 0.0, d2)
    return val, d1, d2


def _psi_un_density(q: float, alpha: complex, x):
    """Vectorised |psi_un(x)|^2: the integrand of every norm integral."""
    v = _psi_un(q, alpha, x)
    return (v * np.conj(v)).real


def psi_unnormalized(q: float, alpha: complex, x: float) -> WaveFunctionSample:
    """Unnormalised state sample at one point, with derivatives.

    The bracket has real part >= 1 for q > 1 and real x, so PoleHit can
    only trigger on exotic (non-real-line) use.
    """
    require_window(q, Q_NORMALIZABLE_MAX, "state evaluation")
    if q != 1.0 and complex(_bracket(q, complex(alpha), float(x))) == 0.0:
        raise PoleHit(f"state bracket vanishes at x={x}")
    v, d1, d2 = _psi_un_arrays(q, alpha, np.asarray([float(x)]))
    return WaveFunctionSample(float(x), complex(v[0]), complex(d1[0]), complex(d2[0]))


@lru_cache(maxsize=512)
def _norm_oracle(q: float, are: float, aim: float, tol: float) -> float:
    alpha = complex(are, aim)
    if q == 1.0:
        return math.pi ** -0.25
    res = integrate_line(lambda x: _psi_un_density(q, alpha, x), tol=tol)
    nrm = res.value.real
    if nrm <= 0.0:
        raise ConventionMismatch(f"norm integral came out non-positive: {nrm}")
    return nrm ** -0.5


def normalization_constant(q: float, alpha: complex, method: str = "oracle",
                           tol: float = 1e-10) -> complex:
    """A(q, alpha) such that A * bracket^(1/(1-q)) has unit L2 norm.

    method='oracle' integrates |psi|^2 directly (positive real A by
    construction).  method='closed-form' evaluates the Lauricella
    expression from ``closedforms`` under the calibrated reflection
    convention, checks it against the oracle, and raises
    ConventionMismatch beyond CONVENTION_TOL relative deviation.  A
    divides every normalised quantity, so it is computed at
    min(tol, 1e-10) whatever the caller asks for.
    """
    require_window(q, Q_NORMALIZABLE_MAX, "normalization")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite; got {alpha}")
    tol = min(tol, 1e-10)
    a_oracle = _norm_oracle(q, alpha.real, alpha.imag, tol)
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
    across threads; ``psi`` evaluates the normalised wavefunction.
    """

    q: float
    alpha: complex
    norm_constant: complex = 0.0 + 0.0j

    def __post_init__(self):
        require_window(self.q, Q_NORMALIZABLE_MAX, "StateLabel")
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.norm_constant == 0.0:
            object.__setattr__(
                self, "norm_constant", normalization_constant(self.q, self.alpha)
            )

    def psi(self, x):
        """Normalised wavefunction, vectorised over x."""
        if self.q == 1.0:
            return coherent_psi(self.alpha, x)
        out = self.norm_constant * _psi_un(self.q, self.alpha, x)
        return out if np.ndim(x) else complex(out[0] if np.ndim(out) else out)


def overlap(a: StateLabel, b: StateLabel, method: str = "oracle",
            tol: float = 1e-10) -> complex:
    """<a|b> = int conj(psi_a) psi_b dx for two states sharing one q.

    Hermitian by construction: overlap(a, b) = conj(overlap(b, a));
    |overlap| <= 1 with equality only at identical labels.  q = 1
    dispatches to the exact Gaussian formula exp(conj(alpha_a) alpha_b
    - |alpha_a|^2/2 - |alpha_b|^2/2).
    """
    if a.q != b.q:
        raise ValueError("overlap is defined within a single q family")
    q = a.q
    if q == 1.0:
        aa, ab = a.alpha, b.alpha
        return cmath.exp(aa.conjugate() * ab - 0.5 * abs(aa) ** 2 - 0.5 * abs(ab) ** 2)
    if method == "oracle":
        def f(x):
            return np.conj(_psi_un(q, a.alpha, x)) * _psi_un(q, b.alpha, x)

        res = integrate_line(f, tol=tol)
        return a.norm_constant * b.norm_constant * res.value
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    from . import closedforms

    raw = closedforms.overlap_closed(q, a.alpha, b.alpha, tol=min(tol, 1e-10))
    val = a.norm_constant * b.norm_constant * raw
    ref = overlap(a, b, method="oracle", tol=tol)
    scale = max(abs(ref), 1e-12)
    if abs(val - ref) / scale > CONVENTION_TOL:
        raise ConventionMismatch(
            f"closed-form overlap deviates by {abs(val - ref) / scale:.3e}"
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
    """Callable x -> WaveFunctionSample for the ordinary coherent state."""
    alpha = complex(alpha)

    def f(x: float) -> WaveFunctionSample:
        v = complex(coherent_psi(alpha, x))
        shift = x - SQRT2 * alpha
        return WaveFunctionSample(x, v, -shift * v, (shift * shift - 1.0) * v)

    return f


def pseudo_coherent_wavefunction(q: float, alpha: complex, normalized: bool = False):
    """Callable x -> WaveFunctionSample for the deformed state.

    The eigenvalue relation a_q f = alpha f holds for the unnormalised
    state (normalisation rescales f^(1-q) and breaks it), hence the
    default normalized=False.
    """
    require_window(q, Q_NORMALIZABLE_MAX, "state evaluation")
    alpha = complex(alpha)
    scale = normalization_constant(q, alpha) if normalized else 1.0

    def f(x: float) -> WaveFunctionSample:
        s = psi_unnormalized(q, alpha, x)
        return WaveFunctionSample(x, scale * s.value, scale * s.d1, scale * s.d2)

    return f
