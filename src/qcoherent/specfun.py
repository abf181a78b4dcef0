"""Scalar special functions and the four-variable Lauricella F_D.

Contents
--------
hermite_poly / hermite_function
    Physicists' Hermite polynomials H_n and the orthonormal oscillator
    eigenfunctions; both use stable three-term recurrences and the
    normalised recurrence never forms n! explicitly.
pochhammer
    Rising factorial (a)_m for complex a.
kummer_phi
    Confluent hypergeometric phi(a, b; z) = sum_m (a)_m z^m / ((b)_m m!).
    Power series up to |z| = 30; past that the Euler-type integral
    representation (when Re b > Re a > 0) or the large-|z| asymptotic
    expansion takes over.
lauricella_fd_series / lauricella_fd_integral / lauricella_fd
    F_D(a; b1..b4; c; x1..x4), the quadruple hypergeometric series
        sum (a)_{m1+..+m4} prod_i (b_i)_{m_i} x_i^{m_i} / ((c)_{m1+..+m4} m_i!).
    The series is summed by total degree N = m1+..+m4: the inner shell sum
    S_N is the t^N Taylor coefficient of prod_i (1 - x_i t)^(-b_i), produced
    by a five-term linear recurrence, so each shell costs O(1).  The integral
    strategy is the Euler representation
        Gamma(c)/(Gamma(a)Gamma(c-a)) int_0^1 u^(a-1)(1-u)^(c-a-1)
                                          prod_i (1 - u x_i)^(-b_i) du,
    valid for Re a > 0, Re(c-a) > 0.  All complex powers are
    principal-branch.

Kummer's integral branch and F_D's share one Euler integral: graded halves
u < 1/2 and u > 1/2 as the pieces of one adaptive pass.

Gamma ratios are taken in log space throughout (scipy's loggamma), so the
large parameters that appear as the deformation approaches 1 do not
overflow intermediate factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import (
    BranchCrossing,
    DivergentSeries,
    NotConverged,
    ParameterPole,
)
from .quadrature import _UNIT_EDGES, QuadratureResult, _adaptive

__all__ = [
    "LauricellaArgs",
    "hermite_poly",
    "hermite_function",
    "pochhammer",
    "kummer_phi",
    "lauricella_fd_series",
    "lauricella_fd_integral",
    "lauricella_fd",
]

_PI4 = math.pi ** -0.25
_KUMMER_SERIES_RADIUS = 30.0  # crossover to integral/asymptotic evaluation


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z - n) < tol


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    if n < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def hermite_function(n: int, x):
    """Orthonormal oscillator eigenfunction of order n.

    Uses the recurrence on the normalised functions themselves,
        psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1},
    seeded by psi_0 = pi^(-1/4) exp(-x^2/2); stable to n in the thousands
    because no factorial or 2^n is ever formed.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    x = np.asarray(x, dtype=float)
    p_prev = _PI4 * np.exp(-0.5 * x * x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = math.sqrt(2.0) * x * p_prev
    for k in range(1, n):
        p, p_prev = math.sqrt(2.0 / (k + 1)) * x * p - math.sqrt(k / (k + 1)) * p_prev, p
    return p if p.ndim else float(p)


def pochhammer(a: complex, m: int) -> complex:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1); (a)_0 = 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1.0 + 0.0j
    for j in range(m):
        out *= a + j
    return out


def _phi_series(a: complex, b: complex, z: complex, tol: float) -> complex:
    term = 1.0 + 0.0j
    total = term
    quiet = 0
    for m in range(1, 20000):
        term *= (a + m - 1) / (b + m - 1) * z / m
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise NotConverged(f"Kummer series stalled at |z|={abs(z):.3g}")


def _euler_integral(f, a: complex, c: complex, tol: float, method: str) -> QuadratureResult:
    """Gamma(c)/(Gamma(a)Gamma(c-a)) int_0^1 u^(a-1) (1-u)^(c-a-1) f(u) du
    for Re a > 0, Re(c-a) > 0.  The halves u = v^g0/2 and 1-u = w^g1/2 keep
    the endpoint powers bounded; pre-scaled to O(1) magnitudes even for
    large parameters, they are the pieces of one adaptive pass."""
    ca = c - a
    g0 = 1 if a.real >= 1.0 else min(60, math.ceil(1.5 / a.real))
    g1 = 1 if ca.real >= 1.0 else min(60, math.ceil(1.5 / ca.real))

    def left(v):  # u = 0.5 v^g0
        u = 0.5 * v ** g0
        return (np.power(u, a - 1) * np.power(1.0 - u, ca - 1) * f(u)
                * 0.5 * g0 * np.power(v, g0 - 1))

    def right(w):  # u = 1 - 0.5 w^g1
        s = 0.5 * w ** g1
        u = 1.0 - s
        return (np.power(u, a - 1) * np.power(s, ca - 1) * f(u)
                * 0.5 * g1 * np.power(w, g1 - 1))

    probe = np.linspace(1.0 / 64, 1.0 - 1.0 / 64, 33)
    scale = float(np.max(np.abs(left(probe)) + np.abs(right(probe))))
    if not scale > 0.0:  # every probe underflowed: the pass would read an exact 0
        raise NotConverged(f"Euler integrand underflows at every probe node (a={a}, c={c})")
    res = _adaptive([(lambda v: left(v) / scale, _UNIT_EDGES),
                     (lambda w: right(w) / scale, _UNIT_EDGES)], 0.5 * tol, 1_000_000, method)
    pref = cmath.exp(_sp.loggamma(c) - _sp.loggamma(a) - _sp.loggamma(ca))
    return QuadratureResult(pref * scale * res.value, abs(pref) * scale * res.err_estimate,
                            res.evaluations, method)


def _phi_asymptotic(a: complex, b: complex, z: complex) -> complex:
    # large-|z| expansion; truncated at the smallest term
    def watson(c1, c2, w, nmax=60):
        term = 1.0 + 0.0j
        total = term
        smallest = abs(term)
        for m in range(1, nmax):
            term *= (c1 + m - 1) * (c2 + m - 1) / (m * w)
            if abs(term) > smallest:
                break
            smallest = abs(term)
            total += term
        return total

    # a term whose 1/Gamma factor sits at a pole is exactly zero (loggamma
    # reads nan there); the other term's series then terminates
    t1 = t2 = 0.0 + 0.0j
    if not _is_nonpositive_integer(b - a):
        s1 = watson(a, a - b + 1, -z)
        t1 = cmath.exp(_sp.loggamma(b) - _sp.loggamma(b - a)) * (-z) ** (-a) * s1
    if not _is_nonpositive_integer(a):
        s2 = watson(b - a, 1 - a, z)
        t2 = cmath.exp(_sp.loggamma(b) - _sp.loggamma(a) + z) * z ** (a - b) * s2
    return t1 + t2


def kummer_phi(a: complex, b: complex, z: complex, tol: float = 1e-12) -> complex:
    """Confluent hypergeometric phi(a, b; z) for complex arguments.

    Series below |z| = 30 (term-ratio stopping); above that the integral
    representation when Re b > Re a > 0, else the asymptotic expansion.
    """
    if _is_nonpositive_integer(b):
        raise ParameterPole(f"lower parameter b={b} is a non-positive integer")
    a, b, z = complex(a), complex(b), complex(z)
    if abs(z) <= _KUMMER_SERIES_RADIUS:
        return _phi_series(a, b, z, tol)
    if b.real > a.real > 0.0:
        return _euler_integral(lambda t: np.exp(z * t), a, b, tol, "kummer-integral").value
    return _phi_asymptotic(a, b, z)


@dataclass(frozen=True)
class LauricellaArgs:
    """Parameter bundle for F_D(a; b1..b4; c; x1..x4)."""

    a: complex
    b: tuple[complex, complex, complex, complex]
    c: complex
    x: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.b) != 4 or len(self.x) != 4:
            raise ValueError("b and x must each have four entries")
        if _is_nonpositive_integer(self.c):
            raise ParameterPole(f"lower parameter c={self.c} is a non-positive integer")


def lauricella_fd_series(args: LauricellaArgs, tol: float = 1e-10,
                         max_degree: int = 400, quiet_shells: int = 3) -> QuadratureResult:
    """Sum the F_D series by total degree.

    The shell sum S_N = sum_{|m|=N} prod (b_i)_{m_i} x_i^{m_i} / m_i! is the
    N-th Taylor coefficient of g(t) = prod (1 - x_i t)^(-b_i); from
    g' P = g Q with P = prod(1 - x_i t) and Q = sum_i b_i x_i prod_{j != i}
    (1 - x_j t) it satisfies
        (N+1) S_{N+1} = -sum_{j=1..4} p_j (N+1-j) S_{N+1-j}
                        + sum_{j=0..3} q_j S_{N-j},
    and F_D = sum_N [(a)_N / (c)_N] S_N.  Stops once ``quiet_shells``
    consecutive shells fall below tol relative to the running sum.
    """
    a, c = complex(args.a), complex(args.c)
    bs = [complex(v) for v in args.b]
    xs = [complex(v) for v in args.x]
    xm = max(abs(v) for v in xs)
    if xm >= 1.0:
        raise DivergentSeries(f"series needs max|x_i| < 1, got {xm:.6g}")

    # P(t) coefficients by convolution, Q(t) by leave-one-out convolution
    p = np.array([1.0 + 0.0j])
    for x in xs:
        p = np.convolve(p, np.array([1.0, -x]))
    q = np.zeros(4, dtype=complex)
    for i, (b, x) in enumerate(zip(bs, xs)):
        r = np.array([1.0 + 0.0j])
        for j, xo in enumerate(xs):
            if j != i:
                r = np.convolve(r, np.array([1.0, -xo]))
        q[: len(r)] += b * x * r

    s = np.zeros(max_degree + 2, dtype=complex)
    s[0] = 1.0
    ratio = 1.0 + 0.0j  # (a)_N / (c)_N
    total = s[0]
    tail = [abs(s[0])]
    quiet = 0
    for n in range(0, max_degree):
        nxt = 0.0 + 0.0j
        for j in range(1, 5):
            if n + 1 - j >= 0:
                nxt -= p[j] * (n + 1 - j) * s[n + 1 - j]
        for j in range(0, 4):
            if n - j >= 0:
                nxt += q[j] * s[n - j]
        s[n + 1] = nxt / (n + 1)
        ratio *= (a + n) / (c + n)
        term = ratio * s[n + 1]
        total += term
        tail.append(abs(term))
        if abs(term) <= tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= quiet_shells:
                rem = sum(tail[-quiet_shells:]) * (1.0 / max(1.0 - xm, 1e-3))
                return QuadratureResult(total, rem, n + 2, "fd-series")
        else:
            quiet = 0
    raise NotConverged(
        f"F_D series did not settle within {max_degree} shells (max|x|={xm:.4g})"
    )


def lauricella_fd_integral(args: LauricellaArgs, tol: float = 1e-10) -> QuadratureResult:
    """Evaluate F_D through its one-dimensional Euler integral.

    Requires Re a > 0 and Re(c - a) > 0.  The path 1 - u*x_i (u from 0
    to 1) stays off the principal cut whenever Im x_i != 0; a real
    x_i >= 1 would drag the integrand through the cut and raises
    BranchCrossing instead of silently continuing.  The integral itself
    is ``_euler_integral``.
    """
    a, c = complex(args.a), complex(args.c)
    bs = [complex(v) for v in args.b]
    xs = [complex(v) for v in args.x]
    ca = c - a
    if not (a.real > 0.0 and ca.real > 0.0):
        raise ValueError(
            f"Euler representation needs Re a > 0 and Re(c-a) > 0; got a={a}, c-a={ca}"
        )
    for x in xs:
        if x.imag == 0.0 and x.real >= 1.0:
            raise BranchCrossing(
                f"argument x={x.real:.6g} puts 1-u*x on the principal cut"
            )

    def core(u):
        val = np.ones_like(u, dtype=complex)
        for b, x in zip(bs, xs):
            val = val * np.power(1.0 - u * x, -b)
        return val

    return _euler_integral(core, a, c, tol, "fd-integral")


def lauricella_fd(args: LauricellaArgs, tol: float = 1e-10) -> QuadratureResult:
    """F_D with automatic strategy choice.

    Series strictly inside the unit polydisc (preferred up to max|x| = 0.9,
    where it is fast); the Euler integral otherwise and as fallback for the
    slow outer shell 0.9 < max|x| < 1.  The returned result's ``method``
    records which path produced the value.
    """
    xm = max(abs(complex(v)) for v in args.x)
    a, c = complex(args.a), complex(args.c)
    integral_ok = (
        a.real > 0.0
        and (c - a).real > 0.0
        and not any(complex(v).imag == 0.0 and complex(v).real >= 1.0 for v in args.x)
    )
    if xm < 0.9 or (xm < 1.0 and not integral_ok):
        return lauricella_fd_series(args, tol=tol)
    if integral_ok:
        return lauricella_fd_integral(args, tol=tol)
    raise DivergentSeries(
        f"max|x|={xm:.4g} outside the polydisc and the Euler representation "
        f"is inadmissible (a={a}, c={c})"
    )


def _gauss_2f1(a: float, b: float, c: float, x: float, tol: float = 1e-14) -> complex:
    """Gauss 2F1 for real parameters, |x| not too close to 1.

    Test oracle only (used to pin down single-variable degenerations of
    F_D); plain series plus the Pfaff map x -> x/(x-1) for negative x.
    Not exported.
    """
    if _is_nonpositive_integer(c):
        raise ParameterPole(f"lower parameter c={c} is a non-positive integer")
    if x < 0.0:
        return (1.0 - x) ** (-a) * _gauss_2f1(a, c - b, c, x / (x - 1.0), tol)
    if x >= 0.95:
        raise NotConverged("2F1 oracle restricted to x < 0.95")
    term = 1.0 + 0.0j
    total = term
    for m in range(1, 10000):
        term *= (a + m - 1) * (b + m - 1) / ((c + m - 1) * m) * x
        total += term
        if abs(term) <= tol * max(abs(total), 1e-300):
            return total
    raise NotConverged("2F1 oracle series stalled")
