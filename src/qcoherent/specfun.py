"""Scalar special functions and the four-variable Lauricella F_D.

Contents
--------
hermite_poly / hermite_function
    Physicists' Hermite polynomials H_n and the orthonormal oscillator
    eigenfunctions; both use stable three-term recurrences and the
    normalised recurrence never forms n! explicitly.  The private
    ``_hermite_functions`` returns every order up to n from one pass.
pochhammer
    Rising factorial (a)_m for complex a.
kummer_phi
    Confluent hypergeometric phi(a, b; z) = sum_m (a)_m z^m / ((b)_m m!).
    Power series up to |z| = 30, at -z through Kummer's transformation
    when Re z < 0; past that the Euler-type integral
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
_log_bessel_g (private)
    log g(z) for the modified Bessel function K_nu normalised to g(0) = 1,
    g(z) = 2 (z/2)^nu K_nu(z) / Gamma(nu), vectorised over complex z: the
    factor of the exact momentum amplitude.  scipy's exponentially scaled
    kve below order 30, Debye's uniform expansion from 30 up, where kve
    overflows near z = 0; finite at every finite z.

Kummer's integral branch and F_D's share one Euler integral,
``_euler_integral``: graded halves u < 1/2 and u > 1/2 as the pieces of
one adaptive pass with one log f call per generation, the integrand formed
in log space and scaled, row by row, by its largest value on a fixed probe
grid whose nodes join the first generation's call, and any number of rows,
each with its own exponents a and c, on shared nodes.  Each half is graded
to a smooth endpoint power (``_grade``): not at all where every row's
exponent on that side is a positive integer, else by the power that lifts
the smallest exponent to at least 5, and a graded half is seeded down to
its end layer at v = 1 (``_layer_depth``).  Each half is a node map (``_euler_half``) that a
piece of the pass takes once per run of nodes: the points handed to log f
and the row factors of the finish come from that one map.  The closed forms of
``closedforms`` run all rows of a state through it at once; F_D and Kummer
are its one-row callers and add the Gamma prefactor.

Gamma ratios are taken in log space throughout (scipy's loggamma for
complex arguments; ``_log_gamma_ratio_half``'s math.lgamma and ratio series
for the real ratio), so the large parameters that appear as the
deformation approaches 1 do not overflow intermediate factors.

scipy.special is imported inside the functions that call it: the Bessel-K
factor, Kummer's integral and asymptotic branches and the F_D integral.
Importing this module, and every route that reaches none of them, never
loads scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BranchCrossing,
    DivergentSeries,
    NotConverged,
    ParameterPole,
)
from .quadrature import (_END_EXPONENT, _EPS, _UNIT_EDGES, QuadratureResult, _adaptive,
                         _check_index, _check_tol, _Piece)

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
_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows past it
_KUMMER_SERIES_RADIUS = 30.0  # crossover to integral/asymptotic evaluation


def _is_nonpositive_integer(z: complex, tol: float = 1e-12) -> bool:
    z = complex(z)
    n = round(z.real)
    return n <= 0 and abs(z - n) < tol


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    n = _check_index(n, "order")
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


def _hermite_functions(n_max: int, x) -> np.ndarray:
    """Oscillator eigenfunctions of every order 0..n_max at x, shape
    (n_max + 1,) + x.shape, from one pass of ``hermite_function``'s
    recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = _PI4 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * x * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def hermite_function(n: int, x):
    """Orthonormal oscillator eigenfunction of order n.

    Uses the recurrence on the normalised functions themselves,
        psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1},
    seeded by psi_0 = pi^(-1/4) exp(-x^2/2); stable to n in the thousands
    because no factorial or 2^n is ever formed.
    """
    n = _check_index(n, "order")
    if n < 0:
        raise ValueError("order must be >= 0")
    p = _hermite_functions(n, x)[-1]
    return p if p.ndim else float(p)


def pochhammer(a: complex, m: int) -> complex:
    """Rising factorial (a)_m = a (a+1) ... (a+m-1); (a)_0 = 1."""
    m = _check_index(m, "m")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1.0 + 0.0j
    for j in range(m):
        out *= a + j
    return out


def _phi_series(a: complex, b: complex, z: complex, tol: float) -> complex | None:
    """The Kummer series of phi(a, b; z), or None where its terms cancel
    past ``tol``: the round-off of the largest |term|, eps max|term|, is
    above tol |sum|."""
    term = 1.0 + 0.0j
    total = term
    top = 1.0
    quiet = 0
    for m in range(1, 20000):
        term *= (a + m - 1) / (b + m - 1) * z / m
        total += term
        size = abs(term)
        top = max(top, size)
        if size <= tol * max(abs(total), 1e-300):
            quiet += 1
            if quiet >= 2:
                return total if _EPS * top <= tol * abs(total) else None
        else:
            quiet = 0
    raise NotConverged(f"Kummer series stalled at |z|={abs(z):.3g}")


def _grade(e: np.ndarray, size: float, side: str, method: str) -> int:
    """The power g of t = v^g/2 for one side's exponents e (one per row),
    which turns t^(e-1) dt into v^(g*e-1) dv.

    If every e is a positive integer to rounding (within 1e-12 times
    ``size``, the largest parameter magnitude the exponents come from),
    g = 1: the end factor is then a polynomial.  Otherwise g follows the
    end rule that the line's tails follow too (``quadrature._END_EXPONENT``):
    g = ceil(5 / min Re e), which makes every end factor v^(g*e-1) with
    g*e >= 5 for min Re e >= 0.005, where g reaches its cap of 1000.  With a
    rougher factor, such as v^0.5 or v^1.12, the G7/K15 estimate of the end
    panel shrinks so slowly that the adaptive pass halves toward the end
    some 20 times at a 5e-14 target, one generation per halving.

    The map also squeezes everything at u of order one into a layer at
    v = 1, of width ~1/(g*e') for a row with exponent e' (its factor
    v^(g*e'-1)); the half's seed ladder reaches down to it
    (``_layer_depth``).  The nodes stop resolving that layer near g = 10^4:
    the norm at q = 4.9996 (g = 15000) read 6e-5 off.  So g stops at 1000,
    and an exponent that g = 1000 leaves singular, g*e < 1.5, is refused
    rather than integrated: that is min Re e < 0.0015.
    """
    whole = np.round(e.real)
    if (whole >= 1.0).all() and (np.abs(e - whole) <= 1e-12 * size).all():
        return 1
    low = float(e.real.min())
    g = min(math.ceil(_END_EXPONENT / low), 1000) if low > 0.0 else 1000
    if not g * low >= 1.5:
        raise NotConverged(f"Euler exponent Re {side} = {low:.3g} needs grading power "
                           f"above the cap of 1000 ({method})")
    return g


# The deepest seed ladder of an Euler half: its end panel [1 - 2^-47, 1] is
# the narrowest that ``quadrature._splittable`` still splits at v = 1, so a
# deeper rung could not be refined at all.  An F_D draw's exponents, and so
# the depth its layer asks for, are not bounded.
_LADDER_MAX = 47


def _layer_depth(g: int, e: np.ndarray) -> int:
    """The depth J of a half's seed ladder (``_euler_ladder``): 2^-J is the
    first power of two at or below 1/(g * max Re e), the width of the layer
    at v = 1 of the half's steepest row, v^(g*e-1).  J = 2, no ladder, for
    an ungraded half (g = 1) or a layer no narrower than a seed quarter;
    at most ``_LADDER_MAX``."""
    steep = g * float(e.real.max())
    if g == 1 or steep <= 4.0:
        return 2
    return min(math.ceil(math.log2(steep)), _LADDER_MAX)


def _euler_ladder(depth: int) -> tuple[float, ...]:
    """``_UNIT_EDGES`` plus the edges 1 - 2^-j, j = 3 .. depth: the seed of
    an Euler half down to its end layer.  A seed that stops short of the
    layer leaves the pass halving toward v = 1 one panel pair per
    generation."""
    return _UNIT_EDGES[:-1] + tuple(1.0 - 2.0 ** -j for j in range(3, depth + 1)) + (1.0,)


# every pass probes the same 33 nodes a half
_EULER_PROBE = np.linspace(1.0 / 64, 1.0 - 1.0 / 64, 33)
_EULER_PROBE.flags.writeable = False


def _euler_integral(log_f, a, c, tol: float, method: str) -> QuadratureResult:
    """int_0^1 u^(a_j-1) (1-u)^(c_j-a_j-1) f_j(u) du for each row j, in one
    adaptive pass; value and err_estimate are length-k arrays.

    a and c are length-k arrays with Re a_j > 0 and Re(c_j-a_j) > 0; log_f
    maps nodes u of shape (n,) to log f_j(u) of shape (k, n).  No Gamma
    prefactor is applied here (see ``_euler_value``).  The halves are the
    pieces, as the maps u = v^g/2 and u = 1 - v^g/2 from their nodes v to
    the points of log_f, so log_f is called once per adaptive generation
    for both halves; each half's finish adds the row factors in log space
    and exponentiates.  Each side has its own g, from all rows' exponents
    on it, a (left) and c-a (right), by ``_grade``.  g = 1 where every
    exponent on the side is a positive integer (the closed forms' right
    halves, c-a = m+1, and every row at q = 1.2, 1.5 or 2); otherwise the
    roughest end factor v^(g*e-1) is v^4 (down to v^0.5 at the cap
    g = 1000), and an exponent below 0.0015 raises NotConverged.  The
    integrand is formed in log space, with log t = log(1/2) + g log v, so
    u^(a-1) never underflows to 0.  Each half maps a run of nodes once
    (``_euler_half``): its points and its finish share log v, t and
    log1p(-t), and nothing is kept between runs.  Each row is divided by
    exp of its largest probe log-magnitude (33 nodes a half, both halves),
    which is restored only on the result; the probe nodes ride on the
    first generation's log_f call, ahead of its seed nodes, so the scale is
    set before any panel is finished and no call is spent on it alone.  A
    result that overflows, or a scaled node value that would (a peak
    between the probe nodes), raises NotConverged.  Each half starts from
    ``_UNIT_EDGES``' four panels, and a graded half (g > 1) adds the ladder
    1 - 2^-j down to the width of its steepest row's layer at v = 1
    (``_layer_depth``), where the pass would otherwise spend a generation
    per halving.
    """
    _check_tol(tol)
    a, c = np.asarray(a, dtype=complex), np.asarray(c, dtype=complex)
    ca = c - a
    size = max(1.0, float(np.abs(np.concatenate([a, c])).max()))
    exponents = a[:, None] - 1.0, ca[:, None] - 1.0
    g_left, g_right = _grade(a, size, "a", method), _grade(ca, size, "c-a", method)
    depths = _layer_depth(g_left, a), _layer_depth(g_right, ca)
    halves = (_euler_half(g_left, False, *exponents), _euler_half(g_right, True, *exponents))
    n = _EULER_PROBE.size
    (u_left, rows_left), (u_right, rows_right) = (h(_EULER_PROBE) for h in halves)
    probe_u = np.concatenate([u_left, u_right])
    log_scale = None

    def ev(u):  # the first generation's log_f call takes the probe nodes too
        nonlocal log_scale
        if log_scale is not None:
            return log_f(u)
        log_fu = log_f(np.concatenate([probe_u, u]))
        log_scale = np.maximum(rows_left(log_fu[:, :n]).real.max(axis=1),
                               rows_right(log_fu[:, n:2 * n]).real.max(axis=1))
        return log_fu[:, 2 * n:]

    def piece(half, depth):  # each row's integrand over its probe peak exp(log_scale)
        def sample(v):
            u, log_rows = half(v)

            def finish(log_fu):
                log_rel = log_rows(log_fu)
                log_rel -= log_scale[:, None]
                if log_rel.real.max() > _LOG_MAX:  # a peak the probe missed, past the doubles
                    raise NotConverged(f"Euler integral overflows double precision ({method})")
                return np.exp(log_rel, out=log_rel)

            return u, finish

        return _Piece(_euler_ladder(depth), sample)

    res = _adaptive([piece(h, d) for h, d in zip(halves, depths)], ev, 0.5 * tol,
                    1_000_000, method)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        scale = np.exp(log_scale)
        value, err = scale * res.value, scale * res.err_estimate
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(err))):
        raise NotConverged(f"Euler integral overflows double precision ({method})")
    return QuadratureResult(value, err, res.evaluations, method)


def _euler_half(g: int, right: bool, am1, cam1):
    """One half of an Euler pass, u = v^g/2 (left) or 1 - v^g/2 (right),
    as a node map v -> (u, log_rows).

    The map takes log v, t = v^g/2 and log1p(-t) once; log_rows(log_fu)
    turns log f at u into each row's log integrand at v: the end factors
    (a-1) log u and (c-a-1) log(1-u), log f and the Jacobian
    log(g/2) + (g-1) log v, summed in this order.  am1 and cam1 are the
    rows' exponent columns a-1 and c-a-1.
    """
    log_half_g = math.log(0.5 * g)

    def sample(v):
        log_v = np.log(v)
        log_t = math.log(0.5) + g * log_v
        t = np.exp(log_t)
        if right:
            u, log_u, log_1mu = 1.0 - t, np.log1p(-t), log_t
        else:
            u, log_u, log_1mu = t, log_t, np.log1p(-t)

        def log_rows(log_fu):
            out = am1 * log_u
            out += cam1 * log_1mu
            out += log_fu
            out += log_half_g
            out += (g - 1) * log_v
            return out

        return u, log_rows

    return sample


def _euler_value(log_f, a: complex, c: complex, tol: float, method: str) -> QuadratureResult:
    """Gamma(c)/(Gamma(a)Gamma(c-a)) times the one-row Euler integral of f,
    the F_D and Kummer value; the prefactor joins log f, so no Gamma is
    ever formed outside log space."""
    from scipy import special as _sp

    log_pref = _sp.loggamma(c) - _sp.loggamma(a) - _sp.loggamma(c - a)
    res = _euler_integral(lambda u: log_pref + log_f(u)[None, :], [a], [c], tol, method)
    return QuadratureResult(complex(res.value[0]), float(res.err_estimate[0]),
                            res.evaluations, method)


def _phi_asymptotic(a: complex, b: complex, z: complex) -> complex:
    # large-|z| expansion; truncated at the smallest term
    from scipy import special as _sp

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
    For Re z < 0 the series is summed through Kummer's transformation
    phi(a, b; z) = e^z phi(b - a, b; -z) (DLMF 13.2.39): at z itself its
    terms grow to about e^|z| and cancel down to a value near e^Re z, which
    at (p, 2p, -2i srad |k|) of the printed momentum amplitude lost 1e-5 of
    the value from |z| ~ 27.  Next to the imaginary axis the terms cancel at
    z and -z alike (phi(1, 2; 29i) lost 2.1e-5): where eps max|term| passes
    tol |sum|, the integral is taken instead if Re b > Re a > 0, and
    NotConverged is raised otherwise.  The integral branch raises NotConverged where
    Re a or Re(b-a) is below 0.0015, the exponent its endpoint grading
    cannot smooth (``_grade``).  ValueError for an a, b or z that is not
    finite.
    """
    _check_tol(tol)
    a, b, z = complex(a), complex(b), complex(z)
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(z)):
        raise ValueError(f"a, b and z must be finite; got a={a!r}, b={b!r}, z={z!r}")
    if _is_nonpositive_integer(b):
        raise ParameterPole(f"lower parameter b={b} is a non-positive integer")
    euler = b.real > a.real > 0.0
    if abs(z) <= _KUMMER_SERIES_RADIUS:
        series = _phi_series(b - a, b, -z, tol) if z.real < 0.0 else _phi_series(a, b, z, tol)
        if series is not None:
            return cmath.exp(z) * series if z.real < 0.0 else series
        if not euler:
            raise NotConverged(f"the Kummer series at a={a!r}, b={b!r}, z={z!r} cancels "
                               f"past tol={tol!r}, and Re b > Re a > 0 fails")
    elif not euler:
        return _phi_asymptotic(a, b, z)
    return _euler_value(lambda t: z * t, a, b, tol, "kummer-integral").value


def _debye_polynomials(n: int) -> np.ndarray:
    """(n+1, 3n+1) array: row k holds the t^i coefficients of Debye's u_k(t)
    (DLMF 10.41.10), built by the recurrence 10.41.9,
    u_{k+1} = t^2 (1 - t^2) u_k'(t) / 2 + int_0^t (1 - 5 s^2) u_k(s) ds / 8."""
    out = np.zeros((n + 1, 3 * n + 1))
    out[0, 0] = 1.0
    i = np.arange(3 * n - 2)
    for k in range(n):
        u = out[k, :3 * n - 2]
        out[k + 1, 1:3 * n - 1] += i * u / 2.0 + u / (8.0 * (i + 1))
        out[k + 1, 3:] -= i * u / 2.0 + 5.0 * u / (8.0 * (i + 3))
    return out


_DEBYE_U = _debye_polynomials(12)
_DEBYE_MIN_ORDER = 30.0  # from here Debye's 12 terms hold g to ~1e-12
_HANKEL_MIN_ABS = 1e8    # scipy's kve reads nan from about |z| = 1e12
_HANKEL_LEAD_ABS = 1e300  # Hankel's corrections round away; his 8z overflows from ~1e307


def _log_bessel_g(nu: float, z) -> np.ndarray:
    """log g(z), where g(z) = 2 (z/2)^nu K_nu(z) / Gamma(nu), for an order
    nu > 0 and complex z with |arg z| < pi/4.

    g is K_nu normalised to g(0) = 1; on the real axis it falls from 1 to 0,
    while K_nu itself overflows as z -> 0 once nu is large.  From order 30 up
    the whole range is one formula: Debye's uniform expansion (DLMF 10.41.4)
    of K_nu(nu w) divided by its own w -> 0 limit, in which the Gamma
    function and every large power cancel exactly.  Below order 30 it is
    scipy's exponentially scaled kve in log space, one pass over every lane
    (lanes outside kve's range take z = 1 there), and only when some lane
    is outside that range, or refused by kve, are those lanes patched: with
    Hankel's expansion (DLMF 10.40.2) past |z| = 1e8, and where kve would
    overflow or refuse (z = 0, tiny or subnormal |z|), with the series of
    K_nu ended after its first term:
    g = 1 to double precision from order 1 up (1 - g < 1e-19 there), and
    g = 1 - Gamma(1-nu)/Gamma(1+nu) (z/2)^(2 nu) below, which still matters
    as nu -> 0.  Where either form would overflow (Debye's w^2 from
    |z| ~ 1e154 nu, Hankel's terms from |z| ~ 1e307), Hankel's corrections
    are below 1e-138 and his leading term alone is exact in doubles: it
    takes the lanes that Debye's form leaves non-finite and, below order 30,
    every lane past |z| = 1e300.  So every finite z gives a finite value.
    """
    from scipy import special as _sp

    z = np.asarray(z, dtype=complex)

    def prefactor(w):  # log(g / kve(nu, w)) = log(2 (w/2)^nu e^(-w) / Gamma(nu))
        return math.log(2.0) - _sp.gammaln(nu) + nu * np.log(0.5 * w) - w

    if nu >= _DEBYE_MIN_ORDER:
        coef = (-1.0 / nu) ** np.arange(len(_DEBYE_U)) @ _DEBYE_U
        with np.errstate(over="ignore", invalid="ignore"):  # the far lanes, replaced below
            w2 = (z / nu) ** 2
            s = np.sqrt(1.0 + w2)
            d = w2 / (1.0 + s)  # s - 1 without cancellation
            series = np.polynomial.polynomial.polyval(1.0 / s, coef)
            out = np.asarray(nu * (_sp.log1p(0.5 * d) - d) - 0.25 * _sp.log1p(w2)
                             + np.log(series / np.sum(coef)))
        far = ~np.isfinite(out)
    else:
        r = np.abs(z)  # inf past the largest double: a far lane
        tiny = max(2.0 * math.exp((_sp.gammaln(nu) - 700.0) / nu), np.finfo(float).tiny)
        patch = (r < tiny) | (r > _HANKEL_MIN_ABS)
        odd = patch.any()
        safe = np.where(patch, 1.0, z) if odd else z  # every lane in one kve pass
        out = np.asarray(np.log(_sp.kve(nu, safe)))
        refused = ~np.isfinite(out)  # kve (AMOS) reads inf or nan below |z| ~ 2.2e-305
        if refused.any():
            patch |= refused
            odd = True
        out += prefactor(safe)
        if not odd:
            return out
        low = patch & (r <= _HANKEL_MIN_ABS)  # z = 0, below kve's range or refused by it
        out[low] = 0.0
        if nu < 1.0:  # K_nu's series (DLMF 10.27.4, 10.25.2) to its first z^(2 nu) term
            small = low & (r > 0.0)
            out[small] = _sp.log1p(-math.exp(_sp.gammaln(1.0 - nu) - _sp.gammaln(1.0 + nu))
                                   * np.exp(2.0 * nu * (np.log(z[small]) - math.log(2.0))))
        far = r > _HANKEL_LEAD_ABS
        big = (r > _HANKEL_MIN_ABS) & ~far
        zb, mu = z[big], 4.0 * nu * nu
        out[big] = 0.5 * np.log(0.5 * math.pi / zb) + np.log(
            1.0 + (mu - 1.0) / (8.0 * zb) * (1.0 + (mu - 9.0) / (16.0 * zb)
                                             * (1.0 + (mu - 25.0) / (24.0 * zb)))) + prefactor(zb)
    if far.any():  # Hankel's leading term sqrt(pi/2z)
        zf = z[far]
        out[far] = -0.5 * np.log(zf / (0.5 * math.pi)) + prefactor(zf)
    return out


# Bernoulli numbers B_2, B_4, ..., B_20 (DLMF Table 24.2.1); B_k = 0 for odd k > 1
_BERNOULLI = dict(zip(range(2, 21, 2), map(Fraction, (
    "1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510",
    "43867/798", "-174611/330"))))


def _ratio_series_coefficients(n: int) -> np.ndarray:
    """c_k, k = 2..n (n <= 20), of log Gamma(x - 1/2) - log Gamma(x) ~
    -log(x)/2 + sum_k c_k x^(1-k): the difference of DLMF 5.11.8 at h = -1/2
    and h = 0, the log form of the ratio series 5.11.13.  c_k = (-1)^k
    (B_k(-1/2) - B_k) / (k (k-1)), with B_k(-1/2) = (2^(1-k) - 1) B_k -
    k (-1/2)^(k-1), each formed exactly and rounded once."""
    half = Fraction(1, 2)
    return np.array([float((-1) ** k * ((half ** (k - 1) - 2) * _BERNOULLI.get(k, 0)
                                        - k * (-half) ** (k - 1)) / (k * (k - 1)))
                     for k in range(2, n + 1)])


_RATIO_SERIES = _ratio_series_coefficients(20)
_RATIO_SERIES_MIN_X = 6.0  # from here 19 terms hold the log to ~1e-15


def _log_gamma_ratio_half(x: float) -> float:
    """log Gamma(x - 1/2) - log Gamma(x) for real x > 1/2.

    A difference of two loggamma values loses their size in absolute
    digits (9.3e-13 at x = 1000), so from x = 6 up it is the asymptotic
    ratio series, which forms the difference directly; below, loggamma.
    """
    if x < _RATIO_SERIES_MIN_X:
        return math.lgamma(x - 0.5) - math.lgamma(x)
    return -0.5 * math.log(x) + float(np.polynomial.polynomial.polyval(1.0 / x, _RATIO_SERIES)) / x


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


_QUIET_SHELLS = 3  # consecutive shells below tol that end the F_D series


def lauricella_fd_series(args: LauricellaArgs, tol: float = 1e-10,
                         max_degree: int = 400) -> QuadratureResult:
    """Sum the F_D series by total degree.

    The shell sum S_N = sum_{|m|=N} prod (b_i)_{m_i} x_i^{m_i} / m_i! is the
    N-th Taylor coefficient of g(t) = prod (1 - x_i t)^(-b_i); from
    g' P = g Q with P = prod(1 - x_i t) and Q = sum_i b_i x_i prod_{j != i}
    (1 - x_j t) it satisfies
        (N+1) S_{N+1} = -sum_{j=1..4} p_j (N+1-j) S_{N+1-j}
                        + sum_{j=0..3} q_j S_{N-j},
    and F_D = sum_N [(a)_N / (c)_N] S_N.  Stops once ``_QUIET_SHELLS``
    consecutive shells fall below tol relative to the running sum.
    """
    _check_tol(tol)
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
            if quiet >= _QUIET_SHELLS:
                rem = sum(tail[-_QUIET_SHELLS:]) * (1.0 / max(1.0 - xm, 1e-3))
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
    BranchCrossing instead of silently continuing.  The integral is one
    row of ``_euler_integral`` with exponents a and c: the integrand's log,
    (a-1) log u + (c-a-1) log(1-u) - sum_i b_i log(1 - u x_i) plus the
    log Gamma prefactor, is exponentiated only after the row's largest
    probe log-magnitude is taken out, so no factor under- or overflows.
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

    def log_core(u):
        return sum(-b * np.log(1.0 - u * x) for b, x in zip(bs, xs))

    return _euler_value(log_core, a, c, tol, "fd-integral")


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
