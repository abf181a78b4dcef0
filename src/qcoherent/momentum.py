"""Momentum-space amplitudes and probability densities.

Three routes give the amplitude phi(k) = (2 pi)^(-1/2) int psi(x) e^(-ikx) dx,
all with the exact Gaussian dispatch at the q = 1 sentinel and defined for
1 <= q < 3 (the amplitude must be absolutely integrable):

* ``momentum_amplitude_bessel``, the engine of ``momentum_pd``: the exact
  transform in closed form.  With w = x - sqrt2 alpha the state's bracket is
  ((q-1)/2) (w^2 + c^2), c = ``states._root_c`` (the state itself is
  evaluated as 1 + s^2 u, ``states._bracket``, the same bracket expanded),
  and Re c > sqrt2 |Im alpha| for every q > 1, so the contour
  shifts back to the real w axis and Basset's integral (DLMF 10.32.11)
  gives a Bessel-K expression in k, vectorised over any k array.
* ``momentum_amplitude_oracle``: numerical Fourier quadrature with the
  oscillatory-tail machinery in ``quadrature``, vectorised over k: the
  transforms at several k share one adaptive pass over x and one tail
  stream.  It is the independent check of the Bessel form in the tests and
  in ``verify``.
* ``momentum_amplitude_closed``: a confluent-hypergeometric (Kummer phi)
  expression *exactly as printed in its source*, k != 0.  It is kept in
  quarantine: its k -> 0 limit vanishes for q < 3 while the transform's
  does not, so the verification report records its behaviour instead of
  patching it silently.

Probability density is always pd(k) = |amplitude(k)|^2; every distribution
carries a Parseval total as a closure diagnostic.  The total is integrated
adaptively (not summed over the sample grid): the position tail |x|^(-2p)
puts a |k|^(2p-1) kink at k = 0, which silently degrades a uniform
trapezoid sum to O(h^2) once q reaches 2, while grading the kink keeps the
diagnostic at its requested accuracy for the whole momentum window.  The
window is symmetric and sized from the density's exponential decay rate,
so the pass folds it onto k >= 0: it integrates pd(k) + pd(-k), with one
graded side at k = 0, half the pieces and nodes of the unfolded window.
The Bessel amplitude is exp(log_mod -+ i sqrt2 alpha k) at +-k with the same
log_mod, so each node takes the Bessel factor g(c|k|) once for both signs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import NotConverged
from .quadrature import (IntegrandSpec, _check_index, _check_tol, fourier_transform_line,
                         integrate_interval)
from .specfun import _log_bessel_g, _log_gamma_ratio_half, kummer_phi
from .states import (SQRT2, _bracket_sr, _psi_un, _require_open_window, _root_c,
                     coherent_psi, normalization_constant, require_alpha, require_window)

__all__ = [
    "Q_MOMENTUM_MAX",
    "MomentumSample",
    "MomentumDistribution",
    "default_k_grid",
    "momentum_amplitude_bessel",
    "momentum_amplitude_oracle",
    "momentum_amplitude_closed",
    "momentum_pd",
    "grid_momentum_moments",
]

Q_MOMENTUM_MAX = 3.0  # |psi| ~ |x|^(-2/(q-1)) is L1 iff q < 3


class MomentumSample(NamedTuple):
    """One grid point of a distribution: k, the amplitude there, its
    pd = abs(amplitude) ** 2 and the method that gave it.

    A tuple: it unpacks as (k, amplitude, pd, method) and its fields
    cannot be assigned; ``_replace`` returns a changed copy
    (``dataclasses.replace`` does not apply).
    """

    k: float
    amplitude: complex
    pd: float
    method: str


@dataclass(frozen=True)
class MomentumDistribution:
    """Momentum density sampled on a k grid, with its Parseval total.

    ``parseval_total`` is the integral of ``|amplitude|^2`` over the window
    that ``momentum_pd`` sizes.  For method 'oracle' (the exact transform)
    it is a closure check and reads 1 to ~1e-10.  For method 'closed-form'
    it is not a closure: the printed amplitude grows with |k|, so the
    number measures the window (4.6e27 at q = 1.5, alpha = 0.3i) and says
    nothing about normalisation.
    """

    q: float
    alpha: complex
    samples: tuple[MomentumSample, ...]
    parseval_total: float
    method: str

    @property
    def k_values(self) -> np.ndarray:
        return np.array([s.k for s in self.samples])

    @property
    def pd_values(self) -> np.ndarray:
        return np.array([s.pd for s in self.samples])

    @property
    def amplitude_values(self) -> np.ndarray:
        return np.array([s.amplitude for s in self.samples])


def default_k_grid(alpha: complex, n: int = 401) -> np.ndarray:
    """Uniform grid on [-(8 + 2|alpha|), 8 + 2|alpha|], n points (401 by
    default); ValueError for an n that is not an integer.

    A sampling grid only: where the density decays slowly (q near 3, or a
    large |Im alpha|) it still carries visible mass past the ends, which is
    why the Parseval total sizes its own window.
    """
    n = _check_index(n, "n")
    half = 8.0 + 2.0 * abs(require_alpha(alpha))
    return np.linspace(-half, half, n)


def _mirrored(amplitudes):
    """ks -> (amplitudes(ks), amplitudes(-ks))."""
    return lambda ks: (amplitudes(ks), amplitudes(-ks))


def _bessel_amplitudes(q: float, alpha: complex, a_const):
    """(amplitudes, mirrored): ks -> ``momentum_amplitude_bessel``(q, alpha, ks)
    and ks -> (phi(ks), phi(-ks)), with the factors that do not depend on k
    (c, log phi(0)) formed once, here, for every call of either.  The
    normalisation constant A is ``a_const``, which the caller takes (the
    public routes from ``normalization_constant``); at q = 1 it is not read.

    phi(k) = exp(log_mod - i sqrt2 alpha k), and log_mod = log phi(0) +
    log g(c|k|) is the same at k and -k, so ``mirrored`` takes g once per
    |k| and forms both amplitudes from it, bit for bit as two calls would.
    """
    if q == 1.0:
        def gaussian(k):  # the transform of a coherent state is the one at -i alpha
            return coherent_psi(-1j * alpha, k)

        return gaussian, _mirrored(gaussian)
    from scipy.special import log1p

    p = 1.0 / (q - 1.0)
    c = _root_c(q, alpha)
    log_phi0 = (
        math.log(abs(complex(a_const))) - 0.5 * math.log(2.0)
        + _log_gamma_ratio_half(p) + cmath.log(c)
        - p * log1p((q - 1.0) * (alpha.imag ** 2 - 1j * alpha.real * alpha.imag))
    )
    # |phi| falls like exp(-r|k|) with r = Re c - sqrt2 |Im alpha| >=
    # |c| p / (3|alpha|^2 + 2p), so where that bound times |k| passes 1e30
    # phi is 0 in doubles.  Sampling those k at 0 instead keeps c|k| and
    # sqrt2 alpha k finite for every alpha the normalisation accepts
    # (|alpha| below ~1e24).
    k_live = 1e30 * (3.0 * abs(alpha) ** 2 + 2.0 * p) / (abs(c) * p)

    def log_parts(k):  # (live lanes, log_mod, i sqrt2 alpha k), dead lanes taken at k = 0
        live = np.abs(k) <= k_live
        k = np.where(live, k, 0.0)
        return live, log_phi0 + _log_bessel_g(p - 0.5, c * np.abs(k)), 1j * SQRT2 * alpha * k

    def amplitudes(k):
        live, log_mod, turn = log_parts(k)
        return np.where(live, np.exp(log_mod - turn), 0.0)

    def mirrored(k):
        live, log_mod, turn = log_parts(k)
        return (np.where(live, np.exp(log_mod - turn), 0.0),
                np.where(live, np.exp(log_mod + turn), 0.0))

    return amplitudes, mirrored


def momentum_amplitude_bessel(q: float, alpha: complex, k, tol: float = 1e-10):
    """Normalised momentum amplitude in closed form, vectorised over k.

    With p = 1/(q-1), nu = p - 1/2, c from ``states._root_c`` and
    g(z) = 2 (z/2)^nu K_nu(z) / Gamma(nu), so that g(0) = 1:

        phi(k) = A 2^(-1/2) Gamma(nu)/Gamma(p) c (1 + (q-1)(b^2 - i a b))^(-p)
                 * g(c |k|) e^(-i sqrt2 alpha k),          alpha = a + i b,

    which is Basset's integral A (2 pi)^(-1/2) ((q-1)/2)^(-p) 2 sqrt(pi)/Gamma(p)
    (|k|/2c)^nu K_nu(c|k|) e^(-i sqrt2 alpha k) rewritten so that k = 0 is
    an ordinary point.  Everything but A is one exponent, so no factor
    overflows on its own at large |k| |Im alpha| or as q -> 1; where the
    decay takes phi below the doubles it is 0, for every finite k.  ``tol``
    is the accuracy of the normalisation constant A, the one quadrature.
    Returns a complex for scalar k, an ndarray otherwise.
    """
    require_window(q, Q_MOMENTUM_MAX, "momentum amplitude")
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("k must be finite")
    alpha = require_alpha(alpha)
    if q != 1.0:
        _root_c(q, alpha)  # roots past the doubles are refused as such, before A's pass
    out = _bessel_amplitudes(q, alpha, normalization_constant(q, alpha, tol=tol))[0](k)
    return out if k.ndim else complex(out)


def _psi_transforms(qs, alpha: complex, k, tol: float) -> np.ndarray:
    """(2 pi)^(-1/2) int psi_un(q, alpha, x) e^(-ikx) dx for every q > 1 of
    ``qs``, unnormalised: one ``fourier_transform_line`` pass whose (m, n)
    evaluator holds the m = len(qs) states, each transform held to its own
    target.  Row i is qs[i]'s, shaped like k; one q gives the scalar
    pass's numbers bit for bit.  The core half-width depends on alpha
    alone, so every q shares it."""
    core = max(16.0, 8.0 + 4.0 * abs(alpha))
    return fourier_transform_line(lambda x: np.array([_psi_un(q, alpha, x) for q in qs]),
                                  k, tol=tol, core_halfwidth=core).value


def momentum_amplitude_oracle(q: float, alpha: complex, k, tol: float = 1e-9):
    """Normalised momentum amplitude by direct Fourier quadrature,
    vectorised over k: one ``fourier_transform_line`` pass for all of them
    (``_psi_transforms``).  Returns a complex for scalar k, an ndarray
    otherwise; ValueError for a tol that is not positive and finite, at
    q = 1 too."""
    require_window(q, Q_MOMENTUM_MAX, "momentum amplitude")
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError(f"k must be finite; got {k}")
    alpha = require_alpha(alpha)
    _check_tol(tol)
    if q == 1.0:
        return coherent_psi(-1j * alpha, k)
    a_const = normalization_constant(q, alpha, tol=tol)
    transform = _psi_transforms((q,), alpha, k if k.ndim else float(k), tol)[0]
    return complex(a_const) * (transform if k.ndim else complex(transform))


def _kummer_amplitude(q: float, alpha: complex, k: float, a_const, tol: float) -> complex:
    """``momentum_amplitude_closed`` at finite k != 0 and 1 < q < 3 with the
    normalisation constant A = ``a_const``, which the caller takes; the
    Kummer function is summed at ``tol``."""
    from scipy.special import loggamma

    p = 1.0 / (q - 1.0)
    srad = _bracket_sr(q, alpha, abs(alpha) ** 2)
    sgn = math.copysign(1.0, k)
    log_pref = (
        math.log(math.sqrt(2.0 * math.pi) * abs(complex(a_const)))
        + (2.0 * p - 1.0) * math.log(abs(k))
        - float(loggamma(2.0 * p))
    )
    phase = -1j * math.pi * sgn * p + 1j * (SQRT2 * alpha + srad)
    phi = kummer_phi(p, 2.0 * p, -2j * srad * abs(k), tol=tol)
    return sgn * cmath.exp(log_pref + phase) * phi


def momentum_amplitude_closed(q: float, alpha: complex, k: float,
                              tol: float = 1e-10) -> complex:
    """Kummer-phi closed expression for the amplitude, as printed; k != 0.

    With p = 1/(q-1) and rad = alpha^2 - |alpha|^2 - 2/(q-1):

        phi(k) = sgn(k) sqrt(2 pi) A |k|^(2p-1) / Gamma(2p)
                 * exp(-i pi sgn(k) p) * exp(i (sqrt2 alpha + sqrt(rad)))
                 * M(p, 2p, -2 i sqrt(rad) |k|),

    M being Kummer's confluent function.  Quarantine note: the |k|^(2p-1)
    factor forces phi -> 0 as k -> 0 whenever q < 3, which contradicts
    the quadrature oracle's non-zero phi(0); treat this route as a
    reproduction of its source, not as ground truth.  ``tol`` is the
    accuracy of M and of A, which comes from ``normalization_constant`` at
    that tol, as in the other amplitude routes (ValueError for a tol that
    is not positive and finite).
    """
    if k == 0.0 or not math.isfinite(k):
        raise ValueError("the printed closed form is defined for finite k != 0 only")
    _require_open_window(q, Q_MOMENTUM_MAX, "closed momentum amplitude")
    _check_tol(tol)
    alpha = require_alpha(alpha)
    _bracket_sr(q, alpha, abs(alpha) ** 2)  # roots past the doubles are refused before A's pass
    return _kummer_amplitude(q, alpha, k, normalization_constant(q, alpha, tol=tol), tol)


_PARSEVAL_TOL = 1e-6  # comfortably inside the 1e-4 closure contract


def _parseval_total(mirrored, alpha: complex, grid: np.ndarray, rate: float) -> float:
    """Adaptive integral of |phi(k)|^2 over a symmetric window, folded onto
    k >= 0: the integrand is d(k) + d(-k), with the amplitudes at k and -k
    from one ``mirrored`` call, ks -> (phi(ks), phi(-ks)).

    The density's own window is [-own, own], own = max(8 + 2|alpha|, 40/rate):
    it covers the default grid and reaches 40/rate for a density that
    decays like exp(-rate |k|), so that ~e^(-40) of its mass lies outside.
    The k = 0 singularity hint grades the folded density's |k|^(2p-1) kink
    at the start of [0, own], so the estimate holds its accuracy at every q
    in the momentum window.  A grid that reaches past own widens the
    window to it; [own, half] is a second pass of the same integrand, so a
    wide grid never spreads the first pass's panels too thin to see the
    peak near k = 0.
    """
    def folded(ks):
        plus, minus = mirrored(ks)
        return np.abs(plus) ** 2 + np.abs(minus) ** 2

    own = max(8.0 + 2.0 * abs(alpha), 40.0 / rate)
    half = max(own, abs(float(grid[0])), abs(float(grid[-1])))
    spec = IntegrandSpec(folded, singularities=(0.0,))
    total = float(integrate_interval(spec, 0.0, own, tol=_PARSEVAL_TOL).value.real)
    if half > own:
        total += float(integrate_interval(folded, own, half, tol=_PARSEVAL_TOL).value.real)
    return total


def _bessel_pd(q: float, alpha: complex, a_const, grid: np.ndarray):
    """(amplitudes, parseval_total) of the exact transform normalised by
    A = ``a_const``, which the caller takes: ks -> phi(ks) from
    ``_bessel_amplitudes``, and its Parseval total over the window
    ``_parseval_total`` sizes for ``grid`` from the density's decay rate
    2 (Re c - sqrt2 |Im alpha|) (infinite at q = 1).  From |Im alpha| ~ 1e8
    that difference cancels, and a rate that is not positive is refused
    (NotConverged)."""
    rate = math.inf
    if q != 1.0:
        rate = 2.0 * (_root_c(q, alpha).real - SQRT2 * abs(alpha.imag))
        if not rate > 0.0:
            raise NotConverged(f"the momentum density's decay rate at q={q!r}, "
                               f"alpha={alpha!r} cancels to {rate!r}")
    amplitudes, mirrored = _bessel_amplitudes(q, alpha, a_const)
    return amplitudes, _parseval_total(mirrored, alpha, grid, rate)


def momentum_pd(q: float, alpha: complex, k_grid=None, method: str = "oracle",
                tol: float = 1e-9) -> MomentumDistribution:
    """pd(k) = |amplitude(k)|^2 on a grid, plus an adaptive Parseval total.

    method='oracle' takes the exact transform, ``momentum_amplitude_bessel``
    (``tol`` is the accuracy of its normalisation constant), for the
    samples and the total alike; no Fourier quadrature is run.  With
    method='closed-form' the samples and the total come from the printed
    form, and the k = 0 grid point (if present) is assigned the printed
    form's own k -> 0 limit, which is exactly 0 for q < 3, a deliberate
    faithful reproduction; compare with the oracle.  The closed-form
    ``parseval_total`` is then the printed density's integral over the
    fixed default window, not a closure: that density does not decay, and
    the total reads 4.6e27 at q = 1.5, alpha = 0.3i.
    """
    require_window(q, Q_MOMENTUM_MAX, "momentum distribution")
    alpha = require_alpha(alpha)
    grid = default_k_grid(alpha) if k_grid is None else np.asarray(k_grid, float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("k_grid must be a 1-d grid with at least two points")
    # the Parseval window [-half, half] covers the grid and needs a finite width
    if not (np.abs(grid) <= 0.5 * np.finfo(float).max).all():
        raise ValueError("k_grid must be finite, with |k| at most half the largest double")
    if method not in ("oracle", "closed-form"):
        raise ValueError(f"unknown method {method!r}")
    _check_tol(tol)

    if method == "oracle" or q == 1.0:  # A, c, phi(0) once per pd
        amplitudes, total = _bessel_pd(q, alpha, normalization_constant(q, alpha, tol=tol), grid)
    else:  # A once per pd; the printed density does not decay: the fixed window
        a_const = normalization_constant(q, alpha)

        def amplitudes(ks: np.ndarray) -> np.ndarray:
            return np.array([_kummer_amplitude(q, alpha, float(k), a_const, 1e-10) if k != 0.0
                             else 0.0 + 0.0j for k in ks])
        total = _parseval_total(_mirrored(amplitudes), alpha, grid, math.inf)

    # Python's abs, not np.abs, which differs in the last bit on some values;
    # tuple.__new__ builds each MomentumSample in C, from its fields
    zs = amplitudes(grid).tolist()
    samples = tuple(map(tuple.__new__, repeat(MomentumSample),
                        zip(grid.tolist(), zs, map(pow, map(abs, zs), repeat(2)),
                            repeat(method))))
    return MomentumDistribution(q, alpha, samples, total, method)


def grid_momentum_moments(dist: MomentumDistribution) -> tuple[float, float]:
    """(<k>, <k^2>) by trapezoid over the sampled density.

    The k and k^2 weights vanish at the origin, which tames the density's
    k = 0 kink enough that the default 401-point grid holds these moments
    well inside the 1e-4 route-consistency contract for every q in the
    momentum window.
    """
    k = dist.k_values
    pd = dist.pd_values
    return (
        float(np.trapezoid(k * pd, k)),
        float(np.trapezoid(k * k * pd, k)),
    )
