"""Momentum-space amplitudes and probability densities.

The oracle route Fourier-transforms the normalised position wavefunction
numerically, phi(k) = (2 pi)^(-1/2) int psi(x) exp(-i k x) dx, using the
oscillatory-tail machinery in ``quadrature``.  It exists for
1 <= q < 3 (the amplitude must be absolutely integrable) with the exact
Gaussian dispatch at the q = 1 sentinel.

The closed route evaluates a confluent-hypergeometric (Kummer phi)
expression for the same amplitude *exactly as printed in its source*,
k != 0.  That expression is kept in quarantine: its k -> 0 limit
vanishes for q < 3 while the oracle's does not, so the package treats
the oracle as authoritative and surfaces the closed form's behaviour in
the verification report instead of patching it silently.

Probability density is always pd(k) = |amplitude(k)|^2; every
distribution carries a Parseval total as a closure diagnostic.  The total
is integrated adaptively (not summed over the sample grid): the position
tail |x|^(-2p) puts a |k|^(2p-1) kink at k = 0, which silently degrades a
uniform trapezoid sum to O(h^2) once q reaches 2, while grading both sides
of the kink keeps the diagnostic at its requested accuracy for the whole
momentum window.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .errors import OutOfValidityWindow
from .quadrature import IntegrandSpec, fourier_transform_line, integrate_interval
from .specfun import kummer_phi
from .states import SQRT2, _psi_un, normalization_constant, require_window

__all__ = [
    "Q_MOMENTUM_MAX",
    "MomentumSample",
    "MomentumDistribution",
    "default_k_grid",
    "momentum_amplitude_oracle",
    "momentum_amplitude_closed",
    "momentum_pd",
    "grid_momentum_moments",
]

Q_MOMENTUM_MAX = 3.0  # |psi| ~ |x|^(-2/(q-1)) is L1 iff q < 3


@dataclass(frozen=True)
class MomentumSample:
    k: float
    amplitude: complex
    pd: float
    method: str


@dataclass(frozen=True)
class MomentumDistribution:
    """Momentum density sampled on a k grid, with its Parseval closure."""

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
    """Uniform grid on [-(8 + 2|alpha|), 8 + 2|alpha|], 401 points.

    Wide enough that the exponentially decaying tails of |phi|^2 are
    below double-precision relevance for every q in the momentum window.
    """
    half = 8.0 + 2.0 * abs(complex(alpha))
    return np.linspace(-half, half, n)


def _gaussian_amplitude(alpha: complex, k: float) -> complex:
    # exact transform of the ordinary coherent state
    alpha = complex(alpha)
    return math.pi ** -0.25 * cmath.exp(
        -0.5 * (k * k + 2.0 * SQRT2 * 1j * alpha * k - alpha * alpha + abs(alpha) ** 2)
    )


def momentum_amplitude_oracle(q: float, alpha: complex, k: float,
                              tol: float = 1e-9) -> complex:
    """Normalised momentum amplitude by direct Fourier quadrature."""
    require_window(q, Q_MOMENTUM_MAX, "momentum amplitude")
    if not math.isfinite(k):
        raise ValueError(f"k must be finite; got {k}")
    alpha = complex(alpha)
    if q == 1.0:
        return _gaussian_amplitude(alpha, k)
    a_const = normalization_constant(q, alpha, tol=tol)

    core = max(16.0, 8.0 + 4.0 * abs(alpha))
    res = fourier_transform_line(lambda x: _psi_un(q, alpha, x), float(k), tol=tol,
                                 core_halfwidth=core)
    return complex(a_const) * res.value


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
    reproduction of its source, not as ground truth.
    """
    if k == 0.0 or not math.isfinite(k):
        raise ValueError("the printed closed form is defined for finite k != 0 only")
    if not (1.0 < q < Q_MOMENTUM_MAX):
        raise OutOfValidityWindow(
            f"closed momentum amplitude needs 1 < q < 3; got q={q:.6g}"
        )
    alpha = complex(alpha)
    p = 1.0 / (q - 1.0)
    rad = alpha * alpha - abs(alpha) ** 2 - 2.0 / (q - 1.0)
    srad = cmath.sqrt(rad)
    sgn = math.copysign(1.0, k)
    a_const = normalization_constant(q, alpha)
    log_pref = (
        math.log(math.sqrt(2.0 * math.pi) * abs(complex(a_const)))
        + (2.0 * p - 1.0) * math.log(abs(k))
        - float(loggamma(2.0 * p))
    )
    phase = -1j * math.pi * sgn * p + 1j * (SQRT2 * alpha + srad)
    phi = kummer_phi(p, 2.0 * p, -2j * srad * abs(k), tol=tol)
    return sgn * cmath.exp(log_pref + phase) * phi


_PARSEVAL_TOL = 1e-6  # comfortably inside the 1e-4 closure contract


def _parseval_total(amp_at, alpha: complex, grid: np.ndarray) -> float:
    """Adaptive integral of |amplitude|^2 over a symmetric window.

    The window covers both the requested grid and the default one; the
    k = 0 singularity hint grades both sides of the amplitude's |k|^(2p-1)
    kink in the one adaptive pass, so the estimate holds its accuracy at
    every q in the momentum window, independent of the caller's output grid.
    """
    half = max(8.0 + 2.0 * abs(alpha), abs(float(grid[0])), abs(float(grid[-1])))

    def density(ks):
        return np.array([abs(amp_at(float(k))) ** 2 for k in np.atleast_1d(ks)])

    spec = IntegrandSpec(density, singularities=(0.0,))
    return float(integrate_interval(spec, -half, half, tol=_PARSEVAL_TOL).value.real)


def momentum_pd(q: float, alpha: complex, k_grid=None, method: str = "oracle",
                tol: float = 1e-9) -> MomentumDistribution:
    """pd(k) = |amplitude(k)|^2 on a grid, plus an adaptive Parseval total.

    With method='closed-form' the k = 0 grid point (if present) is
    assigned the printed form's own k -> 0 limit, which is exactly 0 for
    q < 3, a deliberate faithful reproduction; compare with the oracle.
    """
    require_window(q, Q_MOMENTUM_MAX, "momentum distribution")
    alpha = complex(alpha)
    grid = default_k_grid(alpha) if k_grid is None else np.asarray(k_grid, float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("k_grid must be a 1-d grid with at least two points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("k_grid must be finite")
    if method not in ("oracle", "closed-form"):
        raise ValueError(f"unknown method {method!r}")

    def amp_at(k: float) -> complex:
        if method == "oracle":
            return momentum_amplitude_oracle(q, alpha, k, tol=tol)
        if q == 1.0:
            return _gaussian_amplitude(alpha, k)
        if k == 0.0:
            return 0.0 + 0.0j
        return momentum_amplitude_closed(q, alpha, k)

    samples = []
    for k in grid:
        amp = complex(amp_at(float(k)))
        samples.append(MomentumSample(float(k), amp, abs(amp) ** 2, method))
    total = _parseval_total(amp_at, alpha, grid)
    return MomentumDistribution(q, alpha, tuple(samples), total, method)


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
