"""Position/momentum moments and uncertainty products for the deformed states.

Two fully independent routes produce every number here:

* ``moments_oracle``: one adaptive quadrature pass on the real line whose
  six components share every node: the norm integral int |psi_un|^2 dx,
  which normalises the other five and so is the oracle's only norm pass,
  <x>, <x^2>, <p>, and <p^2> as int |psi'|^2 (manifestly positive) next to
  its integration-by-parts partner -int conj(psi) psi'', whose relative
  gap is recorded as a self-diagnostic.
* ``moments_closed``: the Lauricella closed forms from ``closedforms``
  under the calibrated convention, cross-checked against the oracle on
  every call; disagreement beyond CONVENTION_TOL raises
  ConventionMismatch instead of returning a number.

All expectation values of Hermitian observables must come out real; a
residual imaginary part above IMAG_TOL * (1 + |Re|) is treated as a
failed computation (NotConverged), never silently discarded.

Window: the second position moment needs q < 7/3, which therefore bounds
the whole suite.  q == 1.0 dispatches to the exact Gaussian moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import closedforms
from .errors import ConventionMismatch, NotConverged
from .quadrature import integrate_line
from .states import (
    CONVENTION_TOL,
    Q_MOMENT_SUITE_MAX,
    SQRT2,
    _density,
    _inverse_b,
    require_alpha,
    require_window,
)

__all__ = [
    "IMAG_TOL",
    "MomentReport",
    "moments_oracle",
    "moments_closed",
    "uncertainty_product",
]

IMAG_TOL = 1e-6


@dataclass(frozen=True)
class MomentReport:
    """First/second moments of x and p plus the derived uncertainty data.

    ``deviations`` holds the self-diagnostics of whichever route built
    the report (cross-route gaps, the oracle's <p^2> partner gap,
    discarded imaginary parts); keys are short snake_case quantity names.
    """

    q: float
    alpha: complex
    mean_x: float
    mean_x2: float
    mean_p: float
    mean_p2: float
    var_x: float
    var_p: float
    delta_x: float
    delta_p: float
    product: float
    method: str
    deviations: Mapping[str, float] = field(default_factory=dict)


def _real_means(values, deviations: dict) -> list[float]:
    """<x>, <x^2>, <p>, <p^2> as reals, each discarded imaginary part
    recorded in ``deviations``."""
    means = []
    for name, z in zip(("mean_x", "mean_x2", "mean_p", "mean_p2"), values):
        z = complex(z)
        if abs(z.imag) > IMAG_TOL * (1.0 + abs(z.real)):
            raise NotConverged(
                f"{name} should be real; got imaginary part {z.imag:.3e} "
                f"against real part {z.real:.3e}"
            )
        deviations[f"{name}_imag"] = abs(z.imag)
        means.append(z.real)
    return means


def _finish(q, alpha, mean_x, mean_x2, mean_p, mean_p2, method, deviations):
    var_x = mean_x2 - mean_x * mean_x
    var_p = mean_p2 - mean_p * mean_p
    if var_x <= 0.0 or var_p <= 0.0:
        raise NotConverged(
            f"non-positive variance (var_x={var_x:.3e}, var_p={var_p:.3e})"
        )
    dx = math.sqrt(var_x)
    dp = math.sqrt(var_p)
    return MomentReport(
        q=q, alpha=complex(alpha), mean_x=mean_x, mean_x2=mean_x2,
        mean_p=mean_p, mean_p2=mean_p2, var_x=var_x, var_p=var_p,
        delta_x=dx, delta_p=dp, product=dx * dp, method=method,
        deviations=deviations,
    )


def _coherent_exact(alpha: complex, method: str) -> MomentReport:
    """Gaussian-limit moments in closed form; the q = 1 sentinel target."""
    alpha = require_alpha(alpha)
    mean_x = SQRT2 * alpha.real
    mean_p = SQRT2 * alpha.imag
    dx = math.sqrt(0.5)
    # both variances are exactly 1/2, so report the exact product rather
    # than sqrt(0.5)**2, which rounds one ulp high
    return MomentReport(
        q=1.0, alpha=alpha, mean_x=mean_x, mean_x2=0.5 + mean_x**2,
        mean_p=mean_p, mean_p2=0.5 + mean_p**2, var_x=0.5, var_p=0.5,
        delta_x=dx, delta_p=dx, product=0.5, method=method, deviations={},
    )


@lru_cache(maxsize=512)
def _oracle_integrals(q: float, are: float, aim: float, tol: float) -> tuple[complex, ...]:
    """The six integrals of ``moments_oracle`` at 1 < q, from one line pass:
    the norm integral n = int |psi_un|^2 dx (real, so A = n^(-1/2)), then
    <x>, <x^2>, <p>, and <p^2> by both routes, each divided by n and still
    complex and unchecked."""
    alpha = complex(are, aim)

    def weights(x):
        dens, mod, ratio, inv_re = _density(q, alpha, x)
        inv_b = _inverse_b(q, alpha, ratio, inv_re)
        w_b = (x - SQRT2 * alpha) * inv_b
        x_mod = x * mod  # (x r)^2, not x (x r^2): r^2 underflows first at huge |x|
        return np.array([dens, x * dens, x_mod * x_mod, 1j * w_b * dens,
                         (w_b.real * w_b.real + w_b.imag * w_b.imag) * dens,
                         (inv_b - q * w_b * w_b) * dens])

    values = integrate_line(weights, tol=tol).value.tolist()
    norm = values[0].real
    if norm <= 0.0:
        raise ConventionMismatch(f"norm integral came out non-positive: {norm}")
    return (norm, *(z / norm for z in values[1:]))


def moments_oracle(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite by direct adaptive quadrature (1 <= q < 7/3).

    The quadrature pass is memoised per (q, alpha, tol); each call builds
    a fresh report from it and reruns every check."""
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = require_alpha(alpha)
    if q == 1.0:
        return _coherent_exact(alpha, "oracle")
    _, *means, p2_partner = _oracle_integrals(q, alpha.real, alpha.imag, tol)
    deviations: dict = {}
    mean_x, mean_x2, mean_p, mean_p2 = _real_means(means, deviations)
    p2_primary = means[3]
    deviations["mean_p2_partner_gap"] = abs(p2_partner - p2_primary) / abs(p2_primary)
    if deviations["mean_p2_partner_gap"] > 1e-6:
        raise NotConverged(
            "the two <p^2> quadrature routes disagree by "
            f"{deviations['mean_p2_partner_gap']:.3e}"
        )
    return _finish(q, alpha, mean_x, mean_x2, mean_p, mean_p2, "oracle", deviations)


def moments_closed(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite from the Lauricella closed forms (1 <= q < 7/3).

    The oracle report is computed alongside, or reused when already
    computed at the same (q, alpha, tol), and each quantity's gap is
    recorded in ``deviations``; the closed A is checked against the
    oracle's n^(-1/2) from that same pass.  Any gap beyond CONVENTION_TOL
    makes this raise ConventionMismatch rather than return.
    """
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = require_alpha(alpha)
    if q == 1.0:
        return _coherent_exact(alpha, "closed-form")
    reference = moments_oracle(q, alpha, tol=tol)
    deviations: dict = {}
    n2, quotients, _ = closedforms._closed_moments(q, alpha, tol)
    mean_x, mean_x2, mean_p, mean_p2 = _real_means(quotients, deviations)
    a_closed = complex(n2) ** -0.5
    # relative-to-oracle gaps, scale-guarded for near-zero quantities
    a_oracle = _oracle_integrals(q, alpha.real, alpha.imag, tol)[0] ** -0.5
    gaps = {
        "norm_constant": abs(a_closed - a_oracle) / abs(a_oracle),
        "mean_x": abs(mean_x - reference.mean_x) / max(1.0, abs(reference.mean_x)),
        "mean_x2": abs(mean_x2 - reference.mean_x2) / max(1.0, abs(reference.mean_x2)),
        "mean_p": abs(mean_p - reference.mean_p) / max(1.0, abs(reference.mean_p)),
        "mean_p2": abs(mean_p2 - reference.mean_p2) / max(1.0, abs(reference.mean_p2)),
    }
    deviations.update(gaps)
    worst = max(gaps, key=gaps.get)
    if gaps[worst] > CONVENTION_TOL:
        raise ConventionMismatch(
            f"closed-form {worst} deviates from the oracle by {gaps[worst]:.3e} "
            f"at q={q}, alpha={alpha}"
        )
    return _finish(q, alpha, mean_x, mean_x2, mean_p, mean_p2, "closed-form", deviations)


def uncertainty_product(q: float, alpha: complex, method: str = "oracle",
                        tol: float = 1e-9) -> float:
    """Delta x * Delta p for the normalised state (>= 1/2, with equality
    exactly in the q -> 1 Gaussian limit)."""
    if method == "oracle":
        return moments_oracle(q, alpha, tol=tol).product
    if method == "closed-form":
        return moments_closed(q, alpha, tol=tol).product
    raise ValueError(f"unknown method {method!r}")
