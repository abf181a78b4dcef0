"""Position/momentum moments and uncertainty products for the deformed states.

Two fully independent routes produce every number here:

* ``moments_oracle``: one adaptive quadrature pass on the real line whose
  six components share every node: the norm, <x>, <x^2>, <p>, and <p^2>
  as int |psi'|^2 (manifestly positive) next to its integration-by-parts
  partner -int conj(psi) psi'', whose relative gap is recorded as a
  self-diagnostic.
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
from typing import Mapping

import numpy as np

from . import closedforms
from .errors import ConventionMismatch, NotConverged
from .quadrature import integrate_line
from .states import (
    CONVENTION_TOL,
    Q_MOMENT_SUITE_MAX,
    SQRT2,
    _psi_un_arrays,
    normalization_constant,
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
    the report (cross-route gaps, norm closure, discarded imaginary
    parts); keys are short snake_case quantity names.
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


def _real_part(name: str, z: complex, deviations: dict) -> float:
    z = complex(z)
    if abs(z.imag) > IMAG_TOL * (1.0 + abs(z.real)):
        raise NotConverged(
            f"{name} should be real; got imaginary part {z.imag:.3e} "
            f"against real part {z.real:.3e}"
        )
    deviations[f"{name}_imag"] = abs(z.imag)
    return z.real


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
    alpha = complex(alpha)
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


def moments_oracle(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite by direct adaptive quadrature (1 <= q < 7/3)."""
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = complex(alpha)
    if q == 1.0:
        return _coherent_exact(alpha, "oracle")
    a_const = normalization_constant(q, alpha, tol=tol)
    a2 = abs(a_const) ** 2

    def weights(x):
        v, d1, d2 = _psi_un_arrays(q, alpha, x)
        xv, cv = x * v, np.conj(v)  # (x*v) first: huge-|x| probes cannot overflow
        return np.stack([(v * cv).real, (xv * cv).real, (xv * np.conj(xv)).real,
                         -1j * cv * d1, (d1 * np.conj(d1)).real, -cv * d2])

    norm, mean_x, mean_x2, mean_p, p2_primary, p2_partner = (
        a2 * z for z in integrate_line(weights, tol=tol).value.tolist()
    )
    deviations: dict = {"norm_closure": abs(norm - 1.0)}
    mean_x = _real_part("mean_x", mean_x, deviations)
    mean_x2 = _real_part("mean_x2", mean_x2, deviations)
    mean_p = _real_part("mean_p", mean_p, deviations)
    mean_p2 = _real_part("mean_p2", p2_primary, deviations)
    deviations["mean_p2_partner_gap"] = abs(p2_partner - p2_primary) / abs(p2_primary)
    if deviations["mean_p2_partner_gap"] > 1e-6:
        raise NotConverged(
            "the two <p^2> quadrature routes disagree by "
            f"{deviations['mean_p2_partner_gap']:.3e}"
        )
    return _finish(q, alpha, mean_x, mean_x2, mean_p, mean_p2, "oracle", deviations)


def _closed_moments(q: float, alpha: complex, tol: float):
    """(n2, (<x>, <x^2>, <p>, <p^2>)) from the closed forms, unchecked.

    n2 = int |psi_un|^2 dx; each moment is its closed numerator over n2,
    still complex.
    """
    n2 = closedforms.norm_squared_closed(q, alpha, tol=tol)
    return n2, (
        closedforms.position_moment_closed(q, alpha, 1, tol=tol) / n2,
        closedforms.position_moment_closed(q, alpha, 2, tol=tol) / n2,
        closedforms.momentum_first_closed(q, alpha, tol=tol) / n2,
        closedforms.momentum_second_closed(q, alpha, tol=tol) / n2,
    )


def moments_closed(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite from the Lauricella closed forms (1 <= q < 7/3).

    The oracle report is always computed alongside and each quantity's
    gap recorded in ``deviations``; any gap beyond CONVENTION_TOL makes
    this raise ConventionMismatch rather than return.
    """
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = complex(alpha)
    if q == 1.0:
        return _coherent_exact(alpha, "closed-form")
    reference = moments_oracle(q, alpha, tol=tol)
    deviations: dict = {}
    n2, quotients = _closed_moments(q, alpha, tol=min(tol, 1e-10))
    mean_x, mean_x2, mean_p, mean_p2 = (
        _real_part(name, z, deviations)
        for name, z in zip(("mean_x", "mean_x2", "mean_p", "mean_p2"), quotients)
    )
    a_closed = complex(n2) ** -0.5
    # relative-to-oracle gaps, scale-guarded for near-zero quantities
    a_oracle = normalization_constant(q, alpha, tol=tol)
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
