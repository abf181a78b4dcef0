"""Gaussian-limit references and the q -> 1 convergence harness.

Everything the deformed family must recover as q -> 1 lives here: the
exact coherent-state moment table, the Gaussian momentum density, a
first-order-in-(q-1) approximate state, and ``limit_convergence_check``,
which walks a decreasing q-sequence and scores each observable's gap to
its limit.  A quantity is judged ``converged`` when its gaps strictly
decrease along the sequence (machine-zero plateaus allowed; parity can
pin a gap at 0 exactly) and the final gap is below ``final_tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import RegimeWarning
from .moments import MomentReport, _coherent_exact, moments_oracle
from .momentum import momentum_amplitude_oracle
from .quadrature import integrate_line
from .states import SQRT2, Q_MOMENT_SUITE_MAX, _quad_poly

__all__ = [
    "LimitReport",
    "coherent_reference_moments",
    "gaussian_momentum_pd",
    "q_expansion_state",
    "limit_convergence_check",
]

_GAP_FLOOR = 1e-12  # below this a gap counts as exactly converged already


def coherent_reference_moments(alpha: complex) -> MomentReport:
    """Exact Gaussian-limit moments:

    <x> = sqrt2 Re(alpha), <x^2> = 1/2 + <x>^2,
    <p> = sqrt2 Im(alpha), <p^2> = 1/2 + <p>^2, product = 1/2.
    """
    return _coherent_exact(alpha, "reference")


def gaussian_momentum_pd(alpha: complex, k):
    """Limiting momentum density pi^(-1/2) exp(-(k - sqrt2 Im(alpha))^2)."""
    k = np.asarray(k, dtype=float)
    p0 = SQRT2 * complex(alpha).imag
    out = math.pi ** -0.5 * np.exp(-((k - p0) ** 2))
    return out if out.ndim else float(out)


@lru_cache(maxsize=256)
def _expansion_norm(q: float, are: float, aim: float) -> float:
    alpha = complex(are, aim)

    def dens(x):
        v = _expansion_raw(q, alpha, x)
        return (v * np.conj(v)).real

    return integrate_line(dens, tol=1e-12).value.real ** -0.5


def _expansion_raw(q: float, alpha: complex, x):
    w = _quad_poly(q, alpha, np.asarray(x, dtype=float))
    return (1.0 + (q - 1.0) / 8.0 * w * w) * np.exp(-0.5 * w)


def q_expansion_state(q: float, alpha: complex, x, regime: float = 0.1):
    """First-order-in-(q-1) approximation of the normalised state.

    Derived by differentiating the Gaussian twice in its exponent scale:
    [1 + (q-1)/8 * W^2] exp(-W/2) with W the state's quadratic form, then
    normalising numerically.  Emits RegimeWarning outside |q-1| <= regime;
    the formula still evaluates, it just stops being a good approximation.
    """
    if abs(q - 1.0) > regime + 1e-12:
        warnings.warn(
            f"q={q:.6g} is outside the small-(q-1) regime |q-1| <= {regime:.3g}",
            RegimeWarning,
            stacklevel=2,
        )
    alpha = complex(alpha)
    scale = _expansion_norm(q, alpha.real, alpha.imag)
    out = scale * _expansion_raw(q, alpha, x)
    return out if np.ndim(x) else complex(out)


@dataclass(frozen=True)
class LimitReport:
    """Gap trajectories along a decreasing q-sequence, with verdicts.

    ``gaps`` maps quantity name -> tuple of |value(q) - limit| in
    q-sequence order for mean_x, mean_x2, mean_p, mean_p2, product and
    pd_distance (max-norm against the Gaussian density on the k-window).
    """

    alpha: complex
    q_sequence: tuple[float, ...]
    gaps: Mapping[str, tuple[float, ...]]
    verdicts: Mapping[str, str]
    final_tol: float

    @property
    def all_converged(self) -> bool:
        return all(v == "converged" for v in self.verdicts.values())


def _verdict(gaps: tuple[float, ...], final_tol: float) -> str:
    if gaps[-1] >= final_tol:
        return "not-converged"
    for earlier, later in zip(gaps, gaps[1:]):
        if later >= earlier and later > _GAP_FLOOR:
            return "not-converged"
    return "converged"


def limit_convergence_check(alpha: complex, q_sequence=(1.2, 1.1, 1.05, 1.02),
                            tol: float = 1e-9, k_points: int = 121,
                            k_halfwidth: float = 6.0,
                            final_tol: float = 1e-2) -> LimitReport:
    """Score the q -> 1 recovery of all six limit quantities.

    Runs the quadrature moment suite and the oracle momentum density at
    every q in the (strictly decreasing, inside (1, 7/3)) sequence.
    """
    alpha = complex(alpha)
    qs = tuple(float(q) for q in q_sequence)
    if any(later >= earlier for earlier, later in zip(qs, qs[1:])):
        raise ValueError("q_sequence must be strictly decreasing")
    if any(not (1.0 < q < Q_MOMENT_SUITE_MAX) for q in qs):
        raise ValueError(f"q_sequence must lie inside (1, {Q_MOMENT_SUITE_MAX:.6g})")
    ref = coherent_reference_moments(alpha)
    k_grid = np.linspace(-k_halfwidth, k_halfwidth, k_points)
    pd_ref = gaussian_momentum_pd(alpha, k_grid)
    names = ("mean_x", "mean_x2", "mean_p", "mean_p2", "product")
    trajectories: dict[str, list[float]] = {n: [] for n in names}
    trajectories["pd_distance"] = []
    for q in qs:
        report = moments_oracle(q, alpha, tol=tol)
        for n in names:
            trajectories[n].append(abs(getattr(report, n) - getattr(ref, n)))
        pd = np.array([abs(momentum_amplitude_oracle(q, alpha, float(k),
                                                     tol=min(tol, 1e-8))) ** 2
                       for k in k_grid])
        trajectories["pd_distance"].append(float(np.max(np.abs(pd - pd_ref))))
    gaps = {n: tuple(v) for n, v in trajectories.items()}
    verdicts = {n: _verdict(g, final_tol) for n, g in gaps.items()}
    return LimitReport(alpha, qs, gaps, verdicts, final_tol)
