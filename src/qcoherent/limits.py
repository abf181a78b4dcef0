"""Gaussian-limit references and the q -> 1 convergence harness.

Everything the deformed family must recover as q -> 1 lives here: the
exact coherent-state moment table, the Gaussian momentum density, a
first-order-in-(q-1) approximate state with its norm in closed form, and
``limit_convergence_check``, which walks a decreasing q-sequence and
scores each observable's gap to its limit.  A quantity is judged
``converged`` when its gaps strictly decrease along the sequence
(machine-zero plateaus allowed; parity can pin a gap at 0 exactly) and
the final gap is below ``final_tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NotConverged, RegimeWarning
from .moments import MomentReport, _coherent_exact, _oracle_pass, _oracle_report
from .momentum import _bessel_amplitudes
from .quadrature import _check_index
from .states import SQRT2, Q_MOMENT_SUITE_MAX, _finite_x, _gauss_form, _norm_tol, require_alpha

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
    p0 = SQRT2 * require_alpha(alpha).imag
    out = math.pi ** -0.5 * np.exp(-((k - p0) ** 2))
    return out if out.ndim else float(out)


def _expansion_norm(q: float, are: float, aim: float) -> float:
    """1/sqrt of the expansion's norm integral N, in closed form.

    In y = x - sqrt2 Re alpha the density is exp(-y^2) |1 + (q-1)/8 W^2|^2
    with W = y^2 - 2i Im alpha (sqrt2 y + Re alpha), and the Gaussian
    moments int y^2j exp(-y^2) dy = Gamma(j + 1/2) give, with e = q - 1,
    a = Re alpha and b = Im alpha,

        N / sqrt(pi) = (1 + e/8 (3/4 - 4 b^2 - 4 (ab)^2))^2 + (e ab / 4)^2
                       + (e/8)^2 (6 + 36 b^2 + 8 (ab)^2 + 32 b^4 + 64 b^2 (ab)^2),

    |1 + e/8 <W^2>|^2 plus (e/8)^2 times the variance of W^2: no term is
    negative, so no digit cancels and N > 0.  a enters only through ab, so
    a real alpha of any size gives the alpha = 0 value bit for bit.
    NotConverged where N overflows double precision.
    """
    e, b2, ab = q - 1.0, aim * aim, are * aim
    ab2 = ab * ab
    mean_re, mean_im = 1.0 + e / 8.0 * (0.75 - 4.0 * (b2 + ab2)), e * ab / 4.0
    spread = 6.0 + 36.0 * b2 + 8.0 * ab2 + 32.0 * b2 * b2 + 64.0 * b2 * ab2
    n = math.sqrt(math.pi) * (mean_re * mean_re + mean_im * mean_im + e * e / 64.0 * spread)
    if not math.isfinite(n):
        raise NotConverged(f"q-expansion norm at alpha={complex(are, aim)} "
                           "overflows double precision")
    return n ** -0.5


def q_expansion_state(q: float, alpha: complex, x, regime: float = 0.1):
    """First-order-in-(q-1) approximation of the normalised state.

    Derived by differentiating the Gaussian twice in its exponent scale:
    [1 + (q-1)/8 * W^2] exp(-W/2) with W the q = 1 state's quadratic form
    (``states._gauss_form``), and normalised by its norm in closed form
    (``_expansion_norm``).  Emits RegimeWarning outside |q-1| <= regime;
    the formula still evaluates, it just stops being a good approximation.
    q and x must be finite (ValueError otherwise); far out the state is 0.
    W and the norm are taken relative to the centre sqrt2 Re alpha, so a
    state centred far out is normalised like one at 0; NotConverged where
    the norm overflows double precision.  A finite norm bounds |ab| by
    5e153 and |b| by 5e76, so |W| < 1e154 and W^2 never overflows.
    """
    if not math.isfinite(q):
        raise ValueError(f"q must be finite; got q={q!r}")
    if abs(q - 1.0) > regime + 1e-12:
        warnings.warn(
            f"q={q:.6g} is outside the small-(q-1) regime |q-1| <= {regime:.3g}",
            RegimeWarning,
            stacklevel=2,
        )
    alpha = require_alpha(alpha)
    xs = _finite_x(x)
    scale = _expansion_norm(q, alpha.real, alpha.imag)
    w = _gauss_form(alpha, xs)
    out = scale * ((1.0 + (q - 1.0) / 8.0 * (w * w)) * np.exp(-0.5 * w))
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

    At every q in the (strictly decreasing, inside (1, 7/3)) sequence, runs
    the quadrature moment suite and takes the momentum density on the
    k_points-point grid over [-k_halfwidth, k_halfwidth] from the exact
    transform (``momentum_amplitude_bessel``'s) in one vectorised call.  The
    moments and the density's normalisation A = n^(-1/2) at every q come
    from one line pass for the whole sequence, the six rows of
    ``moments_oracle`` a q (``moments._oracle_pass``), at min(tol, 1e-10):
    the accuracy of a norm, which scales every other number.  ValueError,
    before any q is run, for a tol, k_halfwidth or final_tol that is not
    positive and finite, a k_points that is not an integer of at least 1,
    or a malformed q_sequence.
    """
    alpha = require_alpha(alpha)
    norm_tol = _norm_tol(tol)
    k_points = _check_index(k_points, "k_points")
    if k_points < 1:
        raise ValueError(f"k_points must be at least 1; got {k_points!r}")
    if not (k_halfwidth > 0.0 and math.isfinite(k_halfwidth)):
        raise ValueError(f"k_halfwidth must be a positive finite number; got {k_halfwidth!r}")
    if not (final_tol > 0.0 and math.isfinite(final_tol)):
        raise ValueError(f"final_tol must be a positive finite number; got {final_tol!r}")
    qs = tuple(float(q) for q in q_sequence)
    if not qs:
        raise ValueError("q_sequence must hold at least one q")
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
    for q, integrals in zip(qs, _oracle_pass(tuple((q, alpha, ()) for q in qs), norm_tol)):
        report = _oracle_report(q, alpha, integrals)
        for n in names:
            trajectories[n].append(abs(getattr(report, n) - getattr(ref, n)))
        amplitudes, _ = _bessel_amplitudes(q, alpha, integrals[0] ** -0.5)
        pd = np.abs(amplitudes(k_grid)) ** 2
        trajectories["pd_distance"].append(float(np.max(np.abs(pd - pd_ref))))
    gaps = {n: tuple(v) for n, v in trajectories.items()}
    verdicts = {n: _verdict(g, final_tol) for n, g in gaps.items()}
    return LimitReport(alpha, qs, gaps, verdicts, final_tol)
