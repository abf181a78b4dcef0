"""Position/momentum moments and uncertainty products for the deformed states.

Two fully independent routes produce every number here:

* ``moments_oracle``: one adaptive quadrature pass on the real line whose
  six components share every node: the norm integral int |psi_un|^2 dx,
  which normalises the other five and so is the oracle's only norm pass,
  <x>, <x^2>, <p>, and <p^2> as int |psi'|^2 (manifestly positive) next to
  its integration-by-parts partner -int conj(psi) psi'', whose relative
  gap is recorded as a self-diagnostic.  The pass itself
  (``_oracle_pass``) takes any number of states, six rows each plus two
  per partner state for its norm and overlap, and one evaluator gives
  them all as one stack, each state's rows with the bits they have on
  their own; the q -> 1 limit check runs its whole q sequence as one such
  pass, and ``verify`` its grid together with that sequence.
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
from .quadrature import _check_tol, integrate_line
from .states import (
    CONVENTION_TOL,
    Q_MOMENT_SUITE_MAX,
    SQRT2,
    _density,
    _density_tail,
    _inverse_b,
    _line_spec,
    _States,
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
    """Gaussian-limit moments in closed form; the q = 1 sentinel target.
    NotConverged where <x^2> or <p^2> overflows double precision, which
    an accepted alpha reaches from |alpha| ~ 9.5e153."""
    alpha = require_alpha(alpha)
    mean_x = SQRT2 * alpha.real
    mean_p = SQRT2 * alpha.imag
    dx = math.sqrt(0.5)
    try:
        mean_x2, mean_p2 = 0.5 + mean_x**2, 0.5 + mean_p**2
    except OverflowError:
        raise NotConverged(f"<x^2> or <p^2> at q = 1, alpha={alpha!r} "
                           "overflows double precision") from None
    # both variances are exactly 1/2, so report the exact product rather
    # than sqrt(0.5)**2, which rounds one ulp high
    return MomentReport(
        q=1.0, alpha=alpha, mean_x=mean_x, mean_x2=mean_x2,
        mean_p=mean_p, mean_p2=mean_p2, var_x=0.5, var_p=0.5,
        delta_x=dx, delta_p=dx, product=0.5, method=method, deviations={},
    )


def _moment_rows(st, x, dens, mod, ratio, inv_re):
    """The six moment rows of the states of ``st`` (a ``states._States``)
    from their ``_density`` parts: |psi_un|^2, then x, x^2, p and p^2 by
    both routes times it."""
    inv_b = _inverse_b(st, ratio, inv_re)
    w_b = (x - st.shift) * inv_b
    x_mod = x * mod  # (x r)^2, not x (x r^2): r^2 underflows first at huge |x|
    return (dens, x * dens, x_mod * x_mod, 1j * w_b * dens,
            (w_b.real * w_b.real + w_b.imag * w_b.imag) * dens,
            (inv_b - st.q * w_b * w_b) * dens)


def _stack_rows(states):
    """x -> the rows of a pass's states as one (R, n) array: each state's six
    ``_moment_rows``, then two rows for each partner state beta, its density
    |psi_un[beta]|^2 and conj(psi_un[alpha]) psi_un[beta].  Every state and
    every partner is one label of a single ``_States`` record, built here
    once, and of a single ``_density`` call a node batch; the states' own
    rows take their share of it, each partner its share and its state's, and
    every row is written straight to its place.  A state's rows have the
    same bits whatever else the pass holds."""
    labels = [(q, alpha) for q, alpha, _ in states]
    owner, offsets, partner_at, start = [], [], [], 0
    for i, (q, _, partners) in enumerate(states):
        labels += [(q, beta) for beta in partners]
        owner += [i] * len(partners)
        offsets.append(start)
        partner_at += range(start + 6, start + 6 + 2 * len(partners), 2)
        start += 6 + 2 * len(partners)
    n_own, n_rows = len(states), start
    every, own = _States(labels), _States(labels[:n_own])
    # the own states' share of every part: all of it for a lone state, one
    # row for one state with partners, else the first n_own rows
    head = slice(None) if len(labels) == 1 else 0 if n_own == 1 else slice(n_own)
    own_at = range(6) if n_own == 1 else np.array(offsets) + np.arange(6)[:, None]
    # conj(psi_un[alpha]) psi_un[beta] = r_alpha r_beta exp(i p (arg B_alpha
    # - arg B_beta)), both arguments principal; p = 1/(q-1) = -1/(1-q)
    p = -every.expo[n_own:] if owner else None
    owner = np.array(owner, dtype=int)  # each partner's state
    partner_at = np.array(partner_at, dtype=int)  # each partner's density row

    def weights(x):
        dens, mod, ratio, inv_re = _density(every, x)
        out = np.empty((n_rows, x.size), dtype=complex)
        for at, row in zip(own_at, _moment_rows(own, x, dens[head], mod[head], ratio[head],
                                                inv_re[head])):
            out[at] = row
        if owner.size:
            arg = np.arctan(ratio)
            turn = p * (arg[owner] - arg[n_own:])
            out[partner_at] = dens[n_own:]
            out[partner_at + 1] = (mod[owner] * mod[n_own:]) * np.exp(1j * turn)
        return out

    return weights


def _moment_tails(q: float) -> tuple[tuple[float, float], ...]:
    """(e, log c) of the six moment rows' exact tails, c |x|^(-e): the
    density's (``_density_tail``) times x and x^2 (e-1 and e-2), w/B ~
    1/(s^2 x) (e+1, c/s^2), |w/B|^2 (e+2, c/s^4) and 1/B - q (w/B)^2 ~
    (s^2 - q)/(s^4 x^2), where |s^2 - q| = (q+1)/2 (e+2, c (q+1)/(2 s^4))."""
    e, log_c = _density_tail(q)
    log_s2 = math.log(0.5 * (q - 1.0))
    return ((e, log_c), (e - 1.0, log_c), (e - 2.0, log_c), (e + 1.0, log_c - log_s2),
            (e + 2.0, log_c - 2.0 * log_s2),
            (e + 2.0, log_c + math.log(0.5 * (q + 1.0)) - 2.0 * log_s2))


def _stack_tails(states) -> list[tuple[float, float]]:
    """The exact tail (e, log c) of each row of ``_stack_rows(states)``:
    each state's ``_moment_tails``, then for each partner, which shares the
    state's q, the density's tail twice: its own density, and |psi_un[alpha]
    psi_un[beta]|, whose exponent 2p + 2p and coefficient s^(-2p) s^(-2p)
    are the density's."""
    rows = []
    for q, _, partners in states:
        rows += _moment_tails(q)
        rows += [_density_tail(q)] * (2 * len(partners))
    return rows


def _oracle_pass(states, tol: float) -> list[tuple[complex, ...]]:
    """The integrals of several states from one line pass at ``tol``, one
    tuple per (q, alpha, partners) item of ``states`` (1 < q), as
    ``_oracle_integrals`` gives them: the norm integral n (real, so
    A = n^(-1/2)), then <x>, <x^2>, <p>, and <p^2> by both routes, each
    divided by n and still complex and unchecked, then per partner its
    norm integral (real) and the raw overlap, undivided.

    The states' rows stack in order, each held to its own target
    err_i <= tol max(1, |v_i|), and one evaluator (``_stack_rows``) gives
    them all, whatever the state count; one state is
    ``_oracle_integrals``'s pass, row for row.  The line pass reads every
    row's exact tails (``_stack_tails``), so it takes no decay probe, and
    runs about the first state's centre once that lies past the line's
    core (``states._line_spec``).  Nothing is memoised here.
    """
    spec = _line_spec(_stack_rows(states), states[0][1], _stack_tails(states))
    values = integrate_line(spec, tol=tol).value.tolist()
    out, start = [], 0
    for _, _, partners in states:
        own = values[start:start + 6 + 2 * len(partners)]
        start += len(own)
        norms = [own[0].real, *(z.real for z in own[6::2])]
        if min(norms) <= 0.0:
            raise ConventionMismatch(f"norm integral came out non-positive: {min(norms)}")
        norm = norms[0]
        out.append((norm, *(z / norm for z in own[1:6]), *own[6:]))
    return out


@lru_cache(maxsize=512)
def _oracle_integrals(q: float, are: float, aim: float, tol: float,
                      *partners: complex) -> tuple[complex, ...]:
    """The integrals of ``moments_oracle`` at 1 < q: ``_oracle_pass`` of
    the one state (q, alpha, partners), memoised.  The memo key holds the
    partners; with none the pass is the six moment rows alone."""
    return _oracle_pass(((q, complex(are, aim), partners),), tol)[0]


def _oracle_report(q: float, alpha: complex, integrals) -> MomentReport:
    """The oracle report from the first six items of ``_oracle_integrals``,
    every check rerun: the means must be real and the two <p^2> routes
    must agree."""
    _, *means, p2_partner = integrals[:6]
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


def moments_oracle(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite by direct adaptive quadrature (1 <= q < 7/3).

    The quadrature pass is memoised per (q, alpha, tol); each call builds
    a fresh report from it and reruns every check.  ValueError for a tol
    that is not positive and finite, at the q = 1 dispatch too."""
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = require_alpha(alpha)
    _check_tol(tol)
    if q == 1.0:
        return _coherent_exact(alpha, "oracle")
    return _oracle_report(q, alpha, _oracle_integrals(q, alpha.real, alpha.imag, tol))


def moments_closed(q: float, alpha: complex, tol: float = 1e-9) -> MomentReport:
    """Moment suite from the Lauricella closed forms (1 <= q < 7/3).

    The oracle report is computed alongside, or reused when already
    computed at the same (q, alpha, tol), and each quantity's gap is
    recorded in ``deviations``; the closed A is checked against the
    oracle's n^(-1/2) from that same pass.  Any gap beyond CONVENTION_TOL
    makes this raise ConventionMismatch rather than return.  ValueError for
    a tol that is not positive and finite, at the q = 1 dispatch too.
    """
    require_window(q, Q_MOMENT_SUITE_MAX, "moment suite")
    alpha = require_alpha(alpha)
    _check_tol(tol)
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
