"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

This module is the package's independent numerical oracle: every closed
form elsewhere is validated against integrals computed here.  The core is
an embedded 7/15-point Gauss-Kronrod pair with QUADPACK-style error
scaling, global adaptive bisection, and batched (vectorised) panel
evaluation.  Each integral is one adaptive pass: its pieces (plain
stretches, graded sides of singularity hints, substituted tails) share one
error target and one evaluation budget.  On top of that sit

* ``integrate_interval`` -- finite interval, optional singularity hints,
* ``integrate_line``     -- whole real line: adaptive core [-96, 96] plus
  power-substituted tails x = 96/v^gamma chosen from a sampled decay
  exponent, so even barely-integrable algebraic tails stay smooth,
* ``fourier_transform_line`` -- (2*pi)^(-1/2) * int exp(-i*k*x) f(x) dx:
  an adaptive core, then both tails as one stream of half-period pi/|k|
  panels (successive panels alternate in sign), 16 per side per batch,
  summed with iterated averaging (Longman's method); a stream that
  reaches its 4096-panel cap raises NotConverged.

Evaluators map a float ndarray of n nodes to an ndarray (complex is fine)
of shape (n,), or (m, n) for m integrands on shared nodes that one pass
refines until each meets err_i <= tol * max(1, |value_i|), as in
``scipy.integrate.quad_vec`` (not used: the oracle stays independent).
All routines count integrand evaluations (nodes) and stop with
NotConverged once ``max_evals`` is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConverged, SlowDecay

__all__ = [
    "IntegrandSpec",
    "QuadratureResult",
    "integrate_interval",
    "integrate_line",
    "fourier_transform_line",
]

# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss-7 sub-rule uses every other Kronrod node.
_GIDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand plus the metadata the adaptive driver can exploit.

    evaluator     vectorised callable, ndarray (n,) -> ndarray (n,) or (m, n)
    singularities points where the integrand may be singular, interior or
                  at an end of the range.  One rule holds for all of them:
                  each side of a hint is integrated over the half segment
                  next to it through u = hint +- w*v^4, which absorbs
                  algebraic singularities.  Nodes within one ulp of a
                  non-zero hint round onto it, so an integrand that is
                  infinite there raises NotConverged once refinement
                  reaches that depth
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    singularities: tuple[float, ...] = ()


@dataclass(frozen=True)
class QuadratureResult:
    """value with an error estimate and the evaluation count; for an (m, n)
    evaluator, length-m arrays with each component held to its own target.

    err_estimate is conservative in practice (true error is normally far
    below it); evaluations counts integrand samples actually taken.
    """

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int
    method: str = ""


def _as_spec(f) -> IntegrandSpec:
    if isinstance(f, IntegrandSpec):
        return f
    return IntegrandSpec(evaluator=f)


def _panel_batch(evaluator, mids, halfs):
    """Apply the G7/K15 pair to a batch of panels.

    Returns (resk, err) arrays of shape ([m,] panels); err carries the QUADPACK
    rescaling  resasc * min(1, (200*|K-G|/resasc)^1.5)  with a 50*eps
    round-off floor, so summing it over panels gives a defensible global
    estimate.
    """
    x = mids[:, None] + halfs[:, None] * _XK[None, :]
    fx = np.asarray(evaluator(x.ravel())).astype(complex, copy=False)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx.reshape(-1, *x.shape)).all(axis=0)][:3]
        raise NotConverged(f"integrand returned non-finite values near x={bad}")
    resk = halfs * (fx @ _WK)
    resg = halfs * (fx[..., _GIDX] @ _WG)
    resabs = halfs * (np.abs(fx) @ _WK)
    mean = resk / (2.0 * halfs)
    resasc = halfs * (np.abs(fx - mean[..., None]) @ _WK)
    raw = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(
            resasc > 0.0,
            resasc * np.minimum(1.0, (200.0 * raw / np.where(resasc > 0, resasc, 1.0)) ** 1.5),
            raw,
        )
    err = np.maximum(scaled, 50.0 * _EPS * resabs)
    return resk, err


def _pieces_batch(evaluators, owner, mids, halfs):
    """``_panel_batch`` with panel i integrated by evaluators[owner[i]]."""
    sels = [(owner == i, ev) for i, ev in enumerate(evaluators)]
    parts = [(sel, _panel_batch(ev, mids[sel], halfs[sel])) for sel, ev in sels if np.any(sel)]
    vals = np.empty(parts[0][1][0].shape[:-1] + mids.shape, dtype=complex)
    errs = np.empty(vals.shape)
    for sel, (v, e) in parts:
        vals[..., sel], errs[..., sel] = v, e
    return vals, errs


def _adaptive(pieces, tol, max_evals, method):
    """Globally adaptive bisection over the panels of all ``pieces``, the
    (evaluator, edges) pairs whose integrals sum to the result.

    Splits, per generation, every panel whose score (worst component error
    over its target) is within a factor two of the current worst, then
    re-checks the targets; this batches well and keeps the refinement
    sequence independent of tol: tightening tol only extends it.
    """
    evaluators = [ev for ev, _ in pieces]
    edges = [np.asarray(e, dtype=float) for _, e in pieces]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    owner = np.concatenate([np.full(len(e) - 1, i) for i, e in enumerate(edges)])
    mids = 0.5 * (lo + hi)
    halfs = 0.5 * (hi - lo)
    vals, errs = _pieces_batch(evaluators, owner, mids, halfs)
    evals = 15 * len(mids)

    while True:
        value = np.sum(vals, axis=-1)
        err = np.sum(errs, axis=-1)
        scale = np.maximum(1.0, np.abs(value))
        target = tol * scale
        # each panel's width floor is set by its own position, not the far edges
        splittable = halfs > 8.0 * _EPS * np.maximum(1.0, np.abs(mids) + halfs)
        locked = err - np.sum(errs[..., splittable], axis=-1)
        # width floor reached: further splitting provably cannot meet the
        # target.  Return the honest floor-limited estimate when it is
        # within three orders of the request (QUADPACK-style round-off
        # return), refuse otherwise.
        floored = not np.any(splittable) or np.any(locked > target)
        if np.all(err <= (1e3 * target if floored else target)):
            if np.ndim(value) == 0:  # a scalar integrand reports Python scalars
                value, err = complex(value), float(err)
            return QuadratureResult(value, err, evals, method)
        weight = np.max(scale) / scale  # err * weight ~ err / target; 1 if scalar
        if floored or evals >= max_evals:  # report the component furthest off
            c = np.argmax(np.ravel(err * weight))
            e, t, v = (np.ravel(a)[c] for a in (err, target, value))
            raise NotConverged(
                f"resolution floor at err_estimate={e:.3e} (target {t:.3e}), value={v:.6e}"
                if floored else f"quadrature budget exhausted: {evals} evaluations, "
                f"err_estimate={e:.3e}, value={v:.6e}"
            )
        score = np.max((errs * weight[..., None]).reshape(-1, len(halfs)), axis=0)
        worst = float(np.max(score[splittable]))
        pick = splittable & (score >= 0.5 * worst)
        if not np.any(pick):  # pragma: no cover - pick always holds the max
            pick = splittable
        keep = ~pick
        new_mids = np.concatenate([mids[pick] - 0.5 * halfs[pick], mids[pick] + 0.5 * halfs[pick]])
        new_halfs = np.concatenate([0.5 * halfs[pick], 0.5 * halfs[pick]])
        new_owner = np.concatenate([owner[pick], owner[pick]])
        nv, ne = _pieces_batch(evaluators, new_owner, new_mids, new_halfs)
        evals += 15 * len(new_mids)
        mids = np.concatenate([mids[keep], new_mids])
        halfs = np.concatenate([halfs[keep], new_halfs])
        owner = np.concatenate([owner[keep], new_owner])
        vals = np.concatenate([vals[..., keep], nv], axis=-1)
        errs = np.concatenate([errs[..., keep], ne], axis=-1)


# Grading power next to a hint: u = hint + w * v**4 turns an algebraic factor
# |u - hint|**s into v**(4s+3), smooth for s >= -3/4 and far better
# conditioned for any integrable s > -1.
_HINT_GAMMA = 4.0
_UNIT_EDGES = (0.0, 0.5, 1.0)


def _graded(ev, hint: float, w: float):
    """Evaluator over v in (0, 1): ev from hint to hint + w via u = hint + w*v**4."""
    g = _HINT_GAMMA

    def sub(v):
        u = hint + w * v ** g
        fu = ev(u)
        finite = np.all(np.isfinite(np.reshape(fu, (-1, u.size))), axis=0)
        if not np.all(finite):
            raise NotConverged(f"integrand returned non-finite values near u={u[~finite][:3]} "
                               f"(graded towards the hint {hint})")
        return fu * (g * abs(w) * v ** (g - 1.0))

    return sub


def _pieces(ev, bounds, hints):
    """(evaluator, edges) pieces for ev over the sorted ``bounds``.

    The hint rule: each side of a hint (a bound where ev may be singular)
    is integrated over the half segment next to it through ``_graded``.
    The plain stretches between keep the bounds as panel edges; a one-
    segment stretch gets its midpoint too, so its first estimate is honest.
    """
    pieces, plain = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        if lo in hints:
            pieces.append((_graded(ev, lo, mid - lo), _UNIT_EDGES))
            lo = mid
        if hi in hints:
            pieces.append((_graded(ev, hi, mid - hi), _UNIT_EDGES))
            hi = mid
        if lo < hi:
            if plain and plain[-1][-1] == lo:
                plain[-1].append(hi)
            else:
                plain.append([lo, hi])
    for edges in plain:
        if len(edges) == 2:
            edges.insert(1, 0.5 * (edges[0] + edges[1]))
        pieces.append((ev, edges))
    return pieces


def integrate_interval(f, a: float, b: float, tol: float = 1e-10,
                       max_evals: int = 1_000_000) -> QuadratureResult:
    """Integrate f over [a, b] with err_estimate <= tol * max(1, |value|).

    Singularity hints in [a, b], interior or at an end, follow the hint
    rule of ``_pieces``.  Swapped bounds integrate with the orientation
    sign.  When bisection runs into the double-precision panel-width floor
    before meeting the target, the honest floor-limited estimate is
    returned as long as it is within three orders of the request;
    NotConverged otherwise, or when ``max_evals`` is exhausted.
    """
    spec = _as_spec(f)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate_interval needs finite endpoints; use integrate_line")
    if a == b:
        return QuadratureResult(0.0 + 0.0j, 0.0, 0, "interval")
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    hints = {float(s) for s in spec.singularities if a <= s <= b}
    bounds = sorted({float(a), float(b)} | hints)
    res = _adaptive(_pieces(spec.evaluator, bounds, hints), tol, max_evals, "gk-adaptive")
    return QuadratureResult(sign * res.value, res.err_estimate, res.evaluations, res.method)


def _decay_probe(evaluator, side: float) -> tuple[float, float] | None:
    """Crude tail sampling: local |f_i| ~ x^(-p_i) exponents on one side.

    Returns (smallest exponent, largest |f_i| at the outer radius) over the
    components, or None when every tail is already below the noise floor
    (fast decay; safe to drop).  Exponent 0.0 flags a tail that is not
    decaying at all.
    """
    r1, r2 = _LINE_CORE, _PROBE_OUTER
    cluster = np.array([1.0, 1.17, 1.31])
    f1s = np.max(np.abs(evaluator(side * r1 * cluster)), axis=-1)
    f2s = np.max(np.abs(evaluator(side * r2 * cluster)), axis=-1)
    probes = []
    for f1, f2 in zip(np.ravel(f1s).tolist(), np.ravel(f2s).tolist()):
        if f1 < 1e-280 or f2 < 1e-300:
            continue
        if not (math.isfinite(f1) and math.isfinite(f2)) or f2 >= f1:
            probes.append((0.0, f2))  # not decaying at all
        else:
            probes.append((math.log(f1 / f2) / math.log(r2 / r1), f2))
    return (min(probes)[0], max(f for _, f in probes)) if probes else None


_LINE_CORE = 96.0     # core half-width; also the decay probe's inner radius
_PROBE_OUTER = 6144.0
_X_TOP = 1e250        # beyond this the tail is bounded analytically, not sampled


def _seed_edges(top: float) -> set[float]:
    """0 and +-1.5 * 2^j up to top: fine panels where states sit, wide ones out."""
    edges, e = {0.0}, 1.5
    while e <= top:
        edges |= {e, -e}
        e *= 2.0
    return edges


def _tail_piece(ev, side: float, p_hat: float):
    """Evaluator over v in (0, 1) whose integral is that of f over
    side*[X, X_TOP], via the power substitution x = side*X/v^gamma.

    gamma is chosen from the sampled decay exponent so the transformed
    integrand behaves like v^(gamma*(p-1)-1) with exponent >= 1.5 at
    v = 0, smooth enough for plain bisection regardless of how slowly
    the original tail decays (p > 1).  The orientation works out so no
    sign flip is needed on either side.
    """
    gamma = max(1, math.ceil(2.5 / (p_hat - 1.0)))
    v_floor = (_LINE_CORE / _X_TOP) ** (1.0 / gamma)

    def g(v):
        v = np.asarray(v, dtype=float)
        safe = v > v_floor
        vs = v[safe]
        x = side * _LINE_CORE * vs ** (-float(gamma))
        fx = ev(x) * (gamma * _LINE_CORE * vs ** (-float(gamma) - 1.0))
        out = np.zeros(fx.shape[:-1] + v.shape, dtype=complex)
        out[..., safe] = fx
        return out

    return g


def _beyond_top_bound(p_hat: float, f_outer: float) -> float:
    """Upper bound on the tail mass past _X_TOP for an |x|^(-p) tail,

        int_{X_TOP}^inf |f| dx  ~=  |f(r2)| r2^p X_TOP^(1-p) / (p-1),

    computed in log10 space so extreme exponents cannot overflow; rising in
    |f(r2)| and falling in p, it bounds components by max |f(r2)|, min p."""
    if f_outer <= 0.0:
        return 0.0
    log10b = (
        math.log10(f_outer)
        + p_hat * math.log10(_PROBE_OUTER)
        + (1.0 - p_hat) * math.log10(_X_TOP)
        - math.log10(p_hat - 1.0)
    )
    return 10.0 ** min(300.0, log10b)


def integrate_line(f, tol: float = 1e-10, max_evals: int = 1_000_000) -> QuadratureResult:
    """Integrate f over the whole real line.

    One adaptive pass at 0.5*tol over the core [-96, 96] (hints as in
    ``_pieces``) and one power-substituted tail piece per side (see
    ``_tail_piece``); the tail substitution order comes from the slowest
    sampled decay exponent, so algebraic tails as slow as |x|^(-1.01) stay
    fully resolvable.  Slower decay raises SlowDecay; tails already below
    the double-precision noise floor at the probe radii are dropped as
    exact zeros.
    """
    spec = _as_spec(f)
    ev = spec.evaluator
    evals = 0
    sides: list[tuple[float, float, float]] = []
    for side in (+1.0, -1.0):
        probe = _decay_probe(ev, side)
        evals += 6
        if probe is None:
            continue  # tail below the noise floor: identically zero here
        p_hat, f_outer = probe
        if p_hat <= 1.01:
            raise SlowDecay(
                f"tail exponent ~{p_hat:.3f} on the {'+' if side > 0 else '-'}inf side; "
                "integral does not converge absolutely"
            )
        sides.append((side, p_hat, f_outer))

    hints = {float(s) for s in spec.singularities if -_LINE_CORE < s < _LINE_CORE}
    pieces = _pieces(ev, sorted(_seed_edges(_LINE_CORE) | hints), hints)
    pieces += [(_tail_piece(ev, side, p_hat), _UNIT_EDGES) for side, p_hat, _ in sides]
    res = _adaptive(pieces, 0.5 * tol, max_evals, "gk-line")
    err = res.err_estimate + sum(_beyond_top_bound(p_hat, f_outer)
                                 for _, p_hat, f_outer in sides)
    return QuadratureResult(res.value, err, evals + res.evaluations, "gk-line")


def _averaged_limit(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterated-averaging (Euler) limits of partial-sum sequences, one per
    row of the (rows, n) array ``row``.

    For alternating tails with a smooth envelope each averaging pass gains
    roughly one factor of the envelope ratio; each row's limit is the last
    entry of its deepest pass with the least spread |last - second last|,
    and that spread is the returned remainder.
    """
    ends = np.empty((row.shape[1] - 1, len(row), 2), dtype=complex)
    ends[0] = row[:, -2:]
    for j in range(1, len(ends)):
        row = 0.5 * (row[:, 1:] + row[:, :-1])
        ends[j] = row[:, -2:]
    spread = np.abs(ends[..., 1] - ends[..., 0])
    deepest = len(ends) - 1 - np.argmin(spread[::-1], axis=0)  # ties go deeper
    rows = np.arange(len(row))
    return ends[deepest, rows, 1], spread[deepest, rows]


def fourier_transform_line(f, k: float, tol: float = 1e-10,
                           max_evals: int = 2_000_000,
                           core_halfwidth: float = 16.0) -> QuadratureResult:
    """(2*pi)^(-1/2) * int_{-inf}^{inf} exp(-i*k*x) f(x) dx.

    The core |x| <= X is integrated adaptively with panels no wider than
    the half-period pi/|k|; beyond it, consecutive half-period panels
    alternate in sign (exp(-i*k*(x+pi/|k|)) = -exp(-i*k*x)), and each
    tail's panel series is summed with iterated averaging, which converges
    even when f only decays algebraically (conditional convergence of the
    transform).  Both tails are one stream: each round adds 16 panels per
    side in one batch until both averaged remainders are within
    0.25*tol*max(1, |core|) or the last panels underflow; NotConverged at
    4096 panels per side or ``max_evals``.  Scalar integrands only, since
    no caller transforms several at once.
    """
    spec = _as_spec(f)
    ev = spec.evaluator
    if k == 0.0:
        res = integrate_line(spec, tol=tol, max_evals=max_evals)
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        return QuadratureResult(norm * res.value, norm * res.err_estimate,
                                res.evaluations, "fourier-k0")

    half_period = math.pi / abs(k)

    def g(x):
        return ev(x) * np.exp(-1j * k * x)

    n_half = max(2, math.ceil(core_halfwidth / half_period))
    X = n_half * half_period
    bounds = set(np.linspace(-X, X, 2 * n_half + 1).tolist())
    if half_period > core_halfwidth:
        # a state narrower than pi/|k| could sit between the GK nodes of the
        # half-period panels and read as zero: seed geometric edges out to X
        bounds |= {s for s in _seed_edges(X) if -X < s < X}
    hints = {float(s) for s in spec.singularities if -X < s < X}
    core = _adaptive(_pieces(g, sorted(bounds | hints), hints), 0.25 * tol, max_evals,
                     "fourier-core")
    evals = core.evaluations

    # rows: the +inf and -inf tails; columns: half-period panels outward from X
    sides = np.array([[1.0], [-1.0]])
    target = 0.25 * tol * max(1.0, abs(core.value))
    panels = np.empty((2, 0), dtype=complex)
    qerr = np.zeros(2)
    while True:
        idx = np.arange(panels.shape[1], panels.shape[1] + 16)
        mids = (sides * (X + (idx + 0.5) * half_period)).ravel()
        vals, errs = _panel_batch(g, mids, np.full(mids.size, 0.5 * half_period))
        evals += 15 * mids.size
        panels = np.concatenate([panels, vals.reshape(2, -1)], axis=1)
        qerr += np.sum(errs.reshape(2, -1), axis=1)
        best, rem = _averaged_limit(np.cumsum(panels, axis=1))
        if np.all((rem <= target) | (np.abs(panels[:, -1]) < 1e-305)):
            break
        if panels.shape[1] >= 4096 or evals >= max_evals:
            raise NotConverged(
                f"fourier tails not converged after {panels.shape[1]} panels per side "
                f"({evals} evaluations): remainder {np.max(rem):.3e} (target {target:.3e})"
            )

    norm = 1.0 / math.sqrt(2.0 * math.pi)
    value = norm * (core.value + complex(best[0] + best[1]))
    err = norm * (core.err_estimate + float(np.sum(qerr + rem)))
    return QuadratureResult(value, err, evals, "fourier-osc")
