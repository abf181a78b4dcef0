"""Adaptive Gauss-Kronrod quadrature for complex-valued integrands.

This module is the package's independent numerical oracle: every closed
form elsewhere is validated against integrals computed here.  The core is
an embedded 7/15-point Gauss-Kronrod pair with QUADPACK-style error
scaling, global adaptive bisection, and batched (vectorised) panel
evaluation.  Each integral is one adaptive pass: its pieces (plain
stretches, graded sides of singularity hints, substituted tails) share one
error target, one evaluation budget and one evaluator.  A piece does not
wrap the integrand: it maps a run of its own nodes once, to the points
where the integrand is sampled and to a finish that turns the values there
into the piece's integrand (its Jacobian), so each generation of the pass
(one round of panel splitting) costs one evaluator call and one G7/K15
reduction however many pieces it spans, and one map per piece it touches.
A batch over several pieces is taken as one contiguous run of panels per
piece; only a batch not already in piece order (the panels a generation
splits) is sorted into runs and scattered back into panel order for the
reduction.  Every pass
takes its seed panels from one memo keyed on its pieces' edges
(``_seed_layout``), so a pass whose edges recur (the hint-free line, the
Euler halves, a Fourier core's wave set) reuses the layout built first.
The seed rule: every pass starts at the resolution it reaches anyway, four
panels on each unit piece (graded hint sides, substituted tails, Euler
halves), a ladder of edges 1 - 2^-j down to the end layer of a graded
Euler half, and two edges per octave on the line's core, with +-0.375
inside the first octave, next to where states sit.  A generation's
fixed numpy work costs as much as fifteen to twenty-five panels, so
coarser seeds only buy extra generations that split a few panels each.
The end rule: every power-substituted end (tails, Euler halves) is mapped
to v^4 or smoother (``_END_EXPONENT``); at a rougher end the pass halves
the end panel one generation at a time.  The rule's constants are
QUADPACK's qk15 values to full precision.  On top of that sit

* ``integrate_interval`` -- finite interval, optional singularity hints,
* ``integrate_line``     -- whole real line: adaptive core [-96, 96] plus
  power-substituted tails x = 96/v^gamma chosen from each side's decay
  exponent, so even barely-integrable algebraic tails stay smooth.  An
  integrand that states its exact tails (``IntegrandSpec.tails``: every
  state pass of the package) gives the exponent and the exact mass past
  |x| = 1e250; for any other the exponent is sampled on both sides in one
  more evaluator call and that mass bounded from the samples,
* ``fourier_transform_line`` -- (2*pi)^(-1/2) * int exp(-i*k*x) f(x) dx
  for one k or a 1-d array of k, sharing f's values among them: one
  adaptive pass over every k's core, then the tails of every k as one
  stream of half-period pi/|k| panels (successive panels alternate in
  sign), 16 per side, doubling each round, summed from scratch with
  iterated averaging (Longman's method); a stream that reaches its
  4096-panel cap raises NotConverged.

Evaluators map a float ndarray of n nodes to an ndarray (complex is fine)
of shape (n,), or (m, n) for m integrands on shared nodes that one pass
refines until each meets err_i <= tol * max(1, |value_i|), as in
``scipy.integrate.quad_vec`` (not used: the oracle stays independent).
This holds for all three routines; ``fourier_transform_line`` then gives
each integrand's transform at every k, and its m = 1 case is the scalar
evaluator's, bit for bit.
All routines raise ValueError for a tol that is not a positive finite
number, count integrand evaluations (nodes) and stop with NotConverged
once ``max_evals`` is exhausted.  An adaptive pass stops sooner when
splitting can no longer meet its target: every panel's error is locked
once the panel reaches the double-precision width floor or its error
reaches the round-off floor 50*eps*resabs, which halves do not lower.
When the locked error alone misses the target and the error of the
panels still open is no larger, the pass returns its floor-limited
estimate if that is within 1e3 times the target and raises NotConverged
("resolution floor") otherwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import NotConverged, SlowDecay

__all__ = [
    "IntegrandSpec",
    "QuadratureResult",
    "integrate_interval",
    "integrate_line",
    "fourier_transform_line",
]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: QUADPACK's qk15
# abscissae and weights (Piessens et al. 1983) to 33 digits, listed from the
# right end inward and mirrored, so the rule is exactly symmetric.
_XK_RIGHT = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK_RIGHT = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK_MID = 0.209482141084727828012999174891714
_WG_RIGHT = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_MID = 0.417959183673469387755102040816327
_XK = np.concatenate([-np.array(_XK_RIGHT), [0.0], _XK_RIGHT[::-1]])
_WK = np.concatenate([_WK_RIGHT, [_WK_MID], _WK_RIGHT[::-1]])
# Gauss-7 sub-rule uses every other Kronrod node.
_GIDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.concatenate([_WG_RIGHT, [_WG_MID], _WG_RIGHT[::-1]])
# complex copies for the two complex matmuls of _gk_reduce, so no call casts
# the weights anew; the same values, so the same bits
_WK_C = _WK.astype(complex)
_WG_C = _WG.astype(complex)

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
    tails         None, or the exact algebraic tails that ``integrate_line``
                  reads in place of its decay probe: a pair (plus, minus)
                  for the +inf and the -inf side, each one finite
                  (e_i, log c_i) a component, |f_i(x)| ~ c_i |x|^(-e_i) as
                  x -> +-inf (a natural log); they set the side's
                  substitution and its exact mass past |x| = 1e250.  Only
                  ``integrate_line`` reads them; a malformed pair raises
                  ValueError there
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    singularities: tuple[float, ...] = ()
    tails: tuple | None = None


@dataclass(frozen=True)
class QuadratureResult:
    """value with an error estimate and the evaluation count; for an (m, n)
    evaluator, length-m arrays with each component held to its own target,
    and for ``fourier_transform_line`` over a k array, arrays shaped like k
    (shaped (m,) + k.shape for an (m, n) evaluator).

    err_estimate is conservative in practice (true error is normally far
    below it); evaluations counts integrand samples actually taken.
    """

    value: complex | np.ndarray
    err_estimate: float | np.ndarray
    evaluations: int
    method: str = ""


def _check_tol(tol: float) -> None:
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number; got {tol!r}")


def _check_index(n, name: str) -> int:
    """n as an int (``operator.index``: Python and numpy integers pass);
    ValueError for anything else, a float 2.5 or 2.0 included."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer; got {n!r}") from None


def _as_spec(f) -> IntegrandSpec:
    if isinstance(f, IntegrandSpec):
        return f
    return IntegrandSpec(evaluator=f)


def _gk_reduce(fx, halfs, where):
    """Apply the G7/K15 pair to the values fx, shape ([m,] panels, 15), of
    a batch of panels of half-widths halfs.

    Returns (resk, err, floor) arrays of shape ([m,] panels): err carries
    the QUADPACK rescaling  resasc * min(1, (200*|K-G|/resasc)^1.5)  held
    at or above the round-off floor 50*eps*resabs, so summing it over
    panels gives a defensible global estimate.  The min is taken before
    the power, the same value, so a huge ratio cannot overflow.  A flat
    panel (resasc = 0) reads its floor: its |K - G| is round-off, below
    half the floor.  A
    value that is not finite raises NotConverged naming the evaluator's
    points there: ``where()`` returns them, shape (panels, 15), and is
    called only then.
    """
    resabs = halfs * (np.abs(fx) @ _WK)
    if not np.isfinite(resabs).all():  # finite values can still overflow resabs
        finite = np.isfinite(fx).reshape(-1, *fx.shape[-2:]).all(axis=0)
        if not finite.all():
            raise NotConverged(f"integrand returned non-finite values near "
                               f"x={where()[~finite][:3]}")
    resk = halfs * (fx @ _WK_C)
    resg = halfs * (fx[..., _GIDX] @ _WG_C)
    mean = resk / (2.0 * halfs)
    resasc = halfs * (np.abs(fx - mean[..., None]) @ _WK)
    raw = np.abs(resk - resg)
    scaled = resasc * np.minimum(1.0, 200.0 * raw / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5
    floor = 50.0 * _EPS * resabs
    return resk, np.maximum(scaled, floor), floor


class _Piece(NamedTuple):
    """One piece of an adaptive pass, in its own variable v.

    edges   the initial panel edges in v, a tuple (the key of the pass's
            seed layout, ``_seed_layout``)
    sample  maps a run of nodes v once: v -> (points, finish), the points
            where the pass's shared evaluator is sampled, and finish, which
            turns the values there into the piece's integrand at v (the
            Jacobian of the map, and zeros for lanes the piece leaves out)
    """

    edges: tuple[float, ...]
    sample: Callable[[np.ndarray], tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]


def _plain(edges) -> _Piece:
    """A stretch integrated in x itself."""
    return _Piece(edges, lambda v: (v, lambda fx: fx))


def _pieces_batch(ev, pieces, owner, mids, halfs):
    """The G7/K15 pair on a batch of panels, panel i belonging to
    pieces[owner[i]]: one ``sample`` call per piece on the run of its
    nodes, one ev call on the points of every run, each run's finish on
    its share of the values, one reduction.  A batch that spans several
    pieces is taken as contiguous runs, one per piece.  A batch already in
    piece order (a seed batch, a round of the Fourier tail stream) is its
    own runs, sliced as it stands; an unordered one (the panels a
    generation splits) is put in order by a stable sort by owner and its
    values scattered back into panel order before the reduction.  Either
    way each panel gets the same values as piece by piece.  A non-finite
    value is reported at its point of ev, not at its v."""
    v = mids[:, None] + halfs[:, None] * _XK[None, :]
    first = owner[0]
    if (owner == first).all():  # one piece: one run, nothing to sort
        at, finish = pieces[first].sample(v.ravel())
        fx = np.asarray(ev(at))
        out = np.asarray(finish(fx), dtype=complex)
        return _gk_reduce(out.reshape(fx.shape[:-1] + v.shape), halfs,
                          lambda: at.reshape(v.shape))
    ordered = bool((owner[1:] >= owner[:-1]).all())
    if not ordered:
        order = np.argsort(owner, kind="stable")
        v = v[order]
    runs, start = [], 0
    for piece, stop in zip(pieces, np.bincount(owner, minlength=len(pieces)).cumsum().tolist()):
        if stop > start:
            runs.append(piece.sample(v[start:stop].ravel()))
        start = stop
    at = np.concatenate([points for points, _ in runs])
    fx = np.asarray(ev(at))
    parts, start = [], 0
    for points, finish in runs:
        parts.append(finish(fx[..., start:start + points.size]))
        start += points.size
    if ordered:
        out = np.concatenate(parts, axis=-1, dtype=complex)
        return _gk_reduce(out.reshape(fx.shape[:-1] + v.shape), halfs,
                          lambda: at.reshape(v.shape))
    out = np.empty(fx.shape[:-1] + v.shape, dtype=complex)
    out[..., order, :] = np.concatenate(parts, axis=-1).reshape(out.shape)

    def where():
        points = np.empty(v.shape)
        points[order] = at.reshape(v.shape)
        return points

    return _gk_reduce(out, halfs, where)


def _splittable(mids, halfs):
    """Panels wider than their width floor, which is set by each panel's
    own position, not by the far edges."""
    return halfs > 8.0 * _EPS * np.maximum(1.0, np.abs(mids) + halfs)


@lru_cache(maxsize=128)  # bounded: each new alpha gives the Parseval pass new edges
def _seed_layout(edges: tuple[tuple[float, ...], ...]):
    """The seed panels of pieces with these edges (one tuple a piece):
    their mids, half-widths, owning piece indices and ``_splittable``
    flags, read-only.  The one seed-layout memo of the package: every
    ``_adaptive`` pass looks its pieces' edges up here, so a pass whose
    edges recur shares the arrays built first.  Keys compare by value,
    and edges equal by value give the same arrays, bit for bit."""
    edges = [np.asarray(e, dtype=float) for e in edges]
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])
    owner = np.concatenate([np.full(len(e) - 1, i) for i, e in enumerate(edges)])
    mids = 0.5 * (lo + hi)
    halfs = 0.5 * (hi - lo)
    layout = mids, halfs, owner, _splittable(mids, halfs)
    for a in layout:
        a.flags.writeable = False
    return layout


def _adaptive(pieces, ev, tol, max_evals, method):
    """Globally adaptive bisection over the panels of all ``pieces``
    (``_Piece``), whose integrals sum to the result.

    The seed panels are the ``_seed_layout`` of the pieces' edges, built
    once per distinct edges.  Each generation costs one call of the shared
    evaluator ``ev`` on every new panel's points and one G7/K15 reduction.  Its fixed
    numpy work outweighs that of the panels it adds (on a 2-vCPU VM, some
    140-160 us against 7-10 us a panel), which is why the pieces' seed
    edges are already as fine as a pass gets anyway (``_UNIT_EDGES``,
    ``_seed_edges``).  A generation splits every panel whose score (worst
    component error over its target) is within a factor two of the
    current worst, then re-checks the targets; this batches well
    and keeps the refinement sequence independent of tol: tightening tol
    extends it, up to the floored stop below.

    A panel stays open while splitting can still lower its error: it is
    wider than its width floor (``_splittable``, kept per panel and
    computed once, when the panel is made) and its error is above its
    round-off floor 50*eps*resabs, which halves do not lower (their floors
    sum to the same).  The error of every other panel is locked.  The pass
    is floored once, for some component, the locked error alone misses the
    target and the open panels' error is no larger than it (so also when
    no panel is open): more splitting could at most halve that estimate,
    never meet the target.  It then returns the honest floor-limited
    estimate when that is within three orders of the request
    (QUADPACK-style round-off return) and refuses otherwise, without
    spending its budget.
    """
    mids, halfs, owner, splittable = _seed_layout(tuple(p.edges for p in pieces))
    vals, errs, floors = _pieces_batch(ev, pieces, owner, mids, halfs)
    evals = 15 * len(mids)

    while True:
        value = vals.sum(axis=-1)
        err = errs.sum(axis=-1)
        scale = np.maximum(1.0, np.abs(value))
        target = tol * scale
        done, floored = (err <= target).all(), False
        if not done:
            open_err = np.where(splittable & (errs > floors), errs, 0.0).sum(axis=-1)
            locked = err - open_err
            floored = ((locked > target) & (open_err <= locked)).any()
            done = floored and (err <= 1e3 * target).all()
        if done:
            if value.ndim == 0:  # a scalar integrand reports Python scalars
                value, err = complex(value), float(err)
            return QuadratureResult(value, err, evals, method)
        weight = scale.max() / scale  # err * weight ~ err / target; 1 if scalar
        if floored or evals >= max_evals:  # report the component furthest off
            c = np.argmax(np.ravel(err * weight))
            e, t, v = (np.ravel(a)[c] for a in (err, target, value))
            raise NotConverged(
                f"resolution floor at err_estimate={e:.3e} (target {t:.3e}), value={v:.6e}"
                if floored else f"quadrature budget exhausted: {evals} evaluations, "
                f"err_estimate={e:.3e}, value={v:.6e}"
            )
        score = (errs * weight[..., None]).reshape(-1, len(halfs)).max(axis=0)
        pick = splittable & (score >= 0.5 * score[splittable].max())
        keep = ~pick
        picked, quarter = mids[pick], 0.5 * halfs[pick]
        new_mids = np.concatenate([picked - quarter, picked + quarter])
        new_halfs = np.concatenate([quarter, quarter])
        new_owner = np.concatenate([owner[pick], owner[pick]])
        nv, ne, nf = _pieces_batch(ev, pieces, new_owner, new_mids, new_halfs)
        evals += 15 * len(new_mids)
        mids = np.concatenate([mids[keep], new_mids])
        halfs = np.concatenate([halfs[keep], new_halfs])
        owner = np.concatenate([owner[keep], new_owner])
        splittable = np.concatenate([splittable[keep], _splittable(new_mids, new_halfs)])
        vals = np.concatenate([vals[..., keep], nv], axis=-1)
        errs = np.concatenate([errs[..., keep], ne], axis=-1)
        floors = np.concatenate([floors[..., keep], nf], axis=-1)


# Grading power next to a hint: u = hint + w * v**4 turns an algebraic factor
# |u - hint|**s into v**(4s+3), smooth for s >= -3/4 and far better
# conditioned for any integrable s > -1.
_HINT_GAMMA = 4.0
# The end rule of every power-substituted end (the line's tails here, both
# Euler halves in specfun): an end where the integrand behaves like
# s^(e-1) ds is mapped by s ~ v^g with g*e >= _END_EXPONENT, so it becomes
# v^(g*e-1), v^4 or smoother.  At a rougher end (v^0.5, v^1.5) the G7/K15
# estimate of the end panel shrinks so slowly that the pass halves toward
# the end one panel pair per generation.
_END_EXPONENT = 5.0
# Seed edges of every piece over v in (0, 1): graded hint sides, substituted
# tails and the Euler halves in specfun (which add a ladder toward v = 1 when
# graded).  Four panels, not two: a pass seeded coarser spends its first
# generations splitting a few panels at a time, and each generation costs
# far more than the panels it adds.
_UNIT_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _graded(hint: float, w: float) -> _Piece:
    """Piece over v in (0, 1) for hint to hint + w: its points are
    u = hint + w*v**4, its finish checks the values there and multiplies
    by the Jacobian 4|w| v**3."""
    g = _HINT_GAMMA

    def sample(v):
        u = hint + w * v ** g

        def finish(fu):
            if not np.isfinite(fu).all():
                finite = np.isfinite(np.reshape(fu, (-1, v.size))).all(axis=0)
                raise NotConverged(f"integrand returned non-finite values near "
                                   f"u={u[~finite][:3]} (graded towards the hint {hint})")
            return fu * (g * abs(w) * v ** (g - 1.0))

        return u, finish

    return _Piece(_UNIT_EDGES, sample)


def _pieces(bounds, hints) -> list[_Piece]:
    """The pieces of an integral over the sorted ``bounds``.

    The hint rule: each side of a hint (a bound where the integrand may be
    singular) is integrated over the half segment next to it through
    ``_graded``.  The plain stretches between keep the bounds as panel
    edges; a one-segment stretch gets its midpoint too, so its first
    estimate is honest.  All pieces sample one evaluator, so a generation
    of the adaptive pass costs one call whatever the number of pieces.
    """
    pieces, plain = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        if lo in hints:
            pieces.append(_graded(lo, mid - lo))
            lo = mid
        if hi in hints:
            pieces.append(_graded(hi, mid - hi))
            hi = mid
        if lo < hi:
            if plain and plain[-1][-1] == lo:
                plain[-1].append(hi)
            else:
                plain.append([lo, hi])
    for edges in plain:
        if len(edges) == 2:
            edges.insert(1, 0.5 * (edges[0] + edges[1]))
        pieces.append(_plain(tuple(edges)))
    return pieces


def integrate_interval(f, a: float, b: float, tol: float = 1e-10,
                       max_evals: int = 1_000_000) -> QuadratureResult:
    """Integrate f over [a, b] with err_estimate <= tol * max(1, |value|).

    Singularity hints in [a, b], interior or at an end, follow the hint
    rule of ``_pieces``.  Swapped bounds integrate with the orientation
    sign.  When bisection runs into the double-precision panel-width floor
    or the round-off floor (see ``_adaptive``) before meeting the target,
    the honest floor-limited estimate is returned as long as it is within
    three orders of the request; NotConverged otherwise, or when
    ``max_evals`` is exhausted.
    """
    _check_tol(tol)
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
    res = _adaptive(_pieces(bounds, hints), spec.evaluator, tol, max_evals, "gk-adaptive")
    return QuadratureResult(sign * res.value, res.err_estimate, res.evaluations, res.method)


def _decay_probe(evaluator) -> list[tuple[float, float] | None]:
    """Crude tail sampling: local |f_i| ~ |x|^(-p_i) exponents on the +inf
    and the -inf side, from one 12-node evaluator call (6 nodes a side),
    for an integrand that carries no exact tails (``IntegrandSpec.tails``).

    Returns, per side, (smallest exponent, largest |f_i| at the outer
    radius) over the components, or None when every tail is already below
    the noise floor (fast decay; safe to drop).  Exponent 0.0 flags a tail
    that is not decaying at all.
    """
    r1, r2 = _LINE_CORE, _PROBE_OUTER
    cluster = np.array([1.0, 1.17, 1.31])
    x = np.array([1.0, -1.0])[:, None, None] * np.array([r1, r2])[None, :, None] * cluster
    fx = np.abs(np.asarray(evaluator(x.ravel())))
    peaks = np.max(fx.reshape(fx.shape[:-1] + x.shape), axis=-1)  # ([m,] side, radius)
    out = []
    for s in range(2):
        probes = []
        inner, outer = (np.ravel(peaks[..., s, r]).tolist() for r in (0, 1))
        for f1, f2 in zip(inner, outer):
            if f1 < 1e-280 or f2 < 1e-300:
                continue
            if not (math.isfinite(f1) and math.isfinite(f2)) or f2 >= f1:
                probes.append((0.0, f2))  # not decaying at all
            else:
                probes.append((math.log(f1 / f2) / math.log(r2 / r1), f2))
        out.append((min(probes)[0], max(f for _, f in probes)) if probes else None)
    return out


_LINE_CORE = 96.0     # core half-width; also the decay probe's inner radius
_PROBE_OUTER = 6144.0
_X_TOP = 1e250        # beyond this the tail is bounded analytically, not sampled


def _seed_edges(top: float) -> set[float]:
    """0, +-0.375 and +-0.75 * 2^j, +-1.125 * 2^j up to top: two edges per
    octave, fine panels where states sit, wide ones out (32 core panels on
    the line).  One edge per octave left line passes several generations
    of splitting a few panels each, and each generation costs more than the
    panels it adds; four per octave add nodes and save no generation.  The
    moment pass split most of its panels at |x| < 0.75, next to a state's
    centre, until +-0.375 seeded them."""
    edges = {0.0, 0.375, -0.375}
    for e in (0.75, 1.125):
        while e <= top:
            edges |= {e, -e}
            e *= 2.0
    return edges


def _tail_piece(side: float, p_hat: float) -> _Piece:
    """Piece over v in (0, 1) whose integral is that of f over
    side*[X, X_TOP], via the power substitution x = side*X/v^gamma.

    An |x|^(-p) tail becomes v^(gamma*(p-1)-1) at v = 0.  gamma follows
    the end rule (``_END_EXPONENT``) at the side's smallest decay exponent,
    exact or sampled:
    gamma*(p_hat-1) >= 5, so that end is v^4 or smoother, however slowly
    the tail decays; at a rougher end, such as v^1.5, the pass halves the
    panel next to v = 0 one generation at a time.  The orientation works
    out so no sign flip is needed on either side.  Nodes below v_floor,
    which map past X_TOP, are sampled at x = side*X instead and read zero
    in the finish; the mass they leave out is what ``integrate_line``
    bounds and, for slow tails, refuses.
    """
    gamma = max(1, math.ceil(_END_EXPONENT / (p_hat - 1.0)))
    v_floor = (_LINE_CORE / _X_TOP) ** (1.0 / gamma)

    def sample(v):
        safe = v > v_floor
        at = np.where(safe, v, 1.0)

        def finish(fx):
            return np.where(safe, fx * (gamma * _LINE_CORE * at ** (-float(gamma) - 1.0)), 0.0)

        return side * _LINE_CORE * at ** (-float(gamma)), finish

    return _Piece(_UNIT_EDGES, sample)


# The core pieces of every hint-free line
_LINE_PIECES = _pieces(sorted(_seed_edges(_LINE_CORE)), set())


def _beyond_top_mass(e: float, log_c: float) -> float:
    """The mass past _X_TOP of a tail c |x|^(-e) (e > 1),

        int_{X_TOP}^inf c x^(-e) dx  =  c X_TOP^(1-e) / (e-1),

    computed in log10 space (and capped at 1e300) so that no exponent or
    coefficient overflows.  For an exact tail, where |f| is c |x|^(-e) to
    leading order, the next order is smaller by about 1/X_TOP relative
    times the integrand's own length scales (for a state, its centre), so
    this is the mass to double precision and serves as its bound.  A
    probed tail takes the slowest sampled exponent and c = max |f(r2)|
    r2^p at the probe's outer radius r2, a bound on every component."""
    log10m = log_c / math.log(10.0) + (1.0 - e) * math.log10(_X_TOP) - math.log10(e - 1.0)
    return 10.0 ** min(300.0, log10m)


def _exact_tails(tails) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """The two sides of ``IntegrandSpec.tails`` as lists of (e, log c)
    floats; ValueError unless they are a pair of sides, each a non-empty
    list of finite (e, log c) pairs, one a component."""
    try:
        plus, minus = ([(float(e), float(log_c)) for e, log_c in side] for side in tails)
    except (TypeError, ValueError):
        plus = minus = []
    if not (plus and len(plus) == len(minus)
            and all(math.isfinite(x) for pair in plus + minus for x in pair)):
        raise ValueError("tails must be a pair of sides, each one finite (exponent, "
                         f"log coefficient) pair a component; got {tails!r}")
    return plus, minus


def integrate_line(f, tol: float = 1e-10, max_evals: int = 1_000_000) -> QuadratureResult:
    """Integrate f over the whole real line.

    One adaptive pass at 0.5*tol over the core [-96, 96] (hints as in
    ``_pieces``) and one power-substituted tail piece per side (see
    ``_tail_piece``), all sampled through one evaluator call per
    generation.  The tail substitution order comes from the side's
    smallest decay exponent: the exact one when f is an ``IntegrandSpec``
    with ``tails``, and otherwise one sampled by ``_decay_probe`` (one
    more call, 12 more evaluations).  An exponent at or below 1.01 raises
    SlowDecay at once.  So does a tail whose mass past |x| = 1e250, which
    no panel samples, is above the pass's target 0.5*tol*max(1, |value|)
    for some component: the returned err_estimate could not back the
    request.  That mass (``_beyond_top_mass``) is exact for exact tails,
    each component's own, and bounded from the probe otherwise, from the
    slowest exponent and the largest sample; it is about
    10^(-250(p-1))/(p-1) for an |x|^(-p) tail, so the slowest algebraic
    tails resolved decay like |x|^(-1.035) at tol 1e-8 and |x|^(-1.05) at
    tol 1e-12; |x|^(-1.02) is refused at both.  An
    oscillating tail, such as e^(ikx) |x|^(-p), is not resolved: the
    substitution packs ever more periods into each panel toward v = 0, and
    the pass spends ``max_evals`` and raises NotConverged.  Its integral is
    sqrt(2*pi) times ``fourier_transform_line`` of the envelope at -k,
    which sums the tails from half-period panels.  Exact tails are
    integrated on both sides; a probed side is left out, as an exact zero,
    where every tail is below the double-precision noise floor at the
    probe radii.
    """
    _check_tol(tol)
    spec = _as_spec(f)
    ev = spec.evaluator
    probed = spec.tails is None
    sides = []  # (side, smallest exponent, the masses past _X_TOP or their bound)
    for side, tail in zip((1.0, -1.0), _decay_probe(ev) if probed else _exact_tails(spec.tails)):
        if tail is None:
            continue  # tail below the noise floor: identically zero here
        if probed:  # f_outer >= 1e-300: _decay_probe keeps no smaller sample
            p_hat, f_outer = tail
            tail = [(p_hat, math.log(f_outer) + p_hat * math.log(_PROBE_OUTER))]
        else:
            p_hat = min(e for e, _ in tail)
        if not p_hat > 1.01:
            raise SlowDecay(
                f"tail exponent {'~' if probed else ''}{p_hat:.3f} on the "
                f"{'+' if side > 0 else '-'}inf side; integral does not converge absolutely"
            )
        sides.append((side, p_hat, [_beyond_top_mass(e, log_c) for e, log_c in tail]))

    hints = {float(s) for s in spec.singularities if -_LINE_CORE < s < _LINE_CORE}
    core = _pieces(sorted(_seed_edges(_LINE_CORE) | hints), hints) if hints else _LINE_PIECES
    tails = [_tail_piece(side, p_hat) for side, p_hat, _ in sides]
    res = _adaptive(core + tails, ev, 0.5 * tol, max_evals, "gk-line")
    shape = np.shape(res.value)
    if not probed and len(spec.tails[0]) != np.size(res.value):
        raise ValueError(f"tails name {len(spec.tails[0])} components; the integrand "
                         f"has {np.size(res.value)}")
    beyond = np.zeros(shape)
    for *_, masses in sides:  # a probed bound covers every component alike
        beyond += masses[0] if probed else np.reshape(masses, shape)
    target = 0.5 * tol * np.maximum(1.0, np.abs(res.value))
    if (beyond > target).any():
        c = np.argmax(np.ravel(beyond / target))
        raise SlowDecay(f"tail mass beyond |x| = {_X_TOP:.0e} is bounded only by "
                        f"{np.ravel(beyond)[c]:.3e}, above the target {np.ravel(target)[c]:.3e}")
    err = res.err_estimate + beyond
    if not shape:
        err = float(err)
    # the decay probe took 6 nodes a side
    return QuadratureResult(res.value, err, res.evaluations + (12 if probed else 0), "gk-line")


def _averaged_limit(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iterated-averaging (Euler) limits of the (rows, n) partial ``sums``;
    returns (limits, remainders), one per row.

    Pass 0 holds a row's partial sums; each entry of pass j is the mean of
    two neighbouring entries of pass j-1.  Each row's limit is the last
    entry of its deepest pass with the least spread |last - second last|,
    and that spread is the remainder.  For alternating tails with a smooth
    envelope each pass gains roughly one factor of the envelope ratio.
    """
    row = sums
    ends = [row[:, -2:]]
    while row.shape[1] > 2:
        row = 0.5 * (row[:, 1:] + row[:, :-1])
        ends.append(row[:, -2:])
    ends = np.array(ends)
    spread = np.abs(ends[..., 1] - ends[..., 0])
    deepest = len(ends) - 1 - np.argmin(spread[::-1], axis=0)  # ties go deeper
    rows = np.arange(ends.shape[1])
    return ends[deepest, rows, 1], spread[deepest, rows]


class _Wave(NamedTuple):
    """One distinct k != 0 of a transform: its half-period pi/|k| and its
    core |x| <= X, n_half half-periods a side."""

    k: float
    half_period: float
    n_half: int
    X: float


def _phased(k: float) -> _Piece:
    """The half-period panels of one k's tails, in x itself: their finish
    turns the shared values f(x) into f(x) e^(-ikx)."""
    return _Piece((), lambda v: (v, lambda fx: fx * np.exp(-1j * k * v)))


def fourier_transform_line(f, k, tol: float = 1e-10,
                           max_evals: int = 2_000_000,
                           core_halfwidth: float = 16.0) -> QuadratureResult:
    """(2*pi)^(-1/2) * int_{-inf}^{inf} exp(-i*k*x) f(x) dx, for a number k
    or for each entry of a 1-d array of k.

    Each k's core |x| <= X_k (X_k about ``core_halfwidth``, a whole number
    of half-periods pi/|k|) is integrated adaptively with panels no wider
    than its half-period; beyond it, consecutive half-period panels
    alternate in sign (exp(-i*k*(x+pi/|k|)) = -exp(-i*k*x)), and each
    tail's panel series is summed with iterated averaging, which converges
    even when f only decays algebraically (conditional convergence of the
    transform).  All the k share one pass and one evaluator call a
    generation: the cores are one adaptive pass whose components are
    f e^(-ikx) inside their own core and 0 outside, on the union of every
    k's edges, and the tails are one stream, one batch a round, 16
    panels per side and k and then as many again, in which a k stops once
    both its averaged remainders are within 0.25*tol*max(1, |core_k|) or
    its last panels underflow.  Entries with k = 0 are plain
    ``integrate_line`` integrals, and a repeated k is transformed once.
    NotConverged at 4096 panels per side (round 9) or ``max_evals``, and at
    once, before anything is allocated, when the cores' seed panels alone
    (about 2 X_k |k|/pi of them for each |k|) would take more than
    ``max_evals``; ValueError for a k that is not finite or not a number
    or 1-d array, or a ``core_halfwidth`` that is not positive and finite.
    f maps n nodes to n values, or to (m, n) for m integrands on shared
    nodes: their m transforms at every k share the pass, each held to its
    own target, and a k's tails stop once all m have met theirs.  value
    and err_estimate are a complex and a float for a number k and a scalar
    f, arrays of shape k.shape otherwise, with a leading axis of m for an
    (m, n) f; m = 1 gives the scalar f's numbers bit for bit.  The method
    is "fourier-k0" when every k is 0 and "fourier-osc" otherwise.
    """
    _check_tol(tol)
    ks = np.asarray(k, dtype=float)
    if ks.ndim > 1:
        raise ValueError(f"k must be a number or a 1-d array; got shape {ks.shape}")
    if not np.isfinite(ks).all():
        raise ValueError(f"k must be finite; got {k!r}")
    if not (core_halfwidth > 0.0 and math.isfinite(core_halfwidth)):
        raise ValueError(f"core_halfwidth must be a positive finite number; "
                         f"got {core_halfwidth!r}")
    zero = ks.ravel() == 0.0  # one column a k, a number k included
    waves, where_k = np.unique(ks.ravel()[~zero], return_inverse=True)

    # each core's 2*n_half half-period panels cost 15 nodes each, and k and
    # -k share one core: k whose cores alone overrun max_evals are refused
    # before any edge is built
    cores = []
    for kk in waves.tolist():
        half_period = math.pi / abs(kk)
        span = core_halfwidth / half_period  # inf once X|k| passes the doubles
        n_half = max(2, math.ceil(min(span, max_evals)))
        cores.append(_Wave(kk, half_period, n_half, n_half * half_period))
    seeds = {c.half_period: c.n_half for c in cores}
    if 30 * sum(seeds.values()) > max_evals:
        spans = sum(core_halfwidth / half_period for half_period in seeds)
        raise NotConverged(f"fourier core at k={k!r} needs {2.0 * spans:.4g} half-period "
                           f"panels of 15 nodes, more than max_evals={max_evals}")

    spec = _as_spec(f)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    parts, evals = [], 0  # (columns, values, errors), leading axis m for an (m, n) f
    if zero.any():
        res = integrate_line(spec, tol=tol, max_evals=max_evals)
        parts.append((zero, norm * np.asarray(res.value)[..., None],
                       norm * np.asarray(res.err_estimate)[..., None]))
        evals = res.evaluations
    if cores:
        wave, wave_err, wave_evals = _fourier_waves(spec, cores, core_halfwidth, tol,
                                                    max_evals - evals)
        parts.append((~zero, norm * wave[..., where_k], norm * wave_err[..., where_k]))
        evals += wave_evals
    lead = parts[0][1].shape[:-1] if parts else ()  # an empty k evaluates nothing
    value, err = np.zeros(lead + zero.shape, dtype=complex), np.zeros(lead + zero.shape)
    for columns, part_value, part_err in parts:
        value[..., columns], err[..., columns] = part_value, part_err
    value, err = value.reshape(lead + ks.shape), err.reshape(lead + ks.shape)
    if value.ndim == 0:
        value, err = complex(value), float(err)
    return QuadratureResult(value, err, evals, "fourier-osc" if cores else "fourier-k0")


@lru_cache(maxsize=16)  # a few wave sets recur: verify's k = (0.8, 2, 0.01) at every point
def _fourier_core(cores, core_halfwidth, hints):
    """The pieces of the cores' adaptive pass of ``_fourier_waves``, built
    once per distinct wave set (``_Wave`` tuple), ``core_halfwidth`` and
    hint set, since their bounds cost about 90 us to build: each k's
    half-period edges over its core, and the geometric ones where a
    half-period is wider than ``core_halfwidth``."""
    bounds = set()
    for _, half_period, n_half, X in cores:
        bounds |= set(np.linspace(-X, X, 2 * n_half + 1).tolist())
        if half_period > core_halfwidth:
            # a state narrower than pi/|k| could sit between the GK nodes of
            # the half-period panels and read as zero: seed geometric edges
            bounds |= {s for s in _seed_edges(X) if -X < s < X}
    return _pieces(sorted(bounds | hints), hints)


def _fourier_waves(spec, cores, core_halfwidth, tol, max_evals):
    """The unnormalised transforms of ``fourier_transform_line`` at the
    distinct k != 0 of ``cores`` (``_Wave``): their values and error
    estimates, shape (len(cores),) for a scalar integrand and
    (m, len(cores)) for an (m, n) one, and the evaluation count."""
    ev = spec.evaluator
    kcol = np.array([[c.k] for c in cores])
    reach = np.array([[c.X] for c in cores])
    top = float(reach.max())

    def g(x):  # each k's component, zero past its own core
        return np.where(np.abs(x) <= reach, ev(x)[..., None, :] * np.exp(-1j * kcol * x), 0.0)

    hints = frozenset(float(s) for s in spec.singularities if -top < s < top)
    core_pieces = _fourier_core(tuple(cores), core_halfwidth, hints)
    core = _adaptive(core_pieces, g, 0.25 * tol, max_evals, "fourier-core")
    evals = core.evaluations

    # terms[i, j, s]: integrand i's tail on side s (+inf, -inf) of the j-th
    # k still summing, its half-period panels outward from X along the last
    # axis, as many in every row; one integrand i for a scalar f
    pieces = [_phased(c.k) for c in cores]
    targets = np.array([0.25 * tol * max(1.0, abs(v)) for v in core.value.ravel().tolist()])
    targets = targets.reshape(-1, len(cores), 1)
    sides = np.array([[1.0], [-1.0]])
    tail, tail_err = np.empty(targets.shape[:2], dtype=complex), np.empty(targets.shape[:2])
    live = np.arange(len(cores))  # the k still summing
    terms = np.empty(targets.shape[:2] + (2, 0), dtype=complex)
    qerr = np.zeros(terms.shape[:-1])
    while True:
        n_panels = terms.shape[-1]
        idx = np.arange(n_panels, 2 * n_panels or 16)  # 16 panels a side, then doubling
        waves = [cores[i] for i in live.tolist()]
        mids = np.concatenate([(sides * (c.X + (idx + 0.5) * c.half_period)).ravel()
                               for c in waves])
        halfs = np.repeat([0.5 * c.half_period for c in waves], 2 * idx.size)
        vals, errs, _ = _pieces_batch(ev, pieces, np.repeat(live, 2 * idx.size), mids, halfs)
        evals += 15 * mids.size
        terms = np.concatenate([terms, vals.reshape(terms.shape[:-1] + (-1,))], axis=-1)
        qerr += np.sum(errs.reshape(terms.shape[:-1] + (-1,)), axis=-1)
        best, rem = (a.reshape(qerr.shape) for a in
                     _averaged_limit(np.cumsum(terms, axis=-1).reshape(-1, terms.shape[-1])))
        target = np.repeat(targets[:, live], 2, axis=-1)
        met = ((rem <= target) | (np.abs(terms[..., -1]) < 1e-305)).all(axis=(0, 2))
        if met.any():  # a k stops once every tail of it does
            tail[:, live[met]] = best[:, met].sum(axis=-1)
            tail_err[:, live[met]] = (qerr + rem)[:, met].sum(axis=-1)
            live, terms, qerr = live[~met], terms[:, ~met], qerr[:, ~met]
            rem, target = rem[:, ~met], target[:, ~met]
            if not live.size:
                shape = core.value.shape
                return (core.value + tail.reshape(shape),
                        core.err_estimate + tail_err.reshape(shape), evals)
        if terms.shape[-1] >= 4096 or evals >= max_evals:
            ratio = rem / target
            worst = np.unravel_index(np.argmax(ratio), ratio.shape)
            raise NotConverged(
                f"fourier tails not converged after {terms.shape[-1]} panels per side "
                f"({evals} evaluations): remainder {rem[worst]:.3e} (target {target[worst]:.3e})"
            )
