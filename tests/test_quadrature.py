"""Adaptive quadrature oracle: finite intervals, the whole line, and the
oscillatory Fourier path.

The whole point of this module is to be trustworthy independently of the
closed forms it later judges, so expected values here come from textbook
integrals (Gamma/Beta identities, Gaussian moments, the Lorentzian
transform) evaluated through the standard library, never from the package's
own physics layer.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from qcoherent import quadrature, specfun
from qcoherent.errors import NotConverged, SlowDecay
from qcoherent.quadrature import (
    IntegrandSpec,
    fourier_transform_line,
    integrate_interval,
    integrate_line,
)

SQRT_PI = math.sqrt(math.pi)


# ------------------------------------------------------ finite interval

def test_interval_constant():
    r = integrate_interval(lambda x: np.ones_like(x), 0.0, 1.0, tol=1e-12)
    assert r.value.real == pytest.approx(1.0, rel=1e-13)
    assert r.err_estimate >= 0.0
    assert r.evaluations >= 1


def test_interval_inverse_sqrt_endpoint():
    spec = IntegrandSpec(lambda u: u ** -0.5, singularities=(0.0,))
    r = integrate_interval(spec, 0.0, 1.0, tol=1e-10)
    assert r.value.real == pytest.approx(2.0, rel=1e-9)


def test_interval_beta_function():
    r = integrate_interval(lambda u: u ** 0.2 * (1 - u) ** 0.3, 0.0, 1.0, tol=1e-11)
    want = math.exp(
        math.lgamma(1.2) + math.lgamma(1.3) - math.lgamma(2.5)
    )
    assert r.value.real == pytest.approx(want, rel=1e-10)


def test_interval_complex_integrand():
    r = integrate_interval(lambda x: np.exp(1j * x), 0.0, math.pi / 2, tol=1e-12)
    assert r.value == pytest.approx(1.0 + 1.0j, rel=1e-12)


def test_interval_interior_hint_splits_kink():
    spec = IntegrandSpec(lambda x: np.abs(x - 0.3), singularities=(0.3,))
    r = integrate_interval(spec, 0.0, 1.0, tol=1e-12)
    want = 0.5 * (0.3 ** 2 + 0.7 ** 2)
    assert r.value.real == pytest.approx(want, rel=1e-13)


def test_interval_interior_hint_next_to_hinted_ends():
    # each side of every hint is graded over its own half segment, so the
    # substitution next to an end hint never rounds onto the interior one
    spec = IntegrandSpec(lambda u: np.abs(u - 0.3) ** -0.5, singularities=(0.0, 0.3, 1.0))
    tol = 1e-10
    r = integrate_interval(spec, 0.0, 1.0, tol=tol)
    assert abs(r.value - 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))) <= tol


def test_interval_hint_failure_names_the_callers_x():
    # next to a non-zero hint the graded nodes round onto it, where this
    # integrand is infinite: the failure names u and the hint, not the
    # graded variable; at hint 0 the same singularity resolves
    def f(h):
        def ev(x):
            with np.errstate(divide="ignore"):
                return np.abs(x - h) ** -0.3
        return IntegrandSpec(ev, singularities=(h,))

    with pytest.raises(NotConverged, match=r"u=\[0\.3\].*hint 0\.3"):
        integrate_interval(f(0.3), -1.0, 2.0, tol=1e-10)
    r = integrate_interval(f(0.0), -1.0, 2.0, tol=1e-10)
    assert abs(r.value - (1.0 + 2.0 ** 0.7) / 0.7) <= 1e-12


@pytest.mark.parametrize("integrate", [
    lambda f: integrate_interval(IntegrandSpec(f, singularities=(0.0, 0.3, 1.0)), 0.0, 1.0),
    integrate_line,
])
def test_one_adaptive_pass_per_integral(monkeypatch, integrate):
    # hinted pieces, the line core and both tails share one error budget
    calls = []
    adaptive = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive",
                        lambda *a, **k: calls.append(len(a[0])) or adaptive(*a, **k))
    integrate(lambda x: 1.0 / (1.0 + x * x))
    assert len(calls) == 1 and calls[0] >= 3


def test_interval_budget_exhaustion():
    with pytest.raises(NotConverged):
        integrate_interval(lambda u: np.abs(u) ** -0.5, 0.0, 1.0,
                           tol=1e-13, max_evals=60)


def test_below_the_round_off_floor_stops_at_once():
    # splitting does not lower the panels' round-off floors 50*eps*resabs,
    # so a target below their sum is not chased through the budget: once
    # the open panels' error is no larger than the locked one, the
    # floor-limited estimate is returned within 1e3 times the target, and
    # refused beyond
    f, log = _counting(lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(NotConverged, match="resolution floor"):
        integrate_line(f, tol=1e-20)
    assert log[1] <= 3000
    r = integrate_line(f, tol=1e-14)
    assert r.evaluations <= 3000
    assert abs(r.value - math.pi) <= r.err_estimate <= 1e3 * 1e-14 * math.pi
    # a tighter tol never stops on a coarser estimate than a looser one
    assert r.err_estimate <= integrate_line(f, tol=1e-13).err_estimate


def test_round_off_floor_counts_only_resolved_panels():
    # two opposite spikes on K15 nodes of the wide seed panels: the first
    # estimates read |f| ~ 100 against a value of ~1.8, a floor far above
    # the target, but only panels whose error is already at their floor
    # lock it, so the pass converges as it always did
    def f(x):
        return (10.0 * np.exp(-((x - 72.0) / 0.05) ** 2)
                - 10.0 * np.exp(-((x + 72.0) / 0.05) ** 2) + np.exp(-x * x))

    r = integrate_line(f, tol=1e-13)
    assert r.evaluations == 1992
    assert abs(r.value - SQRT_PI) <= 1e-13


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 0.0)])
def test_non_finite_values_raise(bad):
    def f(x):
        return np.where(x > 0.5, bad, 1.0 / (1.0 + x * x))

    with pytest.raises(NotConverged, match="non-finite"):
        integrate_interval(f, 0.0, 1.0)
    with pytest.raises(NotConverged, match="non-finite"):  # in a Fourier tail panel
        fourier_transform_line(lambda x: np.where(x > 40.0, bad, np.exp(-x * x)), 1.0)


def test_non_finite_tail_values_are_reported_at_x():
    # the tail piece samples x = 96/v^gamma; the failure names x, not v
    def f(x):
        return np.where((x > 200.0) & (x < 300.0), math.nan, 1.0 / (1.0 + x * x))

    with pytest.raises(NotConverged, match="non-finite") as info:
        integrate_line(f)
    points = [float(t) for t in
              re.search(r"x=\[([^\]]*)\]", str(info.value)).group(1).split()]
    assert points and all(200.0 < x < 300.0 for x in points)


def test_interval_orientation_and_degenerate_bounds():
    fwd = integrate_interval(lambda x: x * x, 0.0, 1.0, tol=1e-13)
    rev = integrate_interval(lambda x: x * x, 1.0, 0.0, tol=1e-13)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-13)
    assert integrate_interval(lambda x: x, 0.7, 0.7).value == 0.0
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 0.0, math.inf)


# ------------------------------------------------------ the G7/K15 rule

def test_gauss_kronrod_constants_integrate_polynomials_exactly():
    # K15 is exact to degree 22 and its G7 sub-rule to degree 13; the
    # 15-digit constants once summed the Kronrod weights to 2 - 6.0e-15
    xk, wk = quadrature._XK, quadrature._WK
    xg, wg = xk[quadrature._GIDX], quadrature._WG
    for k in range(0, 23, 2):
        exact = 2.0 / (k + 1)
        assert abs(np.sum(wk * xk ** k) - exact) <= 4 * np.spacing(exact), k
        if k <= 12:
            assert abs(np.sum(wg * xg ** k) - exact) <= 4 * np.spacing(exact), k
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(xg - nodes)) <= 4 * np.spacing(1.0)
    assert np.max(np.abs(wg - weights)) <= 4 * np.spacing(1.0)
    assert np.array_equal(xk, -xk[::-1]) and np.array_equal(wk, wk[::-1])


@pytest.mark.parametrize("f, has_flat", [
    (lambda x: np.exp(1j * x) / (1.0 + x * x), False),
    (lambda x: np.where(x < 0.0, 1.0, np.cos(3.0 * x)), True),  # flat on [-1, 0]
])
def test_gk_reduce_rescales_as_quadpack(f, has_flat):
    # both branches of the rescale, bit for bit against QUADPACK's qk15
    # error written out: resasc * min(1, (200 |K - G| / resasc)^1.5), or
    # |K - G| where resasc = 0, and never below 50 eps resabs
    mids, halfs = np.array([-0.5, 0.5, 2.0]), np.array([0.5, 0.5, 1.0])
    x = mids[:, None] + halfs[:, None] * quadrature._XK
    fx = np.asarray(f(x), dtype=complex)
    resk, err, floor = quadrature._gk_reduce(fx, halfs, lambda: x)

    wk, wg = quadrature._WK, quadrature._WG
    want_k = halfs * (fx @ wk)
    resg = halfs * (fx[:, quadrature._GIDX] @ wg)
    resabs = halfs * (np.abs(fx) @ wk)
    resasc = halfs * (np.abs(fx - (want_k / (2.0 * halfs))[:, None]) @ wk)
    raw = np.abs(want_k - resg)
    flat = resasc == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(flat, raw, resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5))
    want_floor = 50.0 * np.finfo(float).eps * resabs
    assert flat.any() == has_flat
    assert np.array_equal(resk, want_k)
    assert np.array_equal(floor, want_floor)
    assert np.array_equal(err, np.maximum(scaled, want_floor))


@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("dtype", [float, complex])
def test_gk_reduce_gives_a_constant_panel_its_floor(m, dtype):
    # a constant panel's |K - G| and resasc are round-off, so its err is
    # exactly the floor 50 eps resabs, from the smallest to the largest values
    rng = np.random.default_rng(m)
    halfs = 10.0 ** rng.uniform(-15.0, 3.0, 40)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, (m, 40))
    phase = np.exp(2j * math.pi * rng.random((m, 40))) if dtype is complex else 1.0
    fx = np.repeat((mags * phase)[..., None], 15, axis=-1)
    fx = fx[0] if m == 1 else fx
    resk, err, floor = quadrature._gk_reduce(fx, halfs, lambda: None)
    assert np.array_equal(err, floor)
    assert np.array_equal(floor, 50.0 * np.finfo(float).eps * (halfs * (np.abs(fx) @ quadrature._WK)))


def _counting(f):
    """f with a log of (calls, nodes) of its evaluator."""
    log = [0, 0]

    def counted(x):
        log[0] += 1
        log[1] += np.size(x)
        return f(x)

    return counted, log


def test_each_generation_makes_one_evaluator_call(monkeypatch):
    # a hinted interval: both graded sides of the hint and the plain
    # stretches are sampled in one call, and reduced once, per generation
    reductions = []
    reduce = quadrature._gk_reduce
    monkeypatch.setattr(quadrature, "_gk_reduce",
                        lambda *a: reductions.append(a[0].shape) or reduce(*a))
    # (the peak of width 0.1 at x = 0 takes the pass past its seed panels)
    f, log = _counting(lambda x: np.abs(x - 0.3) ** -0.5 + 1.0 / (0.01 + x * x))
    r = integrate_interval(IntegrandSpec(f, singularities=(0.3,)), -1.0, 2.0, tol=1e-10)
    assert log == [len(reductions), r.evaluations]
    # two graded sides of four panels and two plain stretches of two
    assert len(reductions) > 1 and reductions[0] == (12, 15)
    want = 2.0 * (math.sqrt(1.3) + math.sqrt(1.7)) + 10.0 * (math.atan(20.0) + math.atan(10.0))
    assert abs(r.value - want) <= 1e-10 * want


@pytest.mark.parametrize("rows", [1, 2])
def test_a_batch_over_several_pieces_is_each_panel_on_its_own(monkeypatch, rows):
    # a refinement batch of the line's core and both tails, owners out of
    # order: its runs must give every panel the values its own piece gives
    # it alone, in panel order, and the reduction of those values
    pieces = quadrature._LINE_PIECES + [quadrature._tail_piece(1.0, 3.0),
                                        quadrature._tail_piece(-1.0, 1.7)]
    owner = np.array([2, 0, 1, 0, 2, 1, 0, 2])
    mids = np.array([0.3, -40.0, 0.875, 2.5, 0.0625, 0.125, 90.0, 0.6])
    halfs = np.array([0.05, 8.0, 0.125, 0.5, 0.0625, 0.125, 6.0, 0.1])

    def ev(x):
        f = np.exp(0.1j * x) / (1.0 + x * x) ** 0.9
        return np.array([f, f * x / (3.0 + x * x)]) if rows == 2 else f

    seen = []
    reduce = quadrature._gk_reduce
    monkeypatch.setattr(quadrature, "_gk_reduce", lambda fx, *a: seen.append(fx) or reduce(fx, *a))
    got = quadrature._pieces_batch(ev, pieces, owner, mids, halfs)
    want = []
    for i, m, h in zip(owner, mids, halfs):
        at, finish = pieces[i].sample(m + h * quadrature._XK)
        want.append(finish(ev(at)))
    want = np.stack(want, axis=-2).astype(complex)
    assert seen[0].tobytes() == want.tobytes()
    for a, b in zip(got, reduce(want, halfs, None)):
        assert a.tobytes() == b.tobytes()


def _sample_log(monkeypatch, module):
    """Log, for the one adaptive pass that ``module._adaptive`` runs, the
    number of its pieces, every ``sample`` call by piece index, and the
    pieces of every batch in run order (sorted by index)."""
    pieces_seen, samples, runs = [], [], []
    adaptive, batch = module._adaptive, quadrature._pieces_batch

    def logged(piece, i):
        return piece._replace(sample=lambda v: samples.append(i) or piece.sample(v))

    def counted_adaptive(pieces, *args, **kwargs):
        pieces_seen.append(len(pieces))
        return adaptive([logged(p, i) for i, p in enumerate(pieces)], *args, **kwargs)

    def counted_batch(ev, pieces, owner, *args):
        runs.append(sorted(set(owner.tolist())))
        return batch(ev, pieces, owner, *args)

    monkeypatch.setattr(module, "_adaptive", counted_adaptive)
    monkeypatch.setattr(quadrature, "_pieces_batch", counted_batch)
    return pieces_seen, samples, runs


@pytest.mark.parametrize("route", ["line", "euler"])
def test_a_piece_maps_each_run_of_its_nodes_once(monkeypatch, route):
    # one sample call per piece in each generation's batch, and no other:
    # the points and the finish of a run share that one map
    if route == "line":  # the core's pieces and both power-substituted tails
        pieces_seen, samples, runs = _sample_log(monkeypatch, quadrature)
        # |x|^-1.2 tails with a bump at |x| = 500 on each side: refinement
        # batches split both tails at once
        integrate_line(lambda x: (1.0 + 20.0 / (1.0 + ((np.abs(x) - 500.0) / 30.0) ** 2))
                       / (1.0 + (x - 0.5) ** 2) ** 0.6, tol=1e-12)
        assert pieces_seen == [len(quadrature._LINE_PIECES) + 2]
    else:  # the two graded halves of an F_D integral
        pieces_seen, samples, runs = _sample_log(monkeypatch, specfun)
        specfun.lauricella_fd_integral(specfun.LauricellaArgs(
            0.4, (0.4, 0.3, 0.2, 0.1), 1.2, (0.3, -0.2, 0.1, 0.25)), tol=1e-13)
        assert pieces_seen == [2]
    assert runs[0] == list(range(pieces_seen[0])) and len(runs) > 2
    assert samples == [i for run in runs for i in run]


def _gauss(x):
    return np.exp(-x * x)


def _lorentz(x):
    return 1.0 / (1.0 + x * x)


def _one_tail(x):  # algebraic toward +inf, gone toward -inf
    return np.where(x > 0.0, _lorentz(x), _gauss(x))


_SEEDED_PASSES = {
    "line-0-tails": lambda: integrate_line(_gauss, tol=1e-10),
    "line-1-tail": lambda: integrate_line(_one_tail, tol=1e-10),
    "line-2-tails": lambda: integrate_line(_lorentz, tol=1e-10),
    "fd-euler": lambda: specfun.lauricella_fd_integral(specfun.LauricellaArgs(
        0.4, (0.4, 0.3, 0.2, 0.1), 1.2, (0.3, -0.2, 0.1, 0.25)), tol=1e-12),
    "verify-waves": lambda: fourier_transform_line(_gauss, np.array([0.8, 2.0, 0.01]), tol=1e-8),
}


@pytest.mark.parametrize("name", list(_SEEDED_PASSES))
def test_a_recurring_pass_shares_its_seed_layout(monkeypatch, name):
    # every adaptive pass looks its seed panels up in the one memo: a second
    # pass over the same edges gets the very arrays of the first, read-only,
    # and they are what a fresh build from the pieces' edges gives
    seen, memo = [], quadrature._seed_layout

    def lookup(edges):
        layout = memo(edges)
        seen.append((edges, layout))
        return layout

    monkeypatch.setattr(quadrature, "_seed_layout", lookup)
    first = _SEEDED_PASSES[name]()
    kept = quadrature._fourier_core.cache_info().hits
    again = _SEEDED_PASSES[name]()
    assert np.asarray(first.value).tobytes() == np.asarray(again.value).tobytes()
    (edges, layout), (edges_again, layout_again) = seen
    assert edges_again == edges and all(isinstance(e, tuple) for e in edges)
    assert all(a is b for a, b in zip(layout, layout_again))
    for a, b in zip(layout, memo.__wrapped__(edges)):
        assert a.tobytes() == b.tobytes() and a.dtype == b.dtype and not a.flags.writeable
    if name.startswith("line"):
        tails = int(name.split("-")[1])
        assert len(edges) == len(quadrature._LINE_PIECES) + tails
        assert len(layout[0]) == 32 + 4 * tails
    if name == "verify-waves":  # the wave set's pieces are kept as well
        assert quadrature._fourier_core.cache_info().hits == kept + 1


def test_the_seed_layout_memo_is_bounded():
    # each new alpha gives the momentum op's Parseval pass new edges, so the
    # memo must not grow with the op count; a line pass whose layout was
    # evicted on the way gets it rebuilt, bit for bit
    before = integrate_line(_lorentz, tol=1e-10)
    for i in range(300):
        integrate_interval(_gauss, 0.0, 1.0 + i / 512.0, tol=1e-8)
    info = quadrature._seed_layout.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128
    after = integrate_line(_lorentz, tol=1e-10)
    assert np.asarray(after.value).tobytes() == np.asarray(before.value).tobytes()
    assert (after.err_estimate, after.evaluations) == (before.err_estimate, before.evaluations)


def test_tails_follow_the_end_rule():
    # x = 96/v^gamma turns an |x|^(-p) tail into v^(gamma*(p-1)-1) at v = 0:
    # v^4 or smoother, the end rule the Euler halves follow too (the v^1.5
    # rule, gamma = ceil(2.5/(p-1)), left the passes halving toward v = 0),
    # and gamma is the least power that meets it
    for p_hat in np.geomspace(1.0101, 20.0, 61).tolist():
        for side in (1.0, -1.0):
            x, _ = quadrature._tail_piece(side, p_hat).sample(np.array([0.5]))
            gamma = round(math.log2(side * x[0] / quadrature._LINE_CORE))
            assert side * x[0] == quadrature._LINE_CORE * 2.0 ** gamma
            assert gamma * (p_hat - 1.0) - 1.0 >= 4.0
            assert gamma == 1 or (gamma - 1) * (p_hat - 1.0) < quadrature._END_EXPONENT


def test_decay_probe_samples_both_sides_in_one_call():
    f, log = _counting(lambda x: 1.0 / (1.0 + x ** 4))
    probes = quadrature._decay_probe(f)
    assert log == [1, 12]
    assert all(p is not None and p[0] == pytest.approx(4.0, rel=1e-3) for p in probes)


# ---------------------------------------------------------- whole line

def test_line_gaussian():
    r = integrate_line(lambda x: np.exp(-x * x), tol=1e-12)
    assert r.value.real == pytest.approx(SQRT_PI, rel=1e-12)


def test_line_x2_gaussian():
    r = integrate_line(lambda x: x * x * np.exp(-x * x), tol=1e-12)
    assert r.value.real == pytest.approx(SQRT_PI / 2.0, rel=1e-12)


def test_line_lorentzian():
    r = integrate_line(lambda x: 1.0 / (1.0 + x * x), tol=1e-11)
    assert r.value.real == pytest.approx(math.pi, rel=1e-10)


def test_line_slow_algebraic_decay():
    # (1+x^2)^(-s) integrates to sqrt(pi) Gamma(s-1/2)/Gamma(s); s = 0.8
    # decays like |x|^(-1.6), the regime the q-state tails live in
    s = 0.8
    r = integrate_line(lambda x: (1.0 + x * x) ** -s, tol=1e-9)
    want = SQRT_PI * math.exp(math.lgamma(s - 0.5) - math.lgamma(s))
    assert r.value.real == pytest.approx(want, rel=1e-8)
    assert abs(r.value.real - want) <= 5.0 * r.err_estimate


def test_line_vector_integrand_meets_each_component_target():
    # Gaussian and algebraic tails share one pass: each component meets its
    # own target and agrees with its scalar integral
    s = 0.8
    parts = [
        (lambda x: np.exp(-x * x), SQRT_PI),
        (lambda x: x * x * np.exp(-x * x), SQRT_PI / 2.0),
        (lambda x: 1.0 / (1.0 + x * x), math.pi),
        (lambda x: (1.0 + x * x) ** -s,
         SQRT_PI * math.exp(math.lgamma(s - 0.5) - math.lgamma(s))),
    ]
    tol = 1e-10
    r = integrate_line(lambda x: np.stack([f(x) for f, _ in parts]), tol=tol)
    assert r.value.shape == r.err_estimate.shape == (4,)
    for (f, exact), value in zip(parts, r.value):
        assert abs(value - exact) <= tol * max(1.0, exact)
        assert value == pytest.approx(integrate_line(f, tol=tol).value, rel=1e-12)


def test_line_offset_complex_gaussian():
    mu = 1.7
    r = integrate_line(lambda x: np.exp(-(x - mu) ** 2) * np.exp(1j * 0.4 * x),
                       tol=1e-12)
    want = SQRT_PI * np.exp(1j * 0.4 * mu) * np.exp(-0.04)
    assert r.value == pytest.approx(complex(want), rel=1e-11)


def test_line_rejects_nonintegrable_tail():
    with pytest.raises(SlowDecay):
        integrate_line(lambda x: 1.0 / (1.0 + np.abs(x)), tol=1e-8)


@pytest.mark.parametrize("f", [np.ones_like, np.abs])
def test_line_refuses_a_tail_that_does_not_decay(f):
    # |f| does not fall from the probe's inner radius to its outer one
    with pytest.raises(SlowDecay, match=r"tail exponent ~0\.000 on the \+inf side"):
        integrate_line(f)


def test_line_refuses_a_tail_beyond_the_top_it_cannot_bound():
    # (1+x^2)^(-0.52) decays like |x|^(-1.04): past |x| = 1e250, where no
    # panel samples, its mass is ~5e-9, below the target at tol = 1e-8 and
    # above it at tol = 1e-10, where an err_estimate could not back the value
    s = 0.52
    want = SQRT_PI * math.exp(math.lgamma(s - 0.5) - math.lgamma(s))
    r = integrate_line(lambda x: np.hypot(1.0, x) ** (-2.0 * s), tol=1e-8)
    assert abs(r.value.real - want) <= r.err_estimate <= 1e-8 * want
    with pytest.raises(SlowDecay, match="beyond"):
        integrate_line(lambda x: np.hypot(1.0, x) ** (-2.0 * s), tol=1e-10)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_line_refuses_a_tail_just_above_the_probe_cut(tol):
    # (1+(x-1/2)^2)^(-0.51) decays like |x|^(-1.02), above the decay probe's
    # cut at 1.01, but its mass past |x| = 1e250 is bounded only by ~1.3e-3,
    # so no tol here can be backed
    with pytest.raises(SlowDecay, match="beyond"):
        integrate_line(lambda x: np.hypot(1.0, x - 0.5) ** -1.02, tol=tol)


def test_line_leaves_an_oscillating_algebraic_tail_to_the_fourier_transform():
    # e^(0.3ix) (1+x^2)^(-0.8) is absolutely integrable, but its power-
    # substituted tails hold ever more periods per panel toward v = 0: the
    # line pass spends its budget, while the transform of the envelope at
    # k = -0.3 sums the same integral from half-period panels
    from scipy.special import kv

    s, k = 0.8, 0.3
    with pytest.raises(NotConverged, match="budget"):
        integrate_line(lambda x: np.exp(1j * k * x) * np.hypot(1.0, x) ** (-2.0 * s),
                       tol=1e-8, max_evals=20_000)
    r = fourier_transform_line(lambda x: np.hypot(1.0, x) ** (-2.0 * s), -k, tol=1e-10)
    # int e^(ikx) (1+x^2)^(-s) dx = 2 sqrt(pi) (k/2)^(s-1/2) K_(s-1/2)(k) / Gamma(s)
    want = 2.0 * SQRT_PI / math.gamma(s) * (k / 2.0) ** (s - 0.5) * kv(s - 0.5, k)
    assert math.sqrt(2.0 * math.pi) * r.value == pytest.approx(want, rel=1e-9)
    assert r.evaluations < 2_000


def test_line_normalization_closure_q_state():
    # the normalization constant from the hypergeometric closed-form route
    # must square-integrate the raw state back to one
    from qcoherent.closedforms import norm_squared_closed
    from qcoherent.states import _psi_un_arrays

    q, alpha = 1.5, 0.4
    a_const = norm_squared_closed(q, alpha, tol=1e-12) ** -0.5

    def dens(x):
        v, _, _ = _psi_un_arrays(q, alpha, x)
        return (abs(a_const) ** 2) * (v * np.conj(v)).real

    r = integrate_line(dens, tol=1e-10)
    assert r.value.real == pytest.approx(1.0, abs=1e-8)


def _gauss_poly_exact(coeffs, a, mu):
    """Exact integral of (sum c_k x^k) exp(-a (x-mu)^2) via central moments."""
    total = 0.0
    for k, c in enumerate(coeffs):
        for j in range(0, k + 1, 2):  # odd central moments vanish
            mj = math.gamma((j + 1) / 2.0) / a ** ((j + 1) / 2.0)
            total += c * math.comb(k, j) * mu ** (k - j) * mj
    return total


def test_line_error_estimate_is_practical_upper_bound():
    # randomized Gaussian-times-polynomial integrands with known values:
    # the reported estimate must bound the true error within a small factor
    rng = np.random.default_rng(42)
    for _ in range(100):
        coeffs = rng.normal(size=rng.integers(1, 6))
        a = rng.uniform(0.3, 3.0)
        mu = rng.uniform(-2.0, 2.0)
        exact = _gauss_poly_exact(coeffs, a, mu)

        def f(x):
            return np.polyval(coeffs[::-1], x) * np.exp(-a * (x - mu) ** 2)

        r = integrate_line(f, tol=1e-10)
        true_err = abs(r.value.real - exact)
        assert true_err <= max(5.0 * r.err_estimate, 1e-13 * max(1.0, abs(exact)))


def test_line_halving_tol_never_hurts():
    rng = np.random.default_rng(99)
    for _ in range(20):
        coeffs = rng.normal(size=4)
        a = rng.uniform(0.4, 2.0)
        mu = rng.uniform(-1.5, 1.5)
        exact = _gauss_poly_exact(coeffs, a, mu)

        def f(x):
            return np.polyval(coeffs[::-1], x) * np.exp(-a * (x - mu) ** 2)

        err_loose = abs(integrate_line(f, tol=1e-6).value.real - exact)
        err_tight = abs(integrate_line(f, tol=5e-7).value.real - exact)
        # ties at machine precision are allowed; regressions are not
        assert err_tight <= err_loose + 1e-14 * max(1.0, abs(exact))


# ------------------------------------------------------------- Fourier

def test_fourier_gaussian_k_zero():
    r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), 0.0, tol=1e-12)
    assert r.value.real == pytest.approx(1.0, rel=1e-11)


def test_fourier_gaussian_self_transform():
    ks = (0.4, 1.0, 2.7, -1.3, 0.01)
    for k in ks:
        r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), k, tol=1e-11)
        assert r.value == pytest.approx(math.exp(-0.5 * k * k), rel=1e-9, abs=1e-12)
    # all at once: one pass whose cores end at different X_k
    r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), np.array(ks), tol=1e-11)
    np.testing.assert_allclose(r.value, np.exp(-0.5 * np.square(ks)), rtol=1e-9, atol=1e-12)


def test_fourier_lorentzian_known_transform():
    # algebraic decay + oscillation: transform of 1/(1+x^2) is
    # sqrt(pi/2) e^{-|k|}
    for k in (0.5, 2.0, np.array([0.5, -2.0, 0.03, 5.0])):
        r = fourier_transform_line(lambda x: 1.0 / (1.0 + x * x), k, tol=1e-9)
        want = math.sqrt(math.pi / 2.0) * np.exp(-np.abs(k))
        np.testing.assert_allclose(r.value.real, want, rtol=1e-7)
        assert np.all(np.abs(r.value.imag) < 1e-9)


def _sha256(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=complex).tobytes())
    return h.hexdigest()


def test_scalar_fourier_keeps_its_frozen_bits():
    # a number k runs through the one-k case of the vector pass; these are
    # the (value, err_estimate, evaluations) of the one-k-at-a-time transform
    r = fourier_transform_line(lambda x: np.exp(-0.5 * x * x), -1.3, tol=1e-11)
    assert (_sha256(r.value, r.err_estimate, r.evaluations)
            == "e940804b0bc94cbf34f7817cef8308307cf0b1b166f37edeeab72773f8ef4eeb")
    r = fourier_transform_line(lambda x: 1.0 / (1.0 + x * x), 2.0, tol=1e-9)
    assert (_sha256(r.value, r.err_estimate, r.evaluations)
            == "c13eda0c6b41ab06eaa8e0f51503943eaf38b43918b136bed62683a6da998e1c")


def test_fourier_k_array_with_zeros_and_a_repeat_is_the_scalar_calls():
    # k = 0 entries are one line integral, and a repeated k one transform:
    # with a single distinct k != 0 both keep the scalar calls' bits
    def f(x):
        return 1.0 / (1.0 + x * x)

    zero, wave = (fourier_transform_line(f, k, tol=1e-9) for k in (0.0, 1.5))
    got = fourier_transform_line(f, np.array([0.0, 1.5, 1.5, -0.0]), tol=1e-9)
    assert got.value.tobytes() == np.array([zero.value, wave.value, wave.value,
                                            zero.value]).tobytes()
    assert got.err_estimate.tobytes() == np.array([zero.err_estimate, wave.err_estimate,
                                                   wave.err_estimate,
                                                   zero.err_estimate]).tobytes()
    assert got.evaluations == zero.evaluations + wave.evaluations
    assert (got.method, zero.method, wave.method) == ("fourier-osc", "fourier-k0", "fourier-osc")


def _lorentzian(x):
    return 1.0 / (1.0 + x * x)


def _gauss_shifted(x):
    return np.exp(-0.5 * (x - 0.3) ** 2 + 0.2j * x)


@pytest.mark.parametrize("k", [1.3, np.array([0.8, -2.0, 0.01]), 0.0,
                               np.array([0.0, 1.5, 1.5])])
def test_fourier_rows_of_an_m_by_n_integrand_are_its_scalar_calls(k):
    # an (m, n) evaluator shares one pass among its m integrands: each row
    # is held to its own target, so it is its scalar call to round-off, and
    # with m = 1 it is the scalar call bit for bit
    scalars = [fourier_transform_line(f, k, tol=1e-10) for f in (_lorentzian, _gauss_shifted)]
    both = fourier_transform_line(lambda x: np.array([_lorentzian(x), _gauss_shifted(x)]),
                                  k, tol=1e-10)
    assert both.value.shape == both.err_estimate.shape == (2,) + np.shape(k)
    for row, scalar in zip(both.value, scalars):
        assert np.max(np.abs(row - scalar.value)) <= 1e-14 * np.max(np.abs(scalar.value))
    for f, scalar in zip((_lorentzian, _gauss_shifted), scalars):
        one = fourier_transform_line(lambda x: f(x)[None], k, tol=1e-10)
        assert one.value.shape == (1,) + np.shape(k)
        assert one.value[0].tobytes() == np.asarray(scalar.value).tobytes()
        assert one.err_estimate[0].tobytes() == np.asarray(scalar.err_estimate).tobytes()
        assert (one.evaluations, one.method) == (scalar.evaluations, scalar.method)


@pytest.mark.parametrize("k", [0.0, 0.7, [0.0, 0.0], [0.7, -2.0, 0.0], []])
def test_fourier_evaluations_stay_an_int(k):
    # the benchmark's tracer reads evaluations only when it is an int
    r = fourier_transform_line(lambda x: np.exp(-x * x), k)
    assert type(r.evaluations) is int
    assert np.shape(r.value) == np.shape(r.err_estimate) == np.shape(k)


def test_fourier_tails_are_one_stream():
    # every evaluator call past the core end X reaches both tails at once
    k = 1.0
    X = math.ceil(16.0 / math.pi) * math.pi  # core end at core_halfwidth 16
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / (1.0 + x * x)

    r = fourier_transform_line(f, k, tol=1e-9)
    assert r.value.real == pytest.approx(math.sqrt(math.pi / 2.0) * math.exp(-k), rel=1e-7)
    tails = [x for x in calls if np.max(np.abs(x)) > X]
    assert tails
    assert all(x.min() < -X and x.max() > X for x in tails)


def test_averaged_limit_of_an_alternating_series():
    # partial sums of sum_n (-1)^n / (n+1) -> ln 2; the second row is the
    # same series times 1j, which must be averaged on its own
    terms = (-1.0) ** np.arange(32) / np.arange(1, 33)
    sums = np.cumsum(np.array([terms, 1j * terms]), axis=1)
    limits, remainders = quadrature._averaged_limit(sums)
    errors = np.abs(limits - np.array([1.0, 1j]) * math.log(2.0))
    assert np.all(errors <= 1e-12)
    assert np.all(errors <= remainders)


def test_fourier_tail_rounds_double_up_to_the_cap():
    # past the core end X every evaluator call is one round over both tails,
    # 15 nodes a panel: 16 panels a side, then as many again each round
    X = math.ceil(16.0 / math.pi) * math.pi  # core end at core_halfwidth 16
    panels = []

    def f(x):
        if np.min(np.abs(x)) > X:
            panels.append(x.size // 30)
        return np.exp(1j * x) / (1.0 + x * x) ** 0.3

    with pytest.raises(NotConverged, match=r"4096 panels per side \(123180 evaluations\)"):
        fourier_transform_line(f, 1.0, tol=1e-9)
    assert panels == [16, 16, 32, 64, 128, 256, 512, 1024, 2048]


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10, math.inf])
def test_integrators_reject_a_tol_that_is_not_positive_and_finite(tol):
    # unchecked, a nan target spends the whole evaluation budget, tol <= 0
    # ends in a "resolution floor" refusal and an infinite one returns at once
    def gauss(x):
        return np.exp(-x * x)

    for call in (lambda: integrate_interval(gauss, 0.0, 1.0, tol=tol),
                 lambda: integrate_line(gauss, tol=tol),
                 lambda: fourier_transform_line(gauss, 0.5, tol=tol)):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            call()


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan, np.array([0.5, math.nan]),
                               np.array([math.inf, 0.0, 1.0])])
def test_fourier_rejects_a_non_finite_k(k):
    with pytest.raises(ValueError, match="k must be finite"):
        fourier_transform_line(lambda x: np.exp(-x * x), k)


def test_fourier_rejects_a_k_array_of_two_dimensions():
    with pytest.raises(ValueError, match="k must be a number or a 1-d array"):
        fourier_transform_line(lambda x: np.exp(-x * x), np.ones((2, 2)))


@pytest.mark.parametrize("width", [math.inf, math.nan, 0.0, -16.0])
def test_fourier_rejects_a_core_halfwidth_that_is_not_positive_and_finite(width):
    # inf overflowed math.ceil, nan failed inside it and a negative width
    # was taken as given
    with pytest.raises(ValueError, match="core_halfwidth must be a positive finite number"):
        fourier_transform_line(lambda x: np.exp(-x * x), 1.0, core_halfwidth=width)


@pytest.mark.parametrize("k, max_evals", [(1e6, 2_000_000), (1e300, 2_000_000),
                                          (1.7e308, 2_000_000), (-100.0, 10_000)])
def test_fourier_refuses_a_core_past_its_budget_before_building_it(k, max_evals):
    # the core's half-period panels grow with |k|: it built 2X|k|/pi edges
    # and their set before checking the budget (1e300 overran numpy's array
    # size), so the refusal now comes before the evaluator is ever called
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x * x)

    with pytest.raises(NotConverged, match="half-period panels of 15 nodes, more than max_evals"):
        fourier_transform_line(f, k, max_evals=max_evals)
    assert calls == []


def test_fourier_refuses_cores_that_overrun_the_budget_together():
    # alone, each core's seed panels fit in 10_000 evaluations (7650 and
    # 9180 nodes); the two together do not, and no evaluator call is made
    calls = []

    def f(x):
        calls.append(x)
        return np.exp(-x * x)

    with pytest.raises(NotConverged, match="half-period panels of 15 nodes, more than max_evals"):
        fourier_transform_line(f, np.array([50.0, 0.0, 60.0]), max_evals=10_000)
    assert calls == []
    # k and -k share one core, which fits
    r = fourier_transform_line(lambda x: np.exp(-x * x), np.array([50.0, -50.0]),
                               max_evals=10_000)
    assert r.value[0] == pytest.approx(r.value[1].conjugate(), abs=1e-12)


def test_fourier_divergent_tail_raises():
    # exp(i x) cancels the kernel at k = 1: the tails are non-oscillating
    # |x|^-0.6, the integral diverges, and the panel cap must say so
    with pytest.raises(NotConverged, match="remainder"):
        fourier_transform_line(lambda x: np.exp(1j * x) / (1.0 + x * x) ** 0.3, 1.0, tol=1e-9)


def test_fourier_q_state_matches_momentum_oracle():
    # two routes to the same amplitude: direct transform of the raw state
    # times the normalization, and the momentum module's oracle
    from qcoherent.momentum import momentum_amplitude_oracle
    from qcoherent.states import _psi_un_arrays, normalization_constant

    q, k = 1.4, 1.0
    a_const = normalization_constant(q, 0.0, tol=1e-11)

    def f(x):
        v, _, _ = _psi_un_arrays(q, 0.0, x)
        return v

    direct = a_const * fourier_transform_line(f, k, tol=1e-10).value
    oracle = momentum_amplitude_oracle(q, 0.0, k, tol=1e-10)
    assert direct == pytest.approx(oracle, rel=1e-8)


def test_fourier_stability_under_tol_halving():
    from qcoherent.states import _psi_un_arrays

    def f(x):
        v, _, _ = _psi_un_arrays(1.4, 0.0, x)
        return v

    v1 = fourier_transform_line(f, 1.0, tol=1e-8).value
    v2 = fourier_transform_line(f, 1.0, tol=5e-9).value
    assert abs(v1 - v2) <= 1e-6 * max(1.0, abs(v2))
