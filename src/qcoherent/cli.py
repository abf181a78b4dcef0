"""Command-line frontend: moment sweeps, a verification report, momentum dumps.

Three subcommands:

* ``sweep``:  moment suite over a q grid; the data behind uncertainty-
  vs-q curves.  CSV (default) or JSON, deterministic bytes for a fixed
  config.
* ``verify``: evaluates every closed form against its quadrature oracle
  over a parameter grid and emits a JSON report.  Closed forms that
  reproduce known-discrepant printed expressions are recorded as
  ``finding`` entries (documentation, not failure); the exit status
  reflects only the mandatory invariant checks.
* ``pd``:     momentum probability density on a k grid, CSV rows plus a
  Parseval trailer comment, or JSON.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure (or a
mandatory verification check failing).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import closedforms, specfun
from .errors import NumericsError, OutOfValidityWindow
from .limits import limit_convergence_check
from .moments import _closed_moments, moments_closed, moments_oracle
from .momentum import (
    Q_MOMENTUM_MAX,
    default_k_grid,
    momentum_amplitude_closed,
    momentum_amplitude_oracle,
    momentum_pd,
)
from .quadrature import integrate_line
from .states import (
    CONVENTION_TOL,
    Q_MOMENT_SUITE_MAX,
    StateLabel,
    coherent_coefficients,
    coherent_psi,
    normalization_constant,
    overlap,
    q_exponential,
)

SCHEMA_VERSION = 1

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- sweep

_SWEEP_COLUMNS = (
    "q", "mean_x", "mean_x2", "mean_p", "mean_p2", "var_x", "var_p",
    "delta_x", "delta_p", "product", "method", "max_deviation",
)


def _sweep_rows(qs, alpha, tol, methods):
    rows = []
    for q in qs:
        for method in methods:
            rep = (
                moments_oracle(q, alpha, tol=tol)
                if method == "oracle"
                else moments_closed(q, alpha, tol=tol)
            )
            max_dev = max(rep.deviations.values(), default=0.0)
            rows.append(
                (q, rep.mean_x, rep.mean_x2, rep.mean_p, rep.mean_p2,
                 rep.var_x, rep.var_p, rep.delta_x, rep.delta_p,
                 rep.product, method, max_dev)
            )
    return rows


def _run_sweep(args) -> int:
    if not (1.0 < args.q_min <= args.q_max < Q_MOMENT_SUITE_MAX):
        raise _ConfigError(
            f"moment sweeps need 1 < q_min <= q_max < {Q_MOMENT_SUITE_MAX:.6g}"
        )
    if args.q_steps < 1 or (args.q_steps == 1) != (args.q_min == args.q_max):
        raise _ConfigError("q_steps must match the grid (1 step iff q_min == q_max)")
    alpha = complex(args.alpha_re, args.alpha_im)
    qs = np.linspace(args.q_min, args.q_max, args.q_steps)
    methods = ("oracle", "closed-form") if args.method == "both" else (args.method,)
    rows = _sweep_rows(qs, alpha, args.tol, methods)
    config = (
        f"q_min={_fmt(args.q_min)} q_max={_fmt(args.q_max)} q_steps={args.q_steps} "
        f"alpha_re={_fmt(args.alpha_re)} alpha_im={_fmt(args.alpha_im)} "
        f"tol={_fmt(args.tol)} method={args.method}"
    )
    if args.format == "csv":
        lines = [
            f"# qcoherent sweep schema={SCHEMA_VERSION}",
            f"# config {config}",
            ",".join(_SWEEP_COLUMNS),
        ]
        for row in rows:
            lines.append(
                ",".join(_fmt(v) if not isinstance(v, str) else v for v in row)
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "meta": {"tool": "qcoherent", "command": "sweep",
                     "schema": SCHEMA_VERSION, "config": config},
            "entries": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ------------------------------------------------------------------- pd

def _run_pd(args) -> int:
    if not (1.0 <= args.q < Q_MOMENTUM_MAX):
        raise _ConfigError(f"pd needs 1 <= q < {Q_MOMENTUM_MAX:.6g}")
    alpha = complex(args.alpha_re, args.alpha_im)
    if args.k_min is None or args.k_max is None:
        ref = default_k_grid(alpha)
        k_min = args.k_min if args.k_min is not None else float(ref[0])
        k_max = args.k_max if args.k_max is not None else float(ref[-1])
    else:
        k_min, k_max = args.k_min, args.k_max
    if not (k_min < k_max and args.k_steps >= 2):
        raise _ConfigError("pd needs k_min < k_max and k_steps >= 2")
    grid = np.linspace(k_min, k_max, args.k_steps)
    dist = momentum_pd(args.q, alpha, grid, method=args.method, tol=args.tol)
    config = (
        f"q={_fmt(args.q)} alpha_re={_fmt(args.alpha_re)} "
        f"alpha_im={_fmt(args.alpha_im)} k_min={_fmt(k_min)} k_max={_fmt(k_max)} "
        f"k_steps={args.k_steps} tol={_fmt(args.tol)} method={args.method}"
    )
    if args.format == "csv":
        lines = [
            f"# qcoherent pd schema={SCHEMA_VERSION}",
            f"# config {config}",
            "k,pd,amplitude_re,amplitude_im",
        ]
        for s in dist.samples:
            lines.append(
                ",".join(
                    (_fmt(s.k), _fmt(s.pd),
                     _fmt(s.amplitude.real), _fmt(s.amplitude.imag))
                )
            )
        lines.append(f"# parseval_total={_fmt(dist.parseval_total)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "meta": {"tool": "qcoherent", "command": "pd",
                     "schema": SCHEMA_VERSION, "config": config,
                     "parseval_total": dist.parseval_total},
            "entries": [
                {"k": s.k, "pd": s.pd, "amplitude_re": s.amplitude.real,
                 "amplitude_im": s.amplitude.imag}
                for s in dist.samples
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# --------------------------------------------------------------- verify

def _entry(equation, point, closed, oracle, floor, threshold=CONVENTION_TOL, note=None):
    closed = complex(closed)
    oracle = complex(oracle)
    # floor: the oracle's absolute accuracy, so a zero in theory is not judged
    # on round-off; 1.0 for quantities that are already deviations.
    dev = abs(closed - oracle) / max(floor, abs(oracle))
    e = {
        "equation": equation,
        "point": point,
        "closed_value": [closed.real, closed.imag],
        "oracle_value": [oracle.real, oracle.imag],
        "rel_deviation": dev,
        "status": "pass" if dev <= threshold else "finding",
    }
    if note:
        e["note"] = note
    return e


def _point(q, alpha, **extra):
    d = {"q": q, "alpha_re": alpha.real, "alpha_im": alpha.imag}
    d.update(extra)
    return d


def _hermite_projection_dev(alpha: complex, n_max: int) -> float:
    """Worst gap between the oscillator-eigenbasis projections, all taken in
    one quadrature pass, and the analytic coherent-state coefficients."""
    def f(x):
        hermite = np.stack([specfun.hermite_function(n, x) for n in range(n_max + 1)])
        return hermite * coherent_psi(alpha, x)

    proj = integrate_line(f, tol=1e-12).value
    return float(np.max(np.abs(proj - coherent_coefficients(alpha, n_max))))


def _verify_closed_forms(qs, alpha, tol):
    """One entry per (equation family, grid point), plus the worst
    normalisation closure and the smallest oracle uncertainty product
    over the grid, which the mandatory checks read."""
    entries, closures, products = [], [], []
    halfline_note = (
        "positive-half-line convention reproduced verbatim; the calibrated "
        "whole-line form adds the reflected term this variant omits"
    )
    for q in qs:
        point = _point(q, alpha)
        oracle = moments_oracle(q, alpha, tol=tol)
        products.append(oracle.product)
        a_oracle = normalization_constant(q, alpha, tol=tol)
        n2, (mean_x, mean_x2, mean_p, mean_p2) = _closed_moments(q, alpha, tol=tol)
        closures.append(abs(abs(a_oracle) ** 2 * n2 - 1.0))
        entries.append(_entry("normalization_fd", point, n2 ** -0.5, a_oracle, tol))
        n2_half = closedforms.norm_squared_closed(q, alpha, tol=tol, reflection=False)
        entries.append(
            _entry("normalization_fd_halfline", point, n2_half ** -0.5, a_oracle, tol,
                   note=halfline_note)
        )
        entries.append(_entry("moment_x_fd", point, mean_x, oracle.mean_x, tol))
        entries.append(
            _entry(
                "moment_x_fd_halfline", point,
                closedforms.position_moment_closed(
                    q, alpha, 1, tol=tol, reflection=False
                ) / n2_half,
                oracle.mean_x, tol, note=halfline_note,
            )
        )
        entries.append(_entry("moment_x2_fd", point, mean_x2, oracle.mean_x2, tol))
        entries.append(_entry("moment_p_fd", point, mean_p, oracle.mean_p, tol))
        entries.append(_entry("moment_p2_fd", point, mean_p2, oracle.mean_p2, tol))
        partner = alpha + 0.2
        sa = StateLabel(q, alpha)
        sb = StateLabel(q, partner)
        ov_oracle = overlap(sa, sb, method="oracle", tol=tol)
        ov_closed = (
            sa.norm_constant * sb.norm_constant
            * closedforms.overlap_closed(q, alpha, partner, tol=min(tol, 1e-10))
        )
        entries.append(
            _entry(
                "overlap_fd",
                _point(q, alpha, partner_re=partner.real, partner_im=partner.imag),
                ov_closed, ov_oracle, tol,
            )
        )
        if 1.0 < q < Q_MOMENTUM_MAX:
            for k in (0.8, 2.0):
                amp_o = momentum_amplitude_oracle(q, alpha, k, tol=tol)
                amp_c = momentum_amplitude_closed(q, alpha, k)
                kp = _point(q, alpha, k=k)
                entries.append(
                    _entry("momentum_amplitude_kummer", kp, amp_c, amp_o, tol,
                           note="printed confluent-hypergeometric amplitude")
                )
                entries.append(
                    _entry("momentum_pd_kummer", kp,
                           abs(amp_c) ** 2, abs(amp_o) ** 2, tol,
                           note="density from the printed amplitude")
                )
            k0 = 0.01
            amp_o = momentum_amplitude_oracle(q, alpha, k0, tol=tol)
            amp_c = momentum_amplitude_closed(q, alpha, k0)
            entries.append(
                _entry(
                    "momentum_amplitude_k_to_zero", _point(q, alpha, k=k0),
                    amp_c, amp_o, tol,
                    note=(
                        "printed amplitude carries |k|^(2/(q-1)-1) and vanishes "
                        "as k -> 0 for q < 3; the oracle transform does not"
                    ),
                )
            )
    # q-independent families
    zq = 1.01
    z = 0.7
    closed = (1.0 - 0.5 * (zq - 1.0) * z * z) * np.exp(-1j * z)
    entries.append(
        _entry(
            "qexp_phase_expansion", {"q": zq, "z": z},
            closed, q_exponential(zq, -1j * z), tol,
            threshold=10.0 * (zq - 1.0) ** 2,
            note="first-order small-(q-1) expansion; agreement is O((q-1)^2)",
        )
    )
    herm_dev = _hermite_projection_dev(0.7 + 0.3j, 10)
    entries.append(
        _entry(
            "hermite_expansion_identity",
            {"alpha_re": 0.7, "alpha_im": 0.3, "n_max": 10},
            herm_dev, 0.0, 1.0, threshold=1e-8,
            note="max |projection - alpha^n exp(-|alpha|^2/2)/sqrt(n!)| over n",
        )
    )
    return entries, max(closures), min(products)


def _verify_fd_entries(tol):
    entries = []
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(5):
        a = 0.5 + 2.0 * rng.random()
        b = tuple(0.3 + rng.random(4))
        c = a + 0.7 + 2.0 * rng.random()
        x = tuple((rng.random(4) - 0.5) * 0.9)
        args = specfun.LauricellaArgs(a, b, c, x)
        s = specfun.lauricella_fd_series(args, tol=1e-13)
        i = specfun.lauricella_fd_integral(args, tol=1e-13)
        worst = max(worst, abs(s.value - i.value) / abs(i.value))
    entries.append(
        _entry("fd_series_vs_integral", {"draws": 5, "seed": 20240817},
               worst, 0.0, 1.0, threshold=1e-8,
               note="worst relative gap between the two representations")
    )
    args = specfun.LauricellaArgs(1.1, (0.7, 0.0, 0.0, 0.0), 2.3, (0.35, 0.0, 0.0, 0.0))
    fd = specfun.lauricella_fd(args, tol=1e-13)
    g = specfun._gauss_2f1(1.1, 0.7, 2.3, 0.35)
    entries.append(
        _entry("fd_gauss_reduction", {"a": 1.1, "b": 0.7, "c": 2.3, "x": 0.35},
               fd.value, g, 1e-13, threshold=1e-8,
               note="single-variable degeneration against an independent 2F1")
    )
    return entries


def _mandatory_checks(qs, alpha, tol, closure, min_product):
    checks = {}

    def record(name, ok, detail):
        checks[name] = {"status": "pass" if ok else "fail", "detail": detail}

    # |A_oracle|^2 * n2_closed: the quadrature and Lauricella norms close
    record("normalization_closure", closure < 1e-8, closure)

    # the two end points fix the default Parseval window; only the total is read
    q_mid = float(qs[len(qs) // 2])
    dist = momentum_pd(q_mid, alpha, default_k_grid(alpha, 2), tol=min(tol, 1e-9))
    record("parseval", abs(dist.parseval_total - 1.0) < 1e-4,
           abs(dist.parseval_total - 1.0))

    record("heisenberg", min_product >= 0.5 - 1e-6, min_product)

    # Second moments shrink like (q - 1); the sequence must reach 1.02 for
    # their final gaps to clear the 1e-2 recovery tolerance.
    limit = limit_convergence_check(
        alpha, (1.2, 1.1, 1.05, 1.02), tol=1e-9, k_points=61
    )
    record("limit_recovery", limit.all_converged,
           {n: v for n, v in limit.verdicts.items()})

    fd_entries = _verify_fd_entries(tol)
    fd_ok = all(e["status"] == "pass" for e in fd_entries)
    record("fd_consistency", fd_ok, max(e["rel_deviation"] for e in fd_entries))
    return checks, fd_entries


def _run_verify(args) -> int:
    if not (1.0 < args.q_min <= args.q_max < Q_MOMENT_SUITE_MAX):
        raise _ConfigError(
            f"verify grid needs 1 < q_min <= q_max < {Q_MOMENT_SUITE_MAX:.6g}"
        )
    alpha = complex(args.alpha_re, args.alpha_im)
    qs = [float(q) for q in np.linspace(args.q_min, args.q_max, args.q_steps)]
    entries, closure, min_product = _verify_closed_forms(qs, alpha, args.tol)
    checks, fd_entries = _mandatory_checks(qs, alpha, args.tol, closure, min_product)
    entries += fd_entries
    findings = sum(1 for e in entries if e["status"] == "finding")
    all_ok = all(c["status"] == "pass" for c in checks.values())
    payload = {
        "meta": {
            "tool": "qcoherent",
            "command": "verify",
            "schema": SCHEMA_VERSION,
            "config": {
                "q_grid": qs,
                "alpha_re": alpha.real,
                "alpha_im": alpha.imag,
                "tol": args.tol,
            },
            "calibration": {
                "anchor_q": closedforms.CALIBRATION_ANCHOR_Q,
                "anchor_alpha_re": closedforms.CALIBRATION_ANCHOR_ALPHA.real,
                "anchor_alpha_im": closedforms.CALIBRATION_ANCHOR_ALPHA.imag,
                "reflection_term": closedforms.calibrated_reflection(),
            },
            "mandatory_checks": checks,
            "finding_count": findings,
            "entry_count": len(entries),
        },
        "entries": entries,
    }
    _emit(json.dumps(payload, indent=2, default=_json_default) + "\n", args.out)
    if not all_ok:
        failing = [n for n, c in checks.items() if c["status"] != "pass"]
        print(f"mandatory checks failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


# ----------------------------------------------------------------- main

class _ConfigError(Exception):
    pass


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoherent",
        description="Deformed coherent states: sweeps, verification, momentum dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, tol_default):
        sp.add_argument("--alpha-re", type=_finite_float, default=0.5)
        sp.add_argument("--alpha-im", type=_finite_float, default=0.0)
        sp.add_argument("--tol", type=_finite_float, default=tol_default)
        sp.add_argument("--out", default=None, metavar="PATH")

    sp = sub.add_parser("sweep", help="moment suite over a q grid")
    sp.add_argument("--q-min", type=_finite_float, default=1.05)
    sp.add_argument("--q-max", type=_finite_float, default=2.2)
    sp.add_argument("--q-steps", type=int, default=20)
    sp.add_argument("--method", choices=("oracle", "closed-form", "both"),
                    default="oracle")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp, tol_default=1e-9)

    vp = sub.add_parser("verify", help="closed forms vs oracles, JSON report")
    vp.add_argument("--q-min", type=_finite_float, default=1.2)
    vp.add_argument("--q-max", type=_finite_float, default=2.2)
    vp.add_argument("--q-steps", type=int, default=3)
    common(vp, tol_default=1e-8)
    vp.set_defaults(alpha_re=0.3, alpha_im=0.1)

    pp = sub.add_parser("pd", help="momentum probability density on a k grid")
    pp.add_argument("--q", type=_finite_float, required=True)
    pp.add_argument("--k-min", type=_finite_float, default=None)
    pp.add_argument("--k-max", type=_finite_float, default=None)
    pp.add_argument("--k-steps", type=int, default=401)
    pp.add_argument("--method", choices=("oracle", "closed-form"), default="oracle")
    pp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(pp, tol_default=1e-9)
    return parser


_DISPATCH = {"sweep": _run_sweep, "verify": _run_verify, "pd": _run_pd}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OutOfValidityWindow as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
