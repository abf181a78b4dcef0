"""Command-line frontend: moment sweeps, a verification report, momentum dumps.

Three subcommands:

* ``sweep``:  moment suite over a q grid; the data behind uncertainty-
  vs-q curves.  CSV (default) or JSON, deterministic bytes for a fixed
  config.
* ``verify``: evaluates every closed form against its quadrature oracle
  over a parameter grid and emits a JSON report.  Its entries are 16 per
  grid point in a fixed order (the F_D norm and <x> with their half-line
  variants, <x^2>, <p>, <p^2>, the overlap, then at k = 0.8, 2 and 0.01
  the printed Kummer amplitude, its density away from k = 0, and the
  Bessel-K amplitude), then 4 q-independent ones (the q-exponential
  expansion, the Hermite identity, two F_D checks).  The whole grid takes
  one x-space pass (every q's oracle moments, the norm of alpha + 0.2 and
  the oracle overlap of the two) and one Fourier pass (every q's oracle
  amplitudes), and each grid point one closed Euler pass, all at
  min(tol, 1e-10); A(alpha) is read from the x-space pass's norm rows and
  scales every amplitude and the Parseval closure, so no norm pass is run
  (``_grid_point_rows``).  The last three q-independent entries do
  not depend on the arguments: their numbers are computed on the first
  ``verify`` call and kept for the process (``_fixed_checks``), and every
  call builds fresh entries from them.  Its meta block holds 5 mandatory
  checks: normalisation closure, Parseval, Heisenberg, q -> 1 recovery
  and F_D consistency.  Closed forms that reproduce known-discrepant
  printed expressions are recorded as ``finding`` entries (documentation,
  not failure); the exit status reflects only the mandatory checks.
* ``pd``:     momentum probability density on a k grid, CSV rows plus a
  Parseval trailer comment, or JSON.

Every JSON output is the text ``json.dumps(payload, indent=2)`` writes,
formed by ``_json_text``, which gives the same bytes without json's
pure-Python indenting encoder.

Exit codes: 0 success, 2 usage/config error, 3 numerical failure (or a
mandatory verification check failing).  A q grid outside 1 < q_min <=
q_max < 7/3, fewer than one q step, a ``--tol`` that is not a positive
finite number, a q outside a validity window and any ``ValueError`` the
library raises on malformed input (an alpha with no finite |alpha|^2, a
non-finite k) are config errors: exit 2, never a traceback.

``main`` builds its argument parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import closedforms, specfun
from .errors import NumericsError, OutOfValidityWindow
from .limits import limit_convergence_check
from .moments import _oracle_pass, _oracle_report, moments_closed, moments_oracle
from .momentum import (
    _bessel_amplitudes,
    _bessel_pd,
    _kummer_amplitude,
    _psi_transforms,
    default_k_grid,
    momentum_pd,
)
from .quadrature import integrate_line
from .states import (
    CONVENTION_TOL,
    Q_MOMENT_SUITE_MAX,
    _norm_tol,
    coherent_coefficients,
    coherent_psi,
    q_exponential,
)

SCHEMA_VERSION = 1

__all__ = ["main"]


def _fmt(x) -> str:
    """A CSV cell or config value: a string as it is, a number to 17 digits."""
    return x if isinstance(x, str) else f"{float(x):.17g}"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value, newline: str = "\n") -> str:
    """The text ``json.dumps(value, indent=2)`` writes, for the values a
    report holds: str keys; str, float (np.float64 too), int, bool, None,
    list, tuple and dict values.  With an indent, json runs its pure-Python
    encoder; this writer forms the same leaves with the same functions
    (``encode_basestring_ascii``, ``float.__repr__``, ``int.__repr__``) and
    lays out the nesting itself.  ``newline`` is a line break plus the
    indentation of the line ``value`` starts on; its items go one level
    deeper.  TypeError for anything else, as json raises."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_json(args, command, config, meta, entries) -> None:
    """Every command's JSON: a meta block (tool, command, schema, config,
    then ``meta``) and the entries, as ``json.dumps(payload, indent=2)``
    writes them (``_json_text``)."""
    payload = {
        "meta": {"tool": "qcoherent", "command": command, "schema": SCHEMA_VERSION,
                 "config": config, **meta},
        "entries": entries,
    }
    _emit(_json_text(payload) + "\n", args.out)


def _emit_table(args, command, config_args, columns, rows, extra) -> None:
    """sweep's and pd's output; ``config_args`` names the arguments the
    config line records.  CSV: a schema and a config comment, the header,
    one line per row and one trailer comment per ``extra`` item.  JSON:
    ``extra`` joins the meta block, each row is an entry."""
    config = " ".join(f"{name}={_fmt(getattr(args, name))}" for name in config_args)
    if args.format == "json":
        _emit_json(args, command, config, extra, [dict(zip(columns, row)) for row in rows])
        return
    lines = [f"# qcoherent {command} schema={SCHEMA_VERSION}", f"# config {config}",
             ",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {key}={_fmt(value)}" for key, value in extra.items()]
    _emit("\n".join(lines) + "\n", args.out)


def _check_q_grid(args, what: str, steps_rule: str = "q_steps must be >= 1") -> list[float]:
    """The q grid of sweep and verify, 1 < q_min <= q_max < 7/3 in q_steps >= 1
    points; ``what`` heads the range message, ``steps_rule`` is the step one."""
    if not (1.0 < args.q_min <= args.q_max < Q_MOMENT_SUITE_MAX):
        raise ValueError(f"{what} 1 < q_min <= q_max < {Q_MOMENT_SUITE_MAX:.6g}")
    if args.q_steps < 1:
        raise ValueError(steps_rule)
    return [float(q) for q in np.linspace(args.q_min, args.q_max, args.q_steps)]


# ---------------------------------------------------------------- sweep

_SWEEP_COLUMNS = (
    "q", "mean_x", "mean_x2", "mean_p", "mean_p2", "var_x", "var_p",
    "delta_x", "delta_p", "product", "method", "max_deviation",
)
_SWEEP_STEPS_RULE = "q_steps must match the grid (1 step iff q_min == q_max)"


def _sweep_rows(qs, alpha, tol, methods):
    rows = []
    for q in qs:
        for method in methods:
            route = moments_oracle if method == "oracle" else moments_closed
            rep = route(q, alpha, tol=tol)
            # the report fields from mean_x to product, then method and max_deviation
            rows.append((q, *(getattr(rep, name) for name in _SWEEP_COLUMNS[1:-2]), method,
                         max(rep.deviations.values(), default=0.0)))
    return rows


def _run_sweep(args) -> int:
    qs = _check_q_grid(args, "moment sweeps need", _SWEEP_STEPS_RULE)
    if (args.q_steps == 1) != (args.q_min == args.q_max):
        raise ValueError(_SWEEP_STEPS_RULE)
    alpha = complex(args.alpha_re, args.alpha_im)
    methods = ("oracle", "closed-form") if args.method == "both" else (args.method,)
    _emit_table(args, "sweep",
                ("q_min", "q_max", "q_steps", "alpha_re", "alpha_im", "tol", "method"),
                _SWEEP_COLUMNS, _sweep_rows(qs, alpha, args.tol, methods), {})
    return 0


# ------------------------------------------------------------------- pd

def _run_pd(args) -> int:
    alpha = complex(args.alpha_re, args.alpha_im)
    # an end left out is the default grid's, and the config line records it
    ends = default_k_grid(alpha, 2)
    args.k_min = float(ends[0]) if args.k_min is None else args.k_min
    args.k_max = float(ends[-1]) if args.k_max is None else args.k_max
    if not (args.k_min < args.k_max and args.k_steps >= 2):
        raise ValueError("pd needs k_min < k_max and k_steps >= 2")
    if not math.isfinite(args.k_max - args.k_min):
        raise ValueError("pd needs a finite k span k_max - k_min")
    grid = np.linspace(args.k_min, args.k_max, args.k_steps)
    dist = momentum_pd(args.q, alpha, grid, method=args.method, tol=args.tol)
    rows = [(s.k, s.pd, s.amplitude.real, s.amplitude.imag) for s in dist.samples]
    _emit_table(args, "pd",
                ("q", "alpha_re", "alpha_im", "k_min", "k_max", "k_steps", "tol", "method"),
                ("k", "pd", "amplitude_re", "amplitude_im"), rows,
                {"parseval_total": dist.parseval_total})
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
    return {"q": q, "alpha_re": alpha.real, "alpha_im": alpha.imag, **extra}


def _hermite_projection_dev(alpha: complex, n_max: int) -> float:
    """Worst gap between the oscillator-eigenbasis projections, all taken in
    one quadrature pass, and the analytic coherent-state coefficients."""
    def f(x):
        return specfun._hermite_functions(n_max, x) * coherent_psi(alpha, x)

    proj = integrate_line(f, tol=1e-12).value
    return float(np.max(np.abs(proj - coherent_coefficients(alpha, n_max))))


_HALFLINE_NOTE = (
    "positive-half-line convention reproduced verbatim; the calibrated "
    "whole-line form adds the reflected term this variant omits"
)
_BESSEL_NOTE = (
    "corrected counterpart of the printed Kummer amplitude: the exact "
    "transform by Basset's integral, finite and non-zero as k -> 0"
)
_K_TO_ZERO_NOTE = (
    "printed amplitude carries |k|^(2/(q-1)-1) and vanishes as k -> 0 for "
    "q < 3; the oracle transform does not"
)
_K_NEAR_ZERO = 0.01
_VERIFY_KS = (0.8, 2.0, _K_NEAR_ZERO)


def _grid_point_rows(q, alpha, tol, integrals, transform):
    """The 16 (equation, point, closed, oracle, note) rows of one grid point,
    then its oracle uncertainty product, its A(alpha) and its normalisation
    closure |A_oracle|^2 n2_closed - 1, which the mandatory checks read.

    The point's oracle numbers are its share of the grid's two batched
    passes (``_run_verify``): ``integrals``, its items of the x-space pass
    (moments, the norm of alpha + 0.2, the raw overlap), and ``transform``,
    its unnormalised oracle transforms at ``_VERIFY_KS``.  A(alpha) =
    n^(-1/2) is read from the pass's norm row and scales the Bessel, oracle
    and Kummer amplitudes; no norm pass is run.  The closed moments of
    alpha and its closed overlap with alpha + 0.2 are the 18 rows of one
    Euler pass, four complex logs a node."""
    point = _point(q, alpha)
    a_oracle = complex(integrals[0] ** -0.5)
    partner = alpha + 0.2
    oracle = _oracle_report(q, alpha, integrals)
    n_partner, ov_oracle_raw = integrals[6:]
    n2, (mean_x, mean_x2, mean_p, mean_p2), (n2_half, mean_x_half), ov_raw = (
        closedforms._closed_moments(q, alpha, tol, partner))
    a_pair = a_oracle * n_partner ** -0.5
    rows = [
        ("normalization_fd", point, n2 ** -0.5, a_oracle, None),
        ("normalization_fd_halfline", point, n2_half ** -0.5, a_oracle, _HALFLINE_NOTE),
        ("moment_x_fd", point, mean_x, oracle.mean_x, None),
        ("moment_x_fd_halfline", point, mean_x_half, oracle.mean_x, _HALFLINE_NOTE),
        ("moment_x2_fd", point, mean_x2, oracle.mean_x2, None),
        ("moment_p_fd", point, mean_p, oracle.mean_p, None),
        ("moment_p2_fd", point, mean_p2, oracle.mean_p2, None),
        ("overlap_fd", _point(q, alpha, partner_re=partner.real, partner_im=partner.imag),
         a_pair * ov_raw, a_pair * ov_oracle_raw, None),
    ]
    # the printed Kummer amplitude (and, away from k = 0, its density),
    # then the Bessel-K amplitude, each against the oracle amplitude at k
    bessel = _bessel_amplitudes(q, alpha, a_oracle)[0](np.array(_VERIFY_KS))
    fourier = a_oracle * transform
    for k, amp_b, amp_o in zip(_VERIFY_KS, bessel, fourier.tolist()):
        k_point = _point(q, alpha, k=k)
        amp_c = _kummer_amplitude(q, alpha, k, a_oracle, _norm_tol(tol))
        if k == _K_NEAR_ZERO:
            rows.append(("momentum_amplitude_k_to_zero", k_point, amp_c, amp_o, _K_TO_ZERO_NOTE))
        else:
            rows += [("momentum_amplitude_kummer", k_point, amp_c, amp_o,
                      "printed confluent-hypergeometric amplitude"),
                     ("momentum_pd_kummer", k_point, abs(amp_c) ** 2, abs(amp_o) ** 2,
                      "density from the printed amplitude")]
        rows.append(("momentum_amplitude_bessel", k_point, amp_b, amp_o, _BESSEL_NOTE))
    return rows, oracle.product, a_oracle, abs(abs(a_oracle) ** 2 * n2 - 1.0)


def _verify_fd_entries():
    """The numbers behind verify's two F_D entries: the worst relative gap
    between the series and the integral over five seeded draws, then the
    Gauss reduction's F_D value and its independent 2F1."""
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
    gauss = specfun.LauricellaArgs(1.1, (0.7, 0.0, 0.0, 0.0), 2.3, (0.35, 0.0, 0.0, 0.0))
    return (worst, specfun.lauricella_fd(gauss, tol=1e-13).value,
            specfun._gauss_2f1(1.1, 0.7, 2.3, 0.35))


@lru_cache(maxsize=1)
def _fixed_checks():
    """The numbers behind verify's argument-independent entries, computed on
    first use and kept for the process: the Hermite identity's worst gap,
    then ``_verify_fd_entries``'s three numbers."""
    return (_hermite_projection_dev(0.7 + 0.3j, 10), *_verify_fd_entries())


def _fixed_entries():
    """Fresh entry dicts for the Hermite identity and the two F_D checks."""
    hermite_dev, fd_worst, fd_gauss, gauss_2f1 = _fixed_checks()
    return [
        _entry("hermite_expansion_identity", {"alpha_re": 0.7, "alpha_im": 0.3, "n_max": 10},
               hermite_dev, 0.0, 1.0, threshold=1e-8,
               note="max |projection - alpha^n exp(-|alpha|^2/2)/sqrt(n!)| over n"),
        _entry("fd_series_vs_integral", {"draws": 5, "seed": 20240817},
               fd_worst, 0.0, 1.0, threshold=1e-8,
               note="worst relative gap between the two representations"),
        _entry("fd_gauss_reduction", {"a": 1.1, "b": 0.7, "c": 2.3, "x": 0.35},
               fd_gauss, gauss_2f1, 1e-13, threshold=1e-8,
               note="single-variable degeneration against an independent 2F1"),
    ]


def _run_verify(args) -> int:
    qs = _check_q_grid(args, "verify grid needs")
    alpha = complex(args.alpha_re, args.alpha_im)
    # the oracle side of the whole grid, at min(tol, 1e-10): one line pass,
    # eight rows a q (alpha's moments, the norm of alpha + 0.2, their raw
    # overlap), and one Fourier pass, every q's transforms at every k
    passes = _oracle_pass(tuple((q, alpha, (alpha + 0.2,)) for q in qs), _norm_tol(args.tol))
    transforms = _psi_transforms(qs, alpha, np.array(_VERIFY_KS), args.tol)
    entries, products, a_consts, closures = [], [], [], []
    for q, integrals, transform in zip(qs, passes, transforms):
        rows, product, a_oracle, closure = _grid_point_rows(q, alpha, args.tol, integrals,
                                                            transform)
        entries += [_entry(equation, point, closed, oracle, args.tol, note=note)
                    for equation, point, closed, oracle, note in rows]
        products.append(product)
        a_consts.append(a_oracle)
        closures.append(closure)
    # q-independent families
    zq, z = 1.01, 0.7
    entries.append(_entry(
        "qexp_phase_expansion", {"q": zq, "z": z},
        (1.0 - 0.5 * (zq - 1.0) * z * z) * np.exp(-1j * z), q_exponential(zq, -1j * z),
        args.tol, threshold=10.0 * (zq - 1.0) ** 2,
        note="first-order small-(q-1) expansion; agreement is O((q-1)^2)"))
    hermite, *fd_entries = _fixed_entries()
    entries += [hermite, *fd_entries]
    # the two end points fix the default Parseval window; only the total is read
    mid = len(qs) // 2
    _, parseval_total = _bessel_pd(qs[mid], alpha, a_consts[mid], default_k_grid(alpha, 2))
    parseval_gap = abs(parseval_total - 1.0)
    # Second moments shrink like (q - 1); the sequence must reach 1.02 for
    # their final gaps to clear the 1e-2 recovery tolerance.
    limit = limit_convergence_check(alpha, (1.2, 1.1, 1.05, 1.02), tol=1e-9, k_points=61)
    closure, min_product = max(closures), min(products)
    checks = {name: {"status": "pass" if ok else "fail", "detail": detail}
              for name, ok, detail in (
                  # |A_oracle|^2 * n2_closed: the quadrature and Lauricella norms close
                  ("normalization_closure", closure < 1e-8, closure),
                  ("parseval", parseval_gap < 1e-4, parseval_gap),
                  ("heisenberg", min_product >= 0.5 - 1e-6, min_product),
                  ("limit_recovery", limit.all_converged, dict(limit.verdicts)),
                  ("fd_consistency", all(e["status"] == "pass" for e in fd_entries),
                   max(e["rel_deviation"] for e in fd_entries)),
              )}
    calibration = {
        "anchor_q": closedforms.CALIBRATION_ANCHOR_Q,
        "anchor_alpha_re": closedforms.CALIBRATION_ANCHOR_ALPHA.real,
        "anchor_alpha_im": closedforms.CALIBRATION_ANCHOR_ALPHA.imag,
        "reflection_term": closedforms.calibrated_reflection(),
    }
    _emit_json(args, "verify",
               {"q_grid": qs, "alpha_re": alpha.real, "alpha_im": alpha.imag, "tol": args.tol},
               {"calibration": calibration, "mandatory_checks": checks,
                "finding_count": sum(e["status"] == "finding" for e in entries),
                "entry_count": len(entries)},
               entries)
    failing = [name for name, check in checks.items() if check["status"] == "fail"]
    if failing:
        print(f"mandatory checks failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------- main

def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoherent",
        description="Deformed coherent states: sweeps, verification, momentum dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, tol_default):
        sp.add_argument("--alpha-re", type=_finite_float, default=0.5)
        sp.add_argument("--alpha-im", type=_finite_float, default=0.0)
        sp.add_argument("--tol", type=_positive_float, default=tol_default)
        sp.add_argument("--out", default=None, metavar="PATH")

    def q_grid(sp, q_min, q_max, q_steps):
        sp.add_argument("--q-min", type=_finite_float, default=q_min)
        sp.add_argument("--q-max", type=_finite_float, default=q_max)
        sp.add_argument("--q-steps", type=int, default=q_steps)

    sp = sub.add_parser("sweep", help="moment suite over a q grid")
    q_grid(sp, 1.05, 2.2, 20)
    sp.add_argument("--method", choices=("oracle", "closed-form", "both"),
                    default="oracle")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    common(sp, tol_default=1e-9)

    vp = sub.add_parser("verify", help="closed forms vs oracles, JSON report")
    q_grid(vp, 1.2, 2.2, 3)
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


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join each option with a negative number after it, "--alpha-im=-5e-05".

    argparse reads "-1.5" as a value but "-5e-05" (how repr writes a small
    float) as an unknown option, and exits 2.
    """
    out: list[str] = []
    for tok in argv:
        if tok.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1]:
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] += "=" + tok
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OutOfValidityWindow) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
