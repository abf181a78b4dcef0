"""The three workloads: seeded label draws, one operation each, result checks.

A label is a state (q, alpha).  Labels come in blocks.  A block is a
randomly shifted rank-1 lattice in the unit cube, mapped to q, abs(alpha)
(area-preserving) and arg(alpha): each of its points lies in its own
1/block-th of the q window, of the alpha region's area and of the angle,
and the pairs are spread evenly, so every block covers the windows in the
same proportions and the mean op cost varies little from block to block.  The
shift is uniform, so each label is still uniform over its window: q on
(q_lo, q_hi), alpha on the ellipse
(Re alpha / radius)^2 + (Im alpha / (im_scale * radius))^2 <= 1 (a disc
when im_scale is 1).

The windows keep clear of the program's known failures, so every timed
op does the same kind of work on every run and no op fails: a failing op
returns early and would make the op count, and the op time, depend on
how many of them a seed draws.  The failures themselves are run as a
fixed census of labels (KNOWN_DEFECTS) in every traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


MANDATORY_CHECKS = (
    "normalization_closure", "parseval", "heisenberg", "limit_recovery", "fd_consistency",
)


@dataclass(frozen=True)
class Label:
    q: float
    alpha: complex


@dataclass(frozen=True)
class Outcome:
    """What one op produced.

    digest   hash of every output value, bit for bit (of the failure when
             the op failed), to compare a traced pass with an untraced one
    failure  None, or why the op failed: the exception it raised, the exit
             status and failed checks of the CLI, or the check it missed
    wrong    the op returned as a success and nothing in its result shows
             the missed check: a silent wrong answer, not a reported failure
    """

    digest: str
    failure: str | None = None
    wrong: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    q_lo: float
    q_hi: float
    radius: float
    im_scale: float
    block: int  # labels per lattice block; also the least ops a timed run makes
    op: Callable[[Label, str], Outcome]


# Lattice generators (1, a, b) by block size, a and b prime to it; chosen
# to spread the (q, abs alpha) and (abs alpha, arg alpha) pairs evenly.
GENERATORS = {2: (1, 1, 1), 8: (1, 5, 7), 20: (1, 3, 9)}


def draw_labels(workload: Workload, seed: int, n_blocks: int) -> np.ndarray:
    """(n_blocks * block, 3) array of distinct (q, Re alpha, Im alpha) rows.

    A pure function of (seed, n_blocks): the same seed gives the same labels.
    """
    block = workload.block
    rng = np.random.default_rng(seed)
    steps = np.arange(block)[None, :, None] * np.array(GENERATORS[block]) / block
    u = ((steps + rng.random((n_blocks, 1, 3))) % 1.0).reshape(-1, 3)
    q = workload.q_lo + (workload.q_hi - workload.q_lo) * u[:, 0]
    r = workload.radius * np.sqrt(u[:, 1])
    angle = 2.0 * math.pi * u[:, 2]
    rows = np.column_stack([q, r * np.cos(angle), workload.im_scale * r * np.sin(angle)])
    if len(np.unique(rows, axis=0)) != len(rows):
        raise ValueError("label draw repeated a label")
    return rows


def as_label(row) -> Label:
    return Label(float(row[0]), complex(float(row[1]), float(row[2])))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _failed(exc: Exception, route: str = "") -> Outcome:
    name = f"{route}{type(exc).__name__}"
    return Outcome(_digest(name, str(exc)), name)


def _report_values(report) -> np.ndarray:
    return np.array([report.mean_x, report.mean_x2, report.mean_p, report.mean_p2,
                     report.var_x, report.var_p, report.delta_x, report.delta_p,
                     report.product], dtype=float)


def moments_op(label: Label, scratch: str) -> Outcome:
    """moments_oracle then moments_closed, as ``sweep --method both`` does per q."""
    from qcoherent import moments_closed, moments_oracle
    from qcoherent.states import CONVENTION_TOL

    try:
        oracle = moments_oracle(label.q, label.alpha)
    except Exception as exc:  # any raise is an op failure, recorded by type
        return _failed(exc, "oracle:")
    try:
        closed = moments_closed(label.q, label.alpha)
    except Exception as exc:
        return _failed(exc, "closed:")
    vo, vc = _report_values(oracle), _report_values(closed)
    digest = _digest(vo.tobytes(), vc.tobytes())
    if not (np.all(np.isfinite(vo)) and np.all(np.isfinite(vc))):
        return Outcome(digest, "check:finite", True)
    if min(oracle.product, closed.product) < 0.5 - 1e-6:
        return Outcome(digest, "check:heisenberg", True)
    if abs(closed.product - oracle.product) > CONVENTION_TOL * max(1.0, abs(oracle.product)):
        return Outcome(digest, "check:routes_agree", True)
    return Outcome(digest)


def momentum_op(label: Label, scratch: str) -> Outcome:
    """One momentum_pd on its default 401-point grid."""
    from qcoherent import momentum_pd

    try:
        dist = momentum_pd(label.q, label.alpha)
    except Exception as exc:
        return _failed(exc)
    amps = np.array([s.amplitude for s in dist.samples], dtype=complex)
    digest = _digest(amps.tobytes(), float(dist.parseval_total))
    if amps.size != 401 or not np.all(np.isfinite(amps)):
        return Outcome(digest, "check:finite_amplitudes", True)
    if not abs(dist.parseval_total - 1.0) <= 1e-4:
        # a failure, but not a silent one: parseval_total is the program's
        # own closure diagnostic, and it shows the miss to the caller
        return Outcome(digest, "closure:parseval")
    return Outcome(digest)


def verify_op(label: Label, scratch: str) -> Outcome:
    """``qcoherent verify`` on its default q grid at this alpha."""
    from qcoherent import cli

    out = os.path.join(scratch, "verify.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    stderr = io.StringIO()
    argv = ["verify", "--alpha-re", repr(label.alpha.real),
            "--alpha-im", repr(label.alpha.imag), "--out", out]
    try:
        with contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
    except Exception as exc:
        return _failed(exc)
    try:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return Outcome(_digest(status, stderr.getvalue()), f"exit{status}:no-report",
                       status == 0)
    report["meta"].pop("generated_at", None)  # wall-clock stamp, differs every run
    digest = _digest(status, json.dumps(report, sort_keys=True))
    checks = report["meta"].get("mandatory_checks", {})
    missed = [n for n in MANDATORY_CHECKS if checks.get(n, {}).get("status") != "pass"]
    if status != 0:
        return Outcome(digest, f"exit{status}:" + ",".join(missed))
    if missed:
        return Outcome(digest, "check:" + ",".join(missed), True)
    return Outcome(digest)


# Windows: moments_closed raises ZeroDivisionError for q below about 1.014
# and NotConverged above about 2.316, and both routes raise SlowDecay near
# 7/3.  momentum_pd's Parseval total misses 1e-4 once q and abs(Im alpha)
# are both large (q = 2.15 at abs(Im alpha) = 1.5); at q = 2 it reads
# 1 - 7.4e-5 there.  verify exits 3 on limit_recovery once
# abs(Im alpha) >~ 0.3; its labels keep abs(Im alpha) <= 0.2.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("moments", 1.05, 2.3, 1.5, 1.0, 20, moments_op),
        Workload("momentum", 1.05, 2.0, 1.5, 1.0, 8, momentum_op),
        # verify runs its own default q grid; only alpha is used
        Workload("verify", 1.05, 2.3, 1.0, 0.2, 2, verify_op),
    )
}

# The program's known failures, one fixed label each (q, Re alpha, Im alpha)
# with the failure it gives.  Traced runs run them apart from the workload's
# labels and report how many still fail as census.failed_ops.
KNOWN_DEFECTS = {
    "moments": (
        ((1.008, 0.3, 0.2), "closed:ZeroDivisionError"),
        ((2.32, 0.235, -0.128), "closed:NotConverged"),
        ((2.333, 0.291, -0.234), "oracle:SlowDecay"),
    ),
    "momentum": (
        ((2.99, 0.5, 0.0), "SlowDecay"),
        ((2.3, 0.0, 1.5), "closure:parseval"),
    ),
    "verify": (
        ((1.05, 0.3, 0.6), "exit3:limit_recovery"),
    ),
}
