"""A fixed reference computation that gauges the host's speed.

The host this benchmark runs on is shared, and its speed drifts by 10-40%
over minutes, for every process alike.  A timed run interleaves this
computation with the workload's ops and reports op time in units of it
(``op_cost``), which cancels most of that drift.

The computation does not use qcoherent, so no change to the package moves
it.  It is the same kind of work as the package's: a globally adaptive
Gauss-Kronrod G7/K15 integration in numpy over small panel batches, of a
complex q-Gaussian times a plane wave, driven from a Python loop.  Its work
is fixed: the same panels, the same evaluations, the same result every call.

It runs in a process of its own (``python3 reference.py``), so the state
the ops leave in the workload process (its heap, its caches) does not
change its speed: the process reads a number of units per line on stdin
and answers each line with the seconds those units took.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

_XK = np.array([
    -0.991455371120812639, -0.949107912342758525, -0.864864423359769073,
    -0.741531185599394440, -0.586087235467691130, -0.405845151377397167,
    -0.207784955007898468, 0.0, 0.207784955007898468, 0.405845151377397167,
    0.586087235467691130, 0.741531185599394440, 0.864864423359769073,
    0.949107912342758525, 0.991455371120812639,
])
_WK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
    0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
    0.204432940075298892, 0.209482141084727828, 0.204432940075298892,
    0.190350578064785410, 0.169004726639267903, 0.140653259715525919,
    0.104790010322250184, 0.063092092629978553, 0.022935322010529225,
])
_GIDX = np.arange(1, 15, 2)
_WG = np.array([
    0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
    0.417959183673469388, 0.381830050505118945, 0.279705391489276668,
    0.129484966168869693,
])

# (q, k) of each integral in one unit (about 5 ms), the integration range
# and the per-panel error target
CASES = tuple((q, k) for q in (1.2, 1.5, 1.8, 2.1) for k in (0.0, 0.8, 1.6, 2.4))
HALF_WIDTH = 8.0
TOL = 1e-12
MAX_PANELS = 4096


def _integrate(q: float, k: float) -> complex:
    exponent = 1.0 / (1.0 - q)

    def f(x):
        return np.power(1.0 + (q - 1.0) * x * x, exponent) * np.exp(1j * k * x)

    lo, hi = np.array([-HALF_WIDTH]), np.array([HALF_WIDTH])
    total = 0j
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * _XK[None, :])
        kronrod = half * (fx @ _WK)
        gauss = half * (fx[:, _GIDX] @ _WG)
        done = np.abs(kronrod - gauss) <= TOL * half
        total += kronrod[done].sum()
        lo = np.concatenate([lo[~done], mid[~done]])
        hi = np.concatenate([mid[~done], hi[~done]])
        if lo.size > MAX_PANELS:
            raise RuntimeError("reference integral did not converge")
    return total


def reference_unit() -> complex:
    """One unit of reference work; returns the same value on every call."""
    return sum(_integrate(q, k) for q, k in CASES)


def serve(stdin=sys.stdin, stdout=sys.stdout) -> None:
    expected = reference_unit()
    for line in stdin:
        start = perf_counter()
        for _ in range(int(line)):
            if reference_unit() != expected:
                raise RuntimeError("reference unit changed its result")
        print(perf_counter() - start, file=stdout, flush=True)


if __name__ == "__main__":
    serve()
