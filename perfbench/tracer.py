"""Span recorder around qcoherent's public functions, and the per-layer metrics.

``Tracer`` wraps, from outside the package, every public function (the
names in each layer module's ``__all__``) of the layers below.  It patches
by object identity: every attribute of a loaded ``qcoherent`` module that
is bound to a traced function gets the wrapper, so names imported across
modules (``moments.integrate_line``, ``momentum.fourier_transform_line``,
the package re-exports) are traced too.  Leaving the ``with`` block puts
every original object back.

A span holds the function, its layer, start and end, its parent span and
the op it belongs to; a ``QuadratureResult`` return adds its evaluation
count and method.  Spans stay in memory; ``layer_metrics`` reduces them
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# layer modules in dependency order; quadrature is L1 (its G7/K15 kernel,
# L0, has no public entry and shows only through evaluation counts)
LAYERS = ("quadrature", "specfun", "closedforms", "states", "moments", "momentum",
          "limits", "cli")

FD_FUNCTIONS = ("lauricella_fd", "lauricella_fd_series", "lauricella_fd_integral")


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    op: int
    parent: int  # index of the enclosing span, -1 at the top
    start: float = 0.0
    end: float = 0.0
    raised: bool = False
    evaluations: int | None = None
    method: str | None = None


def _qcoherent_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qcoherent" or n.startswith("qcoherent."))]


class Tracer:
    """Context manager that records a span for every traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1  # id of the op in progress; set by the caller
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcoherent.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    targets[id(fn)] = (fn, self._wrap(fn, layer, name))
        try:
            for module in _qcoherent_modules():
                for attr, value in list(vars(module).items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, hit[1])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    def _restore(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            evaluations = getattr(result, "evaluations", None)
            if isinstance(evaluations, int):
                span.evaluations = evaluations
                span.method = getattr(result, "method", None)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics; a layer the workload bypasses reads zero.

    Quadrature calls and evaluations count only outermost quadrature spans,
    those whose parent is not itself a quadrature span: integrate_line runs
    its tails through integrate_interval and fourier_transform_line runs
    k = 0 through integrate_line, so nested spans would count twice.
    """
    own = self_times(spans)

    def ratio(num, den):
        return num / den if den else 0.0

    def self_ms(pick):
        return 1e3 * sum(own[i] for i, s in enumerate(spans) if pick(s))

    quad = [i for i, s in enumerate(spans) if s.layer == "quadrature"
            and (s.parent < 0 or spans[s.parent].layer != "quadrature")]
    quad_evals = sum(spans[i].evaluations or 0 for i in quad)
    quad_self_ms = self_ms(lambda s: s.layer == "quadrature")

    fd = [s for s in spans if s.name == "lauricella_fd" and not s.raised]
    fd_series = [s.evaluations for s in fd if s.method == "fd-series"]
    names = Counter(s.name for s in spans)

    cold = {spans[i].parent for i in quad
            if spans[i].parent >= 0 and spans[spans[i].parent].name == "normalization_constant"}
    line_passes = sum(1 for i in quad if spans[i].name == "integrate_line"
                      and _has_ancestor(spans, i, "moments_oracle"))
    pd_amplitudes = sum(1 for i, s in enumerate(spans)
                        if s.name == "momentum_amplitude_oracle"
                        and _has_ancestor(spans, i, "momentum_pd"))
    amplitude_evals = sum(spans[i].evaluations or 0 for i in quad
                          if spans[i].parent >= 0
                          and spans[spans[i].parent].name == "momentum_amplitude_oracle")

    per_op = functools.partial(ratio, den=n_ops)
    return {
        "quadrature.calls": per_op(len(quad)),
        "quadrature.evals": per_op(quad_evals),
        "quadrature.self_ms": per_op(quad_self_ms),
        "quadrature.evals_per_s": ratio(quad_evals, 1e-3 * quad_self_ms),
        "quadrature.failed_calls": per_op(sum(1 for i in quad if spans[i].raised)),
        "specfun.fd_calls": per_op(names["lauricella_fd"]),
        "specfun.fd_integral_share": ratio(sum(1 for s in fd if s.method == "fd-integral"),
                                           len(fd)),
        "specfun.fd_series_shells": ratio(sum(fd_series), len(fd_series)),
        "specfun.fd_self_ms": per_op(self_ms(lambda s: s.name in FD_FUNCTIONS)),
        "specfun.kummer_calls": per_op(names["kummer_phi"]),
        "specfun.kummer_self_ms": per_op(self_ms(lambda s: s.name == "kummer_phi")),
        "closedforms.line_moment_calls": per_op(names["line_power_moment"]),
        "closedforms.self_ms": per_op(self_ms(lambda s: s.layer == "closedforms")),
        "states.norm_calls": per_op(names["normalization_constant"]),
        "states.norm_cold_calls": per_op(len(cold)),
        "states.norm_hit_ratio": ratio(names["normalization_constant"] - len(cold),
                                       names["normalization_constant"]),
        "states.overlap_calls": per_op(names["overlap"]),
        "states.overlap_self_ms": per_op(self_ms(lambda s: s.name == "overlap")),
        "moments.oracle_calls": per_op(names["moments_oracle"]),
        "moments.line_passes": ratio(line_passes, names["moments_oracle"]),
        "momentum.amplitudes_per_pd": ratio(pd_amplitudes, names["momentum_pd"]),
        "momentum.evals_per_amplitude": ratio(amplitude_evals,
                                              names["momentum_amplitude_oracle"]),
        "limits.self_ms": per_op(self_ms(lambda s: s.layer == "limits")),
        "cli.self_ms": per_op(self_ms(lambda s: s.layer == "cli")),
    }


def function_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls and self time per traced function, for the run record."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, t in zip(spans, own):
        row = out.setdefault(f"{s.layer}.{s.name}", {"calls": 0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += 1e3 * t
    return dict(sorted(out.items()))
