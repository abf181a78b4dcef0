"""qcoherent benchmark: one workload, one fresh interpreter, one JSON result.

    python3 perfbench/run.py --workload {moments,momentum,verify} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The benchmark imports qcoherent from
``src/`` of the checkout it sits in.

--trace 0 measures the end-to-end metrics: set-up in fresh interpreters,
then a closed loop with one client over seeded labels, untraced, for at
least S seconds and whole blocks of labels.  Reference work
(reference.py) is interleaved with the ops to gauge the host's speed.

--trace 1 measures the per-layer metrics: a fixed, seeded set of labels
runs once untraced and once under the span recorder, with the package's
memo caches emptied in between, so both passes do the same work.  The
traced outputs must be bit-identical to the untraced ones.  The run then
tries the workload's census of known defects (workloads.KNOWN_DEFECTS)
and reports how many still fail.

Standard output ends with two JSON lines: the full run record
(provenance, failure breakdown, per-function spans) under the key
"perfbench", then the result {"correct", "attempted", "failed", "metrics"}.
"""

import os

# BLAS/OpenMP thread caps, set before numpy loads; set-up probes inherit them.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import Tracer, function_summary, layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, as_label, draw_labels  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3       # set-up probes before the timed loop, and again after it
REF_SHARE = 0.5         # reference time kept at this share of op time in a timed loop
MAX_BLOCKS = 1000       # blocks of labels drawn up front for a timed run
DEADLINE_S = 150.0      # a timed loop stops here even mid-block, to end within 180 s
TAIL_BEYOND = 10        # ops beyond the tail percentile
TRACE_OPS = {"moments": 100, "momentum": 8, "verify": 8}  # whole blocks


def measure_setup() -> list[dict]:
    """Fresh interpreter to imported and calibrated, SETUP_REPEATS times.

    Half the probes run after the timed loop, so the median spans the
    run rather than one moment of the machine's varying speed.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        wall = perf_counter() - t0
        proc.communicate()
        if proc.returncode != 0 or not line:
            raise SystemExit(f"set-up probe failed with exit status {proc.returncode}")
        samples.append({"wall_s": wall, **json.loads(line)})
    return samples


class Gauge:
    """Reference units between ops, their time kept at REF_SHARE of op time.

    The host's speed drifts over minutes; ops and the reference units run
    at the same moments, so op time over unit time cancels most of it.
    The units run in a process of their own (reference.py), one batch at a
    time while this one waits, so nothing runs alongside an op.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        self.units, self.seconds, self.op_seconds = 0, 0.0, 0.0
        try:
            self._run(3)  # warm up
        except BaseException:
            self.close()
            raise

    def _run(self, units):
        self.proc.stdin.write(f"{units}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"reference process ended with status {self.proc.wait()}")
        return float(line)

    def after_op(self, op_seconds):
        self.op_seconds += op_seconds
        while (missing := REF_SHARE * self.op_seconds - self.seconds) > 0:
            units = max(1, round(missing / (self.seconds / self.units))) if self.units else 1
            self.seconds += self._run(units)
            self.units += units

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def unit_ms(self):
        return 1e3 * self.seconds / self.units


def run_ops(workload, labels, scratch, seconds=math.inf, tracer=None, gauge=None):
    """Closed loop, one client: each op starts when the previous returns.

    Stops after a whole block once ``seconds`` have passed, or at the
    deadline; with the default it runs every label.
    """
    latencies, outcomes = [], []
    t0 = perf_counter()
    for i, row in enumerate(labels):
        label = as_label(row)
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        outcomes.append(workload.op(label, scratch))
        latencies.append(perf_counter() - start)
        if gauge is not None:
            gauge.after_op(latencies[-1])
        elapsed = perf_counter() - t0
        if elapsed >= DEADLINE_S or ((i + 1) % workload.block == 0 and elapsed >= seconds):
            break
    return latencies, outcomes, perf_counter() - t0


def clear_caches():
    """Empty qcoherent's memo caches, except the set-up calibration."""
    from qcoherent import closedforms

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qcoherent" or name.startswith("qcoherent.")):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear") and value is not closedforms.calibrated_reflection:
                value.cache_clear()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, n_ops):
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "ops": n_ops,
        "thread_caps": THREAD_CAPS,
    }


def summarize(outcomes, labels):
    failures = Counter(o.failure for o in outcomes if o.failure is not None)
    return {
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "wrong": sum(o.wrong for o in outcomes),
        "failures": dict(sorted(failures.items())),
        "failed_labels": [[*map(float, row), o.failure]
                          for row, o in zip(labels, outcomes) if o.failure is not None],
    }


def timed_run(workload, seed, seconds, scratch):
    labels = draw_labels(workload, seed, MAX_BLOCKS)
    with Gauge() as gauge:
        latencies, outcomes, wall = run_ops(workload, labels, scratch, seconds, gauge=gauge)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ordered = sorted(latencies)
    n = len(ordered)
    op_s = sum(latencies)
    has_tail = n >= 2 * TAIL_BEYOND  # runs of fewer ops (verify's) report no tail
    tail_rank = n - 1 - TAIL_BEYOND
    summary = summarize(outcomes, labels)
    metrics = {"op_cost": 1e3 * op_s / n / gauge.unit_ms, "peak_rss_mb": rss_mb}
    # Raw times follow the host's drift (see README); recorded, and compared
    # without a verdict.
    extra = {
        "unbounded": {
            "op_mean_ms": 1e3 * op_s / n,
            "op_p50_ms": 1e3 * median(latencies),
            "op_tail_ms": 1e3 * ordered[tail_rank] if has_tail else None,
            "ops_per_s": (n - summary["failed"]) / op_s,
            "failed_ops_frac": summary["failed"] / n,
        },
        "tail_percentile": 100.0 * (tail_rank + 1) / n if has_tail else None,
        "tail_samples": n,
        "loop_s": wall,
        "reference": {"units": gauge.units, "unit_ms": gauge.unit_ms},
    }
    return summary, metrics, extra


def run_census(workload, scratch):
    """Each known defect's label once: does it still fail, and how?"""
    census = []
    for row, known in KNOWN_DEFECTS[workload.name]:
        outcome = workload.op(as_label(row), scratch)
        census.append({"label": list(row), "known": known,
                       "failure": outcome.failure, "wrong": outcome.wrong})
    return census


def traced_run(workload, seed, scratch):
    labels = draw_labels(workload, seed, TRACE_OPS[workload.name] // workload.block)
    _, plain, wall_plain = run_ops(workload, labels, scratch)
    clear_caches()
    with Tracer() as tracer:
        _, traced, wall_traced = run_ops(workload, labels, scratch, tracer=tracer)
    identical = [o.digest for o in plain] == [o.digest for o in traced]
    summary = summarize(traced, labels)
    census = run_census(workload, scratch)
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics.update({
        "failed_ops_frac": summary["failed"] / len(traced),
        "census.failed_ops": sum(c["failure"] is not None for c in census),
        # equal successes in both passes, so the ops_per_s ratio is a wall-time ratio
        "trace.overhead_frac": 1.0 - wall_plain / wall_traced,
    })
    extra = {
        "bit_identical": identical,
        "census": census,
        "untraced_loop_s": wall_plain,
        "traced_loop_s": wall_traced,
        "spans": len(tracer.spans),
        "functions": function_summary(tracer.spans),
    }
    return summary, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcoherent" / "__init__.py").is_file():
        print(f"no qcoherent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    setup = measure_setup()

    sys.path.insert(0, str(ROOT / "src"))
    from qcoherent import closedforms

    closedforms.calibrated_reflection()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            summary, values, extra = traced_run(workload, args.seed, scratch)
        else:
            summary, values, extra = timed_run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup += measure_setup()
    values.update({
        "setup_s": median(s["wall_s"] for s in setup),
        "setup.import_s": median(s["import_s"] for s in setup),
        "setup.calibration_s": median(s["calibration_s"] for s in setup),
    })

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark did not produce {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = (summary["wrong"] == 0 and extra.get("bit_identical", True)
               and not any(c["wrong"] for c in extra.get("census", ())))
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed, summary["attempted"]),
        "setup": setup, **summary, **extra, "correct": correct, "metrics": metrics,
    }
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
