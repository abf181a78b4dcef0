"""Tests of the benchmark itself: labels, the span recorder, the result line, compare.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from reference import reference_unit  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Label, draw_labels  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a few labels per workload, cheap enough for a test
SMALL = {
    "moments": draw_labels(WORKLOADS["moments"], 5, 1)[:4],
    "momentum": np.array([[1.5, 0.4, 0.1]]),
    "verify": np.array([[1.05, 0.3, -0.1]]),
}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Each workload's small labels untraced, then traced on emptied caches."""
    scratch = str(tmp_path_factory.mktemp("scratch"))
    out = {}
    for name, labels in SMALL.items():
        _, plain, _ = run.run_ops(WORKLOADS[name], labels, scratch)
        run.clear_caches()
        with Tracer() as tracer:
            _, traced, _ = run.run_ops(WORKLOADS[name], labels, scratch, tracer=tracer)
        out[name] = plain, traced, tracer.spans
    return out


def test_labels_repeat_for_a_seed_and_fill_the_windows():
    for w in WORKLOADS.values():
        a = draw_labels(w, 3, 5)
        assert np.array_equal(a, draw_labels(w, 3, 5))
        assert not np.array_equal(a, draw_labels(w, 4, 5))
        assert len(np.unique(a, axis=0)) == len(a) == 5 * w.block
        assert np.all((w.q_lo <= a[:, 0]) & (a[:, 0] < w.q_hi))
        assert np.all(np.hypot(a[:, 1], a[:, 2] / w.im_scale) <= w.radius)
        # each block holds one label in each block-th part of the q window,
        # of the alpha region's area and of the angle
        r2 = (a[:, 1] ** 2 + (a[:, 2] / w.im_scale) ** 2) / w.radius ** 2
        angle = np.arctan2(a[:, 2] / w.im_scale, a[:, 1]) / (2 * np.pi) % 1.0
        for unit in ((a[:, 0] - w.q_lo) / (w.q_hi - w.q_lo), r2, angle):
            strata = np.floor(unit * w.block).reshape(5, w.block)
            assert all(sorted(row) == list(range(w.block)) for row in strata)


def test_known_defects_lie_outside_the_windows():
    for name, defects in KNOWN_DEFECTS.items():
        w = WORKLOADS[name]
        for (q, x, y), _ in defects:
            outside_q = not (w.q_lo <= q < w.q_hi) and name != "verify"
            assert outside_q or np.hypot(x, y / w.im_scale) > w.radius


def test_reference_unit_repeats_its_work_and_gauge_keeps_its_share():
    assert reference_unit() == reference_unit()
    with run.Gauge() as gauge:
        gauge.after_op(0.05)
    assert gauge.units >= 1 and gauge.proc.returncode == 0
    assert run.REF_SHARE * 0.05 <= gauge.seconds < 2 * run.REF_SHARE * 0.05


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_values_are_bit_identical_to_untraced(passes, name):
    plain, traced, spans = passes[name]
    assert spans
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert [o.failure for o in traced] == [o.failure for o in plain]


def test_tracer_restores_every_function():
    import qcoherent
    from qcoherent import moments, quadrature

    def snapshot():
        return {(name, attr): value for name, mod in list(sys.modules.items())
                if name == "qcoherent" or name.startswith("qcoherent.")
                for attr, value in vars(mod).items()}

    before = snapshot()
    original = quadrature.integrate_line
    with pytest.raises(RuntimeError):
        with Tracer():
            assert moments.integrate_line is not original
            assert qcoherent.integrate_line is moments.integrate_line
            assert quadrature.integrate_line is moments.integrate_line
            raise RuntimeError("leave the block early")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_bypassed_layers_read_zero(passes):
    _, traced, spans = passes["momentum"]
    metrics = layer_metrics(spans, len(traced))
    assert metrics["specfun.fd_calls"] == 0.0
    assert metrics["specfun.kummer_calls"] == 0.0
    assert metrics["moments.oracle_calls"] == 0.0
    assert metrics["cli.self_ms"] == 0.0
    assert metrics["momentum.amplitudes_per_pd"] > 401
    assert metrics["states.norm_cold_calls"] == 1.0


def test_moments_layer_counts(passes):
    _, traced, spans = passes["moments"]
    ok = sum(o.failure is None for o in traced)
    assert ok == len(traced)
    metrics = layer_metrics(spans, len(traced))
    assert metrics["moments.oracle_calls"] == 2.0  # moments_closed re-runs the oracle
    assert metrics["closedforms.line_moment_calls"] == 8.0
    assert metrics["momentum.amplitudes_per_pd"] == 0.0


def test_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "moments", "--seed", "2",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    record = json.loads(record_line)["perfbench"]
    assert record["bit_identical"] is True
    assert record["provenance"]["seed"] == 2
    assert record["attempted"] == run.TRACE_OPS["moments"]
    assert [c["label"] for c in record["census"]] == [list(r) for r, _ in KNOWN_DEFECTS["moments"]]
    census_failed = result["metrics"]["census.failed_ops"]["value"]
    assert census_failed == sum(c["failure"] is not None for c in record["census"])


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moments", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _records(workload, values, name="ops_per_s"):
    return [{"workload": workload, "trace": 0, "seed": s, "failed": 0, "attempted": 20,
             "metrics": {name: {"value": v}}} for s, v in enumerate(values)]


@pytest.mark.parametrize("change, expected", [
    ([10.0 + 0.01 * i for i in range(10)], "unchanged"),
    ([12.0 + 0.01 * i for i in range(10)], "better"),
    ([7.0 + 0.01 * i for i in range(10)], "worse"),
    ([5.0, 15.0] * 5, "unresolved"),
])
def test_compare_verdicts(change, expected):
    parent = [10.0 + 0.01 * i for i in range(10)]
    p, c = _records("w", parent), _records("w", change)
    verdict = compare.verdict(parent, change, compare.pairs(p, c, "ops_per_s"),
                              "higher", 0.1)
    assert verdict == expected


def test_compare_reads_run_output_and_prints_every_metric(tmp_path):
    def record(trace, seed):
        names = SPEC["per_layer" if trace else "end_to_end"]
        return {"perfbench": {
            "workload": "moments", "trace": trace, "seed": seed, "failed": 1, "attempted": 20,
            "unbounded": {"op_mean_ms": 31.0, "op_p50_ms": 30.0, "op_tail_ms": None,
                          "ops_per_s": 20.0, "failed_ops_frac": 0.05},
            "reference": {"units": 500, "unit_ms": 4.0 + 0.01 * seed},
            "metrics": {m["name"]: {"value": 1.0 + 0.001 * seed} for m in names}}}

    for side in ("parent", "change"):
        lines = [json.dumps(record(t, s)) for t in (0, 1) for s in range(10)]
        (tmp_path / side).write_text("noise\n" + "\n".join(lines) + "\n")
    out = io.StringIO()
    compare.compare(compare.load(tmp_path / "parent"), compare.load(tmp_path / "change"), out)
    text = out.getvalue()
    for name in [m["name"] for m in SPEC["end_to_end"]] + ["op_mean_ms", "op_p50_ms", "ops_per_s"]:
        assert f"moments    {name} " in text
    for m in SPEC["per_layer"]:
        assert f"moments    {m['name']}" in text
    assert "op_tail_ms      not reported" in text
    assert "moments    ref_unit_ms" in text
    assert "worse" not in text and "better" not in text
    assert "differs" not in text


def test_compare_withholds_a_gain_when_more_ops_fail():
    parent = [10.0 + 0.01 * i for i in range(10)]
    change = [12.0 + 0.01 * i for i in range(10)]
    paired = list(zip(parent, change))
    assert compare.verdict(parent, change, paired, "higher", 0.1, more_failures=True) \
        == "unresolved"


def test_failed_op_is_recorded_by_exception_type():
    # a label outside the momentum window fails the same way on every pass
    outcome = WORKLOADS["momentum"].op(Label(3.5, 0.2j), "")
    assert outcome.failure == "OutOfValidityWindow"
    assert outcome == WORKLOADS["momentum"].op(Label(3.5, 0.2j), "")
