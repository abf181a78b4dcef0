"""Command-line frontend: sweep/verify/pd subcommands, file formats,
determinism, and exit-code policy."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qcoherent
from qcoherent import cli, closedforms, moments, momentum, quadrature, specfun, states
from qcoherent.errors import NotConverged
from qcoherent.limits import limit_convergence_check
from qcoherent.moments import moments_oracle
from qcoherent.states import StateLabel, normalization_constant, overlap


def run_cli(*argv):
    return cli.main(list(argv))


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        comments = [ln for ln in fh if ln.startswith("#")]
        fh.seek(0)
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    return comments, rows


# ---------------------------------------------------------------- sweep

def test_sweep_csv_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--q-min", "1.05", "--q-max", "2.2", "--q-steps", "20",
        "--alpha-re", "0.5", "--out", str(out),
    )
    assert code == 0
    comments, rows = read_rows(out)
    assert any("schema=1" in c for c in comments)
    assert any("config" in c for c in comments)
    assert len(rows) == 20
    qs = [float(r["q"]) for r in rows]
    assert qs == sorted(qs)
    products = [float(r["product"]) for r in rows]
    assert all(p >= 0.5 - 1e-9 for p in products)
    assert min(products) == products[0]          # smallest q sits closest to 1/2
    assert all(r["method"] == "oracle" for r in rows)
    # 17-significant-digit reals round-trip exactly
    assert float(f"{products[3]:.17g}") == products[3]


def test_sweep_single_point_and_both_methods(tmp_path):
    out = tmp_path / "one.csv"
    code = run_cli(
        "sweep", "--q-min", "1.3", "--q-max", "1.3", "--q-steps", "1",
        "--alpha-re", "0.3", "--method", "both", "--out", str(out),
    )
    assert code == 0
    _, rows = read_rows(out)
    assert [r["method"] for r in rows] == ["oracle", "closed-form"]
    a, b = (float(r["product"]) for r in rows)
    assert a == pytest.approx(b, rel=1e-6)


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(
        "sweep", "--q-min", "1.2", "--q-max", "1.4", "--q-steps", "2",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "qcoherent"
    assert len(doc["entries"]) == 2
    assert {"q", "product", "mean_x2"} <= set(doc["entries"][0])


def test_sweep_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--q-min", "1.1", "--q-max", "2.0", "--q-steps", "4",
            "--alpha-re", "0.4", "--alpha-im", "0.1")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_grid_validation_exit_codes(tmp_path):
    assert run_cli("sweep", "--q-min", "1.4", "--q-max", "1.2") == 2
    assert run_cli("sweep", "--q-min", "2.5", "--q-max", "2.6") == 2
    assert run_cli("sweep", "--q-min", "1.2", "--q-max", "1.4",
                   "--q-steps", "1") == 2
    assert run_cli("sweep", "--q-min", "0.9", "--q-max", "1.2") == 2
    # non-finite numbers are usage errors, never numerical failures
    assert run_cli("sweep", "--alpha-re", "nan") == 2
    assert run_cli("sweep", "--q-max", "inf") == 2
    assert run_cli("verify", "--tol", "nan") == 2
    assert run_cli("pd", "--q", "1.5", "--k-min", "-inf") == 2
    # so are a tol that is not positive and fewer than one q step
    for command in (("sweep",), ("verify",), ("pd", "--q", "1.5")):
        assert run_cli(*command, "--tol", "0") == 2
        assert run_cli(*command, "--tol", "-1e-9") == 2
    assert run_cli("verify", "--q-steps", "0") == 2
    assert run_cli("verify", "--q-steps", "-1") == 2


def test_csv_cells_match_json_values(tmp_path):
    # sweep and pd write one table in two formats: every CSV cell reads back
    # as the float (or the string) the JSON entry holds
    cases = {
        "sweep": ("sweep", "--q-min", "1.2", "--q-max", "1.4", "--q-steps", "2",
                  "--alpha-re", "0.3", "--alpha-im", "0.1", "--method", "both"),
        "pd": ("pd", "--q", "1.5", "--alpha-im", "0.2", "--k-steps", "11"),
    }
    for name, args in cases.items():
        csv_out, json_out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert run_cli(*args, "--out", str(csv_out)) == 0
        assert run_cli(*args, "--format", "json", "--out", str(json_out)) == 0
        comments, rows = read_rows(csv_out)
        doc = json.loads(json_out.read_text())
        assert len(rows) == len(doc["entries"]) > 0
        for row, entry in zip(rows, doc["entries"]):
            assert list(row) == list(entry)
            for key, cell in row.items():
                want = entry[key]
                assert (cell == want) if isinstance(want, str) else float(cell) == want
        assert f"# config {doc['meta']['config']}\n" in comments
    trailer = [c for c in comments if c.startswith("# parseval_total=")]
    assert [float(c.split("=")[1]) for c in trailer] == [doc["meta"]["parseval_total"]]


def test_verify_q_grid_accepts_one_step_and_repeats():
    def grid(q_min, q_max, q_steps):
        args = SimpleNamespace(q_min=q_min, q_max=q_max, q_steps=q_steps)
        return cli._check_q_grid(args, "verify grid needs")

    assert grid(1.2, 1.5, 1) == [1.2]
    assert grid(1.2, 1.2, 3) == [1.2, 1.2, 1.2]
    assert grid(1.2, 2.2, 3) == pytest.approx([1.2, 1.7, 2.2])


def test_negative_values_in_exponent_notation_are_values(tmp_path):
    # repr writes a small negative float as "-5e-05", which argparse alone
    # takes for an unknown option and exits 2 on
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli("pd", "--q", "1.5", "--alpha-im", "-5e-05", "--k-min", "-1e+01",
                   "--k-max", "2", "--k-steps", "5", "--out", str(spaced)) == 0
    assert run_cli("pd", "--q", "1.5", "--alpha-im=-5e-05", "--k-min=-1e+01",
                   "--k-max", "2", "--k-steps", "5", "--out", str(joined)) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert "alpha_im=-5.0000000000000002e-05 k_min=-10 " in spaced.read_text()
    assert run_cli("verify", "--alpha-re", "0.621950984878743",
                   "--alpha-im", "-5.388158053133789e-05", "--out", str(tmp_path / "v.json")) == 0


def test_numerical_failure_maps_to_exit_three(monkeypatch):
    # the log-space Euler pass reaches q = 1.001 on the closed route ...
    assert run_cli("sweep", "--q-min", "1.001", "--q-max", "1.001", "--q-steps", "1",
                   "--method", "closed-form") == 0
    # ... while the oracle's SlowDecay next to 7/3 is a real numerical failure
    assert run_cli("sweep", "--q-min", "2.333", "--q-max", "2.333", "--q-steps", "1") == 3

    def boom(*a, **k):
        raise NotConverged("synthetic non-convergence")

    monkeypatch.setattr(cli, "moments_oracle", boom)
    assert run_cli("sweep", "--q-min", "1.2", "--q-max", "1.3",
                   "--q-steps", "2") == 3


def test_a_valid_tol_reaches_the_config_line(capsys):
    assert run_cli("pd", "--q", "1.5", "--k-steps", "3", "--tol", "1e-7") == 0
    assert " tol=9.9999999999999995e-08 " in capsys.readouterr().out.splitlines()[1]
    assert run_cli("pd", "--q", "1.5", "--tol", "0") == 2


@pytest.mark.parametrize("argv", [("--alpha-re", "abc"), ("--alpha-im", "nan")])
def test_a_number_that_does_not_parse_is_a_usage_error(argv, capsys):
    assert run_cli("pd", "--q", "1.5", *argv) == 2
    assert "not a finite number" in capsys.readouterr().err


def test_a_dash_token_that_is_no_number_is_left_to_argparse():
    argv = ["pd", "--q", "1.5", "--out", "-report.csv", "--alpha-im", "-5e-05"]
    assert cli._attach_negative_values(argv) == argv[:4] + ["-report.csv", "--alpha-im=-5e-05"]


# --------------------------------------------------------------- verify

@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = run_cli("verify", "--out", str(out))
    return code, json.loads(out.read_text())


def test_verify_exits_clean(verify_report):
    code, rep = verify_report
    assert code == 0
    assert rep["meta"]["schema"] == 1
    assert rep["meta"]["entry_count"] == len(rep["entries"])


def test_verify_mandatory_checks_pass(verify_report):
    _, rep = verify_report
    checks = rep["meta"]["mandatory_checks"]
    assert set(checks) == {
        "normalization_closure", "parseval", "heisenberg",
        "limit_recovery", "fd_consistency",
    }
    assert all(c["status"] == "pass" for c in checks.values())


def test_verify_entry_sequence(verify_report):
    # 16 entries per grid point in a fixed order, then the q-independent ones
    _, rep = verify_report
    per_q = (
        "normalization_fd", "normalization_fd_halfline", "moment_x_fd",
        "moment_x_fd_halfline", "moment_x2_fd", "moment_p_fd", "moment_p2_fd",
        "overlap_fd",
        "momentum_amplitude_kummer", "momentum_pd_kummer", "momentum_amplitude_bessel",
        "momentum_amplitude_kummer", "momentum_pd_kummer", "momentum_amplitude_bessel",
        "momentum_amplitude_k_to_zero", "momentum_amplitude_bessel",
    )
    tail = ("qexp_phase_expansion", "hermite_expansion_identity",
            "fd_series_vs_integral", "fd_gauss_reduction")
    qs = rep["meta"]["config"]["q_grid"]
    assert [e["equation"] for e in rep["entries"]] == list(per_q) * len(qs) + list(tail)
    for i, q in enumerate(qs):
        block = rep["entries"][16 * i:16 * (i + 1)]
        assert all(e["point"]["q"] == q for e in block)
        assert [e["point"].get("k") for e in block[8:]] == [0.8] * 3 + [2.0] * 3 + [0.01] * 2


def test_verify_normalization_entries_all_pass(verify_report):
    _, rep = verify_report
    entries = [e for e in rep["entries"] if e["equation"] == "normalization_fd"]
    assert entries and all(e["status"] == "pass" for e in entries)


def test_verify_judges_zero_moments_against_tol(tmp_path):
    # <x> vanishes at alpha = 0: both routes return round-off, which is judged
    # against the oracle's accuracy, not against itself
    out = tmp_path / "report.json"
    assert run_cli("verify", "--alpha-re", "0", "--alpha-im", "0", "--out", str(out)) == 0
    entries = [e for e in json.loads(out.read_text())["entries"]
               if e["equation"] == "moment_x_fd"]
    assert entries and all(e["status"] == "pass" for e in entries)


def test_verify_flags_momentum_closed_form_near_k_zero(verify_report):
    _, rep = verify_report
    entries = [
        e for e in rep["entries"]
        if e["equation"] == "momentum_amplitude_k_to_zero"
    ]
    assert entries
    for e in entries:
        assert e["status"] == "finding"
        assert "k -> 0" in e["note"]


def test_verify_reports_bessel_amplitude_next_to_the_printed_form(verify_report):
    # the exact transform passes at every k where the printed form is judged,
    # k -> 0 included
    _, rep = verify_report
    points = {(e["point"]["q"], e["point"]["k"]): e for e in rep["entries"]
              if e["equation"] == "momentum_amplitude_bessel"}
    kummer = {(e["point"]["q"], e["point"]["k"]) for e in rep["entries"]
              if e["equation"] in ("momentum_amplitude_kummer", "momentum_amplitude_k_to_zero")}
    assert set(points) == kummer
    assert all(e["status"] == "pass" and "Kummer" in e["note"] for e in points.values())


def test_verify_halfline_variants_reported_as_findings(verify_report):
    _, rep = verify_report
    for family in ("normalization_fd_halfline", "moment_x_fd_halfline"):
        entries = [e for e in rep["entries"] if e["equation"] == family]
        assert entries and all(e["status"] == "finding" for e in entries)


def test_verify_records_calibration_meta(verify_report):
    _, rep = verify_report
    cal = rep["meta"]["calibration"]
    assert cal["anchor_q"] == 1.2
    assert cal["anchor_alpha_re"] == 0.3
    assert cal["reflection_term"] is True


def test_verify_findings_do_not_fail_exit_code(verify_report):
    code, rep = verify_report
    assert rep["meta"]["finding_count"] > 0
    assert code == 0


def test_verify_exits_three_when_a_mandatory_check_fails(monkeypatch, tmp_path, capsys):
    # a Parseval total off by 1 fails the parseval check; the report is
    # still written, with the failing check marked
    monkeypatch.setattr(cli, "_bessel_pd", lambda *a, **k: (None, 2.0))
    out = tmp_path / "v.json"
    assert run_cli("verify", "--q-min", "1.2", "--q-max", "1.2", "--q-steps", "1",
                   "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("mandatory checks failed: ") and "parseval" in err
    checks = json.loads(out.read_text())["meta"]["mandatory_checks"]
    assert checks["parseval"] == {"status": "fail", "detail": 1.0}


def test_verify_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--q-min", "1.3", "--q-max", "1.3", "--q-steps", "1")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_runs_moment_oracle_once_per_q(monkeypatch, tmp_path):
    # the entries, the heisenberg check and the q -> 1 check read one oracle
    # pass: the grid, which also takes the partner alpha + 0.2 at every q,
    # then the limit sequence's q off the grid (1.2 is on it); no separate
    # moments_oracle call
    calls = []
    real = cli._oracle_pass

    def counted(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the verify grid called moments_oracle")

    monkeypatch.setattr(cli, "_oracle_pass", counted)
    monkeypatch.setattr(cli, "moments_oracle", refuse)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--q-min", "1.2", "--q-max", "1.5", "--q-steps", "2",
                   "--out", str(out)) == 0
    alpha = complex(0.3, 0.1)
    partner = alpha + 0.2
    assert calls == [(((1.2, alpha, (partner,)), (1.5, alpha, (partner,)),
                       (1.1, alpha, ()), (1.05, alpha, ()), (1.02, alpha, ())), 1e-10)]


def test_verify_calls_each_momentum_route_once_per_point(monkeypatch, tmp_path):
    # one vectorised Bessel-K call per grid point, one printed Kummer
    # amplitude per (grid point, k) and one Fourier pass for every grid
    # point and k, each scaled by the grid pass's A(alpha): the public
    # amplitude routes, which take A from normalization_constant, are not run
    def count(name):
        seen, real = [], getattr(cli, name)

        def counted(*args, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        return seen

    def refuse(*args, **kwargs):
        raise AssertionError("the verify grid called a public amplitude route")

    for route in ("bessel", "oracle", "closed"):
        monkeypatch.setattr(momentum, f"momentum_amplitude_{route}", refuse)
    bessel, oracle, closed = (count(name) for name in
                              ("_bessel_amplitudes", "_psi_transforms", "_kummer_amplitude"))
    out = tmp_path / "report.json"
    assert run_cli("verify", "--q-min", "1.2", "--q-max", "1.5", "--q-steps", "2",
                   "--out", str(out)) == 0
    assert [q for q, *_ in bessel] == [1.2, 1.5]
    assert [(list(qs), list(k)) for qs, _, k, _ in oracle] == [([1.2, 1.5], [0.8, 2.0, 0.01])]
    per_k = [(q, k) for q in (1.2, 1.5) for k in (0.8, 2.0, 0.01)]
    assert [(q, k) for q, _, k, *_ in closed] == per_k
    a_consts = {q: a for q, _, a in bessel}
    assert all(a == a_consts[q] for q, _, _, a, _ in closed)


def _verify_in_a_fresh_process(out, *argv):
    src = str(Path(qcoherent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "qcoherent.cli", "verify", *argv,
                           "--out", str(out)], env=env, timeout=120).returncode


def test_verify_repeats_in_process_write_a_fresh_process_bytes(tmp_path):
    # the argument-independent checks run once per process and are kept; a
    # later call at another alpha must still write what a fresh process writes
    grid = ("--q-min", "1.3", "--q-max", "1.3", "--q-steps", "1")
    for i, alpha in enumerate((("--alpha-re", "0.3", "--alpha-im", "0.1"),
                               ("--alpha-re", "-1.2", "--alpha-im", "0.2"))):
        here, fresh = tmp_path / f"here{i}.json", tmp_path / f"fresh{i}.json"
        assert run_cli("verify", *grid, *alpha, "--out", str(here)) == 0
        assert _verify_in_a_fresh_process(fresh, *grid, *alpha) == 0
        assert here.read_bytes() == fresh.read_bytes()


def test_verify_runs_its_fixed_checks_once_per_process(monkeypatch, tmp_path):
    # the five F_D draws, the Gauss reduction and the Hermite projection do
    # not depend on the arguments; each grid point's closed pass does
    counts = Counter()
    for module, name in ((specfun, "lauricella_fd_series"), (specfun, "lauricella_fd_integral"),
                         (cli, "_hermite_projection_dev"), (closedforms, "_closed_moments")):
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cli._fixed_checks.cache_clear()
    grid = ("--q-min", "1.3", "--q-max", "1.5", "--q-steps", "2")
    assert run_cli("verify", *grid, "--out", str(tmp_path / "a.json")) == 0
    assert counts == {"lauricella_fd_series": 6, "lauricella_fd_integral": 5,
                      "_hermite_projection_dev": 1, "_closed_moments": 2}
    counts.clear()
    assert run_cli("verify", *grid, "--alpha-re", "-0.4", "--out", str(tmp_path / "b.json")) == 0
    assert counts == {"_closed_moments": 2}


def test_a_default_verify_takes_one_euler_pass_per_grid_point(monkeypatch, tmp_path):
    # each grid point's closed moments of alpha and its closed overlap with
    # alpha + 0.2 are the 18 rows of one pass; there were two passes a point
    closedforms.calibrated_reflection()
    passes, real = [], closedforms._euler_integral

    def counted(log_f, a, *args):
        passes.append(len(a))
        return real(log_f, a, *args)

    monkeypatch.setattr(closedforms, "_euler_integral", counted)
    assert run_cli("verify", "--out", str(tmp_path / "v.json")) == 0
    assert passes == [18, 18, 18]


def _count_calls(monkeypatch, fn):
    """Route every qcoherent module's binding of ``fn`` through a counter;
    returns the list the calls' first arguments are appended to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qcoherent"):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, counted)
    return calls


def _clear_every_memo():
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("qcoherent"):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear") and not isinstance(value, type):
                    value.cache_clear()


def test_a_default_verify_takes_one_line_pass_per_grid_point(monkeypatch, tmp_path):
    # with the fixed checks and the calibration warm and the per-alpha memos
    # empty: one line pass for the whole grid (its oracle moments, the
    # partner's norm and the overlap, eight rows a grid point) and for the
    # limit check's q off the grid (six rows each), one Fourier pass for the
    # grid, and no norm pass: A(alpha) is the grid pass's.  It was 10 line
    # passes (3 grid points, 3 norms of A(alpha), 4 limit-check q) and 3
    # Fourier passes, then 2 line passes (the grid's and the limit check's)
    closedforms.calibrated_reflection()
    cli._fixed_checks()
    states._norm_integral.cache_clear()
    moments._oracle_integrals.cache_clear()
    lines = _count_calls(monkeypatch, quadrature.integrate_line)
    fouriers = _count_calls(monkeypatch, quadrature.fourier_transform_line)
    norms = _count_calls(monkeypatch, states._norm_integral)
    assert run_cli("verify", "--out", str(tmp_path / "v.json")) == 0
    assert len(lines) == 1
    assert len(fouriers) == 1
    assert norms == []


@pytest.mark.parametrize("alpha_im, code", [("0.1", 0), ("0.6", 3)])
def test_verify_limit_verdicts_are_the_public_checks(tmp_path, alpha_im, code):
    # verify reads the q -> 1 check from its own grid pass, at the default
    # label and at 0.3 + 0.6i, where limit_recovery fails: its verdicts are
    # those of limit_convergence_check's own pass
    out = tmp_path / "v.json"
    assert run_cli("verify", "--alpha-im", alpha_im, "--out", str(out)) == code
    detail = json.loads(out.read_text())["meta"]["mandatory_checks"]["limit_recovery"]["detail"]
    want = limit_convergence_check(complex(0.3, float(alpha_im)), k_points=61)
    assert detail == dict(want.verdicts)
    assert want.all_converged == (code == 0)


def test_verify_oracle_values_are_the_public_routes_at_the_norm_tol(tmp_path):
    # the grid point's one pass runs at min(tol, 1e-10): its moments are
    # moments_oracle's at 1e-10, its overlap that of two StateLabels
    out = tmp_path / "v.json"
    assert run_cli("verify", "--out", str(out)) == 0
    entries = json.loads(out.read_text())["entries"]
    alpha = complex(0.3, 0.1)
    fields = {"moment_x_fd": "mean_x", "moment_x2_fd": "mean_x2",
              "moment_p_fd": "mean_p", "moment_p2_fd": "mean_p2"}
    seen = 0
    for e in entries:
        q = e["point"].get("q")
        if e["equation"] in fields:
            want = getattr(moments_oracle(q, alpha, tol=1e-10), fields[e["equation"]])
            assert e["oracle_value"][1] == 0.0
            assert abs(e["oracle_value"][0] - want) <= 1e-13 * abs(want)
            seen += 1
        elif e["equation"] == "overlap_fd":
            want = overlap(StateLabel(q, alpha), StateLabel(q, alpha + 0.2),
                           method="oracle", tol=1e-10)
            assert abs(complex(*e["oracle_value"]) - want) <= 1e-14 * abs(want)
            seen += 1
    assert seen == 15


def test_no_value_depends_on_call_history(tmp_path):
    # at this label the grid pass's norm rows differ from the norm passes in
    # the last bits, so a verify that primed the norm memos from its pass
    # would change what normalization_constant returns later
    q, alpha = 2.2, 0.37 + 0.13j

    def values():
        return repr((
            normalization_constant(q, alpha), normalization_constant(q, alpha + 0.2),
            moments_oracle(q, alpha, tol=1e-10), moments_oracle(q, alpha),
            overlap(StateLabel(q, alpha), StateLabel(q, alpha + 0.2), method="oracle",
                    tol=1e-10),
            limit_convergence_check(alpha, k_points=61)))

    _clear_every_memo()
    assert run_cli("verify", "--alpha-re", "0.37", "--alpha-im", "0.13",
                   "--out", str(tmp_path / "v.json")) == 0
    after_verify = values()
    _clear_every_memo()
    assert values() == after_verify


@pytest.mark.parametrize("argv", [
    ("verify",),
    ("verify", "--alpha-re", "-1.2", "--alpha-im", "0.2", "--q-steps", "1", "--q-max", "1.2"),
    ("sweep", "--method", "both", "--format", "json"),
    ("sweep", "--q-min", "1.3", "--q-max", "1.3", "--q-steps", "1", "--format", "json"),
    ("pd", "--q", "1.5", "--format", "json"),
    ("pd", "--q", "1.2", "--k-steps", "3", "--method", "closed-form", "--format", "json"),
])
def test_json_output_is_the_bytes_json_dumps_writes(argv, tmp_path):
    # the reports are written by cli's own writer; each must be exactly what
    # json.dumps(payload, indent=2) writes for the same payload
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_odd_values():
    payload = {"nan": math.nan, "inf": [math.inf, -math.inf], "zeros": [-0.0, 0.0, 5e-324],
               "np": [np.float64(0.1), np.float64(-math.inf), np.float64(math.nan)],
               "caf\u00e9 \u2603 \U0001f600 \"q\"\n": "\u00fc\t\\", "empty": [[], {}, ()],
               "ints": [0, -7, 10 ** 30, True, False, None], "nested": {"a": {"b": [1.5]}}}
    assert cli._json_text(payload) == json.dumps(payload, indent=2)
    for leaf in (math.nan, -0.0, 5e-324, np.float64(2.5), "\u00e9", [], {}, None):
        assert cli._json_text(leaf) == json.dumps(leaf, indent=2)
    with pytest.raises(TypeError):
        cli._json_text(np.int64(3))


# ------------------------------------------------------------------- pd

def test_pd_csv_with_parseval_trailer(tmp_path):
    out = tmp_path / "pd.csv"
    code = run_cli("pd", "--q", "1.4", "--alpha-re", "0.3",
                   "--k-steps", "201", "--out", str(out))
    assert code == 0
    comments, rows = read_rows(out)
    trailer = [c for c in comments if "parseval_total" in c]
    assert len(trailer) == 1
    total = float(trailer[0].split("=")[1])
    assert total == pytest.approx(1.0, abs=1e-4)
    assert len(rows) == 201
    ks = [float(r["k"]) for r in rows]
    assert ks == sorted(ks)
    for r in rows[::50]:
        amp2 = float(r["amplitude_re"]) ** 2 + float(r["amplitude_im"]) ** 2
        assert float(r["pd"]) == pytest.approx(amp2, abs=1e-12)


def test_pd_rejects_bad_q():
    assert run_cli("pd", "--q", "3.4") == 2
    assert run_cli("pd", "--q", "0.9") == 2


@pytest.mark.parametrize("argv", [
    ("--k-min", "3", "--k-max", "1"),
    ("--k-min", "1", "--k-max", "1"),
    ("--k-steps", "1"),
])
def test_pd_grid_rules_are_config_errors(argv, capsys):
    assert run_cli("pd", "--q", "1.5", *argv) == 2
    assert capsys.readouterr().err.startswith("config error: pd needs k_min < k_max")


def test_pd_stdout_when_no_out(capsys):
    code = run_cli("pd", "--q", "1.5", "--k-steps", "11")
    assert code == 0
    text = capsys.readouterr().out
    assert "parseval_total" in text
    assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) == 12


@pytest.mark.filterwarnings("error")
def test_pd_closed_form_at_a_negative_kummer_argument_returns(tmp_path):
    # at 0.3 - 0.2i the printed amplitude's Kummer argument has Re z < 0.
    # The series summed at z lost 6e-6 of M to cancellation at k = 8, and
    # the Parseval integral of the printed density spent its evaluation
    # budget: exit 3 after minutes.  Summed at -z it returns
    out = tmp_path / "pd.csv"
    assert run_cli("pd", "--q", "1.7", "--alpha-re", "0.3", "--alpha-im", "-0.2",
                   "--method", "closed-form", "--out", str(out)) == 0
    comments, rows = read_rows(out)
    assert len(rows) == 401 and all(math.isfinite(float(r["pd"])) for r in rows)
    assert any("parseval_total" in c for c in comments)


@pytest.mark.parametrize("argv", [
    ("pd", "--q", "1.5", "--k-min", "1e300", "--k-max", "1.7e308"),
    ("sweep", "--alpha-re", "1e200"),
    ("pd", "--q", "1.5", "--alpha-re", "1e200"),
    ("pd", "--q", "1.5", "--k-min", "-1e308", "--k-max", "1e308", "--k-steps", "3"),
])
def test_library_value_error_is_a_config_error(argv, capsys):
    # a k grid whose Parseval window overflows, an alpha whose |alpha|^2 does
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("config error")


# ---------------------------------------------------------------- misc

def test_no_subcommand_is_usage_error():
    assert run_cli() == 2


def test_sweep_stdout_golden_shape(capsys):
    code = run_cli("sweep", "--q-min", "1.2", "--q-max", "1.2",
                   "--q-steps", "1", "--alpha-re", "0.0")
    assert code == 0
    text = capsys.readouterr().out
    rows = list(csv.DictReader(
        io.StringIO("".join(ln + "\n" for ln in text.splitlines()
                            if not ln.startswith("#")))
    ))
    # alpha = 0 is centered: first moments vanish, product above 1/2
    assert float(rows[0]["mean_x"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[0]["mean_p"]) == pytest.approx(0.0, abs=1e-9)
    assert float(rows[0]["product"]) > 0.5
    assert math.isclose(float(rows[0]["max_deviation"]),
                        float(rows[0]["max_deviation"]))  # parses as a real
