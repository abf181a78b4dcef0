"""Command-line frontend: sweep/verify/pd subcommands, file formats,
determinism, and exit-code policy."""

import csv
import io
import json
import math

import pytest

from qcoherent import cli
from qcoherent.errors import NotConverged


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


def test_numerical_failure_maps_to_exit_three(monkeypatch):
    # the closed norm's Euler integrand underflows at every probe at q = 1.001
    assert run_cli("sweep", "--q-min", "1.001", "--q-max", "1.001", "--q-steps", "1",
                   "--method", "closed-form") == 3

    def boom(*a, **k):
        raise NotConverged("synthetic non-convergence")

    monkeypatch.setattr(cli, "moments_oracle", boom)
    assert run_cli("sweep", "--q-min", "1.2", "--q-max", "1.3",
                   "--q-steps", "2") == 3


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


def test_verify_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("verify", "--q-min", "1.3", "--q-max", "1.3", "--q-steps", "1")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_runs_moment_oracle_once_per_q(monkeypatch, tmp_path):
    # the entries and the heisenberg check read one oracle report per q
    calls = []
    real = cli.moments_oracle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "moments_oracle", counted)
    out = tmp_path / "report.json"
    assert run_cli("verify", "--q-min", "1.2", "--q-max", "1.5", "--q-steps", "2",
                   "--out", str(out)) == 0
    assert [q for q, _ in calls] == [1.2, 1.5]


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


def test_pd_stdout_when_no_out(capsys):
    code = run_cli("pd", "--q", "1.5", "--k-steps", "11")
    assert code == 0
    text = capsys.readouterr().out
    assert "parseval_total" in text
    assert len([ln for ln in text.splitlines() if not ln.startswith("#")]) == 12


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
