import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import semiband.cli
from semiband import AtomicSpace, SupportSet, escape_projection, make_averaging
from semiband.cli import main
from semiband.errors import InternalConsistencyError, ValidationError
from semiband.serialize import (
    build_analysis_report,
    dumps,
    frop_to_json,
    operator_to_json,
    parse_frop,
    parse_operator,
    parse_probe_report,
    parse_value,
    value_to_json,
)
from semiband.interval import make_sbp_not_scp_operator
from semiband.values import ExactValue, IntervalValue, SqrtValue

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"


def run_cli(*argv):
    return main(list(argv))


def test_operator_file_roundtrip(tmp_path):
    M = make_averaging(AtomicSpace.lp(3, 1, weights=["1/2", 1, 2]), [SupportSet.of(1, 2)])
    blob = dumps(operator_to_json(M))
    T = parse_operator(json.loads(blob))
    assert T.rows == M.rows
    assert T.space == M.space
    assert dumps(operator_to_json(T)) == blob


def test_frop_file_roundtrip():
    A = make_sbp_not_scp_operator()
    blob = dumps(frop_to_json(A))
    B = parse_frop(json.loads(blob))
    assert B == A
    assert dumps(frop_to_json(B)) == blob


def test_value_json_roundtrip():
    for v in (ExactValue(Fraction(3, 7)), SqrtValue(Fraction(2)), IntervalValue(Fraction(1), Fraction(2))):
        assert parse_value(value_to_json(v)) == v


def test_analysis_report_roundtrip_and_consistency():
    Q = escape_projection()
    report = build_analysis_report(Q)
    blob = dumps(report)
    again = json.loads(blob)
    assert dumps(again) == blob
    assert again["wce"]["decomposable"] == again["predicates"]["semi_band_preserving"]["holds"]
    assert again["schema"] == 1
    # the input echo is itself a loadable operator file
    assert parse_operator(again["input"]).rows == Q.rows


def test_cli_analyze_ok(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("analyze", "--input", str(DATA / "averaging3.json"), "--report", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "weighted conditional expectation operator"
    assert report["predicates"]["semi_band_preserving"]["holds"] is True
    assert report["projection"] is True


def test_cli_analyze_q(tmp_path):
    out = tmp_path / "q.json"
    assert run_cli("analyze", "--input", str(DATA / "escape_projection.json"), "--report", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["predicates"]["semi_band_preserving"]["holds"] is False
    assert report["predicates"]["semi_containment_preserving"]["holds"] is True
    assert report["operator_norm"] == {"kind": "exact", "value": "1"}
    assert report["wce"]["decomposable"] is False


def test_cli_analyze_rejects_bad_rational(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "space": {"n": 2},
        "matrix": [["1", "1/0"], ["0", "1"]],
    }))
    assert run_cli("analyze", "--input", str(bad)) == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "column 2" in err


def test_cli_analyze_budget(tmp_path, capsys):
    n = 17
    rows = [["0"] * n for _ in range(n)]
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"space": {"n": n}, "matrix": rows}))
    assert run_cli("analyze", "--input", str(f)) == 3


def test_cli_analyze_dimension_mismatch(tmp_path):
    f = tmp_path / "dim.json"
    f.write_text(json.dumps({"space": {"n": 2}, "matrix": [["1", "0"]]}))
    assert run_cli("analyze", "--input", str(f)) == 2


def test_cli_interval_reports(tmp_path):
    out = tmp_path / "iv.json"
    assert run_cli("interval", "--input", str(DATA / "half_interval_pair.json"), "--report", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["semi_band_preserving"]["holds"] is True
    assert report["semi_containment_preserving"]["holds"] is False
    assert "witness" in report["semi_containment_preserving"]
    assert [["0", "1"]] in report["range_supports"]
    out2 = tmp_path / "iv2.json"
    assert run_cli("interval", "--input", str(DATA / "full_support_projection.json"), "--report", str(out2)) == 0
    report2 = json.loads(out2.read_text())
    assert report2["semi_band_preserving"]["holds"] is True
    assert report2["semi_containment_preserving"]["holds"] is True
    assert report2["range_supports"] == [[], [["0", "1"]]]


def test_cli_interval_rejects_gap(tmp_path):
    f = tmp_path / "gap.json"
    f.write_text(json.dumps({
        "terms": [{
            "kernel": {"pieces": [{"from": "0", "to": "1/2", "coeffs": ["1"]}]},
            "image": {"pieces": [{"from": "0", "to": "1", "coeffs": ["1"]}]},
        }]
    }))
    assert run_cli("interval", "--input", str(f)) == 2


UNIT = {"pieces": [{"from": "0", "to": "1", "coeffs": ["1"]}]}
IDENTITY2 = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize(
    "command, doc, place",
    [
        ("analyze", {"space": {"n": 2, "norm": "l2"}, "matrix": IDENTITY2}, "norm"),
        ("analyze", {"space": {"n": 2, "norm": {"p": "2", "weights": 5}}, "matrix": IDENTITY2}, "weights"),
        # a string of two characters is not a list of two weights
        ("analyze", {"space": {"n": 2, "norm": {"p": "2", "weights": "12"}}, "matrix": IDENTITY2}, "weights"),
        ("interval", {"terms": [5]}, "term 1"),
        ("interval", {"terms": [{"image": UNIT}]}, "term 1"),
        ("interval", {"terms": [{"kernel": {"pieces": "x"}, "image": UNIT}]}, "term 1 kernel"),
        ("interval", {"terms": [{"kernel": UNIT, "image": {"pieces": [{"to": "1"}]}}]}, "term 1 image piece 1"),
        # not the polynomial 1 + 2t
        (
            "interval",
            {"terms": [{"kernel": UNIT, "image": {"pieces": [{"from": "0", "to": "1", "coeffs": "12"}]}}]},
            "term 1 image piece 1",
        ),
        # JSON true is no atom count, although a bool is an int in Python
        ("analyze", {"space": {"n": True}, "matrix": [["1"]]}, "atom count"),
    ],
)
def test_cli_rejects_malformed_shapes(tmp_path, capsys, command, doc, place):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert run_cli(command, "--input", str(f)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and place in err


def test_cli_interval_degree_budget(tmp_path):
    f = tmp_path / "deg.json"
    f.write_text(json.dumps({
        "terms": [{
            "kernel": {"pieces": [{"from": "0", "to": "1", "coeffs": ["1"] * 18}]},
            "image": {"pieces": [{"from": "0", "to": "1", "coeffs": ["1"]}]},
        }]
    }))
    assert run_cli("interval", "--input", str(f)) == 3


def test_cli_probe_writes_findings(tmp_path):
    out = tmp_path / "findings.json"
    assert run_cli("probe", "--p", "1", "--dims", "2..3", "--budget", "400", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["findings"]
    parsed = parse_probe_report(data)
    assert len(parsed) == len(data["findings"])
    # findings re-verify from the file alone
    from semiband import verify_probe_finding
    from semiband.wce import ProbeFinding

    for space, T, nrm, witness in parsed:
        assert verify_probe_finding(ProbeFinding(space, T, nrm, witness))
    out2 = tmp_path / "none.json"
    assert run_cli("probe", "--p", "2", "--dims", "2..2", "--budget", "400", "--out", str(out2)) == 0
    assert json.loads(out2.read_text())["findings"] == []


def test_cli_probe_rejects_sup_norm(capsys):
    assert run_cli("probe", "--p", "inf", "--dims", "2..2") == 2


@pytest.mark.parametrize(
    "args, place",
    [(("--dims", "3..2"), "empty atom count range"), (("--budget", "-5"), "negative budget")],
)
def test_cli_probe_rejects_empty_searches(tmp_path, capsys, args, place):
    out = tmp_path / "findings.json"
    assert run_cli("probe", "--p", "1", *args, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and place in err
    assert not out.exists()


def test_probe_report_rejects_a_ragged_matrix(tmp_path):
    out = tmp_path / "findings.json"
    assert run_cli("probe", "--p", "1", "--dims", "2..2", "--budget", "150", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    data["findings"][0]["matrix"][1].pop()
    with pytest.raises(ValidationError, match="row 2"):
        parse_probe_report(data)


def test_cli_lets_a_defect_propagate(monkeypatch):
    def broken(T):
        raise InternalConsistencyError("reassembly failed")

    monkeypatch.setattr(semiband.cli, "build_analysis_report", broken)
    with pytest.raises(InternalConsistencyError):
        run_cli("analyze", "--input", str(DATA / "averaging3.json"))


def test_cli_determinism_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("analyze", "--input", str(DATA / "escape_projection.json"),
                       "--report", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    pa, pb = tmp_path / "pa.json", tmp_path / "pb.json"
    run_cli("probe", "--p", "1", "--dims", "2..2", "--budget", "150", "--out", str(pa))
    run_cli("probe", "--p", "1", "--dims", "2..2", "--budget", "150", "--out", str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "semiband.cli", "analyze", "--input", str(DATA / "averaging3.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["projection"] is True


def test_package_runs_as_a_module(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "semiband", "analyze", "--input", str(DATA / "averaging3.json")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["projection"] is True
