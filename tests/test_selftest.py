import semiband.cli as cli
from semiband.selftest import CriterionResult, format_summary, run_all


def test_seed_changes_instances_not_verdicts():
    results = run_all(seed=2)
    assert all(r.passed for r in results)
    assert [r.number for r in results] == list(range(1, 10))


def test_summary_format():
    results = [
        CriterionResult(1, "alpha", True, "fine"),
        CriterionResult(2, "beta", False, "broke"),
    ]
    text = format_summary(results)
    assert "PASS  1 alpha: fine" in text
    assert "FAIL  2 beta: broke" in text
    assert text.endswith("FAILED (1/2 criteria)\n")


def test_cli_exit_codes(monkeypatch, capsys):
    ok = [CriterionResult(1, "alpha", True, "fine")]
    monkeypatch.setattr("semiband.selftest.run_all", lambda seed: ok)
    assert cli.main(["selftest", "--seed", "1"]) == 0
    bad = [CriterionResult(1, "wce-round-trip", False, "sign flipped")]
    monkeypatch.setattr("semiband.selftest.run_all", lambda seed: bad)
    assert cli.main(["selftest", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    assert "wce-round-trip" in out


def test_timings_go_to_stderr_and_leave_stdout_alone(monkeypatch, capsys):
    results = [
        CriterionResult(1, "alpha", True, "fine", seconds=0.25),
        CriterionResult(2, "beta", True, "good", seconds=1.5),
    ]
    monkeypatch.setattr("semiband.selftest.run_all", lambda seed: results)
    assert cli.main(["selftest", "--seed", "1"]) == 0
    plain = capsys.readouterr()
    assert cli.main(["selftest", "--seed", "1", "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out == format_summary(results)
    assert plain.err == ""
    assert timed.err.splitlines() == [" 1 alpha: 0.250 s", " 2 beta: 1.500 s", "total: 1.750 s"]
    # a result without a timing prints zero seconds rather than failing
    monkeypatch.setattr("semiband.selftest.run_all", lambda seed: [CriterionResult(1, "alpha", True, "fine")])
    assert cli.main(["selftest", "--seed", "1", "--timings"]) == 0
    assert " 1 alpha: 0.000 s" in capsys.readouterr().err
