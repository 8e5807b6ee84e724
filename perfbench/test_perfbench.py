"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

import refclock
import run
import spans
from workloads import WORKLOADS

TINY = {
    "analyze-ladder": [
        ("wce", 8, 4, "2", True),
        ("perturbed", 8, 4, "1", False),
        ("low-rank", 8, 3, "3/2", True),
        ("full-rank", 8, 8, "inf", False),
    ],
    "interval-sweep": [("block", 8, 2, 0), ("leak", 8, 3, 1), ("dense", 8, 2, 0)],
    "campaign": [(k, *strata[len(strata) // 2]) for k, (_, strata) in WORKLOADS["campaign"].MIX.items()]
    + [("exhaustive", 3, 100)],
}


@pytest.fixture(scope="module")
def sb():
    return run.load_semiband(with_oracles=True)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    for name, plan in TINY.items():
        monkeypatch.setattr(WORKLOADS[name], "plan", lambda self, plan=plan: list(plan))


def _ops(sb, tmp_path, name, seed):
    w = WORKLOADS[name](sb, tmp_path)
    return w, [w.prepare(spec, seed, i) for i, spec in enumerate(TINY[name])]


def _inputs(op):
    if "doc" in op.data:
        return op.data["doc"]
    T = op.data["T"]
    return (T.rows if T is not None else None, op.data.get("form"), op.data.get("blocks"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(sb, tmp_path, name):
    _, a = _ops(sb, tmp_path, name, 7)
    _, b = _ops(sb, tmp_path, name, 7)
    _, c = _ops(sb, tmp_path, name, 8)
    assert [_inputs(op) for op in a] == [_inputs(op) for op in b]
    assert [_inputs(op) for op in a] != [_inputs(op) for op in c]


def _run_and_check(w, op):
    result = op.call()
    assert not w.failed(result)
    return result


def _report(op):
    return json.loads(op.data["out"].read_text(encoding="utf-8"))


def _rewrite(op, report):
    op.data["out"].write_text(json.dumps(report), encoding="utf-8")


def test_checker_rejects_wrong_analyze_verdict(sb, tmp_path):
    w, ops = _ops(sb, tmp_path, "analyze-ladder", 1)
    op = ops[0]  # a WCE form: SBP and SCP hold by construction
    rc = _run_and_check(w, op)
    assert w.check(op, rc) == []
    report = _report(op)
    report["predicates"]["semi_band_preserving"]["holds"] = False
    report["predicates"]["semi_band_preserving"]["witness"] = report["predicates"]["band_preserving"].get(
        "witness", {"kind": "SBP-violation", "f": ["0"] * 8, "g": ["0"] * 8, "note": ""}
    )
    _rewrite(op, report)
    assert w.check(op, rc)


def test_checker_rejects_non_replaying_witness(sb, tmp_path):
    w, ops = _ops(sb, tmp_path, "analyze-ladder", 1)
    op = ops[1]  # an off-block perturbation: SBP fails with a witness
    rc = _run_and_check(w, op)
    assert w.check(op, rc) == []
    report = _report(op)
    entry = report["predicates"]["semi_band_preserving"]
    assert entry["holds"] is False
    entry["witness"]["f"] = ["0"] * len(entry["witness"]["f"])
    _rewrite(op, report)
    assert any("does not replay" in p for p in w.check(op, rc))


def test_checker_rejects_wrong_norm(sb, tmp_path):
    w, ops = _ops(sb, tmp_path, "analyze-ladder", 1)
    op = ops[3]  # p = inf: the norm has a closed formula
    rc = _run_and_check(w, op)
    report = _report(op)
    value = report["operator_norm"]
    value["value"] = str(sb.serialize.parse_rat(value["value"]) + 1)
    _rewrite(op, report)
    assert any("norm" in p for p in w.check(op, rc))


def test_checker_rejects_bad_interval_answers(sb, tmp_path):
    w, ops = _ops(sb, tmp_path, "interval-sweep", 1)
    block, leak = ops[0], ops[1]
    for op in (block, leak):
        assert w.check(op, _run_and_check(w, op)) == []
    report = _report(block)
    report["semi_band_preserving"]["holds"] = False
    report["semi_band_preserving"]["witness"] = _report(leak)["semi_band_preserving"]["witness"]
    _rewrite(block, report)
    assert w.check(block, 0)
    report = _report(leak)
    entry = report["semi_band_preserving"]
    entry["witness"]["f"] = {"pieces": [{"from": "0", "to": "1", "coeffs": []}]}
    _rewrite(leak, report)
    assert any("does not replay" in p for p in w.check(leak, 0))


def test_checker_rejects_bad_campaign_answers(sb, tmp_path):
    w, ops = _ops(sb, tmp_path, "campaign", 1)
    by_kind = {op.kind: op for op in ops}
    rt = by_kind["roundtrip"]
    sbp, scp, rec = rt.call()
    assert w.check(rt, (sbp, scp, rec)) == []
    planted = sb.operators.PredicateResult(False, None)
    assert w.check(rt, (planted, scp, rec))
    pt = by_kind["perturbed"]
    sbp, rec, replayed = pt.call()
    assert w.check(pt, (sbp, rec, replayed)) == []
    bogus = rec._replace(f=tuple(0 * x for x in rec.f))
    assert any("replay" in p for p in w.check(pt, (sbp, bogus, True)))
    ex = by_kind["exhaustive"]
    oracle, sbp, scp = ex.call()
    assert w.check(ex, (oracle, sbp, scp)) == []
    flipped = (not oracle[0], oracle[1])
    assert w.check(ex, (flipped, sbp, scp))
    avg = by_kind["averaging"]
    M, proj, sbp, scp, norms = avg.call()
    assert w.check(avg, (M, proj, sbp, scp, norms)) == []
    assert w.check(avg, (M, proj, sbp, scp, [0, 1, 0]))
    assert w.check(avg, (replace(M, rows=tuple(r[::-1] for r in M.rows)), proj, sbp, scp, norms))


def _main(capsys, *argv):
    rc = run.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return rc, out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(tiny, capsys, name):
    rc, out = _main(capsys, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert rc == 0
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(TINY[name])
    metrics = result["metrics"]
    assert set(metrics) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


def test_tiny_traced_run(tiny, capsys):
    rc, out = _main(capsys, "--workload", "campaign", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert rc == 0
    result = json.loads(out[-1])
    metrics = result["metrics"]
    assert set(metrics) == set(spans.per_layer_units())
    assert metrics["operators.witness_replay_ratio"]["value"] == 1
    for key, m in metrics.items():
        if key.endswith(".calls"):
            assert m["value"] > 0, key
    assert (run.OUT / "spans-campaign-3.json").is_file()


def test_wrong_answer_exits_nonzero(tiny, capsys, monkeypatch):
    monkeypatch.setattr(WORKLOADS["interval-sweep"], "check", lambda self, op, result: ["planted"])
    rc, out = _main(capsys, "--workload", "interval-sweep", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert rc == 1
    assert json.loads(out[-1])["correct"] is False


def test_no_sources_no_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    rc, out = _main(capsys, "--workload", "campaign", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert rc != 0
    assert out == []


def test_checker_spans_stay_out_of_layer_sums():
    tracer = spans.Tracer()
    ns = 10**9
    tracer.spans = [
        ("operators.is_sbp", 0, 2 * ns, -1, "campaign:0"),
        ("operators.replay_witness", 2 * ns, 3 * ns, -1, "campaign:0"),
        ("operators.is_sbp", 0, 5 * ns, -1, "check:campaign:0"),
        ("operators.replay_witness", 5 * ns, 9 * ns, 2, "check:campaign:0"),
        ("interval.replay_frop_witness", 0, ns, -1, "check:interval-sweep:0"),
    ]
    m = tracer.metrics()
    assert (m["operators.is_sbp.s"], m["operators.is_sbp.calls"]) == (2, 1)
    assert (m["operators.replay_witness.s"], m["operators.replay_witness.calls"]) == (1, 1)
    assert (m["check.operators.replay_witness.s"], m["check.operators.replay_witness.calls"]) == (4, 1)
    assert m["check.interval.replay_frop_witness.calls"] == 1
    assert "interval.replay_frop_witness.s" not in m


def test_refclock_scales_gaps_between_probes():
    clock = refclock.RefClock()
    ms = 1e-3
    # round times 1, 1 and 2 ms; smoothed 1, 1 and 1.5 ms
    clock.probes = [(0.0, 1 * ms), (10 * ms, 11 * ms), (20 * ms, 22 * ms)]
    clock.settle()
    unit = refclock.ROUND_S / ms
    # 9 ms at 1 ms per round, then 9 ms at 1.25 ms per round; probes excluded
    assert clock.scaled(0.5 * ms, 21.5 * ms) == pytest.approx((9 + 9 / 1.25) * unit * ms)
    assert clock.scaled(2 * ms, 4 * ms) == pytest.approx(2 * unit * ms)
    assert clock.scaled(10.2 * ms, 10.8 * ms) == 0


def test_refclock_probes_inside_a_busy_interval():
    with refclock.RefClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(clock.probes) >= 4
    assert 0 < clock.scaled(start, end)
