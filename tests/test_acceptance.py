"""Acceptance battery: every criterion prints one pass/fail line.

The campaign engine is deterministic given the seed; criterion 9 repeats
its reports and demands byte-identical output.
Run with ``pytest tests/test_acceptance.py -v -s`` or, equivalently,
``semiband selftest --seed 1``.
"""

import pytest

from semiband.selftest import CriterionResult, format_summary, run_all

SEED = 1


@pytest.fixture(scope="module")
def campaign():
    return run_all(seed=SEED)


def _check(campaign, number: int) -> CriterionResult:
    result = next(r for r in campaign if r.number == number)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_wce_roundtrip(campaign):
    _check(campaign, 1)


def test_criterion_2_negative_witnesses(campaign):
    _check(campaign, 2)


def test_criterion_3_sbp_implies_scp(campaign):
    _check(campaign, 3)


def test_criterion_4_sigma_laws(campaign):
    _check(campaign, 4)


def test_criterion_5_oracle_agreement(campaign):
    _check(campaign, 5)


def test_criterion_6_worked_examples(campaign):
    _check(campaign, 6)


def test_criterion_7_averaging(campaign):
    _check(campaign, 7)


def test_criterion_8_probe(campaign):
    _check(campaign, 8)


def test_criterion_9_determinism(campaign):
    _check(campaign, 9)
    # the whole campaign must be reproducible byte for byte
    again = run_all(seed=SEED)
    assert format_summary(again) == format_summary(campaign)


def test_every_criterion_is_timed_outside_the_summary(campaign):
    assert [r.number for r in campaign] == list(range(1, 10))
    assert all(r.seconds > 0 for r in campaign)
    # timings never reach the summary bytes or result equality
    untimed = [CriterionResult(r.number, r.name, r.passed, r.detail) for r in campaign]
    assert untimed == campaign
    assert format_summary(untimed) == format_summary(campaign)
