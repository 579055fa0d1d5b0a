"""The gain rule and the failure shares of tools/bench_pairs.py, on made-up series (no
benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.18}


def runs(values):
    return [{"metrics": {"ops_per_s": v}} for v in values]


def test_ten_clear_wins_meet_the_gain_rule():
    parent = [80.0 + 0.1 * k for k in range(10)]
    s = bench_pairs.summarize(SPEC, runs(parent), runs([x + 10.0 for x in parent]))
    assert s["won"] == 10 and s["gain_rule_met"] and s["within_bound"]


@pytest.mark.parametrize("n", [1, 2, 9])
def test_a_short_series_never_reports_a_gain(n):
    # one pair has no quartile spread, so a single win would clear it
    parent = [80.0 + 0.1 * k for k in range(n)]
    s = bench_pairs.summarize(SPEC, runs(parent), runs([x + 10.0 for x in parent]))
    assert s["won"] == n and not s["gain_rule_met"]


def test_medians_inside_the_parent_spread_are_no_gain():
    parent = [80.0, 90.0] * 5
    s = bench_pairs.summarize(SPEC, runs(parent), runs([x + 1.0 for x in parent]))
    assert s["won"] == 10 and not s["gain_rule_met"]


def counted(pairs):
    return [{"attempted": a, "failed": f} for a, f in pairs]


def test_a_larger_failed_share_is_flagged():
    # summed over the runs: 3 failed of 2000 is a larger share than 1 of 1000
    s = bench_pairs.failure_shares(counted([(400, 0), (600, 1)]), counted([(1000, 3), (1000, 0)]))
    assert (s["parent"]["failed"], s["parent"]["attempted"]) == (1, 1000)
    assert s["change"]["share"] == 3 / 2000 and s["larger"]
    s = bench_pairs.failure_shares(counted([(1000, 2)]), counted([(2000, 3)]))
    assert s["change"]["share"] < s["parent"]["share"] and not s["larger"]


def test_equal_or_no_failures_are_not_flagged():
    s = bench_pairs.failure_shares(counted([(500, 1)] * 10), counted([(1000, 2)] * 10))
    assert s["parent"]["share"] == s["change"]["share"] == 0.002 and not s["larger"]
    s = bench_pairs.failure_shares(counted([(0, 0)]), counted([(0, 0)]))
    assert s["change"]["share"] == 0.0 and not s["larger"]
