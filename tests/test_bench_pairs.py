"""The gain rule of tools/bench_pairs.py, on made-up series (no benchmark runs)."""

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
