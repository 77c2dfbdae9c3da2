"""The verdict of the perfbench A/B gate (``tools/perf_ab.py``).

Drives the pure verdict function with synthetic run payloads; nothing
here runs the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from perf_ab import run_once, verdict  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sim_accesses_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def _run(wall_s, accesses_per_s=1000.0, correct=True, attempted=40, failed=0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "sim_accesses_per_s": {"value": accesses_per_s, "unit": "1/s"},
        },
    }


def _runs(parent, change):
    return {"fig5-cold": {"parent": parent, "change": change}}


STEADY = [_run(w) for w in (10.0, 10.1, 10.0, 9.9, 10.0)]


def _line(lines, metric):
    (line,) = [line for line in lines if f" {metric}:" in line]
    return line


def test_within_bound_is_ok():
    status, lines = verdict(SPEC, _runs(STEADY, [_run(w) for w in (11.0, 11.2, 10.9, 11.1, 11.0)]))
    assert status == 0
    assert _line(lines, "wall_s").startswith("ok fig5-cold wall_s")


def test_beyond_bound_fails_naming_workload_and_metric():
    status, lines = verdict(SPEC, _runs(STEADY, [_run(w) for w in (20.0, 19.5, 20.2, 20.1, 19.9)]))
    assert status == 1
    assert _line(lines, "wall_s").startswith("WORSE fig5-cold wall_s")
    assert _line(lines, "sim_accesses_per_s").startswith("ok ")


@pytest.mark.parametrize(
    "change_wall_s, expected",
    [(30.0, "unresolved"), (4.0, "ok")],
    ids=["worse-median-unresolved", "every-change-run-better-ok"],
)
def test_parent_spread_wider_than_bound(change_wall_s, expected):
    noisy = [_run(w) for w in (5.0, 8.0, 10.0, 14.0, 20.0)]
    status, lines = verdict(SPEC, _runs(noisy, [_run(change_wall_s)] * 5))
    assert status == 0
    assert _line(lines, "wall_s").startswith(f"{expected} fig5-cold wall_s")


@pytest.mark.parametrize(
    "change",
    [
        [_run(10.0)] * 4 + [_run(10.0, correct=False)],
        [_run(10.0)] * 4 + [_run(10.0, failed=3)],
    ],
    ids=["correct-false", "higher-failed-share"],
)
def test_wrong_or_failing_change_runs_fail(change):
    status, lines = verdict(SPEC, _runs(STEADY, change))
    assert status == 1
    assert any(line.startswith("FAIL fig5-cold") for line in lines)


def test_equal_failed_share_passes():
    parent = [_run(10.0, failed=1)] * 5
    status, _ = verdict(SPEC, _runs(parent, [_run(10.0, failed=1)] * 5))
    assert status == 0


@pytest.mark.parametrize(
    "accesses_per_s, expected",
    [(500.0, "WORSE"), (2000.0, "ok")],
    ids=["halved-throughput-fails", "doubled-throughput-passes"],
)
def test_higher_is_better_inverts_the_direction(accesses_per_s, expected):
    parent = [_run(10.0, a) for a in (1000.0, 1010.0, 990.0, 1000.0, 1005.0)]
    status, lines = verdict(SPEC, _runs(parent, [_run(10.0, accesses_per_s)] * 5))
    assert _line(lines, "sim_accesses_per_s").startswith(f"{expected} fig5-cold")
    assert status == (expected == "WORSE")


@pytest.mark.parametrize(
    "script", ["import sys; sys.exit(1)", "print('no result line')"],
    ids=["nonzero-exit", "no-json"],
)
def test_a_crashed_run_counts_as_incorrect(script, tmp_path):
    result = run_once(str(tmp_path), [sys.executable, "-c", script], "fig5-cold", 1)
    assert result["correct"] is False
    assert result["metrics"] == {}
