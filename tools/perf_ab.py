#!/usr/bin/env python
"""A/B the repository benchmark: a parent tree against a change tree.

Usage::

    python3 tools/perf_ab.py PARENT_TREE CHANGE_TREE

Both arguments are checkouts of the repository (CI passes a worktree at
the base commit and ``.``).  For every workload listed in the parent's
``BENCHMARK.json``, the tool runs each tree's own ``perfbench/run.py
--trace 0`` for ``run_seconds``, in ``PAIRS`` pairs that alternate which
tree goes first, so host drift lands on both sides alike.  Every run's
result line is written to ``CHANGE_TREE/.perfbench_out/perf_ab.jsonl``.

The verdict, per workload and end-to-end metric, compares medians: a
change is ``WORSE`` when its median is worse than the parent's by more
than the metric's ``bound``, in the metric's ``better`` direction.  When
the parent's own interquartile range over its median is wider than the
bound, the two cannot be told apart and the metric is ``unresolved``
(which does not fail) unless every change run is better than every
parent run.  Exit status: 0 when nothing is worse, 1 when a metric is
worse, a change run is not ``correct`` or the change fails a larger
share of job resolutions than the parent, 2 on bad arguments.
The bounds are the parent's, so a change cannot loosen its own gate.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

#: Pairs of runs per workload; each pair runs both trees once.
PAIRS = 10

#: Result of a run that crashed or printed no result line.
CRASHED = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def run_once(tree: str, command: List[str], workload: str, seconds: float) -> dict:
    """One ``--trace 0`` benchmark run in ``tree``; its JSON result line."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, universal_newlines=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    return CRASHED


def _failed_share(runs: List[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def _values(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def verdict(spec: dict, runs: Dict[str, Dict[str, List[dict]]]) -> Tuple[int, List[str]]:
    """Exit status and report lines for ``runs[workload][side]`` payloads.

    ``side`` is ``"parent"`` or ``"change"``; ``spec`` is the parsed
    ``BENCHMARK.json``.
    """
    lines: List[str] = []
    failed = False
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        wrong = sum(not run["correct"] for run in change)
        if wrong:
            failed = True
            lines.append(f"FAIL {workload}: {wrong} of {len(change)} change runs "
                         "printed correct: false")
        share = _failed_share(change)
        if share > _failed_share(parent):
            failed = True
            lines.append(f"FAIL {workload}: failed share {share:.4g} "
                         f"> parent {_failed_share(parent):.4g}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before, after = _values(parent, name), _values(change, name)
            if len(before) < 2 or not after:
                lines.append(f"unresolved {workload} {name}: too few runs")
                continue
            sign = -1 if metric["better"] == "higher" else 1
            base, new = statistics.median(before), statistics.median(after)
            q1, _, q3 = statistics.quantiles(before, n=4)
            spread = (q3 - q1) / base
            worse = sign * (new - base) / base
            status = "ok"
            if worse > bound and spread <= bound:
                status, failed = "WORSE", True
            elif spread > bound and max(sign * v for v in after) >= min(sign * v for v in before):
                status = "unresolved"  # too noisy, unless every change run is better
            lines.append(
                f"{status} {workload} {name}: parent {base:.4g} "
                f"change {new:.4g} {metric['unit']} "
                f"({worse:+.1%} worse, bound {bound:.0%}, "
                f"parent spread {spread:.1%})")
    return int(failed), lines


def main(argv: List[str]) -> int:
    """Run the A/B pairs, print the verdict, return the exit status."""
    if len(argv) != 2:
        print("usage: python3 tools/perf_ab.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent_tree, change_tree = (os.path.abspath(tree) for tree in argv)
    try:
        with open(os.path.join(parent_tree, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perf_ab: cannot read the parent's BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(change_tree, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    trees = {"parent": parent_tree, "change": change_tree}
    runs: Dict[str, Dict[str, List[dict]]] = {}
    with open(os.path.join(out_dir, "perf_ab.jsonl"), "w", encoding="utf-8") as log:
        for workload in (entry["name"] for entry in spec["workloads"]):
            runs[workload] = {"parent": [], "change": []}
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], spec["command"], workload,
                                      spec["run_seconds"])
                    runs[workload][side].append(result)
                    record = {"workload": workload, "pair": pair, "side": side, **result}
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    wall = result["metrics"].get("wall_s", {}).get("value", math.nan)
                    print(f"[perf_ab] {workload} pair {pair + 1}/{PAIRS} {side}: "
                          f"wall_s {wall:.4g} correct {result['correct']}",
                          file=sys.stderr, flush=True)
    status, lines = verdict(spec, runs)
    print("\n".join(lines))
    print("perf_ab: " + ("FAIL" if status else "ok"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
