"""Benchmark of figure runs: cold and warm, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced iterations;
``--trace 1`` runs untraced iterations for half the time, then traced
ones with the layer wrappers of ``layers.py`` installed, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
list every metric by name, value and unit.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_accesses_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: repro.common.rng.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["REPRO_ENGINE"] = "vector"
    sys.path[:0] = [SRC, HERE]

    import layers
    import suite
    from repro.common.rng import DEFAULT_SEED
    from repro.exec import configure

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    expected = pinned["digests"][args.workload] if seed == pinned["seed"] else None

    configure(jobs=suite.WORKERS, use_cache=True)
    work_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    workload = suite.WORKLOADS[args.workload](seed, work_dir)
    tally = suite.Tally()
    try:
        setups = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            t0 = time.perf_counter()
            workload.setup(SRC)
            setups.append(time.perf_counter() - t0)

        if args.trace:
            untraced, _ = suite.run_iterations(
                workload, args.seconds / 2, tally, expected)
            recorder = layers.install()
            try:
                traced, last = suite.run_iterations(
                    workload, args.seconds / 2, tally, expected, recorder)
            finally:
                layers.uninstall()
            metrics = layers.layer_metrics(recorder, len(traced))
            metrics["trace.overhead_frac"] = (
                statistics.median(s[0] for s in traced)
                / statistics.median(s[0] for s in untraced) - 1.0)
            os.makedirs(OUT_DIR, exist_ok=True)
            layers.write_spans(recorder, os.path.join(
                OUT_DIR, f"{args.workload}-trace.jsonl"))
            units = {name: layers.unit_of(name) for name in metrics}
        else:
            samples, last = suite.run_iterations(
                workload, args.seconds, tally, expected)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(s[0] for s in samples),
                "sim_accesses_per_s": statistics.median(s[2] / s[0] for s in samples),
                "cpu_s": statistics.median(s[1] for s in samples),
                "peak_rss_mb": _peak_rss_mb(),
            }
            units = END_TO_END_UNITS

        if args.trace and args.workload == "figs-warm":
            lookups = len(last)
            problems = []
            if metrics["exec.jobs_computed"]:
                problems.append("warm pass computed jobs")
            if metrics["store.get_calls"] != lookups:
                problems.append(f"store gets {metrics['store.get_calls']} "
                                f"!= lookups {lookups}")
            tally.add(1, min(1, len(problems)), problems)
        if expected is None:
            check = workload.check_jobs()
            problems = suite.scalar_mismatches(check, dict(last))
            tally.add(len(check), len(problems), problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'error_rate':28s} {error_rate:.6g} ratio "
          f"({tally.failed} of {tally.attempted} job resolutions)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
