"""The benchmark's workloads: inputs, one timed iteration, output checks.

Every workload drives the program through its public API only —
``repro.experiments.harness.multicore_comparison`` and
``repro.exec.run_jobs`` — and receives the seed only through the job /
harness ``seed`` argument.  Each timed iteration reports the jobs it
resolved (unique per scheduler batch) and a canonical output whose
SHA-256 is pinned in ``expected.json`` for the default seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import repro.experiments.harness as harness
from repro.exec import Scheduler, SimJob, execute_job, run_jobs
from repro.exec.validate import validate_result
from repro.sim.engine import SimResult
from repro.workloads.mixes import mix_names

#: Pool workers of every scheduler batch.
WORKERS = 2

#: The figure grids the warm workload re-requests: (cores, policies).
WARM_GRIDS = (
    (2, ("lru", "nucache")),                           # fig5
    (4, ("lru", "nucache")),                           # fig6
    (8, ("lru", "nucache")),                           # fig7
    (4, ("lru", "tadip", "pipp", "ucp", "nucache")),   # fig8
)

Resolved = List[Tuple[SimJob, Optional[SimResult]]]


def digest(output: object) -> str:
    """SHA-256 of the canonical JSON of ``output``."""
    canon = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _BatchCapture:
    """Records every batch the harness resolves (job, result) pairs for."""

    def __init__(self) -> None:
        self.batches: List[Resolved] = []
        self._original = harness.run_jobs

    def __enter__(self) -> "_BatchCapture":
        def capturing_run_jobs(batch, label=None):
            results = self._original(batch, label=label)
            self.batches.append(list(zip(batch, results)))
            return results

        harness.run_jobs = capturing_run_jobs
        return self

    def __exit__(self, *exc_info) -> None:
        harness.run_jobs = self._original


def unique(batches: Sequence[Resolved]) -> Resolved:
    """The jobs each batch looked up: duplicates within a batch once."""
    resolved: Resolved = []
    for batch in batches:
        resolved.extend(dict(batch).items())
    return resolved


class Workload:
    """One named workload; subclasses fill in the grid it runs."""

    name = ""
    why = ""
    #: Accesses per core of every job.
    accesses = 0

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._stores = 0

    # -- store directories ------------------------------------------------

    def fresh_store(self) -> str:
        """Point the program's result store at a new empty directory."""
        self._stores += 1
        path = os.path.join(self.work_dir, f"store-{self._stores}")
        os.makedirs(path)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    @staticmethod
    def drop_store(path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)

    # -- set-up -------------------------------------------------------------

    def setup(self, src_dir: str) -> None:
        """Import the program in a fresh interpreter and build the inputs."""
        env = dict(os.environ, PYTHONPATH=src_dir)
        subprocess.run(
            [sys.executable, "-c", "import repro.exec, repro.experiments.harness"],
            env=env, check=True,
        )
        self.build_inputs()

    def build_inputs(self) -> None:
        """Construct the job specs (and, when warm, fill the store)."""

    # -- timed iteration ----------------------------------------------------

    def before_iteration(self) -> None:
        """Untimed preparation of one iteration."""

    def after_iteration(self) -> None:
        """Untimed clean-up of one iteration."""

    def iterate(self) -> Tuple[Resolved, object]:
        """One timed iteration: (resolved jobs, canonical output)."""
        raise NotImplementedError

    # -- reference check on other seeds --------------------------------------

    def check_jobs(self) -> List[SimJob]:
        """One job per policy to re-run on the scalar engine."""
        raise NotImplementedError


class _Cold(Workload):
    """A workload whose every iteration starts from an empty store."""

    def before_iteration(self) -> None:
        self._store = self.fresh_store()

    def after_iteration(self) -> None:
        self.drop_store(self._store)


class Fig5Cold(_Cold):
    """The fig5 grid against a fresh store."""

    name = "fig5-cold"
    why = ("the paper's headline dual-core grid computed cold; NUcache jobs "
           "take the hybrid engine path, LRU and alone jobs the vector path")
    accesses = 120_000
    policies = ("lru", "nucache")

    def iterate(self) -> Tuple[Resolved, object]:
        with _BatchCapture() as capture:
            rows = harness.multicore_comparison(
                2, self.policies, self.accesses, self.seed)
        return unique(capture.batches), rows

    def check_jobs(self) -> List[SimJob]:
        return [SimJob.mix(mix_names(2)[0], policy, self.accesses, self.seed)
                for policy in self.policies]


class Zoo8BandwidthCold(_Cold):
    """Eight-core policy zoo on the bandwidth-limited memory model."""

    name = "zoo8-bw-cold"
    why = ("eight-core UCP/PIPP/SHiP/DRRIP jobs on bandwidth-limited memory, "
           "computed cold; all hybrid, none through repro.nucache")
    accesses = 25_000
    policies = ("ucp", "pipp", "ship", "drrip")

    def build_inputs(self) -> None:
        self.batch = [
            SimJob.mix(mix, policy, self.accesses, self.seed,
                       memory_model="bandwidth")
            for mix in mix_names(8)
            for policy in self.policies
        ]

    def iterate(self) -> Tuple[Resolved, object]:
        results = run_jobs(self.batch, label=self.name)
        resolved = list(zip(self.batch, results))
        return resolved, [
            None if result is None else result.to_dict() for result in results
        ]

    def check_jobs(self) -> List[SimJob]:
        return [job for job in self.batch if job.members == self.batch[0].members]


class FigsWarm(Workload):
    """Figs 5-8 re-requested from a store that already holds them all."""

    name = "figs-warm"
    why = ("figs 5-8 re-requested from a filled store: store gets, codec, "
           "validation, scheduler and harness work, no simulation")
    accesses = 2_000

    def build_inputs(self) -> None:
        previous = getattr(self, "_store", None)
        self._store = self.fresh_store()
        for cores, policies in WARM_GRIDS:
            harness.multicore_comparison(cores, policies, self.accesses, self.seed)
        if previous is not None:
            self.drop_store(previous)

    def iterate(self) -> Tuple[Resolved, object]:
        with _BatchCapture() as capture:
            outputs = [
                harness.multicore_comparison(
                    cores, policies, self.accesses, self.seed)
                for cores, policies in WARM_GRIDS
            ]
        return unique(capture.batches), outputs

    def check_jobs(self) -> List[SimJob]:
        cores, policies = WARM_GRIDS[-1]
        return [SimJob.mix(mix_names(cores)[0], policy, self.accesses, self.seed)
                for policy in policies]


WORKLOADS = {cls.name: cls for cls in (Fig5Cold, Zoo8BandwidthCold, FigsWarm)}


def invalid_results(resolved: Resolved) -> List[str]:
    """Jobs whose result is missing or fails ``validate_result``."""
    bad = []
    for job, result in resolved:
        if result is None:
            bad.append(f"{job.describe()}: no result")
            continue
        violations = validate_result(result, job)
        if violations:
            bad.append(f"{job.describe()}: {'; '.join(violations[:3])}")
    return bad


def scalar_mismatches(
    jobs: Sequence[SimJob], vector_results: Dict[SimJob, Optional[SimResult]]
) -> List[str]:
    """Re-run ``jobs`` on the scalar engine; differences from the vector run."""
    os.environ["REPRO_ENGINE"] = "scalar"
    try:
        scheduler = Scheduler(jobs=WORKERS, store=None, strict=False,
                              execute=execute_job)
        reference = scheduler.run(list(jobs))
    finally:
        os.environ["REPRO_ENGINE"] = "vector"
    problems = []
    for job, expected in zip(jobs, reference):
        got = vector_results.get(job)
        if expected is None or got is None:
            problems.append(f"{job.describe()}: no result to compare")
        elif got.to_dict() != expected.to_dict():
            problems.append(f"{job.describe()}: vector result differs from scalar")
    return problems


def _cpu_seconds() -> float:
    """CPU seconds of this process plus every reaped child (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tally:
    """Job resolutions attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        for problem in list(problems)[:5]:
            print(f"perfbench: error: {problem}", file=sys.stderr)


def run_iterations(workload, budget, tally, expected, recorder=None):
    """Timed iterations until ``budget`` seconds of them have run (at least one).

    Returns per-iteration (wall seconds, cpu seconds, simulated accesses
    resolved) and the (job, result) pairs the last iteration looked up.
    """
    samples = []
    last = []
    spent = 0.0
    while not samples or spent < budget:
        workload.before_iteration()
        root = recorder.open("bench.iteration") if recorder else None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            resolved, output = workload.iterate()
        except Exception:  # noqa: BLE001 — a failed run is reported, not raised
            if root is not None:
                recorder.close(root)
            traceback.print_exc(file=sys.stderr)
            tally.add(1, 1)
            workload.after_iteration()
            break
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        if root is not None:
            recorder.close(root)
        workload.after_iteration()
        spent += wall
        problems = invalid_results(resolved)
        failed = len(problems)
        if expected is not None and digest(output) != expected:
            # A wrong figure fails every job resolution behind it.
            problems.append(f"{workload.name} output digest "
                            f"{digest(output)} != expected {expected}")
            failed = len(resolved)
        tally.add(len(resolved), failed, problems)
        accesses = sum(len(job.members) * job.accesses for job, _ in resolved)
        samples.append((wall, cpu, accesses))
        last = resolved
    print(f"perfbench: {workload.name}: {len(samples)} iterations, wall "
          + " ".join(f"{sample[0]:.4f}" for sample in samples[:8]),
          file=sys.stderr)
    return samples, last
