"""Shared machinery for the experiment drivers.

The multicore figures all follow the same recipe: run every mix of a
core count under a set of LLC policies, normalize each policy's weighted
speedup to the LRU baseline, and report per-mix rows plus a geometric
mean.  This module implements that recipe once.

The full (mix x policy) grid — including every alone-run denominator —
is built as one batch of :class:`~repro.exec.job.SimJob` specs and
submitted through the scheduler (:func:`repro.exec.run_jobs`): cache
hits come back from the persistent result store, misses fan out across
worker processes, and repeated alone runs are deduplicated inside the
batch.  Because every simulation is a pure function of its job spec,
the assembled rows are identical at any worker count or cache state.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.rng import DEFAULT_SEED
from repro.exec import SimJob, run_jobs
from repro.metrics.multicore import geometric_mean, weighted_speedup
from repro.sim.engine import SimResult
from repro.sim.runner import DEFAULT_ACCESSES
from repro.workloads.mixes import mix_names


def alone_ipc(
    benchmark_name: str,
    num_cores_capacity: int,
    accesses: int = DEFAULT_ACCESSES,
    seed: int = DEFAULT_SEED,
    policy: str = "lru",
) -> float:
    """Alone-run IPC (weighted-speedup denominator): one benchmark, whole LLC.

    A one-job batch through the scheduler, so the result comes from the
    store when present and degrades to computing when the store fails.
    """
    job = SimJob.alone(benchmark_name, num_cores_capacity, accesses, seed, policy)
    return run_jobs([job], label=f"alone:{benchmark_name}")[0].cores[0].ipc


def resolve_with_alone(
    mix_jobs: Sequence[SimJob], label: str
) -> List[Tuple[SimResult, List[float]]]:
    """Resolve mix jobs and their alone-run denominators as one batch.

    The batch is ``mix_jobs`` followed by one alone job (LRU on the full
    shared LLC) per member of each distinct workload, in first-seen
    order.  Returns, per mix job, its result and its members' alone IPCs.
    """
    workloads = list(dict.fromkeys((job.members, job.accesses, job.seed) for job in mix_jobs))
    alone_jobs = [
        SimJob.alone(name, len(members), accesses, seed)
        for members, accesses, seed in workloads
        for name in members
    ]
    results = run_jobs(list(mix_jobs) + alone_jobs, label=label)
    alone_ipcs = iter(result.cores[0].ipc for result in results[len(mix_jobs):])
    alone = {workload: [next(alone_ipcs) for _ in workload[0]] for workload in workloads}
    return [
        (result, alone[(job.members, job.accesses, job.seed)])
        for job, result in zip(mix_jobs, results)
    ]


def grid_weighted_speedups(
    mixes: Sequence[str],
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Dict[str, float]]:
    """Weighted speedups for every (mix, policy) pair of a grid.

    One scheduler batch resolves all mix runs plus the alone-IPC
    denominators (LRU on the full shared LLC — the standard convention,
    shared by every policy, which is what makes the headline "X% over
    baseline" comparable across policies).
    """
    mix_jobs = [
        SimJob.mix(mix_name, policy, accesses, seed)
        for mix_name in mixes
        for policy in policies
    ]
    label = f"speedup-grid:{len(mixes)}mixes x {len(policies)}policies"
    resolved = iter(resolve_with_alone(mix_jobs, label))
    speedups: Dict[str, Dict[str, float]] = {}
    for mix_name in mixes:
        speedups[mix_name] = {}
        for policy in policies:
            result, alone = next(resolved)
            speedups[mix_name][policy] = weighted_speedup(result.ipcs, alone)
    return speedups


def mix_weighted_speedups(
    mix_name: str,
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
) -> Dict[str, float]:
    """Weighted speedup of one mix under each policy."""
    return grid_weighted_speedups([mix_name], policies, accesses, seed)[mix_name]


def multicore_comparison(
    num_cores: int,
    policies: Sequence[str],
    accesses: int,
    seed: int = DEFAULT_SEED,
    baseline: str = "lru",
) -> List[Dict[str, object]]:
    """Per-mix weighted speedups for a core count, plus a gmean row.

    Each row carries the raw weighted speedup per policy and, for every
    non-baseline policy, a ``<policy>_vs_<baseline>`` relative
    improvement.  The final row holds geometric means over mixes.
    """
    if baseline not in policies:
        raise ValueError(f"baseline {baseline!r} must be among policies {policies}")
    mixes = mix_names(num_cores)
    grid = grid_weighted_speedups(mixes, policies, accesses, seed)
    rows: List[Dict[str, object]] = []
    per_policy: Dict[str, List[float]] = {policy: [] for policy in policies}
    for mix_name in mixes:
        speedups = grid[mix_name]
        row: Dict[str, object] = {"mix": mix_name}
        for policy in policies:
            row[f"ws_{policy}"] = round(speedups[policy], 4)
            per_policy[policy].append(speedups[policy])
        for policy in policies:
            if policy != baseline:
                row[f"{policy}_vs_{baseline}"] = round(
                    speedups[policy] / speedups[baseline] - 1.0, 4
                )
        rows.append(row)

    gmean_row: Dict[str, object] = {"mix": "gmean"}
    base_gmean = geometric_mean(per_policy[baseline])
    for policy in policies:
        policy_gmean = geometric_mean(per_policy[policy])
        gmean_row[f"ws_{policy}"] = round(policy_gmean, 4)
        if policy != baseline:
            gmean_row[f"{policy}_vs_{baseline}"] = round(
                policy_gmean / base_gmean - 1.0, 4
            )
    rows.append(gmean_row)
    return rows
