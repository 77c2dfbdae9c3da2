"""Layer boundary timing for traced benchmark runs.

The program is not changed: :func:`install` replaces public functions
and methods of each layer with timing wrappers (module attributes,
class attributes, and per-instance attributes of the shared LLC), and
:func:`uninstall` puts the originals back.

Two kinds of record are kept, both in memory:

* **Spans** at job granularity and coarser: the benchmark iteration,
  ``multicore_comparison``, ``Scheduler.run``, ``execute_job`` and its
  children (trace generation, engine construction and run), store
  get/put/lease, the entry codec and result validation.  A span is
  ``[id, parent, name, start, end, job, agg]``; ids are unique across
  processes and the job id is the first 12 hex digits of the job key.
* **Aggregate timers** (call count and seconds) for per-access and
  per-call boundaries too hot for spans: ``NUCache.access``, the
  controller's ``rotate``, UCP/PIPP ``access``/``repartition``, the
  LRU ``SetAssociativeCache.access`` when it is the shared LLC,
  ``lru_batch`` and ``SimJob.key``.  Outermost timer time is also
  charged to the innermost open span (its ``agg`` dict), so span self
  time excludes it.

Pool workers are forked from the parent while ``Scheduler.run`` is open,
so they inherit the wrappers and the open span stack.  A worker ships
the spans and timers of each job back attached to the job's result
object; the ``Scheduler.run`` wrapper merges them into the parent's
record.  All clocks are ``time.perf_counter`` (system-wide monotonic on
Linux), so spans of different processes share one time base.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional

import repro.exec.context as exec_context
import repro.exec.scheduler as exec_scheduler
import repro.exec.stores.base as stores_base
import repro.exec.stores.fs as stores_fs
import repro.experiments.harness as harness
import repro.sim.runner as sim_runner
import repro.sim.vector as sim_vector
from repro.cache.cache import SetAssociativeCache
from repro.exec.job import SimJob, execute_job
from repro.exec.scheduler import Scheduler
from repro.exec.stores.fs import FileResultStore
from repro.nucache.organization import NUCache
from repro.partition.pipp import PIPPCache
from repro.partition.ucp import UCPCache

_clock = time.perf_counter
_ORIGINAL_KEY = SimJob.key

#: Attribute under which a pool worker attaches a job's trace record.
_PAYLOAD_ATTR = "_perfbench_trace"

# Span record fields.
ID, PARENT, NAME, START, END, JOB, AGG = range(7)

#: Layer (module) of every span name; ``None`` is the benchmark itself.
SPAN_LAYER = {
    "bench.iteration": None,
    "experiments.multicore_comparison": "experiments",
    "exec.Scheduler.run": "exec",
    "exec.execute_job": "exec",
    "exec.validate": "exec",
    "store.get": "stores",
    "store.put": "stores",
    "store.lease": "stores",
    "codec.encode": "stores",
    "codec.decode": "stores",
    "workloads.generate_trace": "workloads",
    "sim.make_engine": "sim",
    "sim.engine_run": "sim",
}

#: Layer of every aggregate timer.
AGG_LAYER = {
    "sim.lru_batch": "sim",
    "nucache.access": "nucache",
    "nucache.rotate": "nucache",
    "partition.access": "partition",
    "partition.repartition": "partition",
    "cache.llc_access": "cache",
    "exec.key": "exec",
}

LAYERS = ("experiments", "exec", "stores", "workloads", "sim", "nucache",
          "partition", "cache")


class Recorder:
    """Spans, aggregate timers and counts of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.timers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.job_ids: Dict[SimJob, str] = {}
        #: Pool size of the scheduler batches seen.
        self.workers = 1
        self._depth = 0
        self._serial = 0

    def job_id(self, job: SimJob) -> str:
        """Short content key of ``job`` (memoized, untimed)."""
        ident = self.job_ids.get(job)
        if ident is None:
            ident = self.job_ids[job] = _ORIGINAL_KEY(job)[:12]
        return ident

    def open(self, name: str, job: Optional[str] = None) -> list:
        """Start a span as a child of the innermost open one."""
        self._serial += 1
        parent = self.stack[-1][ID] if self.stack else None
        span = [(os.getpid() << 32) | self._serial, parent, name, _clock(), 0.0,
                job, None]
        self.stack.append(span)
        return span

    def close(self, span: list) -> None:
        """End ``span`` (the innermost open one)."""
        span[END] = _clock()
        self.stack.pop()
        self.spans.append(span)

    def add_time(self, name: str, elapsed: float) -> None:
        """Account one call of an aggregate timer."""
        entry = self.timers.get(name)
        if entry is None:
            entry = self.timers[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        if self._depth == 0 and self.stack:
            agg = self.stack[-1][AGG]
            if agg is None:
                agg = self.stack[-1][AGG] = {}
            agg[name] = agg.get(name, 0.0) + elapsed

    def start_worker_job(self) -> None:
        """In a forked worker: drop what the parent had recorded."""
        self.spans = []
        self.timers = {}
        self.counts = defaultdict(float)

    def export(self) -> dict:
        """This process's record, for shipping to the parent."""
        return {"spans": self.spans, "timers": self.timers,
                "counts": dict(self.counts)}

    def merge(self, payload: dict) -> None:
        """Fold a worker's record into this one."""
        self.spans.extend(payload["spans"])
        for name, (calls, seconds) in payload["timers"].items():
            entry = self.timers.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, value in payload["counts"].items():
            self.counts[name] += value


#: The active recorder while wrappers are installed.
RECORDER: Optional[Recorder] = None

_saved: List[tuple] = []


def _patch(owner: object, name: str, value: object) -> None:
    _saved.append((owner, name, getattr(owner, name)))
    setattr(owner, name, value)


def _aggregate(name: str, fn):
    """Wrap ``fn`` in an aggregate timer (no span)."""
    def timed(*args, **kwargs):
        rec = RECORDER
        rec._depth += 1
        started = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _clock() - started
            rec._depth -= 1
            rec.add_time(name, elapsed)
    return timed


def _spanned(name: str, fn, job_arg: Optional[int] = None):
    """Wrap ``fn`` in a span; ``job_arg`` indexes the SimJob argument."""
    def timed(*args, **kwargs):
        rec = RECORDER
        job = rec.job_id(args[job_arg]) if job_arg is not None else None
        span = rec.open(name, job)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return timed


def traced_execute_job(job: SimJob):
    """``execute_job`` in a span; in a worker, ship the record back."""
    rec = RECORDER
    worker = os.getpid() != rec.pid
    if worker:
        rec.start_worker_job()
    span = rec.open("exec.execute_job", rec.job_id(job))
    try:
        result = execute_job(job)
    finally:
        rec.close(span)
    for core in result.cores:
        rec.counts["sim.llc_accesses"] += core.llc_accesses
        rec.counts["sim.llc_misses"] += core.llc_misses
    if worker:
        setattr(result, _PAYLOAD_ATTR, rec.export())
    return result


def _instrument_llc(llc) -> None:
    """Per-instance timers on the shared LLC's access boundaries."""
    if isinstance(llc, NUCache):
        llc.access = _aggregate("nucache.access", llc.access)
        llc.controller.rotate = _aggregate("nucache.rotate", llc.controller.rotate)
    elif isinstance(llc, (UCPCache, PIPPCache)):
        llc.access = _aggregate("partition.access", llc.access)
        llc.repartition = _aggregate("partition.repartition", llc.repartition)
    elif isinstance(llc, SetAssociativeCache):
        llc.access = _aggregate("cache.llc_access", llc.access)


def _traced_make_engine(original):
    def make_engine(*args, **kwargs):
        rec = RECORDER
        span = rec.open("sim.make_engine")
        try:
            engine = original(*args, **kwargs)
        finally:
            rec.close(span)
        llc = engine.llc
        _instrument_llc(llc)
        run = engine.run

        def traced_run(*run_args, **run_kwargs):
            span = rec.open("sim.engine_run")
            try:
                result = run(*run_args, **run_kwargs)
            finally:
                rec.close(span)
            if isinstance(engine, sim_vector.VectorEngine):
                reason = engine.fallback_reason
                path = "vector" if reason is None else reason.split(":")[0]
            else:
                path = "scalar"
            rec.counts[f"sim.jobs_{path}"] += 1
            if isinstance(llc, NUCache):
                rec.counts["nucache.deli_hits"] += llc.deli_hits
                rec.counts["nucache.retentions"] += llc.retentions
            return result

        engine.run = traced_run
        return engine
    return make_engine


def _traced_generate_trace(original):
    def generate_trace(*args, **kwargs):
        rec = RECORDER
        span = rec.open("workloads.generate_trace")
        try:
            trace = original(*args, **kwargs)
        finally:
            rec.close(span)
        rec.counts["workloads.trace_accesses"] += len(trace)
        return trace
    return generate_trace


def _traced_scheduler_run(original):
    def run(self, batch):
        rec = RECORDER
        span = rec.open("exec.Scheduler.run")
        try:
            results = original(self, batch)
        finally:
            rec.close(span)
            for outcome in self.last_outcomes.values():
                rec.counts[f"exec.jobs_{outcome['status']}"] += 1
            if self.last_report is not None:
                rec.counts["exec.retries"] += self.last_report.retried
            rec.workers = self.jobs
        for result in results:
            payload = result.__dict__.pop(_PAYLOAD_ATTR, None) if result else None
            if payload is not None:
                rec.merge(payload)
        return results
    return run


def _traced_store_get(original):
    timed = _spanned("store.get", original, job_arg=1)

    def get(self, job):
        result = timed(self, job)
        RECORDER.counts["store.hits"] += result is not None
        return result
    return get


def _traced_codec(name: str, original, job_arg: int, encoding: bool):
    """Span an entry codec call and count stored vs logical bytes."""
    timed = _spanned(name, original, job_arg)

    def codec(*args, **kwargs):
        out = timed(*args, **kwargs)
        payload = out if encoding else args[0]
        if isinstance(payload, bytes):
            counts = RECORDER.counts
            counts["codec.stored_bytes"] += len(payload)
            counts["codec.logical_bytes"] += stores_base.entry_logical_size(payload)
        return out
    return codec


def install() -> Recorder:
    """Put the timing wrappers in place; returns the fresh recorder."""
    global RECORDER
    if _saved:
        raise RuntimeError("layer wrappers are already installed")
    RECORDER = Recorder()
    _patch(harness, "multicore_comparison",
           _spanned("experiments.multicore_comparison", harness.multicore_comparison))
    _patch(Scheduler, "run", _traced_scheduler_run(Scheduler.run))
    _patch(exec_context, "execute_job", traced_execute_job)
    _patch(SimJob, "key", _aggregate("exec.key", SimJob.key))
    for validate_owner in (exec_scheduler, stores_base):
        _patch(validate_owner, "validate_result",
               _spanned("exec.validate", validate_owner.validate_result, job_arg=1))
    _patch(FileResultStore, "get", _traced_store_get(FileResultStore.get))
    _patch(FileResultStore, "put", _spanned("store.put", FileResultStore.put))
    for lease_op in ("acquire_lease", "renew_lease", "release_lease"):
        _patch(FileResultStore, lease_op,
               _spanned("store.lease", getattr(FileResultStore, lease_op)))
    _patch(stores_fs, "encode_entry", _traced_codec(
        "codec.encode", stores_fs.encode_entry, job_arg=0, encoding=True))
    _patch(stores_fs, "decode_entry", _traced_codec(
        "codec.decode", stores_fs.decode_entry, job_arg=1, encoding=False))
    _patch(sim_runner, "generate_trace",
           _traced_generate_trace(sim_runner.generate_trace))
    _patch(sim_runner, "make_engine", _traced_make_engine(sim_runner.make_engine))
    _patch(sim_vector, "lru_batch", _aggregate("sim.lru_batch", sim_vector.lru_batch))
    return RECORDER


def uninstall() -> None:
    """Restore every wrapped function; the recorder stays readable."""
    while _saved:
        owner, name, original = _saved.pop()
        setattr(owner, name, original)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _union_length(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[list]) -> Dict[int, float]:
    """Per span: duration minus time covered by child spans and timers."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        uncovered = span[END] - span[START] - _union_length(
            children.get(span[ID], []), span[START], span[END])
        timed = sum(span[AGG].values()) if span[AGG] else 0.0
        result[span[ID]] = max(0.0, uncovered - timed)
    return result


def wall_shares(spans: List[list]) -> Dict[Optional[str], float]:
    """Split wall time among layers.

    At every instant the time goes in equal parts to the innermost spans
    open at that instant, in any process; a span's part is then divided
    between its own layer and the layers of the aggregate timers it
    contains, in proportion to their seconds.  The shares of all layers
    plus the ``None`` share (inside an iteration but outside every layer
    boundary) add up to the iterations' wall time.
    """
    by_id = {span[ID]: span for span in spans}
    events = []
    for span in spans:
        events.append((span[START], 1, span[ID]))
        events.append((span[END], 0, span[ID]))
    events.sort()
    open_children: Dict[int, int] = defaultdict(int)
    active = set()
    leaves = set()
    share: Dict[int, float] = defaultdict(float)
    previous = None
    for when, starting, span_id in events:
        if leaves and previous is not None and when > previous:
            part = (when - previous) / len(leaves)
            for leaf in leaves:
                share[leaf] += part
        previous = when
        parent = by_id[span_id][PARENT]
        tracked_parent = parent in by_id
        if starting:
            active.add(span_id)
            leaves.add(span_id)
            if tracked_parent:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if tracked_parent:
                open_children[parent] -= 1
                if open_children[parent] == 0 and parent in active:
                    leaves.add(parent)

    selfs = self_times(spans)
    layers: Dict[Optional[str], float] = defaultdict(float)
    for span_id, part in share.items():
        span = by_id[span_id]
        timers = span[AGG] or {}
        budget = selfs[span_id] + sum(timers.values())
        for name, seconds in timers.items():
            if budget > 0:
                layers[AGG_LAYER[name]] += part * seconds / budget
        own = part * selfs[span_id] / budget if budget > 0 else part
        layers[SPAN_LAYER[span[NAME]]] += own
    return layers


def _tail(values: List[float]) -> float:
    """Highest percentile with at least ten samples beyond it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1]
    return ordered[len(ordered) - 11]


def layer_metrics(rec: Recorder, iterations: int) -> Dict[str, float]:
    """Per-layer metrics, per traced iteration (ratios are not scaled)."""
    spans = rec.spans
    selfs = self_times(spans)
    duration: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    own: Dict[str, float] = defaultdict(float)
    job_durations = []
    busy_batches = 0.0
    for span in spans:
        name = span[NAME]
        length = span[END] - span[START]
        duration[name] += length
        calls[name] += 1
        own[name] += selfs[span[ID]]
        if name == "exec.execute_job":
            job_durations.append(length)
    job_parents = {span[PARENT] for span in spans if span[NAME] == "exec.execute_job"}
    for span in spans:
        if span[NAME] == "exec.Scheduler.run" and span[ID] in job_parents:
            busy_batches += span[END] - span[START]

    def timer(name: str) -> List[float]:
        return rec.timers.get(name, [0, 0.0])

    counts = rec.counts
    n = float(iterations)
    gets = calls["store.get"]
    logical = counts["codec.logical_bytes"]
    metrics = {
        "workloads.trace_s": duration["workloads.generate_trace"] / n,
        "workloads.traces": calls["workloads.generate_trace"] / n,
        "workloads.trace_accesses": counts["workloads.trace_accesses"] / n,
        "sim.engine_self_s": (own["sim.engine_run"] + own["sim.make_engine"]) / n,
        "sim.lru_batch_calls": timer("sim.lru_batch")[0] / n,
        "sim.lru_batch_s": timer("sim.lru_batch")[1] / n,
        "sim.jobs_vector": counts["sim.jobs_vector"] / n,
        "sim.jobs_hybrid": counts["sim.jobs_hybrid"] / n,
        "sim.jobs_scalar": counts["sim.jobs_scalar"] / n,
        "sim.llc_accesses": counts["sim.llc_accesses"] / n,
        "sim.llc_misses": counts["sim.llc_misses"] / n,
        "nucache.access_calls": timer("nucache.access")[0] / n,
        "nucache.access_s": timer("nucache.access")[1] / n,
        "nucache.epochs": timer("nucache.rotate")[0] / n,
        "nucache.rotate_s": timer("nucache.rotate")[1] / n,
        "nucache.deli_hits": counts["nucache.deli_hits"] / n,
        "nucache.retentions": counts["nucache.retentions"] / n,
        "partition.access_calls": timer("partition.access")[0] / n,
        "partition.access_s": timer("partition.access")[1] / n,
        "partition.repartitions": timer("partition.repartition")[0] / n,
        "partition.repartition_s": timer("partition.repartition")[1] / n,
        "cache.llc_access_calls": timer("cache.llc_access")[0] / n,
        "cache.llc_access_s": timer("cache.llc_access")[1] / n,
        "exec.batch_s": duration["exec.Scheduler.run"] / n,
        "exec.self_s": own["exec.Scheduler.run"] / n,
        "exec.jobs_computed": counts["exec.jobs_completed"] / n,
        "exec.jobs_cached": counts["exec.jobs_cached"] / n,
        "exec.jobs_failed": counts["exec.jobs_failed"] / n,
        "exec.retries": counts["exec.retries"] / n,
        "exec.job_s_p50": statistics.median(job_durations) if job_durations else 0.0,
        "exec.job_s_tail": _tail(job_durations),
        "exec.worker_busy_frac": (
            sum(job_durations) / (rec.workers * busy_batches) if busy_batches else 0.0
        ),
        "exec.key_calls": timer("exec.key")[0] / n,
        "exec.key_s": timer("exec.key")[1] / n,
        "store.get_calls": gets / n,
        "store.get_s": duration["store.get"] / n,
        "store.hit_ratio": counts["store.hits"] / gets if gets else 0.0,
        "store.put_calls": calls["store.put"] / n,
        "store.put_s": duration["store.put"] / n,
        "store.lease_s": duration["store.lease"] / n,
        "codec.encode_s": duration["codec.encode"] / n,
        "codec.decode_s": duration["codec.decode"] / n,
        "codec.bytes_ratio": counts["codec.stored_bytes"] / logical if logical else 0.0,
        "exec.validate_s": duration["exec.validate"] / n,
        "experiments.self_s": own["experiments.multicore_comparison"] / n,
    }
    shares = wall_shares(spans)
    for layer in LAYERS:
        metrics[f"share.{layer}_s"] = shares.get(layer, 0.0) / n
    metrics["trace.wall_s"] = duration["bench.iteration"] / n
    metrics["trace.unexplained_s"] = shares.get(None, 0.0) / n
    return metrics


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s_" in name:
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def write_spans(rec: Recorder, path: str) -> None:
    """Write every span as one JSON line (the end-of-run trace dump)."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(rec.spans, key=lambda item: item[START]):
            handle.write(json.dumps({
                "id": span[ID], "parent": span[PARENT], "name": span[NAME],
                "start": span[START], "end": span[END], "pid": span[ID] >> 32,
                "job": span[JOB], "timers": span[AGG] or {},
            }, sort_keys=True) + "\n")
