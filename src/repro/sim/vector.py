"""Vectorized (numpy batch) engine backend.

This module is the second full implementation of the simulation engine:
instead of stepping one access at a time through python objects
(:class:`~repro.sim.engine.MulticoreEngine`), it simulates whole traces
as numpy batches — set-index bucketing of the access stream,
array-resident tag/LRU-sequence/owner state per set, and per-round
scatter/gather updates.  On LRU and NUcache hierarchies it is several
times faster than the scalar engine while producing **byte-identical**
:class:`~repro.sim.engine.SimResult` payloads.

Selection
---------

The backend is chosen per run: ``make_engine(...)`` returns a
:class:`VectorEngine` when the resolved mode is ``"vector"`` and a plain
:class:`~repro.sim.engine.MulticoreEngine` otherwise.  The mode comes
from an explicit argument, the ``REPRO_ENGINE`` environment variable
(inherited by scheduler worker processes), or defaults to ``"vector"``;
``"scalar"`` selects the per-access reference loop.

Equivalence strategy (see ``docs/kernels.md`` for the full argument)
--------------------------------------------------------------------

* Trace addresses carry no timing feedback, so each core's private
  L1/L2 hit/miss masks are precomputable with the batch LRU kernel.
* For a single core, LLC accesses arrive in stream order regardless of
  latencies, so kernel passes over the stream resolve the LLC.
* For multiple cores over a plain-LRU or plain-NUcache LLC and
  fixed-latency memory, the interleaving at the LLC depends on
  per-access latencies which depend on LLC outcomes.
  :class:`VectorEngine` solves this a window at a time: guess outcomes,
  derive each access's schedule key, keep the accesses up to a horizon
  no later access can precede, sort, re-simulate, and repeat until the
  outcomes up to NUcache's epoch cut are stable; then commit that
  prefix and continue after it.  A stable prefix is *self-consistent*,
  and the only self-consistent prefix is the scalar engine's trajectory
  (induction over global key order), so a converged solve is provably
  byte-identical.  If a window does not converge the engine falls back
  to the hybrid path below — the LLC object is restored, so the
  fallback is clean.
* NUcache's MainWays are a plain LRU (every MainWay miss fills them),
  so :func:`lru_batch` resolves them with carried state; a DeliWay
  round kernel replays the MainWay misses, and each epoch's Next-Use
  profile is built from arrays and handed to the controller's own
  ``rotate``.
* Anything the batch kernels do not model — other LLC organizations
  (UCP, PIPP, RRIP, ``nucache-ucp``, ...), NUcache's LRU-DeliWay
  ablation, bandwidth-limited memory — runs on the *hybrid* path:
  private levels stay vectorized, and the surviving LLC accesses drive
  the real LLC object one at a time in the exact global order the
  scalar engine would produce.
* Features outside both paths (prefetchers, ``max_steps``, an active
  tracer or invariant checker) fall back to the scalar engine entirely;
  :attr:`VectorEngine.fallback_reason` records why.
"""

from __future__ import annotations

import heapq
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import (
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    LEVEL_MEMORY,
    LastLevelCache,
    SetAssociativeCache,
)
from repro.common.addr import log2_exact
from repro.common.config import SystemConfig
from repro.common.errors import SimulationError
from repro.nucache.controller import PCKey
from repro.nucache.nextuse import EpochProfile
from repro.nucache.organization import NUCache
from repro.prefetch.prefetchers import Prefetcher
from repro.sim.engine import CoreResult, MulticoreEngine, SimResult
from repro.sim.memory import FixedLatencyMemory
from repro.workloads.trace import Trace

#: Environment variable naming the engine backend for a run.
ENGINE_ENV = "REPRO_ENGINE"

#: Recognized engine backend names.
ENGINE_MODES = ("scalar", "vector")

#: Iteration cap of one window of the multicore fixed-point LLC solve.
#: Windows converge in a handful of iterations on every workload we
#: generate; the cap only bounds pathological feedback loops, which fall
#: back to the (still byte-identical) hybrid path.
MAX_FIXED_POINT_ITERATIONS = 30


def resolve_engine_mode(explicit: Optional[str] = None) -> str:
    """Resolve the engine backend name for a run.

    Args:
        explicit: mode requested programmatically (CLI flag); overrides
            the environment when not ``None``.

    Returns:
        One of :data:`ENGINE_MODES`.

    Raises:
        SimulationError: if the requested mode is unknown.
    """
    mode = explicit if explicit is not None else os.environ.get(ENGINE_ENV, "")
    mode = (mode or "vector").strip().lower()
    if mode not in ENGINE_MODES:
        raise SimulationError(
            f"unknown engine mode {mode!r}; use one of {ENGINE_MODES}"
        )
    return mode


def make_engine(
    traces: Sequence[Trace],
    llc: LastLevelCache,
    config: SystemConfig,
    memory: Optional[FixedLatencyMemory] = None,
    warmup_fraction: float = 0.0,
    prefetchers: Optional[Sequence[Optional[Prefetcher]]] = None,
    mode: Optional[str] = None,
) -> MulticoreEngine:
    """Build the engine backend selected by ``mode``/``REPRO_ENGINE``.

    Drop-in replacement for constructing
    :class:`~repro.sim.engine.MulticoreEngine` directly: the returned
    object has the same interface, and the vector backend guarantees
    byte-identical results (falling back internally where needed).
    """
    cls = VectorEngine if resolve_engine_mode(mode) == "vector" else MulticoreEngine
    return cls(
        traces, llc, config, memory,
        warmup_fraction=warmup_fraction, prefetchers=prefetchers,
    )


# ---------------------------------------------------------------------------
# Batch LRU kernel
# ---------------------------------------------------------------------------

#: Reusable scratch arrays keyed by (role, shape, dtype).  Kernel calls
#: of the same shape (every repetition of a bench case; the fixed-point
#: iterations of one run) reuse allocations instead of page-faulting
#: fresh ones.  Results returned to callers never alias pool memory.
_POOL: Dict[Tuple[str, object, str], np.ndarray] = {}


def clear_buffer_pool() -> None:
    """Drop the kernel's scratch-buffer pool (tests and memory hygiene)."""
    _POOL.clear()


def _buf(role: str, shape: object, dtype: object) -> np.ndarray:
    """Fetch (or allocate) a pooled scratch array. Contents undefined.

    A 1-D request is served as a view of a buffer whose length is
    rounded up to a power of two, so streams of many different lengths
    (the windows of one solve; the jobs of one worker) share a few
    allocations instead of pooling one per length.
    """
    if isinstance(shape, int):
        length = shape
        size = 1 << max(0, length - 1).bit_length()
        key: Tuple[str, object, str] = (role, size, str(dtype))
    else:
        length = -1
        key = (role, shape, str(dtype))
    buffer = _POOL.get(key)
    if buffer is None:
        buffer = np.empty(key[1], dtype=dtype)  # type: ignore[arg-type]
        _POOL[key] = buffer
    return buffer if length < 0 else buffer[:length]


class LRUCarry:
    """Resumable state of :func:`lru_batch` across calls.

    ``tags`` and ``ranks`` are ``[ways, num_lanes]`` arrays in natural
    lane order: the resident tag of every way (``-1`` when invalid) and
    its recency rank within the lane (``0`` is the LRU way; invalid
    ways rank below every valid one, in ascending way order, so they
    fill first and in the same order as a fresh set).  A call given a
    carry starts from this state and replaces both arrays with the
    state after the batch.  It also sets :attr:`fill_ways` (the way each
    access hit or filled) and :attr:`victims` (the valid tag a miss
    evicted, else ``-1``), aligned with the batch.
    """

    def __init__(self, tags: np.ndarray, ranks: np.ndarray) -> None:
        self.tags = tags
        self.ranks = ranks
        self.fill_ways = np.zeros(0, dtype=np.int64)
        self.victims = np.zeros(0, dtype=np.int64)

    @classmethod
    def empty(cls, ways: int, num_lanes: int) -> "LRUCarry":
        """The state of ``num_lanes`` empty ``ways``-way sets."""
        ranks = np.repeat(np.arange(ways, dtype=np.int64)[:, None], num_lanes, axis=1)
        return cls(np.full((ways, num_lanes), -1, dtype=np.int64), ranks)


def _round_layout(
    lanes: np.ndarray, num_lanes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int], List[int]]:
    """Round-major schedule of a lane-bucketed access batch.

    Columns are lanes ordered by descending bucket size, so round ``r``
    (the ``r``-th access of every lane) only touches the leading
    ``active[r]`` columns, a shrinking contiguous prefix.  Returns
    ``(lane_order, cols, pos, active, starts)``: the lane of each
    column, the column of each access, each access's position in the
    round-major order, and per round the active column count and the
    start of its segment.
    """
    n = int(lanes.shape[0])
    counts = np.bincount(lanes, minlength=num_lanes)
    rounds = int(counts.max())
    lane_order = np.argsort(-counts, kind="stable")
    small_lanes = num_lanes <= 32767
    col_of_lane = np.empty(num_lanes, dtype=np.int16 if small_lanes else np.int64)
    col_of_lane[lane_order] = np.arange(num_lanes, dtype=col_of_lane.dtype)
    cols = col_of_lane[lanes]
    # int16 keys take numpy's radix path — ~7x faster than int64 here.
    perm = np.argsort(cols, kind="stable")
    counts_sorted = counts[lane_order]
    col_starts = np.zeros(num_lanes, dtype=np.int64)
    np.cumsum(counts_sorted[:-1], out=col_starts[1:])
    hist = np.bincount(counts_sorted, minlength=rounds + 1)
    active = (num_lanes - np.cumsum(hist)[:rounds]).astype(np.int64)
    row_starts = np.zeros(rounds + 1, dtype=np.int64)
    np.cumsum(active, out=row_starts[1:])

    # Round-major position of each access, computed directly (no second
    # argsort): round r's segment holds active columns 0..a-1 in column
    # order, so an access with within-lane rank r in column c lands at
    # row_starts[r] + c.
    cols_sorted = cols[perm]
    rank = np.arange(n, dtype=np.int64)
    rank -= col_starts[cols_sorted]
    rm_pos = row_starts[rank]
    rm_pos += cols_sorted
    pos = _buf("pos", n, np.int64)
    pos[perm] = rm_pos
    return lane_order, cols, pos, active.tolist(), row_starts.tolist()


def lru_batch(
    lanes: np.ndarray,
    tags: np.ndarray,
    num_lanes: int,
    ways: int,
    cores: Optional[np.ndarray] = None,
    need_state: bool = False,
    carry: Optional[LRUCarry] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Simulate LRU set-associative caches over a whole access batch.

    Semantically equivalent to replaying ``(lanes[i], tags[i])`` in
    order through per-lane LRU sets of ``ways`` ways starting empty —
    exactly what :class:`~repro.cache.cache.SetAssociativeCache` with
    the plain LRU policy does — but executed as a *set-parallel round
    schedule*: accesses are bucketed by lane, and round ``r`` processes
    the ``r``-th access of every lane at once with array operations.
    Rounds are sequential (LRU state carries between them); lanes are
    independent, which is what makes each round vectorizable.

    State is held transposed as ``[ways, lanes]`` arrays of packed
    integers.  A tag cell packs ``tag << (wbits+1) | way`` so a single
    xor against the probe yields ``way`` on a match and a value ``>=
    2*wspan`` otherwise; a recency cell packs ``seq << (wbits+1) |
    wspan | way`` so a plain column ``min`` yields the LRU victim with
    its way index (and a discriminating bias bit) in the low bits.
    Column minima replace arg-reductions, which are an order of
    magnitude slower in numpy along either axis.  Cells use int32 when
    the packed values fit, halving memory traffic.

    Free ways are consumed in ascending order and a line's owner is set
    only when it is allocated, matching
    :meth:`repro.cache.set_.CacheSet` byte for byte (verified by the
    kernel equivalence tests).

    Args:
        lanes: int array of lane (set) indices, one per access, each in
            ``[0, num_lanes)``.
        tags: int array of tag values, one per access (non-negative).
        num_lanes: total number of independent LRU sets.
        ways: associativity of every set.
        cores: optional per-access owner ids; enables owner tracking
            (implies ``need_state``).
        need_state: also return the final valid mask (and owners when
            ``cores`` is given).
        carry: optional :class:`LRUCarry`; the batch starts from its
            state instead of empty sets, and the call stores the final
            state and the per-access fill ways and victims in it.

    Returns:
        ``(hits, valid, owners)`` — ``hits`` is a bool array aligned
        with the input; ``valid``/``owners`` are ``[num_lanes, ways]``
        arrays of the final state (``None`` when not requested).
    """
    n = int(lanes.shape[0])
    track = cores is not None
    need_state = need_state or track
    if n == 0:
        valid = np.zeros((num_lanes, ways), dtype=bool) if need_state else None
        owners = np.zeros((num_lanes, ways), dtype=np.int64) if track else None
        if carry is not None:
            carry.fill_ways = np.zeros(0, dtype=np.int64)
            carry.victims = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), valid, owners
    if ways <= 2 and not need_state and carry is None:
        return _lru_low_ways(lanes, tags, num_lanes, ways), None, None

    lane_order, _, pos, active_list, starts_list = _round_layout(lanes, num_lanes)
    rounds = len(active_list)
    wbits = max(1, int(ways - 1).bit_length())
    shift = wbits + 1
    wspan = 1 << wbits
    tag_max = int(tags.max())
    if carry is not None:
        tag_max = max(tag_max, int(carry.tags.max()))
    use32 = (max(tag_max + 2, rounds + ways + 1) << shift) < 2**31
    cell = np.int32 if use32 else np.int64
    sentinel = (1 << ((31 if use32 else 63) - shift)) - 1
    t = tags
    if tag_max >= sentinel:  # pragma: no cover - needs ~2^58 tag values
        if carry is not None:
            raise SimulationError("tags too wide to carry LRU state across batches")
        t = np.unique(tags, return_inverse=True)[1].astype(np.int64)

    probes = _buf("probes", n, cell)
    probes[pos] = (t.astype(np.int64) << np.int64(shift)).astype(cell, copy=False)
    cores_rm = None
    if track:
        cores_rm = _buf("cores", n, np.int64)
        cores_rm[pos] = cores

    lanes_n, ways_n = num_lanes, ways
    way_ids = np.arange(ways_n, dtype=cell)
    tag_state = _buf("T", (ways_n, lanes_n), cell)
    seq_state = _buf("Q", (ways_n, lanes_n), cell)
    if carry is None:
        tag_state[:] = way_ids[:, None]
        tag_state += cell(sentinel << shift)
        seq_state[:] = ((way_ids << cell(shift)) | cell(wspan) | way_ids)[:, None]
    else:
        carried = carry.tags[:, lane_order]
        carried[carried < 0] = sentinel
        tag_state[:] = (carried << np.int64(shift)) | way_ids[:, None]
        seq_state[:] = (carry.ranks[:, lane_order] << np.int64(shift)) | (
            wspan | way_ids[:, None]
        )
    tag_flat = tag_state.reshape(-1)
    seq_flat = seq_state.reshape(-1)
    owner_flat = None
    owner_state = None
    if track:
        owner_state = _buf("O", (ways_n, lanes_n), np.int64)
        owner_state[:] = 0
        owner_flat = owner_state.reshape(-1)
    ways_rm: Optional[np.ndarray] = None
    old_rm: Optional[np.ndarray] = None
    if carry is not None:
        ways_rm = np.empty(n, dtype=cell)
        old_rm = np.empty(n, dtype=cell)

    hits_rm = _buf("hits", n, bool)
    xor_scratch = _buf("D", (ways_n, lanes_n), cell)
    m_buf = _buf("m", lanes_n, cell)
    m2_buf = _buf("m2", lanes_n, cell)
    vw_buf = _buf("vw", lanes_n, cell)
    way_buf = _buf("way", lanes_n, cell)
    hit_buf = _buf("hit", lanes_n, bool)
    flat_buf = _buf("flat", lanes_n, np.int64)
    val_buf = _buf("val", lanes_n, cell)
    qv_buf = _buf("qv", lanes_n, cell)
    col_ids = np.arange(lanes_n, dtype=np.int64)
    wspan_c = cell(wspan)
    vmask_c = cell(2 * wspan - 1)
    wmask_c = cell(wspan - 1)
    for r in range(rounds):
        a = active_list[r]
        lo = starts_list[r]
        hi = lo + a
        probe = probes[lo:hi]
        diff = xor_scratch[:, :a]
        np.bitwise_xor(tag_state[:, :a], probe[None, :], out=diff)
        m = diff.min(axis=0, out=m_buf[:a])
        hit = np.less(m, wspan_c, out=hit_buf[:a])
        m2 = seq_state[:, :a].min(axis=0, out=m2_buf[:a])
        victim = np.bitwise_and(m2, vmask_c, out=vw_buf[:a])
        way = np.minimum(m, victim, out=way_buf[:a])
        np.bitwise_and(way, wmask_c, out=way)
        flat = np.multiply(way, lanes_n, out=flat_buf[:a], casting="unsafe")
        flat += col_ids[:a]
        if ways_rm is not None:
            ways_rm[lo:hi] = way
            old_rm[lo:hi] = tag_flat[flat]  # type: ignore[index]
        val = np.bitwise_or(probe, way, out=val_buf[:a])
        tag_flat[flat] = val
        qv = np.add(way, cell(((r + ways_n) << shift) | wspan), out=qv_buf[:a],
                    casting="unsafe")
        seq_flat[flat] = qv
        hits_rm[lo:hi] = hit
        if track:
            missed = np.nonzero(~hit)[0]
            owner_flat[flat[missed]] = cores_rm[lo + missed]  # type: ignore[index]
    hits = hits_rm[pos]
    valid = None
    owners = None
    if need_state:
        valid = np.empty((num_lanes, ways_n), dtype=bool)
        valid[lane_order] = ((tag_state >> cell(shift)) != cell(sentinel)).T
        if track:
            owners = np.empty((num_lanes, ways_n), dtype=np.int64)
            owners[lane_order] = owner_state.T  # type: ignore[union-attr]
    if carry is not None:
        resident = (tag_state >> cell(shift)).astype(np.int64)
        resident[resident == sentinel] = -1
        carry.tags = np.empty((ways_n, num_lanes), dtype=np.int64)
        carry.tags[:, lane_order] = resident
        carry.ranks = np.empty((ways_n, num_lanes), dtype=np.int64)
        carry.ranks[:, lane_order] = np.argsort(
            np.argsort(seq_state, axis=0, kind="stable"), axis=0, kind="stable"
        )
        carry.fill_ways = ways_rm[pos].astype(np.int64)  # type: ignore[index]
        victims = (old_rm[pos] >> cell(shift)).astype(np.int64)  # type: ignore[index]
        victims[hits | (victims == sentinel)] = -1
        carry.victims = victims
    return hits, valid, owners


def _lru_low_ways(
    lanes: np.ndarray, tags: np.ndarray, num_lanes: int, ways: int
) -> np.ndarray:
    """Closed-form hit masks for 1- and 2-way LRU sets (no round loop).

    A 1-way set hits exactly when the lane's previous access carried
    the same tag.  A 2-way LRU set's state after any access is always
    ``(current tag, most recent distinct tag)`` — regardless of the
    hit/miss outcome — so a hit is ``tag == previous tag`` or ``tag ==
    the tag just before the current run of equal tags``.  Both reduce
    to run-start bookkeeping over the lane-grouped stream: one stable
    argsort plus O(n) vector ops, which crushes the round-schedule
    kernel when a few hot lanes would otherwise force thousands of
    tiny rounds (the private L1s are exactly this shape).
    """
    small = num_lanes <= 32767
    perm = np.argsort(lanes.astype(np.int16) if small else lanes, kind="stable")
    lane_sorted = lanes[perm]
    tag_sorted = tags[perm]
    n = lanes.shape[0]
    same_lane = np.zeros(n, dtype=bool)
    np.equal(lane_sorted[1:], lane_sorted[:-1], out=same_lane[1:])
    same_tag = np.zeros(n, dtype=bool)
    np.equal(tag_sorted[1:], tag_sorted[:-1], out=same_tag[1:])
    mru_hit = same_lane & same_tag
    if ways == 1:
        hits_sorted = mru_hit
    else:
        idx = np.arange(n, dtype=np.int32)
        run_start = np.maximum.accumulate(np.where(mru_hit, np.int32(0), idx))
        seg_start = np.maximum.accumulate(np.where(same_lane, np.int32(0), idx))
        prev_run = np.zeros(n, dtype=np.int32)
        prev_run[1:] = run_start[:-1]
        has_second = same_lane & (prev_run > seg_start)
        lru_hit = has_second & (tag_sorted == tag_sorted[prev_run - 1])
        hits_sorted = mru_hit | lru_hit
    hits = np.empty(n, dtype=bool)
    hits[perm] = hits_sorted
    return hits


def _occupancy_from_state(
    valid: np.ndarray, owners: Optional[np.ndarray]
) -> Dict[int, int]:
    """Occupancy dict matching ``SetAssociativeCache.occupancy_by_core``.

    The scalar walk inserts keys in first-seen order over (set
    ascending, way ascending); ``np.unique`` plus an argsort of first
    occurrence indices reproduces that insertion order exactly.
    """
    if owners is None:
        count = int(valid.sum())
        return {0: count} if count else {}
    held = owners[valid]
    if held.size == 0:
        return {}
    uniq, first, counts = np.unique(held, return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return {int(uniq[i]): int(counts[i]) for i in order}


# ---------------------------------------------------------------------------
# LLC models for the windowed solve
# ---------------------------------------------------------------------------

#: LLC accesses per core in one window of the multicore solve of an LLC
#: with epochs (NUcache).  Epoch cuts must be found in global order, so
#: such an LLC is solved a window at a time; throughput is flat from
#: about 2k to 16k.  An LLC without epochs is solved in one window.
SOLVE_WINDOW = 4096

#: Tag value of an empty DeliWay slot (above any 57-bit block tag).
_DELI_EMPTY = (1 << 57) - 1


def _deli_bits(deli_ways: int) -> int:
    """Low bits of a DeliWay cell that hold its slot index."""
    return max(1, int(deli_ways - 1).bit_length())


def _empty_deli_state(
    main_ways: int, deli_ways: int, num_lanes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Empty ``(main_keys, deli_tags, deli_keys, deli_seqs)`` state."""
    dbits = _deli_bits(deli_ways)
    slots = np.arange(deli_ways, dtype=np.int64)[:, None]
    return (
        np.full((main_ways, num_lanes), -1, dtype=np.int64),
        np.repeat((_DELI_EMPTY << dbits) | slots, num_lanes, axis=1),
        np.full((deli_ways, num_lanes), -1, dtype=np.int64),
        np.repeat(slots, num_lanes, axis=1),
    )


def _deli_batch(
    lanes: np.ndarray,
    tags: np.ndarray,
    fill_ways: np.ndarray,
    victims: np.ndarray,
    keys: np.ndarray,
    times: np.ndarray,
    state: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    selected: np.ndarray,
    num_lanes: int,
) -> Tuple[np.ndarray, np.ndarray, int, int, Tuple[np.ndarray, ...]]:
    """Resolve NUcache's DeliWays over the MainWay misses of a batch.

    Every access that misses the MainWays fills them (a DeliWay hit is
    promoted), so the MainWays are a plain LRU whose outcomes, fill
    ways and victim tags :func:`lru_batch` has already produced.  This
    kernel replays only those misses, in order, with the same
    set-parallel round schedule.  Per lane it keeps the filler key of
    every MainWay and a DeliWay FIFO of ``(tag, filler key, retention
    seq)`` cells; ``seq`` cells pack ``(seq + 1) << dbits | slot`` (an
    empty slot is just ``slot``), so a column ``min`` yields a free slot
    when there is one and the oldest entry otherwise.  Per access, as in
    :meth:`repro.nucache.organization.NUCache.access`: look up and pop
    the accessed tag first, then retain the MainWay victim iff its
    filler key is ``selected``, evicting the oldest entry when full.

    Args:
        lanes, tags: set index and tag of each MainWay miss, in order.
        fill_ways, victims: the MainWay each miss fills and the valid
            tag it evicts (``-1`` for none), from :class:`LRUCarry`.
        keys: filler key of each access (index into ``selected``).
        times: strictly increasing retention sequence numbers.
        state: ``(main_keys, deli_tags, deli_keys, deli_seqs)``, each
            ``[ways, num_lanes]`` in natural lane order; not modified.
        selected: bool per filler key, with a trailing ``False`` that
            key ``-1`` (an invalid way) indexes.
        num_lanes: number of sets.

    Returns:
        ``(deli_hits, victim_keys, retained, evicted, state)``: per
        access whether the DeliWays hit and the filler key of its
        MainWay victim (``-1`` for none), the numbers of retentions and
        DeliWay evictions, and the state after the batch.
    """
    main_keys, deli_tags, deli_keys, deli_seqs = state
    deli_ways = deli_tags.shape[0]
    n = int(lanes.shape[0])
    if n == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64), 0, 0, state
    lane_order, cols, pos, active_list, starts_list = _round_layout(lanes, num_lanes)
    width = num_lanes
    # Flat views below need C order, which column gathers do not keep.
    main = np.ascontiguousarray(main_keys[:, lane_order])
    main_flat = main.reshape(-1)
    flat_rm = np.empty(n, dtype=np.int64)
    flat_rm[pos] = fill_ways * np.int64(width) + cols
    key_rm = np.empty(n, dtype=np.int64)
    key_rm[pos] = keys
    vkey_rm = np.empty(n, dtype=np.int64)
    hit_rm = np.zeros(n, dtype=bool)
    retained = evicted = 0
    dbits = _deli_bits(deli_ways)
    dspan = 1 << dbits
    empty_tag = _DELI_EMPTY << dbits
    dtag = np.ascontiguousarray(deli_tags[:, lane_order])
    dkey = np.ascontiguousarray(deli_keys[:, lane_order])
    dseq = np.ascontiguousarray(deli_seqs[:, lane_order])
    dtag_flat = dtag.reshape(-1)
    dkey_flat = dkey.reshape(-1)
    dseq_flat = dseq.reshape(-1)
    probe_rm = np.empty(n, dtype=np.int64)
    probe_rm[pos] = tags << np.int64(dbits)
    victim_rm = np.empty(n, dtype=np.int64)
    victim_rm[pos] = victims << np.int64(dbits)
    seq_rm = np.empty(n, dtype=np.int64)
    seq_rm[pos] = (times + 1) << np.int64(dbits)
    scratch = np.empty((deli_ways, width), dtype=np.int64)
    for r, a in enumerate(active_list):
        lo = starts_list[r]
        hi = lo + a
        flat = flat_rm[lo:hi]
        vkey = main_flat[flat]
        key = key_rm[lo:hi]
        if deli_ways:
            diff = np.bitwise_xor(dtag[:, :a], probe_rm[lo:hi], out=scratch[:, :a])
            found = diff.min(axis=0)
            hit_cols = np.flatnonzero(found < dspan)
            if hit_cols.size:
                slot = found[hit_cols]
                cell = slot * width + hit_cols
                key[hit_cols] = dkey_flat[cell]
                dtag_flat[cell] = slot + empty_tag
                dseq_flat[cell] = slot
                hit_rm[lo + hit_cols] = True
            keep_cols = np.flatnonzero(selected[vkey])
            if keep_cols.size:
                oldest = dseq[:, keep_cols].min(axis=0)
                slot = oldest & (dspan - 1)
                evicted += int(np.count_nonzero(oldest >= dspan))
                cell = slot * width + keep_cols
                rows = keep_cols + lo
                dtag_flat[cell] = victim_rm[rows] | slot
                dkey_flat[cell] = vkey[keep_cols]
                dseq_flat[cell] = seq_rm[rows] | slot
                retained += int(keep_cols.size)
        main_flat[flat] = key
        vkey_rm[lo:hi] = vkey
    new_state = tuple(
        _natural_order(part, lane_order) for part in (main, dtag, dkey, dseq)
    )
    return hit_rm[pos], vkey_rm[pos], retained, evicted, new_state


def _natural_order(columns: np.ndarray, lane_order: np.ndarray) -> np.ndarray:
    """Undo a round layout's column permutation of a ``[rows, lanes]`` array."""
    natural = np.empty_like(columns)
    natural[:, lane_order] = columns
    return natural


def _history_drops(reuse_at: np.ndarray, capacity: int) -> np.ndarray:
    """Which Next-Use history entries the FIFO capacity drops.

    Entry ``e`` is the ``e``-th candidate eviction of an epoch and
    ``reuse_at[e]`` the number of candidate evictions before its reuse
    pops it (the epoch's eviction count when it is never reused).  As
    in :meth:`repro.nucache.nextuse.NextUseProfiler.on_eviction`, each
    insertion that leaves more than ``capacity`` entries drops the
    oldest one still present.  Without drops, ``pending[k]`` entries
    would be present after insertion ``k``; dropped entries whose reuse
    is still ahead are the only difference, so the loop visits just the
    insertions where ``pending`` exceeds the capacity.
    """
    count = reuse_at.shape[0]
    dropped = np.zeros(count, dtype=bool)
    if count <= capacity:
        return dropped
    reused = np.bincount(reuse_at[reuse_at < count], minlength=count)
    pending = np.arange(1, count + 1, dtype=np.int64) - np.cumsum(reused)
    over = np.flatnonzero(pending > capacity)
    reuse_list = reuse_at.tolist()
    gone: List[int] = []  # reuse points of dropped entries still ahead
    oldest = 0
    drops: List[int] = []
    for k, present in zip(over.tolist(), pending[over].tolist()):
        while gone and gone[0] <= k:
            heapq.heappop(gone)
        if present - len(gone) > capacity:
            while reuse_list[oldest] <= k:
                oldest += 1
            drops.append(oldest)
            heapq.heappush(gone, reuse_list[oldest])
            oldest += 1
    dropped[drops] = True
    return dropped


class _StagedProfiler:
    """Stands in for the controller's profiler while a model drives it.

    :meth:`NUcacheController.rotate` asks its profiler for the epoch's
    profile and then opens the next epoch; the model builds the profile
    from arrays and stages it here first, so ``rotate`` itself runs
    unchanged.
    """

    def __init__(self) -> None:
        self.profile: Optional[EpochProfile] = None

    def finish_epoch(self) -> EpochProfile:
        assert self.profile is not None
        return self.profile

    def begin_epoch(self, num_slots: int) -> None:
        self.profile = None


def _keep_slots(table: Dict[PCKey, int]) -> None:
    """Slot remap callback: models look slots up from filler keys."""


class _LRUModel:
    """Plain-LRU LLC for the solver: one window, no epochs."""

    window: Optional[int] = None

    def __init__(self, lanes: np.ndarray, tags: np.ndarray, cores: np.ndarray,
                 num_sets: int, ways: int, ncores: int) -> None:
        self.lanes = lanes
        self.tags = tags
        self.cores = cores if ncores > 1 else None
        self.num_sets = num_sets
        self.ways = ways
        self._order = np.zeros(0, dtype=np.int64)
        self._committed: List[np.ndarray] = []
        self._valid: Optional[np.ndarray] = None
        self._owners: Optional[np.ndarray] = None

    def simulate(self, order: np.ndarray, exact: bool) -> Tuple[np.ndarray, Optional[int]]:
        """Hits of ``order``; an ``exact`` pass also keeps the final state."""
        self._order = order
        cores = None if self.cores is None or not exact else self.cores[order]
        hits, self._valid, self._owners = lru_batch(
            self.lanes[order], self.tags[order], self.num_sets, self.ways,
            cores=cores, need_state=exact,
        )
        return hits, None

    def commit(self, count: int, cut: bool) -> None:
        """Accept the first ``count`` accesses of the last pass."""
        self._committed.append(self._order[:count])

    def finish(self) -> Tuple[Dict[int, int], Dict[str, float]]:
        """Final occupancy (one owner-tracking pass unless already kept)."""
        if self._valid is None or len(self._committed) != 1:
            order = np.concatenate([np.zeros(0, dtype=np.int64)] + self._committed)
            _, self._valid, self._owners = lru_batch(
                self.lanes[order], self.tags[order], self.num_sets, self.ways,
                cores=None if self.cores is None else self.cores[order],
                need_state=True,
            )
        assert self._valid is not None
        return _occupancy_from_state(self._valid, self._owners), {}

    def abort(self) -> None:
        """Nothing to undo: the LLC object was never touched."""


class _NUcacheModel:
    """A plain FIFO-DeliWay :class:`NUCache`, resolved in numpy.

    Passes are exact for a given access order: the MainWays go through
    :func:`lru_batch` with carried state, the DeliWays through
    :func:`_deli_batch`, and :meth:`simulate` finds the access that
    closes the epoch.  :meth:`commit` accepts a prefix of the last pass,
    records what the epoch's Next-Use profile needs, and at an epoch cut
    builds that profile from arrays and calls the controller's own
    ``rotate``.  :meth:`finish` writes the scalar end values of the
    LLC's counters; :meth:`abort` puts the controller back as it was.
    """

    window: Optional[int] = SOLVE_WINDOW

    def __init__(self, llc: NUCache, blocks: np.ndarray, cores: np.ndarray,
                 pcs: np.ndarray) -> None:
        self.llc = llc
        num_sets = llc.geometry.num_sets
        self.num_sets = num_sets
        self.index_bits = num_sets.bit_length() - 1
        self.blocks = blocks
        self.lanes = blocks & np.int64(num_sets - 1)
        self.tags = blocks >> np.int64(self.index_bits)
        # Filler keys: one id per distinct (core, pc).
        pc_values, pc_rank = np.unique(pcs, return_inverse=True)
        num_pcs = max(1, len(pc_values))
        codes = cores.astype(np.int64) * np.int64(num_pcs) + pc_rank.reshape(-1)
        key_codes, keys = np.unique(codes, return_inverse=True)
        self.keys = keys.astype(np.int64).reshape(-1)
        key_cores = key_codes // num_pcs
        key_pcs = pc_values[key_codes % num_pcs]
        self.key_list: List[PCKey] = list(zip(key_cores.tolist(), key_pcs.tolist()))
        self.key_index = {key: i for i, key in enumerate(self.key_list)}
        self.key_cores = np.append(key_cores, 0).astype(np.int64)
        self.main = LRUCarry.empty(llc.main_ways, num_sets)
        self.state = _empty_deli_state(llc.main_ways, llc.deli_ways, num_sets)
        controller = llc.controller
        self._saved = dict(controller.__dict__)
        self._saved["profile_history"] = list(controller.profile_history)
        self._stage = _StagedProfiler()
        controller.profiler = self._stage  # type: ignore[assignment]
        profiler = self._saved["profiler"]
        self.capacity = profiler.history_capacity
        self.sample_period = profiler.sample_period
        self.sampled = np.arange(num_sets) % self.sample_period == 0
        self.clock = 0
        self.counts = [0, 0, 0]  # deli hits, retentions, deli evictions
        self.epoch_accesses = controller._accesses_this_epoch
        self.epoch_misses = controller._misses_this_epoch
        self.records: List[Tuple[np.ndarray, ...]] = []
        self._pass: tuple = ()
        self._load_tables()

    def _load_tables(self) -> None:
        """Slot and selection of every filler key in the current epoch."""
        controller = self.llc.controller
        slots = np.full(len(self.key_list) + 1, -1, dtype=np.int64)
        for key, slot in controller._slot_of.items():
            index = self.key_index.get(key)
            if index is not None:
                slots[index] = slot
        selected = np.zeros(len(self.key_list) + 1, dtype=bool)
        if self.llc.deli_ways and controller.selected_slots:
            selected[:-1] = np.isin(slots[:-1], list(controller.selected_slots))
        self.slots = slots
        self.selected = selected
        self.num_slots = len(controller._slot_keys)
        self.miss_target = controller._epoch_target
        self.access_target = controller._access_target

    def simulate(self, order: np.ndarray, exact: bool = True) -> Tuple[np.ndarray, Optional[int]]:
        """Hits of the accesses ``order`` and the index that ends the epoch."""
        lanes = self.lanes[order]
        tags = self.tags[order]
        carry = LRUCarry(self.main.tags, self.main.ranks)
        hits, _, _ = lru_batch(lanes, tags, self.num_sets, self.llc.main_ways, carry=carry)
        misses = np.flatnonzero(~hits)
        deli_hits, victim_keys, retained, evicted, state = _deli_batch(
            lanes[misses], tags[misses], carry.fill_ways[misses],
            carry.victims[misses], self.keys[order[misses]], misses + self.clock,
            self.state, self.selected, self.num_sets,
        )
        hits[misses] = deli_hits
        missed = np.cumsum(~hits)
        missed += self.epoch_misses
        cut = min(
            int(np.searchsorted(missed, self.miss_target)),
            self.access_target - self.epoch_accesses - 1,
        )
        self._pass = (order, hits, misses, carry, deli_hits, victim_keys,
                      retained, evicted, state)
        return hits, cut if cut < order.shape[0] else None

    def commit(self, count: int, cut: bool) -> None:
        """Accept the first ``count`` accesses of the last pass."""
        if count < self._pass[0].shape[0]:
            self.simulate(self._pass[0][:count])
        order, hits, misses, carry, deli_hits, victim_keys, retained, evicted, state = (
            self._pass
        )
        self.main = carry
        self.state = state
        self.counts[0] += int(np.count_nonzero(deli_hits))
        self.counts[1] += retained
        self.counts[2] += evicted
        lanes = self.lanes[order[misses]]
        sampled = self.sampled[lanes]
        slots = self.slots[victim_keys]
        evicting = sampled & (slots >= 0)
        times = misses + self.clock
        self.records.append((
            self.keys[order[~hits]],
            times[sampled],
            self.blocks[order[misses[sampled]]],
            times[evicting],
            (carry.victims[misses[evicting]] << np.int64(self.index_bits)) | lanes[evicting],
            slots[evicting],
        ))
        self.clock += count
        self.epoch_accesses += count
        self.epoch_misses += count - int(np.count_nonzero(hits))
        if cut:
            controller = self.llc.controller
            profile, controller._miss_counts = self._epoch_profile()
            self._stage.profile = profile
            controller.rotate(_keep_slots)
            self.records = []
            self.epoch_accesses = self.epoch_misses = 0
            self._load_tables()

    def _epoch_profile(self) -> Tuple[EpochProfile, Dict[PCKey, int]]:
        """The epoch's profile and per-key miss counts, in first-miss order."""
        miss_keys, probe_t, probe_b, evict_t, evict_b, evict_s = (
            np.concatenate([record[i] for record in self.records])
            if self.records else np.zeros(0, dtype=np.int64)
            for i in range(6)
        )
        num_slots = self.num_slots
        count = evict_t.shape[0]
        # Next probe of each evicted block: its next access, which must
        # miss the MainWays, so it is the next same-block record.
        reuse = np.full(count, -1, dtype=np.int64)
        if count and probe_t.shape[0]:
            blocks = np.concatenate((evict_b, probe_b))
            times = np.concatenate((evict_t, probe_t))
            order = np.lexsort((times, blocks))
            same = blocks[order[1:]] == blocks[order[:-1]]
            follows = np.flatnonzero(same & (order[:-1] < count))
            reuse[order[follows]] = times[order[follows + 1]]
        reuse_at = np.searchsorted(evict_t, reuse)
        reuse_at[reuse < 0] = count
        live = np.flatnonzero((reuse >= 0) & ~_history_drops(reuse_at, self.capacity))
        live = live[np.argsort(reuse[live])]
        if live.size:
            seen = np.zeros((count + 1, num_slots), dtype=np.int32)
            seen[np.arange(1, count + 1), evict_s] = 1
            np.cumsum(seen, axis=0, out=seen)
            deltas = (seen[reuse_at[live]] - seen[live + 1]).astype(np.int64)
        else:
            deltas = np.zeros((0, num_slots), dtype=np.int64)
        profile = EpochProfile.from_arrays(
            num_slots, evict_s[live], deltas,
            np.bincount(evict_s, minlength=num_slots).tolist(), self.sample_period,
        )
        return profile, self._miss_counts(miss_keys)

    def _miss_counts(self, miss_keys: np.ndarray) -> Dict[PCKey, int]:
        keys, first, counts = np.unique(miss_keys, return_index=True, return_counts=True)
        return {
            self.key_list[keys[i]]: int(counts[i])
            for i in np.argsort(first, kind="stable").tolist()
        }

    def finish(self) -> Tuple[Dict[int, int], Dict[str, float]]:
        """Write the LLC's end state; return occupancy and extra fields."""
        llc = self.llc
        controller = llc.controller
        profiler = self._saved["profiler"]
        controller.profiler = profiler
        profiler.begin_epoch(self.num_slots)
        controller._miss_counts = self._miss_counts(
            np.concatenate([record[0] for record in self.records])
            if self.records else np.zeros(0, dtype=np.int64)
        )
        controller._misses_this_epoch = self.epoch_misses
        controller._accesses_this_epoch = self.epoch_accesses
        llc.deli_hits += self.counts[0]
        llc.promotions += self.counts[0]
        llc.retentions += self.counts[1]
        llc.deli_evictions += self.counts[2]
        main_keys, deli_tags, deli_keys, deli_seqs = self.state
        fifo = np.argsort(deli_seqs, axis=0, kind="stable")
        dbits = _deli_bits(llc.deli_ways)
        valid = np.concatenate((
            self.main.tags >= 0,
            np.take_along_axis(deli_tags >> np.int64(dbits), fifo, 0) != _DELI_EMPTY,
        )).T
        owners = self.key_cores[np.concatenate((
            main_keys, np.take_along_axis(deli_keys, fifo, 0),
        ))].T
        extra = {"deli_hits": float(llc.deli_hits), "retentions": float(llc.retentions)}
        return _occupancy_from_state(valid, owners), extra

    def abort(self) -> None:
        """Restore the controller as it was before the model touched it."""
        controller = self.llc.controller
        controller.__dict__.clear()
        controller.__dict__.update(self._saved)


def nucache_stream(
    llc: NUCache, blocks: np.ndarray, cores: np.ndarray, pcs: np.ndarray
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Resolve an ordered LLC access stream through a fresh ``NUCache``.

    The ordered-stream kernel of the vector engine: equivalent to
    calling ``llc.access(block, core, pc, ...)`` once per access in
    order — same hits, epochs and counters — with the stream resolved
    in :data:`SOLVE_WINDOW`-access windows cut at epoch boundaries.

    Returns:
        ``(hits, occupancy)``: per-access LLC hits and the occupancy
        dict ``llc.occupancy_by_core()`` would report after the replay.
    """
    model = _NUcacheModel(llc, blocks, cores, pcs)
    total = int(blocks.shape[0])
    hits = np.zeros(total, dtype=bool)
    start = 0
    while start < total:
        order = np.arange(start, min(start + SOLVE_WINDOW, total), dtype=np.int64)
        window_hits, cut = model.simulate(order)
        count = order.shape[0] if cut is None else cut + 1
        hits[start:start + count] = window_hits[:count]
        model.commit(count, cut is not None)
        start += count
    return hits, model.finish()[0]


# ---------------------------------------------------------------------------
# Vector engine
# ---------------------------------------------------------------------------


class VectorEngine(MulticoreEngine):
    """Batch-simulating engine; byte-identical to the scalar engine.

    Construction is identical to
    :class:`~repro.sim.engine.MulticoreEngine` (same validation, same
    core models).  :meth:`run` simulates the private levels as numpy
    batches and resolves the shared LLC with the fastest applicable
    strategy, falling back to the scalar loop for features the batch
    paths do not model.  :attr:`fallback_reason` reports the path
    taken: ``None`` (fully vectorized), ``"hybrid:..."`` (vector
    private levels, scalar LLC object), or ``"scalar:..."`` (full
    scalar fallback).
    """

    #: Why (and how far) the engine fell back on the last run.
    fallback_reason: Optional[str] = None

    def run(self, max_steps: Optional[int] = None) -> SimResult:
        """Run to completion; see the scalar engine for the contract."""
        from repro.check.invariants import engine_checker
        from repro.obs.trace import active_tracer

        reason = None
        if max_steps is not None:
            reason = "scalar:max_steps"
        elif active_tracer() is not None:
            reason = "scalar:tracer"
        elif engine_checker(self.llc) is not None:
            reason = "scalar:checker"
        elif any(core.prefetcher is not None for core in self.cores):
            reason = "scalar:prefetchers"
        elif any(core.cursor or core.passes or core.clock for core in self.cores):
            reason = "scalar:resumed_cores"
        if reason is not None:
            self.fallback_reason = reason
            return super().run(max_steps)
        return self._run_batched()

    # -- private-level batch simulation ---------------------------------

    def _run_batched(self) -> SimResult:
        """Vectorize the private levels, then resolve the shared LLC."""
        config = self.config
        block_shift = log2_exact(config.block_bytes)
        blocks = [core.trace.addresses >> np.int64(block_shift) for core in self.cores]
        lengths = [arr.shape[0] for arr in blocks]
        all_blocks = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        core_of = np.repeat(np.arange(len(blocks), dtype=np.int64), lengths)

        l1_hits = self._private_level(all_blocks, core_of, config.l1)
        miss1 = np.nonzero(~l1_hits)[0]
        l2_hits_sub = self._private_level(
            all_blocks[miss1], core_of[miss1], config.l2
        )
        llc_idx = miss1[~l2_hits_sub]

        # Level codes per access: 0=l1, 1=l2, 3=memory; LLC hits flip
        # their entries to 2 once LLC outcomes are known.
        levels = np.zeros(all_blocks.shape[0], dtype=np.int8)
        levels[miss1] = 1
        levels[llc_idx] = 3

        bounds = np.concatenate(([0], np.cumsum(lengths)))
        model, reason = self._llc_model(all_blocks, core_of, llc_idx)
        if model is not None:
            hits = self._solve_llc(model, llc_idx, core_of[llc_idx], levels, bounds)
            if hits is not None:
                levels[llc_idx[hits]] = 2
                occupancy, extra = model.finish()
                self.fallback_reason = None
                return self._collect_from_levels(levels, bounds, occupancy, extra)
            model.abort()
            reason = "hybrid:fixed_point_not_converged"
        self.fallback_reason = reason
        return self._resolve_llc_hybrid(all_blocks, llc_idx, levels, bounds)

    def _private_level(
        self, blocks: np.ndarray, core_of: np.ndarray, geometry
    ) -> np.ndarray:
        """Hit mask of one private level for a (sub)stream of accesses.

        All cores share one kernel call: lane ``core * num_sets + set``
        keeps per-core caches independent while batching the rounds.
        """
        num_sets = geometry.num_sets
        index_bits = num_sets.bit_length() - 1
        lanes = core_of * np.int64(num_sets)
        lanes += blocks & np.int64(num_sets - 1)
        tags = blocks >> np.int64(index_bits)
        hits, _, _ = lru_batch(
            lanes, tags, len(self.cores) * num_sets, geometry.ways
        )
        return hits

    # -- LLC resolution: windowed solve ------------------------------------

    def _llc_model(self, all_blocks: np.ndarray, core_of: np.ndarray,
                   llc_idx: np.ndarray):
        """The batch model of this run's LLC, or ``None`` and the reason."""
        llc = self.llc
        plain_lru = type(llc) is SetAssociativeCache and llc._plain_lru
        if not plain_lru and type(llc) is not NUCache:
            return None, f"hybrid:llc_policy:{llc.name}"
        if type(self.memory) is not FixedLatencyMemory:
            return None, "hybrid:memory_model"
        sub_blocks = all_blocks[llc_idx]
        if plain_lru:
            geometry = self.config.llc
            return _LRUModel(
                sub_blocks & np.int64(geometry.num_sets - 1),
                sub_blocks >> np.int64(geometry.num_sets.bit_length() - 1),
                core_of[llc_idx], geometry.num_sets, geometry.ways, len(self.cores),
            ), None
        if llc.config.deli_replacement != "fifo":  # type: ignore[attr-defined]
            return None, "hybrid:deli_replacement:lru"
        pcs = np.concatenate([core.trace.pcs for core in self.cores])
        return _NUcacheModel(
            llc, sub_blocks, core_of[llc_idx], pcs[llc_idx]  # type: ignore[arg-type]
        ), None

    def _solve_llc(
        self,
        model,
        llc_idx: np.ndarray,
        sub_cores: np.ndarray,
        levels: np.ndarray,
        bounds: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Resolve the LLC accesses in the scalar engine's global order.

        The order at the LLC depends on latencies, which depend on LLC
        outcomes.  Each core's accesses are taken ``model.window`` at a
        time (all of them when ``None``).  Within a window the solve
        iterates a fixed point: guess outcomes, derive every access's
        schedule key, keep the accesses up to the *horizon* — the
        smallest last-window key of any core with accesses beyond its
        window — sort them, simulate, repeat until the outcomes up to
        the epoch cut (or the whole window) match the guess.  That
        self-consistent prefix is the scalar trajectory's next stretch
        (``docs/kernels.md`` has the argument); it is committed and the
        next window starts after it.  Returns per-access hits, or
        ``None`` when a window does not converge within
        :data:`MAX_FIXED_POINT_ITERATIONS` (the caller falls back).
        """
        config = self.config
        lat_llc = np.int64(config.latency.llc_hit)
        lat_mem = np.int64(config.latency.memory)
        ncores = len(self.cores)
        total = int(llc_idx.shape[0])
        # Schedule base: clock *before* the LLC access at core-stream
        # index p is p*gap + (private latencies of earlier accesses) +
        # (LLC latencies of earlier LLC accesses); only the last term
        # depends on outcomes, so everything else is precomputed here.
        parts = self._llc_schedule(levels, llc_idx, bounds)
        base = np.concatenate([core_base for _, core_base in parts])
        seg_lengths = [int(pos.shape[0]) for pos, _ in parts]
        seg_starts = np.concatenate(([0], np.cumsum(seg_lengths)))[:-1].tolist()
        # Unique, order-faithful sort keys: (sched, core, within-core
        # seq) packed into one int64.  sched strictly increases within a
        # core (every step advances the clock) so the seq term only
        # breaks zero-latency degeneracies, and the engine breaks clock
        # ties across cores by lowest core id — min() returns the first
        # minimum over the core list.  Unique keys make the (unstable)
        # default argsort order-exact.
        seq = np.concatenate(
            [np.arange(length, dtype=np.int64) for length in seg_lengths]
        )
        seq_bits = np.int64(max(1, (max(seg_lengths) - 1).bit_length()))
        window = model.window or max(seg_lengths)
        done = [0] * ncores
        cum = np.zeros(ncores, dtype=np.int64)  # committed LLC latency
        guess = np.zeros(total, dtype=bool)  # initial guess: all miss
        hits = np.zeros(total, dtype=bool)
        while True:
            live = [c for c in range(ncores) if done[c] < seg_lengths[c]]
            if not live:
                return hits
            ends = [min(done[c] + window, seg_lengths[c]) for c in live]
            sizes = [end - done[c] for c, end in zip(live, ends)]
            index = np.concatenate([
                np.arange(seg_starts[c] + done[c], seg_starts[c] + end, dtype=np.int64)
                for c, end in zip(live, ends)
            ])
            if ncores == 1:
                order = index
                outcome, cut = model.simulate(order, True)
            else:
                heads = np.cumsum([0] + sizes[:-1])
                lasts = [head + size - 1 for head, size, c, end
                         in zip(heads, sizes, live, ends) if end < seg_lengths[c]]
                start = base[index] + np.repeat(cum[live], sizes)
                tiebreak = sub_cores[index] << seq_bits
                tiebreak |= seq[index]
                for _ in range(MAX_FIXED_POINT_ITERATIONS):
                    llc_lat = np.where(guess[index], lat_llc, lat_mem)
                    # Per-core exclusive cumulative LLC latency: window
                    # exclusive cumsum rebased at each core's segment.
                    excl = np.cumsum(llc_lat)
                    excl -= llc_lat
                    excl -= np.repeat(excl[heads], sizes)
                    key = start + excl
                    key *= np.int64(ncores << int(seq_bits))
                    key += tiebreak
                    if lasts:
                        keep = np.flatnonzero(key <= key[lasts].min())
                        order = index[keep[np.argsort(key[keep])]]
                    else:
                        order = index[np.argsort(key)]
                    outcome, cut = model.simulate(order, False)
                    count = order.shape[0] if cut is None else cut + 1
                    if np.array_equal(outcome[:count], guess[order[:count]]):
                        break
                    guess[order] = outcome
                else:
                    return None
            count = order.shape[0] if cut is None else cut + 1
            committed = order[:count]
            hits[committed] = outcome[:count]
            model.commit(count, cut is not None)
            owners = sub_cores[committed]
            latency = np.where(outcome[:count], lat_llc, lat_mem)
            for c in live:
                mine = owners == c
                done[c] += int(np.count_nonzero(mine))
                cum[c] += int(latency[mine].sum())

    def _llc_schedule(
        self, levels: np.ndarray, llc_idx: np.ndarray, bounds: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per core: stream positions of its LLC accesses and their
        schedule bases (clock before the access, less the LLC latencies
        of its earlier LLC accesses)."""
        private_lat = self._private_latencies(levels)
        parts = []
        for core in self.cores:
            lo, hi = int(bounds[core.core_id]), int(bounds[core.core_id + 1])
            in_core = (llc_idx >= lo) & (llc_idx < hi)
            pos = llc_idx[in_core] - lo
            lat_c = private_lat[lo:hi]
            prefix = np.cumsum(lat_c)
            prefix -= lat_c
            core_base = pos * np.int64(core.gap)
            core_base += prefix[pos]
            parts.append((pos, core_base))
        return parts

    # -- LLC resolution: hybrid path --------------------------------------

    def _resolve_llc_hybrid(
        self,
        all_blocks: np.ndarray,
        llc_idx: np.ndarray,
        levels: np.ndarray,
        bounds: np.ndarray,
    ) -> SimResult:
        """Drive the real LLC object in exact global order.

        Private levels are already vectorized; the surviving accesses
        are replayed one at a time against ``self.llc`` /
        ``self.memory`` with exact python-int clocks, in the same
        (clock, core-id) order the scalar engine's min-scan produces.
        Epoch hooks fire inside ``llc.access`` exactly as they do in a
        scalar run.
        """
        llc = self.llc
        memory = self.memory
        lat_llc = self.config.latency.llc_hit
        ncores = len(self.cores)
        per_core: List[Dict[str, object]] = []
        for core, (pos, base) in zip(
            self.cores, self._llc_schedule(levels, llc_idx, bounds)
        ):
            pos_list = pos.tolist()
            per_core.append({
                "base": base.tolist(),
                "blocks": [core._blocks[p] for p in pos_list],
                "pcs": [core._pcs[p] for p in pos_list],
                "writes": [core._writes[p] for p in pos_list],
                "pos": pos_list,
                "out": [0] * len(pos_list),
                "hit": [False] * len(pos_list),
            })
        cursor = [0] * ncores
        cum = [0] * ncores
        remaining = sum(len(state["pos"]) for state in per_core)  # type: ignore[arg-type]
        while remaining:
            best_clock = -1
            best_core = -1
            for cid in range(ncores):
                i = cursor[cid]
                state = per_core[cid]
                if i >= len(state["pos"]):  # type: ignore[arg-type]
                    continue
                clock = state["base"][i] + cum[cid]  # type: ignore[index]
                if best_core < 0 or clock < best_clock:
                    best_clock = clock
                    best_core = cid
            state = per_core[best_core]
            i = cursor[best_core]
            hit = llc.access(
                state["blocks"][i], best_core,  # type: ignore[index]
                state["pcs"][i], state["writes"][i],  # type: ignore[index]
            )
            latency = lat_llc if hit else memory.service(best_clock)
            state["out"][i] = latency  # type: ignore[index]
            state["hit"][i] = hit  # type: ignore[index]
            cum[best_core] += latency
            cursor[best_core] += 1
            remaining -= 1
        # Fold outcomes back into the level codes.
        for cid, state in enumerate(per_core):
            lo = int(bounds[cid])
            pos_arr = np.asarray(state["pos"], dtype=np.int64)
            hit_arr = np.asarray(state["hit"], dtype=bool)
            levels[lo + pos_arr[hit_arr]] = 2
        extra: Dict[str, float] = {}
        deli_hits = getattr(llc, "deli_hits", None)
        if deli_hits is not None:
            extra["deli_hits"] = float(deli_hits)
            extra["retentions"] = float(getattr(llc, "retentions", 0))
        hybrid_lat = [
            np.asarray(state["out"], dtype=np.int64) for state in per_core
        ]
        hybrid_pos = [
            np.asarray(state["pos"], dtype=np.int64) for state in per_core
        ]
        return self._collect_from_levels(
            levels, bounds, llc.occupancy_by_core(), extra=extra,
            llc_lat_override=(hybrid_pos, hybrid_lat),
        )

    # -- shared result assembly -------------------------------------------

    def _private_latencies(self, levels: np.ndarray) -> np.ndarray:
        """Per-access latency of L1/L2 hits (0 for LLC-bound accesses)."""
        latency = self.config.latency
        private = np.zeros(levels.shape[0], dtype=np.int64)
        private[levels == 0] = latency.l1_hit
        private[levels == 1] = latency.l2_hit
        return private

    def _collect_from_levels(
        self,
        levels: np.ndarray,
        bounds: np.ndarray,
        occupancy: Dict[int, int],
        extra: Optional[Dict[str, float]] = None,
        llc_lat_override: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None,
    ) -> SimResult:
        """Assemble a byte-identical ``SimResult`` from level codes.

        Reimplements the scalar per-core bookkeeping in closed form:
        clock after access ``i`` is ``(i+1)*gap + cumsum(latency)[i]``,
        the warmup clock is the clock after the last warmup access, and
        the derived metrics use the exact same integer/float formulas
        as :class:`~repro.sim.core.CoreModel`.
        """
        latency = self.config.latency
        lat_table = np.array(
            [latency.l1_hit, latency.l2_hit, latency.llc_hit, latency.memory],
            dtype=np.int64,
        )
        results: List[CoreResult] = []
        for core in self.cores:
            cid = core.core_id
            lo, hi = int(bounds[cid]), int(bounds[cid + 1])
            lv = levels[lo:hi]
            lat = lat_table[lv]
            if llc_lat_override is not None:
                pos_arr, lat_arr = llc_lat_override
                lat[pos_arr[cid]] = lat_arr[cid]
            gap = core.gap
            lat += np.int64(gap)
            clocks = np.cumsum(lat)
            n = hi - lo
            warm = core.warmup_accesses
            completion = int(clocks[n - 1])
            warmup_clock = int(clocks[warm - 1]) if warm > 0 else 0
            measured = np.bincount(lv[warm:], minlength=4)
            counts = {
                LEVEL_L1: int(measured[0]),
                LEVEL_L2: int(measured[1]),
                LEVEL_LLC: int(measured[2]),
                LEVEL_MEMORY: int(measured[3]),
            }
            cycles = max(0, completion - warmup_clock)
            executed = (n - warm) * (gap + 1)
            llc_misses = counts[LEVEL_MEMORY]
            results.append(CoreResult(
                core_id=cid,
                workload=core.trace.name,
                instructions=executed,
                cycles=cycles,
                ipc=executed / cycles if cycles else 0.0,
                mpki=1000.0 * llc_misses / max(1, executed),
                llc_accesses=counts[LEVEL_LLC] + llc_misses,
                llc_misses=llc_misses,
                level_counts=counts,
            ))
            # Mirror the scalar core's terminal state so post-run
            # introspection (tests, debugging) sees a finished core.
            core.completion_clock = completion
            core.warmup_clock = warmup_clock
            core.clock = completion
            core.passes = 1
            core.level_counts = dict(counts)
        return SimResult(
            policy=self.llc.name,
            cores=results,
            llc_occupancy_by_core=dict(occupancy),
            llc_extra=dict(extra or {}),
        )
