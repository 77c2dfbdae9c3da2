"""Backend contract tests for the pluggable result store.

Every test in :class:`TestStoreContract` runs against every backend —
the filesystem store and the networked store (a live in-test server on
an ephemeral port) must be observably interchangeable: same hit/miss
behavior, same validation and quarantine semantics, same lease
protocol, same maintenance operations.  Entry damage is not part of the
contract: tests inflict it on the medium (the fs directory both flavors
share) and observe the result through the store under test.  Backend
mechanics that cannot be expressed portably (fsync ordering, temp-file
debris, reconnect machinery) get their own backend-specific classes
below and in ``test_net_store.py``.
"""

from __future__ import annotations

import errno
import json
import os
import time

import pytest

from repro.common.errors import StoreError
from repro.exec import SimJob, execute_job
from repro.exec.faults import FaultPlan, FaultyStore
from repro.exec.stores import (
    BACKENDS,
    FileResultStore,
    NetResultStore,
    from_url,
    make_store,
)
from repro.exec.stores.base import STORE_BACKEND_ENV_VAR
from repro.exec.stores.net import StoreServer

ACCESSES = 4_000


@pytest.fixture(params=sorted(BACKENDS))
def any_store(request, tmp_path):
    """One store per registered backend, rooted in a fresh tmpdir.

    The ``net`` flavor runs the full client/server stack: a live
    :class:`StoreServer` (fs-backed) on an ephemeral port, so the shared
    contract exercises the wire protocol unchanged.
    """
    if request.param == "net":
        server = StoreServer(FileResultStore(tmp_path / "store"), port=0)
        server.start()
        host, port = server.address
        client = NetResultStore(f"{host}:{port}")
        yield client
        client.close()
        server.close()
        return
    yield FileResultStore(tmp_path / "store")


@pytest.fixture
def medium(tmp_path):
    """A handle on the fs directory behind ``any_store``, for damage.

    The fs flavor *is* this directory; the net flavor's server is backed
    by it.  Either way, entries damaged here are read back through the
    store under test.
    """
    return FileResultStore(tmp_path / "store")


def _job(seed: int = 1) -> SimJob:
    return SimJob.single("hmmer_like", "lru", ACCESSES, seed=seed)


# ----------------------------------------------------------------------
# The portable contract (parametrized over every backend)
# ----------------------------------------------------------------------


class TestStoreContract:
    def test_miss_then_hit_round_trip(self, any_store):
        job = _job()
        assert any_store.get(job) is None
        assert job not in any_store
        result = execute_job(job)
        any_store.put(job, result)
        assert job in any_store
        assert any_store.get(job) == result

    def test_truncated_entry_quarantined_never_served(self, any_store, medium):
        job = _job()
        any_store.put(job, execute_job(job))
        assert medium.corrupt_entry(job.key(), mode="truncate")
        assert any_store.get(job) is None
        assert any_store.stats().quarantined == 1
        assert any_store.get(job) is None  # stays a miss, not resurrected

    def test_semantic_corruption_quarantined(self, any_store, medium):
        """Parsable JSON with impossible counters must not be served."""
        job = _job()
        any_store.put(job, execute_job(job))
        assert medium.corrupt_entry(job.key(), mode="semantic")
        assert any_store.get(job) is None
        assert any_store.stats().quarantined == 1
        assert list(any_store.quarantined_entries())

    def test_corrupt_entry_without_entry_reports_false(
        self, any_store, medium
    ):
        assert not medium.corrupt_entry("0" * 64)
        assert any_store.stats().entries == 0

    def test_put_after_quarantine_recovers(self, any_store, medium):
        job = _job()
        result = execute_job(job)
        any_store.put(job, result)
        medium.corrupt_entry(job.key())
        assert any_store.get(job) is None
        any_store.put(job, result)
        assert any_store.get(job) == result
        assert any_store.stats().quarantined == 1  # kept for post-mortem

    def test_simulated_crash_mid_put_publishes_nothing(
        self, any_store, tmp_path
    ):
        job = _job()
        plan = FaultPlan(store_put_crash=1.0, scratch=str(tmp_path / "m"))
        with pytest.raises(StoreError, match="injected store crash"):
            FaultyStore(any_store, plan).put(job, execute_job(job))
        assert any_store.get(job) is None
        assert any_store.stats().entries == 0
        # The store stays fully usable afterwards.
        any_store.put(job, execute_job(job))
        assert any_store.get(job) is not None

    def test_lease_acquire_contention_release(self, any_store):
        key = _job().key()
        lease = any_store.acquire_lease(key, ttl=30.0)
        assert lease is not None and not lease.takeover
        assert any_store.acquire_lease(key, ttl=30.0) is None  # held
        assert any_store.counters.lease_contentions == 1
        assert any_store.renew_lease(lease)
        assert any_store.release_lease(lease)
        again = any_store.acquire_lease(key, ttl=30.0)
        assert again is not None and not again.takeover

    def test_stale_lease_taken_over(self, any_store, monkeypatch):
        import repro.exec.stores.fs as fs_mod
        import repro.exec.stores.net as net_mod

        key = _job().key()
        # A foreign process takes the lease, then crashes (no heartbeat).
        holder_mod = {"fs": fs_mod, "net": net_mod}[any_store.backend]
        monkeypatch.setattr(holder_mod, "lease_owner_id", lambda: "ghost:999")
        crashed = any_store.acquire_lease(key, ttl=0.05)
        monkeypatch.undo()
        assert crashed is not None and crashed.owner == "ghost:999"
        time.sleep(0.1)
        taken = any_store.acquire_lease(key, ttl=30.0)
        assert taken is not None and taken.takeover
        assert taken.owner != "ghost:999"
        assert any_store.counters.stale_takeovers == 1
        # The displaced holder can no longer renew or release.
        assert not any_store.renew_lease(crashed)
        assert not any_store.release_lease(crashed)

    def test_active_leases_census(self, any_store):
        keys = sorted(_job(seed).key() for seed in (1, 2))
        any_store.acquire_lease(keys[0], ttl=30.0)
        any_store.acquire_lease(keys[1], ttl=0.05)
        time.sleep(0.1)
        census = dict(
            (key, is_stale) for key, _owner, is_stale in any_store.active_leases()
        )
        assert census == {keys[0]: False, keys[1]: True}
        stats = any_store.stats()
        assert stats.leases_active == 1
        assert stats.leases_stale == 1

    def test_prune_sweeps_stale_leases_only(self, any_store):
        live_key = _job(1).key()
        stale_key = _job(2).key()
        live = any_store.acquire_lease(live_key, ttl=30.0)
        any_store.acquire_lease(stale_key, ttl=0.05)
        time.sleep(0.1)
        any_store.prune(keep=100)
        held = {key for key, _owner, _stale in any_store.active_leases()}
        assert held == {live_key}
        assert any_store.release_lease(live)

    def test_clear_drops_entries_and_leases(self, any_store):
        job = _job()
        any_store.put(job, execute_job(job))
        any_store.acquire_lease(job.key(), ttl=30.0)
        assert any_store.clear() == 1
        assert any_store.stats().entries == 0
        assert any_store.active_leases() == []

    def test_prune_keep(self, any_store):
        result = execute_job(_job())
        for seed in range(5):
            any_store.put(_job(seed), result)
        assert any_store.prune(keep=2) == 3
        assert any_store.stats().entries == 2

    def test_health_is_deterministic_and_complete(self, any_store):
        census = any_store.health()
        assert census == {
            "lease_contentions": 0,
            "leases_active": 0,
            "leases_stale": 0,
            "reconnects": 0,
            "retried_requests": 0,
            "stale_takeovers": 0,
        }
        line = any_store.describe_health()
        assert line == (
            f"robustness [{any_store.backend}]: "
            "lease_contentions=0 leases_active=0 leases_stale=0 "
            "reconnects=0 retried_requests=0 stale_takeovers=0"
        )

    def test_stats_names_backend(self, any_store):
        assert any_store.stats().backend == any_store.backend


# ----------------------------------------------------------------------
# Backend selection: make_store / from_url / $REPRO_STORE
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_fs(self, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV_VAR, raising=False)
        assert isinstance(make_store(), FileResultStore)

    def test_spec_overrides_env(self, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV_VAR, "net://cachehost:4070")
        assert isinstance(make_store("fs"), FileResultStore)

    def test_unknown_backend_rejected(self):
        for name in ("redis", "sqlite"):
            with pytest.raises(
                StoreError, match="accepted forms.*net://HOST:PORT"
            ):
                make_store(name)

    def test_url_roots_fs_store(self, tmp_path):
        store = from_url(f"fs://{tmp_path / 'cache'}")
        assert isinstance(store, FileResultStore)
        assert store.base == tmp_path / "cache"

    def test_url_without_scheme_rejected(self):
        with pytest.raises(
            StoreError, match=r"no scheme.*accepted forms.*fs://PATH"
        ):
            from_url("/no/scheme/here")

    def test_url_unknown_scheme_rejected(self):
        for url, scheme in (
            ("redis://somewhere", "redis"),
            ("sqlite:///tmp/x", "sqlite"),
        ):
            with pytest.raises(
                StoreError,
                match=rf"unknown store backend '{scheme}'.*accepted forms",
            ):
                from_url(url)

    def test_make_store_accepts_urls(self, tmp_path, monkeypatch):
        monkeypatch.delenv(STORE_BACKEND_ENV_VAR, raising=False)
        store = make_store(f"fs://{tmp_path / 'cache'}")
        assert isinstance(store, FileResultStore)
        assert store.base == tmp_path / "cache"

    def test_url_builds_net_client(self):
        store = from_url("net://cachehost:4070")
        assert isinstance(store, NetResultStore)
        assert (store.host, store.port) == ("cachehost", 4070)

    def test_net_url_without_address_rejected(self):
        with pytest.raises(
            StoreError, match=r"missing an address.*net://HOST:PORT"
        ):
            from_url("net://")

    def test_net_url_with_bad_port_rejected(self):
        with pytest.raises(
            StoreError, match=r"malformed net store port.*accepted forms"
        ):
            from_url("net://host:not-a-port")

    def test_net_url_without_port_rejected(self):
        with pytest.raises(StoreError, match=r"accepted forms"):
            from_url("net://hostonly")

    def test_bare_net_backend_name_rejected(self):
        with pytest.raises(
            StoreError, match=r"needs a server address.*net://HOST:PORT"
        ):
            make_store("net")


# ----------------------------------------------------------------------
# Filesystem backend mechanics: durability and the prune/get race
# ----------------------------------------------------------------------


class TestFileStoreDurability:
    def test_put_fsyncs_tmp_before_rename_and_dir_after(
        self, tmp_path, monkeypatch
    ):
        """The write protocol is write → fsync(tmp) → rename → fsync(dir)."""
        store = FileResultStore(tmp_path / "store")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("rename")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        job = _job()
        store.put(job, execute_job(job))
        assert "fsync" in events[: events.index("rename")], (
            "temp file must be fsynced before the rename publishes it"
        )
        assert "fsync" in events[events.index("rename") + 1:], (
            "directory entry must be fsynced after the rename"
        )

    def test_crash_mid_put_leaves_only_sweepable_debris(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        job = _job()
        with pytest.raises(StoreError):
            store.simulate_crash_mid_put(job, execute_job(job))
        debris = list((tmp_path / "store").glob("v*/*/.*.tmp"))
        assert len(debris) == 1  # the torn temp file a real crash strands
        assert store.get(job) is None  # never visible as an entry
        assert store.stats().entries == 0
        # clear() sweeps crash debris immediately.
        store.clear()
        assert not list((tmp_path / "store").glob("v*/*/.*.tmp"))

    def test_put_survives_concurrent_bucket_removal(self, tmp_path, monkeypatch):
        """A prune rmdir'ing the fan-out bucket mid-put is retried."""
        store = FileResultStore(tmp_path / "store")
        job = _job()
        real_replace = os.replace
        raised = {"count": 0}

        def racy_replace(src, dst):
            if raised["count"] == 0:
                raised["count"] += 1
                raise FileNotFoundError(
                    errno.ENOENT, "bucket swept by concurrent prune", dst
                )
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", racy_replace)
        path = store.put(job, execute_job(job))
        assert raised["count"] == 1
        assert path.is_file()
        assert store.get(job) is not None

    def test_put_raises_store_error_when_race_never_resolves(
        self, tmp_path, monkeypatch
    ):
        store = FileResultStore(tmp_path / "store")

        def always_gone(src, dst):
            raise FileNotFoundError(errno.ENOENT, "gone", dst)

        monkeypatch.setattr(os, "replace", always_gone)
        with pytest.raises(StoreError):
            store.put(_job(), execute_job(_job()))

    def test_get_racing_prune_is_a_clean_miss(self, tmp_path, monkeypatch):
        """An entry unlinked between the lookup and the read is a miss."""
        from pathlib import Path

        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))

        real_read_bytes = Path.read_bytes

        def pruned_read_bytes(self, *args, **kwargs):
            if self == path:
                # The concurrent prune wins the race: entry is gone.
                self.unlink(missing_ok=True)
            return real_read_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", pruned_read_bytes)
        assert store.get(job) is None  # miss, not an exception
        assert store.stats().quarantined == 0  # nothing got quarantined

    def test_get_racing_prune_enoent_oserror_is_a_clean_miss(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))

        def enoent_read_bytes(self, *args, **kwargs):
            if self == path:
                raise OSError(errno.ENOENT, "pruned mid-open", str(self))
            return Path.read_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", enoent_read_bytes)
        assert store.get(job) is None

    def test_quarantine_keeps_reason_sidecar(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        job = _job()
        store.put(job, execute_job(job))
        store.corrupt_entry(job.key(), mode="semantic")
        assert store.get(job) is None
        sidecars = list(store.quarantine_dir.glob("*.reason"))
        assert len(sidecars) == 1
        assert "exceed" in sidecars[0].read_text(encoding="utf-8")


class TestEntryCodec:
    """The shared v2 entry codec: pack, read-back, and compat."""

    def test_round_trip(self):
        from repro.exec.stores.base import decode_entry, encode_entry

        job = _job()
        result = execute_job(job)
        payload = encode_entry(job, result)
        decoded, reason = decode_entry(payload, job)
        assert reason is None
        assert decoded is not None
        assert decoded.to_dict() == result.to_dict()

    def test_v1_plain_json_reads_back(self):
        """Entries written before the codec change decode transparently."""
        from repro.exec.stores.base import decode_entry
        from repro.exec.job import ENGINE_VERSION

        job = _job()
        result = execute_job(job)
        v1_text = json.dumps(
            {
                "engine_version": ENGINE_VERSION,
                "created": time.time(),
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
            sort_keys=True,
        )
        for flavor in (v1_text, v1_text.encode("utf-8")):
            decoded, reason = decode_entry(flavor, job)
            assert reason is None
            assert decoded is not None
            assert decoded.to_dict() == result.to_dict()

    def test_pack_is_smaller_than_logical(self):
        from repro.exec.stores.base import (
            ENTRY_MAGIC,
            encode_entry,
            entry_logical_size,
            inflate_entry,
        )

        job = _job()
        payload = encode_entry(job, execute_job(job))
        assert payload.startswith(ENTRY_MAGIC)
        logical = entry_logical_size(payload)
        assert logical == len(inflate_entry(payload))
        assert len(payload) < logical

    def test_logical_size_of_v1_text_is_its_own_length(self):
        from repro.exec.stores.base import entry_logical_size

        assert entry_logical_size('{"a": 1}') == 8
        assert entry_logical_size(b'{"a": 1}') == 8

    def test_torn_pack_quarantine_reason(self):
        from repro.exec.stores.base import decode_entry, encode_entry

        job = _job()
        payload = encode_entry(job, execute_job(job))
        torn = payload[: len(payload) // 2]
        decoded, reason = decode_entry(torn, job)
        assert decoded is None
        assert reason == "unreadable or corrupt JSON (torn v2 pack)"

    def test_torn_pack_quarantines_on_disk(self, tmp_path):
        """A half-written v2 file is a miss + quarantine, not a crash."""
        store = FileResultStore(tmp_path / "store")
        job = _job()
        path = store.put(job, execute_job(job))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert store.get(job) is None
        assert len(list(store.quarantined_entries())) == 1
