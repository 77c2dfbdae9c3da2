"""Pluggable result-store backends behind one abstract interface.

One abstract API (:class:`~repro.exec.stores.base.AbstractResultStore`),
two backends:

* ``fs`` — :class:`~repro.exec.stores.fs.FileResultStore`: one JSON
  file per entry, fsync-durable atomic writes, ``O_EXCL`` lease files.
  The default, and the only local medium.
* ``net`` — :class:`~repro.exec.stores.net.NetResultStore`: a TCP
  client for a ``nucache-repro store serve`` server (itself backed by
  an ``fs`` store), with per-request deadlines, seeded reconnect
  backoff, idempotent retries, and server-authoritative leases.

Select a backend with ``$REPRO_STORE`` (a backend name or a
:func:`from_url` spec), the ``--store`` CLI flag, or programmatically
via :func:`make_store`.  See ``docs/store.md``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Type

from repro.common.errors import StoreError
from repro.exec.stores.base import (
    AbstractResultStore,
    DEFAULT_LEASE_TTL,
    Lease,
    STORE_BACKEND_ENV_VAR,
    STORE_ENV_VAR,
    StoreCounters,
    StoreStats,
    decode_entry,
    default_store_dir,
    encode_entry,
    lease_owner_id,
)
from repro.exec.stores.fs import (
    FileResultStore,
    QUARANTINE_DIR_NAME,
    TMP_LEAK_AGE_SECONDS,
)
from repro.exec.stores.net import NetResultStore, StoreServer

#: Registered backends, keyed by the name ``REPRO_STORE``/``--store`` use.
BACKENDS: Dict[str, Type[AbstractResultStore]] = {
    "fs": FileResultStore,
    "net": NetResultStore,
}

#: The one sentence every bad-spec error ends with, so a typo in any of
#: the selection paths (URL, env var, CLI flag) teaches the right shape.
ACCEPTED_STORE_FORMS = (
    "accepted forms: fs, fs://PATH, or net://HOST:PORT"
)


def from_url(url: str) -> AbstractResultStore:
    """Build a store from a ``backend://target`` spec.

    * ``fs:///var/cache/nucache`` — filesystem store rooted there.
    * ``net://host:port`` — client for a ``nucache-repro store serve``
      server at that address.
    * ``fs://`` — the default store directory (``$REPRO_CACHE_DIR`` or
      ``~/.cache/nucache-repro``).

    Every malformed spec raises :class:`StoreError` naming the accepted
    forms; an unreachable ``net://`` target constructs fine here and
    raises :class:`StoreError` on first use (the scheduler degrades).
    """
    scheme, separator, raw_path = url.partition("://")
    if not separator:
        raise StoreError(
            f"store URL {url!r} has no scheme; {ACCEPTED_STORE_FORMS}"
        )
    if scheme not in BACKENDS:
        raise StoreError(
            f"unknown store backend {scheme!r} in {url!r}; "
            f"{ACCEPTED_STORE_FORMS}"
        )
    if scheme == "net":
        if not raw_path:
            raise StoreError(
                f"net store URL {url!r} is missing an address; "
                f"{ACCEPTED_STORE_FORMS}"
            )
        try:
            return NetResultStore(raw_path)
        except StoreError as exc:
            raise StoreError(f"{exc}; {ACCEPTED_STORE_FORMS}") from None
    return FileResultStore(Path(raw_path) if raw_path else None)


def make_store(spec: Optional[str] = None) -> AbstractResultStore:
    """Build the configured result store.

    ``spec`` is ``fs`` or a :func:`from_url` spec; when ``None``,
    ``$REPRO_STORE`` decides, defaulting to ``fs``.  The store root
    always honours ``$REPRO_CACHE_DIR``.
    """
    chosen = spec or os.environ.get(STORE_BACKEND_ENV_VAR) or "fs"
    if "://" in chosen:
        return from_url(chosen)
    if chosen == "net":
        raise StoreError(
            "the net backend needs a server address; "
            f"{ACCEPTED_STORE_FORMS}"
        )
    if chosen != "fs":
        raise StoreError(
            f"unknown store backend {chosen!r}; {ACCEPTED_STORE_FORMS}"
        )
    return FileResultStore()


__all__ = [
    "ACCEPTED_STORE_FORMS",
    "AbstractResultStore",
    "BACKENDS",
    "DEFAULT_LEASE_TTL",
    "FileResultStore",
    "Lease",
    "NetResultStore",
    "QUARANTINE_DIR_NAME",
    "STORE_BACKEND_ENV_VAR",
    "STORE_ENV_VAR",
    "StoreCounters",
    "StoreError",
    "StoreServer",
    "StoreStats",
    "TMP_LEAK_AGE_SECONDS",
    "decode_entry",
    "default_store_dir",
    "encode_entry",
    "from_url",
    "lease_owner_id",
    "make_store",
]
