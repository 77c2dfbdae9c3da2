"""Networked result store: a fault-hardened TCP client/server pair.

A fleet of machines shares one store by pointing their schedulers at a
``net://host:port`` URL; a single ``nucache-repro store serve <spec>``
process owns the durable medium (an ``fs`` store, resolved via
:func:`repro.exec.stores.make_store`) and arbitrates leases,
which makes single-flight *fleet-wide*: of N schedulers on N machines
racing a cold job, exactly one computes it.

Wire protocol (version :data:`PROTO_VERSION`)
---------------------------------------------

Length-prefixed JSON frames over TCP: each frame is a 4-byte big-endian
payload length followed by that many bytes of UTF-8 JSON.  The first
frame on every connection must be a ``hello`` carrying the client's
protocol version; the server replies with its own and refuses mismatched
clients with a clear error.  After the handshake the connection carries
request/response pairs::

    {"op": "get",  "job": {...}}              -> {"ok": true, "result": {...}|null}
    {"op": "put",  "rid": "...", "job": ..., "result": ...}
                                              -> {"ok": true, "key": "..."}
    {"op": "lease.acquire", "rid": "...", "key": ..., "ttl": ..., "owner": ...}
                                              -> {"ok": true, "lease": {...}|null}

plus ``stats``, ``clear``, ``prune``, ``quarantined``, ``lease.renew``,
``lease.release``, ``leases``, and ``ping``.  The protocol carries the
store contract only; there is no op that damages an entry.  Server-side
failures come back as ``{"ok": false, "error": "..."}`` and surface as
:class:`~repro.common.errors.StoreError` on the client — never retried,
because the server *did* answer.

Robustness model
----------------

* **Idempotent mutation** — every mutating request carries a request id
  (``rid``); the server remembers recent ``rid -> reply`` pairs, so a
  client that lost the reply can resend the same request and get the
  original answer without the operation being applied twice.  This is
  what makes a retried ``put`` (or ``lease.acquire``) after a dropped
  reply safe.
* **Deadlines everywhere** — every socket operation is bounded by the
  client's per-request timeout; a stuck server can never hang a
  scheduler.
* **Seeded backoff + bounded reconnect** — refused/reset/timed-out
  connections are retried a bounded number of times with the same
  deterministic :func:`repro.common.rng.backoff_delay` the scheduler
  uses, counted in ``counters.reconnects``/``counters.retried_requests``.
* **Circuit breaker** — after consecutive ops exhaust their retry
  budgets the client fails fast (one cheap :class:`StoreError` per op
  instead of a full timeout ladder), re-probing the server every few
  ops so a restarted server is picked up again.
* **Every failure is a StoreError** — which the scheduler's degraded
  mode treats as "compute without the cache", so a SIGKILLed server
  mid-run yields a complete, byte-identical batch.

Deterministic chaos (``net.*`` fault kinds in :mod:`repro.exec.faults`)
is injected client-side via :meth:`NetResultStore.inject_net_fault`;
entry damage is injected on the server's side, by wrapping its backing
store in :class:`~repro.exec.faults.FaultyStore`.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import socketserver
import struct
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import StoreError
from repro.common.rng import backoff_delay
from repro.exec.job import SimJob
from repro.exec.stores.base import (
    AbstractResultStore,
    DEFAULT_LEASE_TTL,
    Lease,
    StoreStats,
    lease_owner_id,
)
from repro.exec.validate import validate_result
from repro.sim.engine import SimResult

#: Wire protocol version; bumped on any incompatible frame change.
PROTO_VERSION = 1

#: Hard cap on a single frame's payload, as a corruption guard.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default per-request socket deadline (seconds) on the client.
DEFAULT_TIMEOUT = 5.0

#: Default connect/send/receive retry budget per request.
DEFAULT_RETRIES = 3

#: First backoff delay between request retries (seconds, doubled/round).
RETRY_BACKOFF_BASE = 0.05

#: Cap on any single retry delay (seconds).
RETRY_BACKOFF_CAP = 0.5

#: Consecutive fully-failed requests before the circuit breaker opens.
BREAKER_THRESHOLD = 2

#: With the breaker open, probe the server once every this many ops.
BREAKER_PROBE_EVERY = 8

#: Bound on the server's remembered ``rid -> reply`` idempotency map.
IDEMPOTENCY_CACHE_SIZE = 512

#: Distinguishes client instances within one process, so their request
#: ids never collide in the server's idempotency map.
_CLIENT_IDS = itertools.count()

#: Client-injectable fault kinds (see ``repro.exec.faults``).
NET_FAULT_KINDS = (
    "net.conn.refused",
    "net.read.timeout",
    "net.reply.corrupt",
    "net.server.crash",
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Send one length-prefixed JSON frame."""
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({len(data)} bytes)")
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Receive one length-prefixed JSON frame (dict payloads only)."""
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({length} bytes)")
    payload = json.loads(_recv_exact(sock, length))
    if not isinstance(payload, dict):
        raise ValueError("frame payload is not an object")
    return payload


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` address, raising ``StoreError`` when malformed."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise StoreError(
            f"malformed net store address {address!r}; expected net://HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise StoreError(
            f"malformed net store port in {address!r}; expected net://HOST:PORT"
        ) from None
    if not 0 < port < 65536:
        raise StoreError(
            f"net store port out of range in {address!r}; expected 1-65535"
        )
    return host, port


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------


class _TCPServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server with address reuse and daemonic handlers."""

    allow_reuse_address = True
    daemon_threads = True
    store_server: "StoreServer"


class _Handler(socketserver.BaseRequestHandler):
    """Per-connection frame loop: handshake, then request/reply pairs."""

    def handle(self) -> None:
        """Serve one client connection until EOF, error, or drain."""
        server = self.server.store_server  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        server._register(sock)
        try:
            try:
                hello = recv_frame(sock)
            except (OSError, ValueError):
                return
            if hello.get("op") != "hello":
                send_frame(sock, {
                    "ok": False,
                    "error": "expected hello frame before any request",
                })
                return
            if hello.get("proto") != PROTO_VERSION:
                send_frame(sock, {
                    "ok": False,
                    "error": (
                        f"protocol version mismatch: server speaks "
                        f"v{PROTO_VERSION}, client sent "
                        f"v{hello.get('proto')!r} — upgrade the older side"
                    ),
                })
                return
            send_frame(sock, {"ok": True, "proto": PROTO_VERSION,
                              "backend": server.backing.backend})
            while not server.draining:
                try:
                    request = recv_frame(sock)
                except (OSError, ValueError):
                    break
                reply = server.dispatch(request)
                try:
                    send_frame(sock, reply)
                except OSError:
                    break
        finally:
            server._unregister(sock)


class StoreServer:
    """Serves a local (fs) store over the net protocol.

    One instance owns the backing store; worker threads handle
    connections but every backing-store call is serialized behind one
    lock, so the backend needs no thread safety of its own (its
    in-process counters and a lease's check-then-write stay atomic).
    ``close()`` drains the in-flight request, closes client connections,
    and releases every held lease so an interrupted server never leaves
    the fleet blocked.
    """

    def __init__(
        self,
        backing: AbstractResultStore,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.backing = backing
        self.draining = False
        self._lock = threading.Lock()
        self._clients: set = set()
        self._clients_lock = threading.Lock()
        self._idempotent: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._server = _TCPServer((host, port), _Handler)
        self._server.store_server = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` (resolved ephemeral port)."""
        return self._server.server_address[:2]

    def start(self) -> None:
        """Serve connections on a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve connections on the calling thread (the CLI entry point)."""
        self._server.serve_forever()

    def close(self) -> None:
        """Drain the in-flight request, drop clients, release all leases."""
        self.draining = True
        with self._lock:
            pass  # barrier: wait for the dispatch in flight to finish
        with self._clients_lock:
            clients = list(self._clients)
        for sock in clients:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            for key, owner, _stale in self.backing.active_leases():
                self.backing.release_lease(
                    Lease(key=key, owner=owner, acquired=0.0, ttl=0.0)
                )
        except StoreError:
            pass

    # -- connection registry (for drain) -------------------------------

    def _register(self, sock: socket.socket) -> None:
        with self._clients_lock:
            self._clients.add(sock)

    def _unregister(self, sock: socket.socket) -> None:
        with self._clients_lock:
            self._clients.discard(sock)

    # -- dispatch ------------------------------------------------------

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply one request to the backing store and build the reply.

        Mutating requests carry a ``rid``; a repeated ``rid`` returns
        the remembered reply without re-applying, so client retries
        after a dropped reply are exactly-once.
        """
        rid = request.get("rid")
        with self._lock:
            if rid is not None and rid in self._idempotent:
                return self._idempotent[rid]
            try:
                reply = self._apply(request)
            except StoreError as exc:
                reply = {"ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                reply = {"ok": False,
                         "error": f"{type(exc).__name__}: {exc}"}
            if rid is not None:
                self._idempotent[str(rid)] = reply
                while len(self._idempotent) > IDEMPOTENCY_CACHE_SIZE:
                    self._idempotent.popitem(last=False)
            return reply

    def _apply(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one decoded request against the backing store."""
        op = request.get("op")
        backing = self.backing
        if op == "ping":
            return {"ok": True}
        if op == "get":
            job = SimJob.from_dict(request["job"])
            result = backing.get(job)
            return {"ok": True,
                    "result": None if result is None else result.to_dict()}
        if op == "put":
            job = SimJob.from_dict(request["job"])
            result = SimResult.from_dict(request["result"])
            backing.put(job, result)
            return {"ok": True, "key": job.key()}
        if op == "stats":
            stats = backing.stats()
            return {
                "ok": True,
                "stats": {
                    "root": stats.root,
                    "entries": stats.entries,
                    "total_bytes": stats.total_bytes,
                    "quarantined": stats.quarantined,
                    "leases_active": stats.leases_active,
                    "leases_stale": stats.leases_stale,
                    "logical_bytes": stats.logical_bytes,
                },
            }
        if op == "clear":
            return {"ok": True, "removed": backing.clear()}
        if op == "prune":
            return {
                "ok": True,
                "removed": backing.prune(
                    max_age_days=request.get("max_age_days"),
                    keep=request.get("keep"),
                ),
            }
        if op == "quarantined":
            return {
                "ok": True,
                "entries": [str(item)
                            for item in backing.quarantined_entries()],
            }
        if op == "lease.acquire":
            lease = backing.acquire_lease(
                str(request["key"]),
                ttl=float(request.get("ttl") or DEFAULT_LEASE_TTL),
                owner=str(request["owner"]),
            )
            payload = None if lease is None else {
                "key": lease.key,
                "owner": lease.owner,
                "acquired": lease.acquired,
                "ttl": lease.ttl,
                "takeover": lease.takeover,
            }
            return {"ok": True, "lease": payload}
        if op in ("lease.renew", "lease.release"):
            lease = Lease(
                key=str(request["key"]),
                owner=str(request["owner"]),
                acquired=float(request.get("acquired") or 0.0),
                ttl=float(request.get("ttl") or DEFAULT_LEASE_TTL),
            )
            if op == "lease.renew":
                return {"ok": True, "renewed": backing.renew_lease(lease)}
            return {"ok": True, "released": backing.release_lease(lease)}
        if op == "leases":
            return {
                "ok": True,
                "leases": [[key, owner, stale]
                           for key, owner, stale in backing.active_leases()],
            }
        return {"ok": False, "error": f"unknown op {op!r}"}


def serve(
    backing: AbstractResultStore, host: str = "127.0.0.1", port: int = 0
) -> StoreServer:
    """Build a :class:`StoreServer` bound to ``host:port`` (0 = ephemeral)."""
    return StoreServer(backing, host=host, port=port)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------


class NetResultStore(AbstractResultStore):
    """Store backend that proxies every operation to a ``StoreServer``.

    Implements the full :class:`AbstractResultStore` contract over TCP;
    see the module docstring for the robustness model.  Construction is
    cheap and never touches the network — the first request connects.
    """

    backend = "net"

    def __init__(
        self,
        address: Optional[str] = None,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
    ) -> None:
        super().__init__()
        if not address:
            raise StoreError(
                "net store needs a server address; "
                "use a URL like net://HOST:PORT"
            )
        self.host, self.port = parse_address(str(address))
        self.address = f"{self.host}:{self.port}"
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self._sock: Optional[socket.socket] = None
        self._sock_pid: Optional[int] = None
        self._ever_connected = False
        self._client_id = next(_CLIENT_IDS)
        self._seq = 0
        self._consecutive_failures = 0
        self._ops_since_open = 0
        self._injected: Dict[str, int] = {}
        self._server_dead = False

    # -- chaos hooks ---------------------------------------------------

    def inject_net_fault(self, kind: str, times: int = 1) -> None:
        """Arm ``times`` firings of a ``net.*`` fault kind (chaos only).

        ``net.server.crash`` is latched rather than counted: it marks
        the server dead for the rest of this client's life, the client
        view of a SIGKILLed server.
        """
        if kind not in NET_FAULT_KINDS:
            raise ValueError(f"unknown net fault kind {kind!r}")
        if kind == "net.server.crash":
            self._server_dead = True
            return
        self._injected[kind] = self._injected.get(kind, 0) + times

    def _consume_fault(self, kind: str) -> bool:
        remaining = self._injected.get(kind, 0)
        if remaining <= 0:
            return False
        self._injected[kind] = remaining - 1
        return True

    # -- connection management -----------------------------------------

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._sock_pid = None

    def _socket(self) -> socket.socket:
        """The connected, handshaken socket (fork-safe, reconnects)."""
        if self._sock is not None and self._sock_pid != os.getpid():
            # Forked child: the parent's connection must not be shared.
            self._sock = None
            self._sock_pid = None
        if self._sock is not None:
            return self._sock
        if self._consume_fault("net.conn.refused"):
            raise ConnectionRefusedError("injected connection refusal")
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            send_frame(sock, {"op": "hello", "proto": PROTO_VERSION})
            reply = recv_frame(sock)
        except (OSError, ValueError):
            sock.close()
            raise
        if not reply.get("ok"):
            sock.close()
            raise StoreError(
                f"net store {self.address} rejected handshake: "
                f"{reply.get('error', 'unknown error')}"
            )
        if self._ever_connected:
            self.counters.reconnects += 1
        self._ever_connected = True
        self._sock = sock
        self._sock_pid = os.getpid()
        return sock

    def close(self) -> None:
        """Drop the connection (reopened lazily on next use)."""
        self._drop_socket()

    # -- request machinery ---------------------------------------------

    def _next_rid(self) -> str:
        """A request id unique across processes, clients, and requests.

        ``lease_owner_id`` separates processes; the per-instance client
        id separates clients inside one process (a warmer and a
        scheduler must never be deduplicated against each other).
        """
        self._seq += 1
        return f"{lease_owner_id()}:{self._client_id}:{self._seq}"

    def _request(
        self,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        mutating: bool = False,
    ) -> Dict[str, Any]:
        """Send one request, retrying transient transport failures.

        The same frame — same ``rid`` — is resent on every retry, so the
        server's idempotency map guarantees a mutating op is applied at
        most once no matter how many replies were lost.  A reply with
        ``ok: false`` is a *server-side* failure and is never retried.
        """
        if self._server_dead:
            raise StoreError(
                f"net store {self.address} is down (injected server crash)"
            )
        if self._consecutive_failures >= BREAKER_THRESHOLD:
            self._ops_since_open += 1
            if self._ops_since_open % BREAKER_PROBE_EVERY != 0:
                raise StoreError(
                    f"net store {self.address} unreachable "
                    f"(circuit open after "
                    f"{self._consecutive_failures} failed requests)"
                )
        frame: Dict[str, Any] = {"op": op}
        if payload:
            frame.update(payload)
        if mutating:
            frame["rid"] = self._next_rid()
        last_error: Optional[BaseException] = None
        for round_no in range(self.retries + 1):
            if round_no > 0:
                self.counters.retried_requests += 1
                delay = backoff_delay(
                    round_no, f"net:{op}",
                    RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP,
                )
                if delay > 0:
                    time.sleep(delay)
            try:
                sock = self._socket()
            except StoreError:
                self._consecutive_failures += 1
                raise
            except (OSError, ValueError) as exc:
                last_error = exc
                self._drop_socket()
                continue
            try:
                send_frame(sock, frame)
                if self._consume_fault("net.read.timeout"):
                    raise socket.timeout("injected read timeout")
                reply = recv_frame(sock)
                if self._consume_fault("net.reply.corrupt"):
                    raise ValueError("injected corrupt reply frame")
            except (OSError, ValueError) as exc:
                last_error = exc
                self._drop_socket()
                continue
            self._consecutive_failures = 0
            self._ops_since_open = 0
            if not reply.get("ok"):
                raise StoreError(
                    f"net store {self.address} {op} failed: "
                    f"{reply.get('error', 'unknown error')}"
                )
            return reply
        self._consecutive_failures += 1
        raise StoreError(
            f"net store {self.address} unreachable for {op} after "
            f"{self.retries + 1} attempts: {last_error} "
            f"(accepted form: net://HOST:PORT)"
        )

    # -- entries -------------------------------------------------------

    def get(self, job: SimJob) -> Optional[SimResult]:
        """Stored result for ``job``, or ``None`` on miss.

        The server quarantines corrupt entries before replying; the
        client still re-validates the decoded result (a defense against
        reply corruption) and treats anything invalid as a miss.
        """
        reply = self._request("get", {"job": job.to_dict()})
        payload = reply.get("result")
        if payload is None:
            return None
        try:
            result = SimResult.from_dict(payload)
        except Exception:  # noqa: BLE001 - any malformed reply is a miss
            return None
        if validate_result(result, job):
            return None
        return result

    def put(self, job: SimJob, result: SimResult) -> str:
        """Persist ``result`` on the server; returns the job key."""
        reply = self._request(
            "put",
            {"job": job.to_dict(), "result": result.to_dict()},
            mutating=True,
        )
        return str(reply.get("key") or job.key())

    # -- maintenance ---------------------------------------------------

    def stats(self) -> StoreStats:
        """The server's census, re-rooted under this client's address."""
        reply = self._request("stats")
        stats = reply.get("stats") or {}
        return StoreStats(
            root=f"net://{self.address} ({stats.get('root', '?')})",
            entries=int(stats.get("entries") or 0),
            total_bytes=int(stats.get("total_bytes") or 0),
            quarantined=int(stats.get("quarantined") or 0),
            backend=self.backend,
            leases_active=int(stats.get("leases_active") or 0),
            leases_stale=int(stats.get("leases_stale") or 0),
            logical_bytes=int(stats.get("logical_bytes") or 0),
        )

    def clear(self) -> int:
        """Delete every entry on the server; returns the count."""
        reply = self._request("clear", mutating=True)
        return int(reply.get("removed") or 0)

    def prune(
        self,
        max_age_days: Optional[float] = None,
        keep: Optional[int] = None,
    ) -> int:
        """Trim the server's store; returns the number removed."""
        reply = self._request(
            "prune",
            {"max_age_days": max_age_days, "keep": keep},
            mutating=True,
        )
        return int(reply.get("removed") or 0)

    def quarantined_entries(self) -> Iterator[str]:
        """Server-side identifiers of quarantined entries."""
        reply = self._request("quarantined")
        return iter([str(item) for item in reply.get("entries") or []])

    # -- leases --------------------------------------------------------

    def acquire_lease(
        self,
        key: str,
        ttl: float = DEFAULT_LEASE_TTL,
        owner: Optional[str] = None,
    ) -> Optional[Lease]:
        """Take the server-authoritative compute lease for ``key``.

        The client's identity travels with the request, so the lease the
        server records is owned by *this* process — contention and
        stale-takeover semantics match the local backends exactly, but
        they now arbitrate across every machine talking to the server.
        """
        owner = owner if owner is not None else lease_owner_id()
        reply = self._request(
            "lease.acquire",
            {"key": key, "ttl": ttl, "owner": owner},
            mutating=True,
        )
        payload = reply.get("lease")
        if payload is None:
            self.counters.lease_contentions += 1
            return None
        lease = Lease(
            key=str(payload.get("key") or key),
            owner=str(payload.get("owner") or owner),
            acquired=float(payload.get("acquired") or 0.0),
            ttl=float(payload.get("ttl") or ttl),
            takeover=bool(payload.get("takeover")),
        )
        if lease.takeover:
            self.counters.stale_takeovers += 1
        return lease

    def renew_lease(self, lease: Lease) -> bool:
        """Refresh a held lease's heartbeat; False if no longer ours."""
        reply = self._request(
            "lease.renew",
            {"key": lease.key, "owner": lease.owner,
             "acquired": lease.acquired, "ttl": lease.ttl},
            mutating=True,
        )
        return bool(reply.get("renewed"))

    def release_lease(self, lease: Lease) -> bool:
        """Drop a held lease; False if it already expired or moved on."""
        reply = self._request(
            "lease.release",
            {"key": lease.key, "owner": lease.owner,
             "acquired": lease.acquired, "ttl": lease.ttl},
            mutating=True,
        )
        return bool(reply.get("released"))

    def active_leases(self) -> List[Tuple[str, str, bool]]:
        """The server's ``(key, owner, is_stale)`` lease census."""
        reply = self._request("leases")
        return [
            (str(key), str(owner), bool(stale))
            for key, owner, stale in reply.get("leases") or []
        ]
