"""Transports: how the coordinator reaches one worker.

A :class:`WorkerTransport` hides *where* a worker lives behind three
operations — ship a context, run a shard, close.  Implementations:

- :class:`InlineTransport` — the worker is the coordinator's own
  process.  The zero-worker special case, and the fallback the
  coordinator uses to finish a run after every real worker has died.
- :class:`SocketTransport` — a remote worker over TCP, speaking
  :mod:`repro.distributed.protocol`.  Liveness is heartbeat-based: the
  worker heartbeats while it builds a context or computes a shard, any
  frame resets the lease timer, and silence beyond the lease timeout
  means the worker is gone and raises :class:`WorkerUnavailable` so the
  coordinator re-leases the shard.
- :class:`repro.distributed.pool.LocalPoolTransport` — a
  :class:`SocketTransport` to a forked local worker over a socketpair:
  the same frames, heartbeats and lease rule.

Each socket transport is one *connection* to a (possibly shared)
worker: it tags its frames with the owning coordinator's campaign id
and verifies the worker's echoes — so several coordinators can
interleave heartbeats and results through one multiplexing worker
without confusing each other's campaigns.

Transport failures (:class:`WorkerUnavailable`) are *retryable*: the
shard is re-leased to another worker and, because draws are
index-deterministic, the replacement produces the same tally.
Worker-reported *fatal* errors (:class:`~repro.distributed.protocol.WorkerError`
with ``fatal=True``) are not retried — the same draw would fail the
same way anywhere.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple

from repro.campaign import Tally
from repro.distributed.protocol import (
    ConnectionClosed,
    FrameIntegrityError,
    ProtocolError,
    WorkerError,
    recv_message,
    recv_message_ex,
    send_message,
)
from repro.distributed.worker import ShardContext, ShardExecutor
from repro.obs import FAULTS
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.deadline import Deadline, DeadlineExpired

_CONTEXT_SHIPS = obs_metrics.REGISTRY.counter(
    "ocqa_context_ships_total",
    "Shard contexts shipped to socket and pool workers (cache misses on "
    "the worker side force a re-ship, counted here too).",
)
_TRANSPORT_EVENTS = obs_metrics.REGISTRY.counter(
    "ocqa_transport_events_total",
    "Socket-transport counters by stat, summed over every socket and pool "
    "transport: frames and bytes sent/received, result payload bytes raw "
    "vs shipped, compressed frames, integrity faults, reconnects, stale "
    "frames.",
    ("stat",),
    always=True,
)


def _record_pushed_metrics(worker: str, snapshot: Any) -> None:
    """Keep the latest telemetry snapshot a worker pushed.  Keyed by
    worker name — cumulative per worker — so re-pushes never double
    count.  Dropped while this process's own telemetry is off
    (``REPRO_METRICS=0``), like every other registry update."""
    if isinstance(snapshot, dict) and snapshot and obs_metrics.metrics_enabled():
        obs_metrics.REGISTRY.record_remote(f"worker:{worker}", snapshot)


def _retire_pushed_metrics(worker: str) -> None:
    """Fold an exited worker process's last snapshot into the registry's
    retained total (see :meth:`repro.obs.metrics.MetricsRegistry.retire_remote`)."""
    obs_metrics.REGISTRY.retire_remote(f"worker:{worker}")


class WorkerUnavailable(RuntimeError):
    """The worker behind a transport is unreachable or dead; the shard it
    held should be re-leased elsewhere."""


class WorkerTransport:
    """One worker, wherever it runs."""

    name: str = "worker"
    #: Cleared when the transport observes its worker die; the
    #: coordinator skips dead transports on subsequent ranges.
    alive: bool = True
    #: The campaign tag stamped on this transport's frames; assigned by
    #: the coordinator that owns it (see :meth:`bind_campaign`).
    campaign_id: Optional[str] = None
    #: ``False`` when :meth:`reconnect` can never succeed (a pool worker
    #: is a process that is gone once lost): the coordinator then
    #: abandons the worker at once instead of backing off on it.
    can_reconnect: bool = True

    def bind_campaign(self, campaign_id: str) -> None:
        """Adopt the owning coordinator's campaign id for frame tags."""
        self.campaign_id = campaign_id

    def ensure_context(
        self, context: ShardContext, timeout: Optional[float] = None
    ) -> None:
        """Ship *context* to the worker (idempotent, cached by id)."""
        raise NotImplementedError

    def run_shard(
        self, context: ShardContext, shard_id: int, start: int, count: int,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tally:
        """Tally one shard; raises :class:`WorkerUnavailable` on death.

        With a *deadline*, the worker abandons the shard once the budget
        is gone (raising
        :class:`repro.service.deadline.DeadlineExpired` here) instead of
        computing draws past it.
        """
        raise NotImplementedError

    def reconnect(self) -> bool:
        """Try to re-establish the worker after it was declared dead.

        Returns ``True`` when the worker answered again (the coordinator
        then resumes leasing shards to it).  The base implementation
        never does.
        """
        return False

    def close(self) -> None:
        """Release the worker (process, socket, ...)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.name} ({state})>"


class InlineTransport(WorkerTransport):
    """Run shards in the calling process, through the same executor code
    path as real workers — so inline results are byte-identical to
    remote ones by construction."""

    def __init__(self, name: str = "inline") -> None:
        self.name = name
        self.executor = ShardExecutor()

    def ensure_context(
        self, context: ShardContext, timeout: Optional[float] = None
    ) -> None:
        self.executor.ensure_context(context)

    def run_shard(
        self, context: ShardContext, shard_id: int, start: int, count: int,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tally:
        self.ensure_context(context)
        return self.executor.run_shard(
            context.context_id, start, count, deadline=deadline
        )

    def close(self) -> None:
        self.executor.close()


class SocketTransport(WorkerTransport):
    """A remote worker over TCP (see :mod:`repro.distributed.protocol`).

    The connection is opened lazily on first use and kept for the
    transport's lifetime; contexts are shipped once and cached by
    content id on the worker.  While a context builds or a shard
    computes, the worker heartbeats every few seconds — the receive
    loops treat any frame as liveness and only declare the worker dead
    after *timeout* seconds of silence (``None``: wait as long as it
    takes).

    Shipped-byte counters accumulate in :attr:`stats`
    (``payload_raw_bytes`` vs ``payload_wire_bytes`` is the compression
    win; see ``BENCH_PR5.json``).
    Each bump also lands in the process-wide
    ``ocqa_transport_events_total``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        connect_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.name = name or f"{host}:{port}"
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._shipped: set = set()
        #: Cumulative byte accounting across the transport's lifetime.
        self.stats: Dict[str, int] = {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            "payload_raw_bytes": 0,
            "payload_wire_bytes": 0,
            "compressed_frames": 0,
            "integrity_faults": 0,
            "reconnects": 0,
            "stale_frames": 0,
        }
        for stat in self.stats:  # every report key exists from the start
            _TRANSPORT_EVENTS.inc(0, stat=stat)

    @classmethod
    def parse(cls, address: str, **kwargs) -> "SocketTransport":
        """Build from a ``host:port`` string (the CLI's ``--worker``)."""
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"worker address {address!r} is not of the form host:port"
            )
        return cls(host, int(port), **kwargs)

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def _send(self, sock: socket.socket, header: dict, payload: Any = None) -> None:
        if self.campaign_id is not None:
            header = {**header, "campaign": self.campaign_id}
        frame = send_message(sock, header, payload)
        self._count("frames_sent")
        self._count("bytes_sent", frame.frame_bytes)

    def _recv(self, sock: socket.socket) -> Tuple[dict, Any]:
        try:
            header, payload, frame = recv_message_ex(sock)
        except FrameIntegrityError:
            self._count("integrity_faults")
            FAULTS.inc(kind="crc_failures")
            raise
        self._count("frames_received")
        self._count("bytes_received", frame.frame_bytes)
        self._count("payload_raw_bytes", frame.payload_raw)
        self._count("payload_wire_bytes", frame.payload_wire)
        if frame.compressed:
            self._count("compressed_frames")
        return header, payload

    def _count(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] += amount
        _TRANSPORT_EVENTS.inc(amount, stat=stat)

    def _push_metrics(self, snapshot: Any) -> None:
        """Keep the telemetry snapshot a heartbeat or result carried."""
        _record_pushed_metrics(self.name, snapshot)

    def _connection(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        sock = None
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello: Dict[str, Any] = {"type": "hello"}
            if self.campaign_id is not None:
                hello["campaign"] = self.campaign_id
            send_message(sock, hello)
            sock.settimeout(self.connect_timeout)
            header, _ = recv_message(sock)
            if header.get("type") != "welcome":
                raise ProtocolError(
                    f"worker {self.name} answered the hello with "
                    f"{header.get('type')!r}"
                )
        except (OSError, ProtocolError) as exc:
            if sock is not None:
                sock.close()
            self._drop()
            raise WorkerUnavailable(
                f"cannot reach worker {self.name}: {exc}"
            ) from exc
        self._sock = sock
        self.alive = True
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._shipped.clear()
        self.alive = False

    # ------------------------------------------------------------------
    # Protocol operations
    # ------------------------------------------------------------------
    def ensure_context(
        self, context: ShardContext, timeout: Optional[float] = None
    ) -> None:
        if context.context_id in self._shipped:
            return
        sock = self._connection()
        try:
            self._send(sock, {"type": "context"}, context)
            sock.settimeout(timeout)
            while True:
                header, _ = self._recv(sock)
                if self._is_stale(header, expect="context_ok"):
                    continue  # a build heartbeat resets the lease timer
                break
        except WorkerError:
            raise
        except (OSError, ProtocolError) as exc:
            # ProtocolError covers ConnectionClosed and a corrupted
            # context_ok frame (FrameIntegrityError) — all transient:
            # drop the socket and let the coordinator reconnect.
            self._drop()
            raise WorkerUnavailable(
                f"worker {self.name} lost while shipping a context: {exc}"
            ) from exc
        if header.get("type") == "error":
            if header.get("draining"):
                self._drop()
                raise WorkerUnavailable(
                    f"worker {self.name} is draining; re-lease the shard"
                )
            raise WorkerError(
                header.get("message", "context build failed"),
                exception_type=header.get("exception"),
                fatal=bool(header.get("fatal", True)),
            )
        if header.get("type") != "context_ok":
            self._drop()
            raise WorkerUnavailable(
                f"worker {self.name} answered a context frame with "
                f"{header.get('type')!r}"
            )
        self._shipped.add(context.context_id)
        _CONTEXT_SHIPS.inc()
        obs_trace.span(
            "context_ship",
            worker=self.name,
            campaign=self.campaign_id,
            context=context.context_id,
        )

    def _is_stale(
        self, header: dict, expect: str, shard_id: Optional[int] = None
    ) -> bool:
        """Whether *header* is a stale frame to skip rather than the
        answer to the request in flight.

        A faulty network can replay frames (the chaos proxy's
        ``duplicate`` fault models middleboxes doing exactly that), so a
        duplicated ``result``/``pong`` may still sit in the stream when
        the next request's answer is awaited.  Such frames are dropped —
        counted in ``stats["stale_frames"]`` — instead of burning the
        connection and a lease attempt on a protocol error.  Heartbeats
        are likewise pure liveness.
        """
        kind = header.get("type")
        if kind == "heartbeat":
            self._push_metrics(header.get("metrics"))
            return True
        stale = (
            (kind == "pong" and expect != "pong")
            or (kind == "context_ok" and expect != "context_ok")
            or (
                kind == "result"
                and (expect != "result" or header.get("shard") != shard_id)
            )
        )
        if stale:
            self._count("stale_frames")
        return stale

    def _check_campaign(self, header: dict) -> None:
        """A frame not tagged with this transport's campaign means the
        worker is confusing its multiplexed connections — fail loudly."""
        tag = header.get("campaign")
        if self.campaign_id is not None and tag != self.campaign_id:
            raise ProtocolError(
                f"worker {self.name} answered campaign {self.campaign_id!r} "
                f"with a frame for campaign {tag!r}"
            )

    def run_shard(
        self, context: ShardContext, shard_id: int, start: int, count: int,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tally:
        self.ensure_context(context, timeout=timeout)
        sock = self._connection()
        try:
            # At most one retry: the worker answers ``need_context`` when
            # its LRU evicted the (previously shipped) context, we
            # re-ship, and a fresh build cannot be evicted again before
            # this shard runs.
            for _attempt in range(2):
                request: Dict[str, Any] = {
                    "type": "run",
                    "context": context.context_id,
                    "shard": shard_id,
                    "start": start,
                    "count": count,
                }
                if deadline is not None:
                    # Ship the *remaining* budget, not the absolute
                    # point: monotonic clocks do not survive a socket.
                    request["deadline"] = round(deadline.remaining(), 6)
                self._send(sock, request)
                reshipped = False
                while True:
                    sock.settimeout(
                        timeout if deadline is None else deadline.clamp(timeout)
                    )
                    header, payload = self._recv(sock)
                    self._check_campaign(header)
                    if self._is_stale(header, expect="result", shard_id=shard_id):
                        continue  # any frame resets the lease timer
                    kind = header.get("type")
                    if kind == "need_context":
                        self._shipped.discard(context.context_id)
                        self.ensure_context(context, timeout=timeout)
                        reshipped = True
                        break
                    if kind == "error":
                        if header.get("draining"):
                            # The worker is gracefully draining: hand the
                            # shard back and treat the worker like a lost
                            # one — the reconnect ladder lets a restarted
                            # replacement rejoin the fleet.
                            self._drop()
                            raise WorkerUnavailable(
                                f"worker {self.name} is draining; "
                                "re-lease the shard"
                            )
                        if header.get("deadline_expired"):
                            raise DeadlineExpired(
                                header.get("message", "shard deadline expired")
                            )
                        retry_after = header.get("retry_after")
                        raise WorkerError(
                            header.get("message", "worker error"),
                            exception_type=header.get("exception"),
                            fatal=bool(header.get("fatal")),
                            retriable=bool(header.get("retriable")),
                            retry_after=(
                                float(retry_after)
                                if retry_after is not None
                                else None
                            ),
                        )
                    if kind == "result":
                        self._push_metrics(payload.get("metrics"))
                        return payload["tally"]
                    raise ProtocolError(
                        f"unexpected {kind!r} frame while awaiting a result"
                    )
                if not reshipped:
                    break
            raise ProtocolError(
                f"worker {self.name} still lacks context "
                f"{context.context_id} after a re-ship"
            )
        except WorkerError:
            raise
        except (OSError, ConnectionClosed, ProtocolError, socket.timeout) as exc:
            self._drop()
            raise WorkerUnavailable(
                f"worker {self.name} lost mid-shard: {exc}"
            ) from exc

    def ping(self) -> bool:
        """Round-trip liveness probe (used by the CLI's preflight)."""
        try:
            sock = self._connection()
            self._send(sock, {"type": "ping"})
            sock.settimeout(self.connect_timeout)
            # Bounded skip of stale frames (duplicated results/pongs a
            # faulty network left queued) so one replay cannot fail the
            # liveness probe.
            for _ in range(8):
                header, _ = self._recv(sock)
                if self._is_stale(header, expect="pong"):
                    continue
                return header.get("type") == "pong"
            return False
        except (WorkerUnavailable, OSError, ProtocolError):
            return False

    def reconnect(self) -> bool:
        """Drop any stale socket and probe the worker again.

        The connection is lazy, so a successful ping both proves the
        worker is back and leaves a fresh handshaken socket behind;
        contexts re-ship on first use (``_shipped`` was cleared with the
        old connection).  Counted in ``stats["reconnects"]`` so a rejoin
        is observable in :meth:`Coordinator.transport_report`.
        """
        self._drop()
        if not self.ping():
            return False
        self._count("reconnects")
        self.alive = True
        return True

    def drain_worker(self) -> bool:
        """Ask the remote worker to drain gracefully (the frame-level
        twin of SIGTERM; used by the supervisor for rolling restarts).
        Returns ``True`` when the worker acknowledged the drain."""
        try:
            sock = self._connection()
            self._send(sock, {"type": "drain"})
            sock.settimeout(self.connect_timeout)
            for _ in range(8):
                header, _ = self._recv(sock)
                if self._is_stale(header, expect="drain_ok"):
                    continue
                return header.get("type") == "drain_ok"
            return False
        except (WorkerUnavailable, OSError, ProtocolError):
            return False
        finally:
            self.close()

    def shutdown_worker(self) -> None:
        """Ask the remote worker process to exit its serve loop."""
        try:
            sock = self._connection()
            self._send(sock, {"type": "shutdown"})
        except (WorkerUnavailable, OSError):
            pass
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._shipped.clear()
