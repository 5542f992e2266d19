"""Worker side of the distributed sampling service.

A worker holds *warm sampling contexts*: for each campaign shipped to it
(a :class:`ShardContext`), it builds the full sampling runtime **once**
— loaded instance in a local scratch backend, violation/conflict
indexes, per-group repairing chains, compiled query — and keeps it
across every shard of that campaign.

Draw determinism: a shard is a contiguous range of global draw indices,
and every draw is computed from
:func:`repro.campaign.draw_rng`'s ``(seed, group, index)`` substreams —
so the same shard computed by any worker (or by the coordinator inline)
yields byte-identical outcomes.

One worker, many campaigns: :class:`WorkerServer` runs one thread per
coordinator connection over a single shared :class:`ShardExecutor`, so
one ``ocqa worker --listen`` process serves several coordinators (and
several campaigns) concurrently.  The executor's warm-context cache is
campaign-keyed — a context id *is* a content digest of the campaign —
and thread-safe: campaigns on different contexts compute in parallel,
while two connections racing the *same* campaign context serialize on
that context's lock (a warm runtime is stateful: scratch backend,
chains, memo caches).

Three hosting modes share the same :class:`ShardExecutor`:

- **socket service** — ``ocqa worker --listen host:port`` runs
  :func:`serve`, speaking :mod:`repro.distributed.protocol` to remote
  coordinators (heartbeat frames flow while a shard computes);
- **local pool** — :mod:`repro.distributed.pool` forks persistent
  processes that run :func:`pool_worker_main` over a pipe;
- **inline** — :class:`repro.distributed.transport.InlineTransport`
  executes shards in the coordinator's own process (the zero-worker
  special case, and the fallback when every worker has died).
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.campaign import SamplingCampaign
from repro.core.errors import FailingSequenceError
from repro.distributed.chaos import FailpointError, failpoint
from repro.distributed.protocol import (
    MAGIC,
    ConnectionClosed,
    FrameIntegrityError,
    ProtocolError,
    intern_outcomes,
    recv_message,
    send_message,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.deadline import Deadline, DeadlineExpired

log = logging.getLogger("repro.distributed.worker")

#: Exception types a worker reports as *fatal*: re-leasing the shard
#: would deterministically fail the same way, so the coordinator should
#: re-raise instead of retrying.
FATAL_EXCEPTIONS: Tuple[type, ...] = (
    FailingSequenceError,
    ValueError,
    TypeError,
    KeyError,
)

#: How many warm campaign contexts one worker keeps (LRU-evicted).
DEFAULT_CONTEXT_LIMIT = 8

#: Shard-executor telemetry lives in :data:`repro.obs.metrics.WORKER_REGISTRY`
#: — the registry a worker pushes to its parent (on result and heartbeat
#: frames) and serves on its ``--metrics-port`` sidecar.  Keeping it out
#: of the default registry means an in-process worker (tests, local
#: fleets) is counted exactly once on the parent's ``/metrics``: via the
#: push.
_W_SHARDS = obs_metrics.WORKER_REGISTRY.counter(
    "ocqa_worker_shards_total", "Shards executed by this worker process."
)
_W_DRAWS = obs_metrics.WORKER_REGISTRY.counter(
    "ocqa_worker_draws_total", "Draw outcomes computed by this worker process."
)
_W_CONTEXTS_BUILT = obs_metrics.WORKER_REGISTRY.counter(
    "ocqa_worker_contexts_built_total",
    "Warm campaign contexts built (a re-ship after eviction builds again).",
)
_W_CONTEXTS_EVICTED = obs_metrics.WORKER_REGISTRY.counter(
    "ocqa_worker_contexts_evicted_total",
    "Warm campaign contexts closed by LRU pressure.",
)
_W_INFLIGHT = obs_metrics.WORKER_REGISTRY.gauge(
    "ocqa_worker_inflight_shards",
    "Shards currently computing on this worker.",
)


def worker_metrics_snapshot() -> Dict[str, Any]:
    """The cumulative telemetry a worker pushes to its parent."""
    return obs_metrics.WORKER_REGISTRY.snapshot()


class UnknownContextError(KeyError):
    """A shard named a context this executor does not hold (never
    shipped over this hosting mode, or LRU-evicted).  The protocol
    handlers translate exactly this — not arbitrary runtime
    ``KeyError``s — into a ``need_context`` re-ship request."""


@dataclass(frozen=True)
class ShardContext:
    """A self-contained, picklable description of one campaign's draws.

    ``kind`` selects the runtime builder; ``payload`` carries everything
    needed to rebuild the sampling state from scratch on a bare worker:
    the facts, schema/constraints, policy/generator, the query, and the
    campaign seed.  ``context_id`` is a content digest, so a persistent
    worker serving several coordinator runs of the same campaign reuses
    one warm context.
    """

    context_id: str
    kind: str
    payload: Dict[str, Any]

    @staticmethod
    def create(kind: str, payload: Dict[str, Any]) -> "ShardContext":
        try:
            blob = pickle.dumps((kind, payload))
        except Exception as exc:
            raise ValueError(
                f"this campaign cannot be distributed: its {kind} context "
                f"does not pickle ({exc}); run without workers instead"
            ) from exc
        return ShardContext(
            context_id=hashlib.sha256(blob).hexdigest()[:32],
            kind=kind,
            payload=payload,
        )


class _ChainRuntime:
    """Warm runtime for the core estimators (one chain, one query)."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        from repro.db.facts import Database

        self.seed = payload["seed"]
        self.query = payload["query"]
        self.candidate = payload.get("candidate")
        self.allow_failing = bool(payload.get("allow_failing"))
        self.stream_key = payload.get("stream_key", "root")
        self.chain = payload["generator"].chain(Database(payload["facts"]))

    def outcomes(self, start: int, count: int) -> List[Any]:
        from repro.core.sampling import chain_outcomes_for_range

        return chain_outcomes_for_range(
            self.chain, self.query, self.candidate, self.allow_failing,
            self.seed, self.stream_key, start, count,
        )


class _SamplerRuntime:
    """Warm runtime for the SQL samplers (scratch backend + warm chains).

    The worker always materialises the instance in a local SQLite
    scratch database: draws depend only on the facts and the RNG
    substreams, and query evaluation is backend-agnostic (the
    conformance suite pins sqlite == postgres == memory), so a worker
    needs no connection to the coordinator's database.
    """

    def __init__(self, kind: str, payload: Dict[str, Any]) -> None:
        from repro.db.facts import Database
        from repro.sql.backend import SQLiteBackend

        # check_same_thread=False: the executor runs a context from
        # whichever connection thread holds its per-context lock (one at
        # a time), and closes it from whichever thread evicts it.
        self.backend = SQLiteBackend(check_same_thread=False)
        database = Database(payload["facts"])
        self.backend.load(database, payload["schema"])
        campaign = SamplingCampaign(seed=payload["seed"])
        if kind == "key_sampler":
            from repro.sql.sampler import KeyRepairSampler

            self.sampler = KeyRepairSampler(
                self.backend,
                payload["schema"],
                payload["keys"],
                policy=payload["policy"],
                trust=payload.get("trust") or {},
                campaign=campaign,
            )
        else:
            from repro.sql.generic import ConstraintRepairSampler

            generator = payload["generator"]
            self.sampler = ConstraintRepairSampler(
                self.backend,
                payload["schema"],
                payload["constraints"],
                generator_factory=lambda _constraints: generator,
                campaign=campaign,
            )
        self.compiled = self.sampler.compile(payload["query"])

    def outcomes(self, start: int, count: int) -> List[Any]:
        return self.sampler.outcomes_for_range(self.compiled, start, count)

    def close(self) -> None:
        self.backend.close()


def _build_runtime(context: ShardContext):
    if context.kind == "chain":
        return _ChainRuntime(context.payload)
    if context.kind in ("key_sampler", "constraint_sampler"):
        return _SamplerRuntime(context.kind, context.payload)
    raise ValueError(f"unknown shard context kind {context.kind!r}")


def worker_cache_stats() -> Dict[str, Dict[str, int]]:
    """This process's shared memo counters (for coordinator aggregation).

    Workers attach these to every ``result`` frame;
    :func:`repro.diagnostics.record_worker_cache_stats` folds them into
    :func:`repro.diagnostics.cache_report`, fixing the long-standing
    blind spot where multiprocess runs reported only the parent's
    counters.
    """
    from repro.diagnostics import _shared_cache_stats

    return _shared_cache_stats()


@dataclass
class _RuntimeSlot:
    """One warm context plus the state needed to share it safely.

    ``lock`` serializes shard execution on the (stateful) runtime;
    ``active`` counts threads currently inside :meth:`ShardExecutor.run_shard`
    so LRU eviction never closes a runtime mid-shard.
    """

    runtime: Any
    lock: Any = field(default_factory=threading.Lock)
    active: int = 0
    #: Connections currently anchored on this context (see
    #: :meth:`ShardExecutor.pin`); pinned slots are never evicted.
    pins: int = 0


class ShardExecutor:
    """Builds, caches, and runs warm shard contexts (all hosting modes).

    Thread-safe: many connection threads share one executor.  The
    warm-context cache is campaign-keyed (a ``context_id`` is a content
    digest of its campaign), with a per-context lock so distinct
    campaigns execute concurrently while same-context shards serialize.
    A context being computed is never LRU-evicted; if every resident
    context is busy the cache temporarily overshoots its limit rather
    than closing a live runtime.
    """

    def __init__(self, context_limit: int = DEFAULT_CONTEXT_LIMIT) -> None:
        self.context_limit = max(1, context_limit)
        self._slots: "OrderedDict[str, _RuntimeSlot]" = OrderedDict()
        #: Builds in flight: waiters block on the event instead of
        #: duplicating an expensive context build.
        self._building: Dict[str, threading.Event] = {}
        self._lock = threading.RLock()
        #: owner (connection token) -> the context it is anchored on.
        self._pinned: Dict[str, str] = {}
        self.shards_run = 0
        self.contexts_built = 0
        #: Contexts closed by LRU pressure (observability).
        self.contexts_evicted = 0

    def has_context(self, context_id: str) -> bool:
        with self._lock:
            return context_id in self._slots

    def ensure_context(self, context: ShardContext) -> None:
        """Build (or refresh the LRU slot of) *context*'s runtime.

        Concurrent calls for the same context build it once: the first
        caller builds, the rest wait on its completion and then re-check
        (re-building themselves only if the first build failed or the
        slot was already evicted again).
        """
        while True:
            with self._lock:
                slot = self._slots.get(context.context_id)
                if slot is not None:
                    self._slots.move_to_end(context.context_id)
                    return
                event = self._building.get(context.context_id)
                if event is None:
                    event = threading.Event()
                    self._building[context.context_id] = event
                    break
            event.wait()
        try:
            failpoint("worker.context_build")
            runtime = _build_runtime(context)
        except BaseException:
            with self._lock:
                del self._building[context.context_id]
            event.set()
            raise
        with self._lock:
            self.contexts_built += 1
            self._slots[context.context_id] = _RuntimeSlot(runtime)
            del self._building[context.context_id]
            self._evict_stale_locked()
        _W_CONTEXTS_BUILT.inc()
        event.set()

    def pin(self, owner: str, context_id: str) -> None:
        """Anchor *owner* (a connection token) on *context_id*.

        A pinned context is exempt from LRU eviction, so the campaign a
        connection is actively driving can never be squeezed out by
        *other* campaigns between its context ship and its run frames —
        without pinning, more concurrent campaigns than the context
        limit would thrash re-ships forever.  Each owner pins at most
        one context (its current campaign); the cache may overshoot its
        limit by up to the number of live connections.
        """
        with self._lock:
            previous = self._pinned.get(owner)
            if previous == context_id:
                return
            if previous is not None:
                stale = self._slots.get(previous)
                if stale is not None:
                    stale.pins -= 1
            slot = self._slots.get(context_id)
            if slot is not None:
                slot.pins += 1
                self._pinned[owner] = context_id
            elif previous is not None:
                del self._pinned[owner]
            self._evict_stale_locked()

    def unpin(self, owner: str) -> None:
        """Release *owner*'s anchor (connection closed)."""
        with self._lock:
            context_id = self._pinned.pop(owner, None)
            if context_id is not None:
                slot = self._slots.get(context_id)
                if slot is not None:
                    slot.pins -= 1
            self._evict_stale_locked()

    def _evict_stale_locked(self) -> None:
        """Close least-recently-used idle contexts beyond the limit.

        Three exemptions keep concurrent campaigns safe and useful: a
        context mid-shard is never closed, a context pinned by a live
        connection is never closed, and the most-recently-used slot is
        never the victim (evicting the context a connection just shipped
        or touched would guarantee an immediate re-ship).  When every
        slot is exempt the cache overshoots its limit until the next
        idle moment.
        """
        while len(self._slots) > self.context_limit:
            newest = next(reversed(self._slots))
            victim_id = next(
                (
                    context_id
                    for context_id, slot in self._slots.items()
                    if slot.active == 0
                    and slot.pins == 0
                    and context_id != newest
                ),
                None,
            )
            if victim_id is None:
                return
            stale = self._slots.pop(victim_id)
            self.contexts_evicted += 1
            _W_CONTEXTS_EVICTED.inc()
            if hasattr(stale.runtime, "close"):
                stale.runtime.close()

    def _abandon_expired(self, start: int, count: int) -> None:
        from repro.diagnostics import record_deadline_expiration

        record_deadline_expiration()
        obs_trace.span("deadline_expired", scope="shard", start=start, count=count)
        raise DeadlineExpired(
            f"abandoning shard [{start}, {start + count}): its deadline "
            "passed before it ran"
        )

    def run_shard(
        self,
        context_id: str,
        start: int,
        count: int,
        deadline: Optional[Deadline] = None,
    ) -> List[Any]:
        """Outcomes for draws ``[start, start + count)`` of a context.

        With a *deadline*, the shard is abandoned (raising
        :class:`repro.service.deadline.DeadlineExpired`) if the budget is
        already gone — checked again after acquiring the context lock,
        since waiting behind another shard on the same warm context can
        consume the whole budget.  Draws nobody will merge are never
        computed.
        """
        if deadline is not None and deadline.expired:
            self._abandon_expired(start, count)
        with self._lock:
            slot = self._slots.get(context_id)
            if slot is None:
                raise UnknownContextError(
                    f"unknown shard context {context_id!r}; the coordinator "
                    "must ship the context before (or with) the first shard"
                )
            self._slots.move_to_end(context_id)
            slot.active += 1
            self.shards_run += 1
        try:
            failpoint("worker.mid_shard")
            failpoint("worker.memory_pressure")
            with slot.lock:
                if deadline is not None and deadline.expired:
                    self._abandon_expired(start, count)
                outcomes = slot.runtime.outcomes(start, count)
            _W_SHARDS.inc()
            _W_DRAWS.inc(len(outcomes))
            return outcomes
        finally:
            with self._lock:
                slot.active -= 1
                self._evict_stale_locked()

    def close(self) -> None:
        with self._lock:
            slots = list(self._slots.values())
            self._slots.clear()
        for slot in slots:
            if hasattr(slot.runtime, "close"):
                slot.runtime.close()


class _Heartbeat:
    """Background thread sending heartbeat frames while a shard computes.

    The coordinator's lease timer treats any frame as liveness, so a
    long shard on a healthy worker never expires its lease, while a
    killed worker stops heartbeating immediately.
    """

    def __init__(
        self, send: Callable[[dict], None], interval: float, header: dict
    ) -> None:
        self._send = send
        self._interval = interval
        self._header = header
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._send(dict(self._header))
            except OSError:
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


class WorkerServer:
    """A socket-serving worker multiplexing many coordinator connections.

    Each accepted connection gets its own thread, all sharing one
    :class:`ShardExecutor` — so a single ``ocqa worker`` process serves
    several coordinators/campaigns concurrently, with warm contexts
    shared across connections by content id.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: Optional[str] = None,
        heartbeat_interval: float = 2.0,
        context_limit: int = DEFAULT_CONTEXT_LIMIT,
        max_inflight: int = 0,
        drain_timeout: float = 30.0,
    ) -> None:
        self.executor = ShardExecutor(context_limit)
        self.heartbeat_interval = heartbeat_interval
        #: At most this many shards compute at once (0 = unbounded).
        #: Beyond it, run frames are answered with a retriable
        #: ``WorkerBusy`` error instead of queueing without bound —
        #: backpressure the coordinator turns into a short back-off.
        self.max_inflight = max(0, int(max_inflight))
        #: How long a graceful drain waits for in-flight shards before
        #: giving up and shutting down anyway.
        self.drain_timeout = drain_timeout
        self._shutdown = threading.Event()
        self._draining = threading.Event()
        self._drain_started: Optional[float] = None
        self._active_cond = threading.Condition()
        self._active_shards = 0
        self._conn_lock = threading.Lock()
        self._connections: List[socket.socket] = []
        #: Malformed/undecodable frames observed, by kind — mirrored into
        #: the diagnostics fault registry (``cache_report``'s ``faults``
        #: section) so a worker silently shedding connections is visible.
        self.fault_counts: Dict[str, int] = {}
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self.name = name or f"worker@{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept coordinator connections until a ``shutdown`` frame.

        Connections are served concurrently, one daemon thread each;
        ``shutdown`` (from any coordinator) stops the accept loop, closes
        every open connection, and drains the threads.  A *drain*
        (SIGTERM, SIGINT, or a ``drain`` frame — see
        :meth:`request_drain`) instead stops accepting, finishes the
        shards already in flight, answers new runs with a retriable
        ``draining`` error so the coordinator re-leases them elsewhere,
        and then shuts down cleanly.
        """
        self._sock.settimeout(0.5)
        threads: List[threading.Thread] = []
        try:
            while not self._shutdown.is_set() and not self._draining.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                with self._conn_lock:
                    self._connections.append(conn)
                thread = threading.Thread(
                    target=self._connection_main, args=(conn,), daemon=True
                )
                thread.start()
                # Prune finished connection threads so a long-lived
                # worker's bookkeeping stays bounded by *live* connections.
                threads = [t for t in threads if t.is_alive()]
                threads.append(thread)
        finally:
            self._sock.close()
            if self._draining.is_set() and not self._shutdown.is_set():
                self._await_drain()
                self._shutdown.set()
            self._close_connections()
            for thread in threads:
                thread.join(timeout=2.0)
            self.executor.close()

    def start(self) -> threading.Thread:
        """Serve on a daemon thread (for tests and embedded workers)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        self._shutdown.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent, async-signal-safe).

        Sets a flag the serve loop and request handlers observe; the
        actual waiting happens on the serving thread, never here — this
        is callable from a signal handler.
        """
        if not self._draining.is_set():
            self._drain_started = time.monotonic()
            self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def _await_drain(self) -> None:
        """Wait (bounded) for in-flight shards, then record the drain."""
        give_up = time.monotonic() + self.drain_timeout
        with self._active_cond:
            while self._active_shards and time.monotonic() < give_up:
                self._active_cond.wait(0.2)
            abandoned = self._active_shards
        duration = time.monotonic() - (self._drain_started or time.monotonic())
        from repro.diagnostics import record_drain

        record_drain(duration)
        if abandoned:
            log.warning(
                "%s: drain timed out after %.1fs with %d shard(s) still "
                "in flight",
                self.name,
                duration,
                abandoned,
            )
        else:
            log.info("%s: drained in %.3fs", self.name, duration)

    def _begin_shard(self) -> bool:
        """Claim an in-flight slot; ``False`` means shed (worker busy)."""
        with self._active_cond:
            if self.max_inflight and self._active_shards >= self.max_inflight:
                return False
            self._active_shards += 1
            _W_INFLIGHT.set(self._active_shards)
            return True

    def _end_shard(self) -> None:
        with self._active_cond:
            self._active_shards -= 1
            _W_INFLIGHT.set(self._active_shards)
            self._active_cond.notify_all()

    def _record_fault(self, kind: str) -> None:
        from repro.diagnostics import record_fault

        with self._conn_lock:
            self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        record_fault(kind)
        obs_trace.span("worker_fault", worker=self.name, kind=kind)

    def _close_connections(self) -> None:
        with self._conn_lock:
            connections, self._connections = self._connections, []
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    def _connection_main(self, conn: socket.socket) -> None:
        try:
            self._serve_connection(conn)
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _recv_request(self, conn: socket.socket):
        """One request frame, polling for shutdown while the line is idle.

        The 1s timeout applies only *between* frames (a one-byte peek):
        once a frame starts arriving the read blocks until it is whole,
        so a slow coordinator can never be cut off mid-frame.
        """
        while True:
            if self._shutdown.is_set():
                raise ConnectionClosed("worker shutting down")
            conn.settimeout(1.0)
            try:
                first = conn.recv(1, socket.MSG_PEEK)
            except socket.timeout:
                continue
            if not first:
                raise ConnectionClosed("coordinator closed the connection")
            conn.settimeout(None)
            return recv_message(conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()
        #: This connection's pin token: the campaign it is actively
        #: driving stays anchored in the executor's cache until the
        #: connection moves to another campaign or closes.
        owner = f"conn-{id(conn)}"

        def send(header: dict, payload: Any = None) -> None:
            # Sends must never inherit the 1s shutdown-poll timeout the
            # receive side uses: a large result frame over a slow link
            # may legitimately take longer than that to transmit.
            with send_lock:
                conn.settimeout(None)
                send_message(conn, header, payload)

        frames_served = 0
        try:
            while not self._shutdown.is_set():
                try:
                    header, payload = self._recv_request(conn)
                except ConnectionClosed:
                    return
                except (ProtocolError, OSError) as exc:
                    # A malformed/undecodable frame leaves the byte stream
                    # unsynchronized, so the connection must close — but
                    # *silently*: answering with a fatal error frame would
                    # kill a campaign mid-await, whereas a plain close is
                    # the transient WorkerUnavailable the coordinator
                    # re-leases and reconnects through.  Count and log it
                    # instead of letting the thread die unobserved.
                    if isinstance(exc, FrameIntegrityError):
                        kind = "crc_failures"
                    elif isinstance(exc, ProtocolError):
                        kind = "malformed_frames"
                    else:
                        kind = "connection_errors"
                    self._record_fault(kind)
                    log.warning(
                        "%s: dropping connection %s after %d good frame(s): "
                        "%s (%s)",
                        self.name,
                        owner,
                        frames_served,
                        exc,
                        kind,
                    )
                    return
                frames_served += 1
                try:
                    if not self._handle(header, payload, send, owner):
                        return
                except FailpointError as exc:
                    # Injected crash (e.g. after-result-before-ack): die
                    # the way a real crash would — connection dropped, no
                    # ack — so the coordinator re-leases and reconnects.
                    self._record_fault("injected_crashes")
                    log.warning(
                        "%s: connection %s crashed by %s", self.name, owner, exc
                    )
                    return
                except OSError:
                    return
                except (ProtocolError, KeyError, TypeError) as exc:
                    # A request frame that parsed but is structurally
                    # wrong (missing/mistyped fields): malformed, not a
                    # campaign error — drop the connection silently
                    # so the coordinator re-leases, exactly like an
                    # undecodable frame above.
                    self._record_fault("malformed_frames")
                    log.warning(
                        "%s: dropping connection %s after a malformed "
                        "request frame: %s",
                        self.name,
                        owner,
                        exc,
                    )
                    return
        finally:
            self.executor.unpin(owner)

    def _handle(
        self,
        header: dict,
        payload: Any,
        send: Callable[..., None],
        owner: str = "",
    ) -> bool:
        kind = header["type"]
        #: Echoed on every frame answering a campaign-tagged request, so
        #: the coordinator can attribute heartbeats/results per campaign.
        campaign = header.get("campaign")

        def tagged(reply: dict) -> dict:
            if campaign is not None:
                reply["campaign"] = campaign
            return reply

        if kind == "hello":
            send(
                {
                    "type": "welcome",
                    "name": self.name,
                    "magic": MAGIC.decode("ascii"),
                }
            )
            return True
        if kind == "ping":
            send(tagged({"type": "pong", "name": self.name}))
            return True
        if kind in ("context", "run") and self._draining.is_set():
            # Draining: hand the shard back instead of starting new work.
            # The transports turn a ``draining`` error into
            # ``WorkerUnavailable`` — the coordinator re-leases the shard
            # on another worker and retries this one through its
            # reconnect ladder, which is exactly how a rolling restart
            # rejoins the fleet.
            send(
                tagged(
                    {
                        "type": "error",
                        "message": f"worker {self.name} is draining",
                        "exception": "WorkerDraining",
                        "fatal": False,
                        "retriable": True,
                        "draining": True,
                    }
                )
            )
            return True
        if kind == "context":
            try:
                self.executor.ensure_context(payload)
                if owner:
                    self.executor.pin(owner, payload.context_id)
                send(tagged({"type": "context_ok", "context": payload.context_id}))
            except Exception as exc:  # report, keep serving
                send(
                    tagged(
                        {
                            "type": "error",
                            "message": f"context build failed: {exc}",
                            "exception": type(exc).__name__,
                            # A context that cannot build here cannot
                            # build anywhere (deterministic payload) —
                            # except an injected crash, which re-shipping
                            # heals.
                            "fatal": not isinstance(exc, FailpointError),
                        }
                    )
                )
            return True
        if kind == "run":
            shard_id = header.get("shard", -1)
            # Extract the required fields up front: a run frame missing
            # one (header corrupted in flight but still valid JSON) is a
            # malformed frame — the KeyError propagates to the connection
            # loop's malformed-frame handler instead of masquerading as a
            # fatal campaign error.
            context_id = header["context"]
            start = header["start"]
            count = header["count"]
            if owner:
                # Anchor the campaign this connection is driving, so
                # other campaigns' builds cannot evict it mid-run.
                self.executor.pin(owner, context_id)
            if not self.executor.has_context(context_id):
                # The context was LRU-evicted (or never shipped over this
                # connection): ask the coordinator to re-ship instead of
                # failing the shard.
                send(tagged({"type": "need_context", "context": context_id}))
                return True
            # The shard's remaining wall-clock budget.  A non-positive
            # budget is an already-expired deadline: the executor
            # abandons the shard before computing a single draw.
            budget = header.get("deadline")
            deadline: Optional[Deadline] = None
            if budget is not None:
                deadline = (
                    Deadline.after(budget) if budget > 0 else Deadline(0.0)
                )
            if not self._begin_shard():
                from repro.diagnostics import record_shed

                record_shed("worker_busy")
                send(
                    tagged(
                        {
                            "type": "error",
                            "message": (
                                f"worker {self.name} at its in-flight limit "
                                f"({self.max_inflight} shard(s))"
                            ),
                            "exception": "WorkerBusy",
                            "fatal": False,
                            "retriable": True,
                            "retry_after": 0.25,
                        }
                    )
                )
                return True
            try:
                heartbeat = tagged({"type": "heartbeat", "shard": shard_id})
                if obs_metrics.metrics_enabled():
                    # A cumulative snapshot rides every heartbeat, so a
                    # parent scraped mid-shard shows live fleet counters.
                    # Keep-latest on the parent makes re-sends harmless.
                    heartbeat["metrics"] = worker_metrics_snapshot()
                with _Heartbeat(send, self.heartbeat_interval, heartbeat):
                    try:
                        outcomes = self.executor.run_shard(
                            context_id, start, count, deadline=deadline
                        )
                    except UnknownContextError:
                        # Evicted between has_context and run_shard
                        # (another campaign's build squeezed it out): same
                        # recovery.  Application KeyErrors from the
                        # runtime fall through to the error frame below
                        # instead.
                        send(
                            tagged(
                                {"type": "need_context", "context": context_id}
                            )
                        )
                        return True
                    except DeadlineExpired as exc:
                        send(
                            tagged(
                                {
                                    "type": "error",
                                    "message": str(exc),
                                    "exception": "DeadlineExpired",
                                    "fatal": False,
                                    "deadline_expired": True,
                                }
                            )
                        )
                        return True
                    except Exception as exc:
                        send(
                            tagged(
                                {
                                    "type": "error",
                                    "message": f"{type(exc).__name__}: {exc}",
                                    "exception": type(exc).__name__,
                                    "fatal": isinstance(exc, FATAL_EXCEPTIONS),
                                }
                            )
                        )
                        return True
                # The after-result-before-ack crash window: outcomes
                # computed but never sent.  Re-leasing recomputes them
                # byte-identically.
                failpoint("worker.after_result")
                body: Dict[str, Any] = {
                    "outcomes_interned": intern_outcomes(outcomes),
                    "cache_stats": worker_cache_stats(),
                }
                if obs_metrics.metrics_enabled():
                    body["metrics"] = worker_metrics_snapshot()
                send(
                    tagged(
                        {
                            "type": "result",
                            "shard": shard_id,
                            "count": len(outcomes),
                            "worker": self.name,
                        }
                    ),
                    body,
                )
            finally:
                self._end_shard()
            return True
        if kind == "drain":
            self.request_drain()
            send(tagged({"type": "drain_ok", "name": self.name}))
            return True
        if kind == "shutdown":
            self.shutdown()
            return False
        send(
            tagged(
                {
                    "type": "error",
                    "message": f"unknown message type {kind!r}",
                    "fatal": True,
                }
            )
        )
        return True


def serve(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    announce: bool = True,
    context_limit: int = DEFAULT_CONTEXT_LIMIT,
    max_inflight: int = 0,
    drain_timeout: float = 30.0,
    metrics_port: Optional[int] = None,
) -> None:
    """Run a blocking socket worker (the ``ocqa worker`` entry point).

    SIGTERM and SIGINT are routed into the graceful-drain path: the
    worker stops accepting, finishes (or hands back) the shards in
    flight, and returns — so the process exits 0 instead of dying with
    a traceback mid-shard.  Handlers are installed only when running on
    the main thread (``signal.signal`` refuses elsewhere).

    With *metrics_port*, a sidecar HTTP listener on the same host serves
    ``GET /metrics`` (Prometheus text) — the worker's control socket
    speaks the framed shard protocol, so scrapes need their own port.
    """
    server = WorkerServer(
        host,
        port,
        name=name,
        context_limit=context_limit,
        max_inflight=max_inflight,
        drain_timeout=drain_timeout,
    )
    sidecar = None
    if metrics_port is not None:
        from repro.obs.httpd import MetricsServer

        sidecar = MetricsServer(host, metrics_port).start()

    def _drain_signal(signum: int, frame: Any) -> None:
        server.request_drain()

    # Handlers go in BEFORE the announce line: supervisors treat the
    # announce as "ready" and may SIGTERM any moment after it.
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            installed.append((sig, signal.signal(sig, _drain_signal)))
        except ValueError:  # not the main thread (embedded/test use)
            break
    if announce:
        print(
            f"repro worker {server.name} listening on "
            f"{server.host}:{server.port}",
            flush=True,
        )
        if sidecar is not None:
            metrics_host, bound_port = sidecar.address
            print(
                f"repro worker {server.name} metrics on "
                f"http://{metrics_host}:{bound_port}/metrics",
                flush=True,
            )
    try:
        server.serve_forever()
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)
        if sidecar is not None:
            sidecar.close()
    if announce and server.draining:
        print(f"repro worker {server.name} drained", flush=True)


def pool_worker_main(conn) -> None:
    """Serve shard requests over a :mod:`multiprocessing` pipe.

    The persistent local-pool counterpart of the socket server: one
    message in, one message out, same :class:`ShardExecutor` underneath.
    Messages are ``(kind, data)`` tuples; see
    :class:`repro.distributed.pool.LocalPoolTransport` for the sender.
    """
    executor = ShardExecutor()
    try:
        while True:
            try:
                kind, data = conn.recv()
            except (EOFError, OSError):
                return
            if kind == "shutdown":
                conn.send(("bye", None))
                return
            try:
                if kind == "context":
                    executor.ensure_context(data)
                    conn.send(("context_ok", data.context_id))
                elif kind == "run":
                    if not executor.has_context(data["context"]):
                        # LRU-evicted context: request a re-ship rather
                        # than failing the shard.
                        conn.send(("need_context", data["context"]))
                        continue
                    budget = data.get("deadline")
                    deadline = None
                    if budget is not None:
                        deadline = (
                            Deadline.after(budget)
                            if budget > 0
                            else Deadline(0.0)
                        )
                    outcomes = executor.run_shard(
                        data["context"],
                        data["start"],
                        data["count"],
                        deadline=deadline,
                    )
                    result = {
                        "shard": data["shard"],
                        "outcomes": outcomes,
                        "cache_stats": worker_cache_stats(),
                    }
                    if obs_metrics.metrics_enabled():
                        result["metrics"] = worker_metrics_snapshot()
                    conn.send(("result", result))
                elif kind == "ping":
                    conn.send(("pong", None))
                else:
                    conn.send(
                        ("error", {"message": f"unknown request {kind!r}", "fatal": True})
                    )
            except DeadlineExpired as exc:
                conn.send(
                    (
                        "error",
                        {
                            "message": str(exc),
                            "exception": "DeadlineExpired",
                            "fatal": False,
                            "deadline_expired": True,
                        },
                    )
                )
            except Exception as exc:
                conn.send(
                    (
                        "error",
                        {
                            "message": f"{type(exc).__name__}: {exc}",
                            "exception": type(exc).__name__,
                            "fatal": isinstance(exc, FATAL_EXCEPTIONS),
                        },
                    )
                )
    finally:
        executor.close()
