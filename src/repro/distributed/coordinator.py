"""The coordinator: shard dispatch, lease recovery, tally merging.

A :class:`Coordinator` owns a set of :class:`~repro.distributed.transport.WorkerTransport`
instances (remote sockets, persistent local pool processes, or both) and
turns "compute draws ``[start, start + count)`` of this campaign" into
leased shards:

1. the range is cut into contiguous shards in a
   :class:`~repro.distributed.lease.LeaseTable`;
2. one driver thread per live worker checks shards out, ships the
   campaign's :class:`~repro.distributed.worker.ShardContext` (once per
   worker — contexts stay warm across batches *and* across ``run``
   calls), and executes them with a lease timeout; worker heartbeats
   (sent while a context builds or a shard computes) reset the timer,
   silence or a broken connection expires it;
3. an expired or failed lease is released back and re-leased to another
   worker — draws are index-deterministic, so the replacement produces
   the same tally;
4. each shard returns a :class:`~repro.campaign.Tally` — its draw
   count, kept-draw count and per-answer counts — and the shards'
   tallies are summed in draw order, so the campaign's estimation loop
   adds exactly the tally a serial run of the range would: counts, the
   first representation of equal answers, adaptive-stopping boundaries
   and checkpoints all agree, with no distributed special-casing;
5. the telemetry snapshot riding each result (worker metrics and memo
   counters) is merged into :data:`repro.obs.metrics.REGISTRY`, so
   ``GET /metrics`` and :func:`repro.diagnostics.cache_report` cover
   the whole fleet instead of only the parent process.

If every worker dies mid-range, the coordinator finishes the remaining
shards inline (same executor code path, same tallies) rather than
failing the campaign — disable with ``fallback_inline=False`` to surface
the failure instead.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.campaign import Tally
from repro.distributed.lease import DistributedSamplingError, LeaseTable, ShardLease
from repro.distributed.protocol import WorkerError
from repro.distributed.transport import (
    InlineTransport,
    SocketTransport,
    WorkerTransport,
    WorkerUnavailable,
)
from repro.distributed.worker import ShardContext
from repro.obs import DEADLINE_EXPIRATIONS
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.deadline import Deadline, DeadlineExpired

_SHARD_LEASES = obs_metrics.REGISTRY.counter(
    "ocqa_shard_leases_total",
    "Shard leases checked out (re-leases included).",
)
_SHARD_COMPLETIONS = obs_metrics.REGISTRY.counter(
    "ocqa_shard_completions_total", "Shards completed with merged outcomes."
)
_SHARD_RELEASES = obs_metrics.REGISTRY.counter(
    "ocqa_shard_releases_total",
    "Shards handed back for re-lease after a lost or failed attempt.",
)
_INLINE_SHARDS = obs_metrics.REGISTRY.counter(
    "ocqa_inline_shards_total",
    "Shards the coordinator finished inline after losing every worker.",
)
_RECONNECTS = obs_metrics.REGISTRY.counter(
    "ocqa_reconnects_total",
    "Workers won back after a transport declared them dead.",
)

#: Live lease table for the scrape-time lease-age gauges: every checked
#: out shard across every open campaign in this process, with its
#: checkout instant.  ``ocqa top`` reads the derived gauges to show how
#: stale the oldest in-flight lease is.
_LEASE_TRACK_LOCK = threading.Lock()
_ACTIVE_LEASE_STARTS: Dict[Any, float] = {}

_ACTIVE_LEASES_GAUGE = obs_metrics.REGISTRY.gauge(
    "ocqa_active_leases", "Shard leases currently checked out, fleet-wide."
)
_LEASE_AGE_MAX = obs_metrics.REGISTRY.gauge(
    "ocqa_lease_age_seconds_max", "Age of the oldest in-flight shard lease."
)


def _lease_started(campaign: str, shard: int, worker: str) -> None:
    if not obs_metrics.metrics_enabled():
        return
    with _LEASE_TRACK_LOCK:
        _ACTIVE_LEASE_STARTS[(campaign, shard, worker)] = time.monotonic()


def _lease_done(campaign: str, shard: int, worker: str) -> None:
    with _LEASE_TRACK_LOCK:
        _ACTIVE_LEASE_STARTS.pop((campaign, shard, worker), None)


def _purge_leases(campaign: str) -> None:
    with _LEASE_TRACK_LOCK:
        for key in [k for k in _ACTIVE_LEASE_STARTS if k[0] == campaign]:
            del _ACTIVE_LEASE_STARTS[key]


@obs_metrics.REGISTRY.add_collector
def _publish_lease_gauges() -> None:
    if not obs_metrics.metrics_enabled():
        return
    with _LEASE_TRACK_LOCK:
        count = len(_ACTIVE_LEASE_STARTS)
        oldest = min(_ACTIVE_LEASE_STARTS.values()) if count else None
    _ACTIVE_LEASES_GAUGE.set(count)
    _LEASE_AGE_MAX.set(
        round(time.monotonic() - oldest, 3) if oldest is not None else 0.0
    )

#: Draws per shard when the caller does not choose: small enough that a
#: 2-worker run interleaves, large enough that framing cost stays noise.
DEFAULT_SHARD_SIZE = 25

#: Seconds of silence (no heartbeat, no answer) after which a worker's
#: lease is considered dead.  Workers heartbeat every ~2s while they
#: build a context or compute a shard, so expiry genuinely means a dead
#: or wedged worker.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Monotonic source of campaign/connection ids: distinct per coordinator
#: within a process, which is all the tag needs (a worker distinguishes
#: connections by socket; the tag attributes frames *within* one).
_campaign_counter = itertools.count(1)


@dataclass(frozen=True)
class ReconnectPolicy:
    """How hard a driver thread tries to win its worker back.

    After a transient loss (:class:`WorkerUnavailable`) the shard is
    released for others immediately; the driver then backs off
    exponentially from ``base_delay`` to ``max_delay`` (plus up to
    ``jitter`` of proportional noise, so a rack-wide flap does not
    reconnect in lockstep) and probes the worker up to ``retry_budget``
    times.  A worker that answers rejoins the same campaign mid-flight;
    one that never does is abandoned and the fleet degrades — remaining
    workers, then the inline fallback.  ``retry_budget=0`` restores the
    pre-reconnect behavior (one strike and the worker is out).
    """

    retry_budget: int = 6
    base_delay: float = 0.25
    max_delay: float = 5.0
    jitter: float = 0.5


class Coordinator:
    """Shards draw ranges across workers and sums their tallies."""

    def __init__(
        self,
        transports: Sequence[WorkerTransport],
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_attempts: int = 4,
        fallback_inline: bool = True,
        reconnect: Optional[ReconnectPolicy] = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self.transports: List[WorkerTransport] = list(transports)
        if not self.transports:
            self.transports = [InlineTransport()]
        self.shard_size = shard_size
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.fallback_inline = fallback_inline
        #: This coordinator's campaign/connection tag, stamped on every
        #: frame its transports exchange with (multiplexing) workers.
        self.campaign_id = f"c{next(_campaign_counter)}"
        for transport in self.transports:
            transport.bind_campaign(self.campaign_id)
        #: Backoff/retry schedule for winning flapped workers back.
        self.reconnect_policy = (
            ReconnectPolicy() if reconnect is None else reconnect
        )
        #: Number of shards recomputed after a lost lease (observability).
        self.releases = 0
        #: Workers won back after a transient loss (observability).
        self.reconnects = 0
        #: Human-readable self-healing history (reconnects, abandons,
        #: inline degradation), in observation order.
        self.degradation_log: List[str] = []
        #: Shards the campaign computed inline after losing every worker
        #: (survives :meth:`close`, unlike the executor itself).
        self.inline_shards = 0
        #: Per-worker failure messages, in observation order.
        self.failure_log: List[str] = []
        self._fatal_lock = threading.Lock()
        self._fatal: Optional[BaseException] = None
        #: Lazily-built executor for the all-workers-dead fallback; kept
        #: across batches so its warm contexts amortize like a worker's.
        self._inline: Optional[InlineTransport] = None
        #: Driver threads that outlived a *previous* range, keyed by
        #: transport identity (``id()`` — names may collide when the
        #: same address is listed twice).  ``run_range`` returns once
        #: its table is done, and a thread can still be busy then: one
        #: whose reconnect probe is in flight (a probe revives
        #: ``alive`` on connect, before its ping is answered), or one
        #: still computing when the deadline expired.  A transport whose
        #: recorded thread is alive is skipped when dispatching the next
        #: range and rejoins the fleet once the thread exits, so no
        #: transport ever serves two threads.  ``is_alive()`` is the
        #: ground truth, so there is no release race to lose a transport
        #: to.  (Dispatch itself is single-threaded: one ``run_range`` at
        #: a time per coordinator, as the samplers use it.)
        self._lagging: Dict[int, threading.Thread] = {}
        #: Transports lost when their range finished before their
        #: reconnect ladder did, keyed like :attr:`_lagging`, with the
        #: probes they have spent.  The next range drives each one
        #: again, starting with a probe (see :meth:`_await_reconnect`).
        self._lost: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_options(
        cls,
        workers: Optional[int] = None,
        worker_addresses: Sequence[str] = (),
        **kwargs,
    ) -> Optional["Coordinator"]:
        """The coordinator implied by the fan-out options.

        ``workers=N`` starts a persistent local pool of *N* processes
        (``0`` or ``None``: none); ``worker_addresses`` adds remote
        ``host:port`` workers.  Returns ``None`` when nothing asks for
        distribution (the serial path).  The caller owns the returned
        coordinator: it passes it as ``coordinator=`` to the samplers
        and estimators, and closes it.
        """
        from repro.distributed.pool import LocalPoolTransport

        if not workers and not worker_addresses:
            return None
        transports: List[WorkerTransport] = [
            SocketTransport.parse(address) for address in worker_addresses
        ]
        if workers:
            transports.extend(LocalPoolTransport.spawn(workers))
        return cls(transports, **kwargs)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_range(
        self,
        context: ShardContext,
        start: int,
        count: int,
        deadline: Optional[Deadline] = None,
    ) -> Tally:
        """The tally of draws ``[start, start + count)``, summed over its
        shards in draw order.

        Retryable worker failures re-lease shards; fatal worker errors
        (deterministic exceptions such as a failing repair sequence)
        re-raise here, mapped back to the original exception type when
        it is importable.

        With a *deadline*, the remaining wall-clock budget rides every
        run frame, run-shard waits are clamped to it, and an expiry
        raises :class:`repro.service.deadline.DeadlineExpired` instead of
        degrading to the inline fallback — computing draws past the
        deadline is exactly what the caller asked us not to do.  The
        campaign layer turns that into a best-effort estimate with
        widened ``(eps, delta)`` accounting.

        Returns as soon as every shard has its tally — NOT when every
        driver thread has exited: a thread still probing its lost worker
        finishes in the background, with its transport skipped until
        then.
        """
        if count <= 0:
            return Tally(0, 0, {})
        obs_trace.span(
            "campaign_range",
            campaign=self.campaign_id,
            start=start,
            count=count,
            workers=sum(1 for t in self.transports if t.alive),
        )
        if deadline is not None:
            deadline.check(f"campaign range [{start}, {start + count})")
        table = LeaseTable(
            start, count, self.shard_size, max_attempts=self.max_attempts
        )
        self._lagging = {
            key: thread
            for key, thread in self._lagging.items()
            if thread.is_alive()
        }
        live = [
            t
            for t in self.transports
            if (t.alive or id(t) in self._lost) and id(t) not in self._lagging
        ]
        threads = [
            (
                transport,
                threading.Thread(
                    target=self._drive,
                    args=(transport, context, table, deadline),
                    daemon=True,
                ),
            )
            for transport in live
        ]
        for _transport, thread in threads:
            thread.start()
        while not table.done and any(t.is_alive() for _tr, t in threads):
            table.wait_progress(0.5)
            if deadline is not None and deadline.expired:
                break
        for transport, thread in threads:
            if thread.is_alive():
                # Grace join: a thread returning from ``checkout`` or a
                # backoff step is about to exit; only one still busy
                # after a short wait (a reconnect probe in flight, or a
                # shard the deadline cut short) is lagging.
                thread.join(timeout=0.05)
            if thread.is_alive():
                self._lagging[id(transport)] = thread
        with self._fatal_lock:
            if self._fatal is not None:
                fatal, self._fatal = self._fatal, None
                raise fatal
        if not table.done:
            if deadline is not None and deadline.expired:
                DEADLINE_EXPIRATIONS.inc()
                unfinished = len(table.unfinished())
                obs_trace.span(
                    "deadline_expired",
                    scope="campaign_range",
                    campaign=self.campaign_id,
                    start=start,
                    count=count,
                    unfinished=unfinished,
                )
                raise DeadlineExpired(
                    f"campaign range [{start}, {start + count}) hit its "
                    f"deadline with {unfinished} shard(s) unfinished"
                )
            leftovers = table.unfinished()
            if not self.fallback_inline:
                raise DistributedSamplingError(
                    f"{len(leftovers)} shard(s) unfinished and inline "
                    "fallback disabled: " + "; ".join(table.failure_log())
                )
            self._finish_inline(context, table, leftovers, deadline)
        return table.assemble()

    def _drive(
        self,
        transport: WorkerTransport,
        context: ShardContext,
        table: LeaseTable,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """One worker's checkout→run→complete loop (runs on its thread).

        With a *deadline*, checkouts are non-blocking polls (a thread
        parked inside :meth:`LeaseTable.checkout` would sleep straight
        past the expiry) and the thread exits the moment the budget is
        gone; retriable backpressure errors (``WorkerBusy``) back off by
        the worker's suggested ``retry_after`` on the *same* lease —
        they never burn the shard's retry budget.
        """
        if id(transport) in self._lost and not self._await_reconnect(
            transport, table
        ):
            return
        busy_waited = 0.0
        while True:
            with self._fatal_lock:
                if self._fatal is not None:
                    return
            if deadline is not None:
                if deadline.expired:
                    return
                lease = table.checkout(transport.name, wait=False)
                if lease is None:
                    if table.done or table.failed:
                        return
                    time.sleep(0.02)
                    continue
            else:
                lease = table.checkout(transport.name)
                if lease is None:
                    return
            self._note_lease(transport.name, lease)
            try:
                while True:
                    try:
                        tally = transport.run_shard(
                            context,
                            lease.shard_id,
                            lease.start,
                            lease.count,
                            timeout=(
                                self.lease_timeout
                                if deadline is None
                                else deadline.clamp(self.lease_timeout)
                            ),
                            deadline=deadline,
                        )
                        break
                    except WorkerError as exc:
                        if not exc.retriable or exc.fatal:
                            raise
                        # Backpressure (e.g. the worker at its in-flight
                        # limit): hold the lease, pause for the worker's
                        # suggested retry_after, and offer the same shard
                        # again.  Bounded by the lease timeout so a
                        # permanently wedged worker degrades like a dead
                        # one instead of spinning forever.
                        pause = min(max(exc.retry_after or 0.25, 0.05), 1.0)
                        busy_waited += pause
                        if busy_waited > self.lease_timeout:
                            self.releases += 1
                            self._note_release(
                                transport.name, lease, "worker_busy"
                            )
                            self.failure_log.append(
                                f"{transport.name}: still busy after "
                                f"{busy_waited:.1f}s of backpressure"
                            )
                            table.release(lease, str(exc))
                            return
                        if not self._pause(pause, table, deadline):
                            _lease_done(
                                self.campaign_id, lease.shard_id, transport.name
                            )
                            table.release(lease, str(exc))
                            return
            except DeadlineExpired as exc:
                # The worker abandoned the shard (budget gone).  Hand it
                # back for the record and stop driving: run_range raises
                # DeadlineExpired for the whole range.
                _lease_done(self.campaign_id, lease.shard_id, transport.name)
                table.release(lease, str(exc))
                return
            except WorkerUnavailable as exc:
                self.releases += 1
                self._note_release(transport.name, lease, "worker_unavailable")
                self.failure_log.append(f"{transport.name}: {exc}")
                # Release first: another worker picks the shard up while
                # this thread backs off trying to win its worker back.
                table.release(lease, str(exc))
                if self._await_reconnect(transport, table):
                    continue  # the worker rejoined; keep serving shards
                return  # abandoned; the fleet degrades without it
            except WorkerError as exc:
                if exc.fatal:
                    with self._fatal_lock:
                        if self._fatal is None:
                            self._fatal = _map_worker_error(exc)
                    _lease_done(
                        self.campaign_id, lease.shard_id, transport.name
                    )
                    table.release(lease, f"fatal: {exc}")
                    return
                self.releases += 1
                self._note_release(transport.name, lease, "worker_error")
                self.failure_log.append(f"{transport.name}: {exc}")
                table.release(lease, str(exc))
                continue  # transient worker-side error; keep serving
            busy_waited = 0.0
            table.complete(lease, tally)
            self._note_complete(transport.name, lease)

    def _pause(
        self,
        seconds: float,
        table: LeaseTable,
        deadline: Optional[Deadline],
    ) -> bool:
        """Sleep *seconds* in small steps; ``False`` means stop retrying
        (the table finished or died, a fatal error landed, or the
        deadline expired while waiting)."""
        until = time.monotonic() + seconds
        while time.monotonic() < until:
            if table.done or table.failed:
                return False
            with self._fatal_lock:
                if self._fatal is not None:
                    return False
            if deadline is not None and deadline.expired:
                return False
            time.sleep(0.05)
        return True

    # ------------------------------------------------------------------
    # Telemetry bookkeeping (metrics counters + trace spans)
    # ------------------------------------------------------------------
    def _note_lease(self, worker: str, lease: ShardLease) -> None:
        _SHARD_LEASES.inc()
        _lease_started(self.campaign_id, lease.shard_id, worker)
        obs_trace.span(
            "shard_lease",
            campaign=self.campaign_id,
            shard=lease.shard_id,
            worker=worker,
            start=lease.start,
            count=lease.count,
        )

    def _note_complete(self, worker: str, lease: ShardLease) -> None:
        _SHARD_COMPLETIONS.inc()
        _lease_done(self.campaign_id, lease.shard_id, worker)
        obs_trace.span(
            "shard_complete",
            campaign=self.campaign_id,
            shard=lease.shard_id,
            worker=worker,
            start=lease.start,
            count=lease.count,
        )

    def _note_release(self, worker: str, lease: ShardLease, reason: str) -> None:
        # Called at exactly the sites that bump ``self.releases``, so the
        # span log's shard_release count always matches
        # ``degradation_report()["releases"]``.
        _SHARD_RELEASES.inc()
        _lease_done(self.campaign_id, lease.shard_id, worker)
        obs_trace.span(
            "shard_release",
            campaign=self.campaign_id,
            shard=lease.shard_id,
            worker=worker,
            reason=reason,
        )

    def _await_reconnect(
        self, transport: WorkerTransport, table: LeaseTable
    ) -> bool:
        """Back off and probe a lost worker until it answers, the retry
        budget runs out, or the range finishes without it.  A worker
        that can never reconnect (a pool process) is abandoned at once.

        Runs on the worker's own driver thread, so the rest of the fleet
        keeps computing (and can finish the table, which short-circuits
        the wait).  A worker the range finished without keeps the rest
        of its budget in :attr:`_lost`: the next range drives it again,
        and since its backoff ran while no range needed it, that range
        probes it at once.  The jittered exponential schedule is seeded
        per campaign/worker pair: deterministic for a given run,
        decorrelated across workers.
        """
        policy = self.reconnect_policy
        if policy.retry_budget < 1:
            return False
        if not transport.can_reconnect:
            with self._fatal_lock:
                self.degradation_log.append(
                    f"{transport.name}: abandoned at once (it cannot reconnect)"
                )
            return False
        with self._fatal_lock:
            spent = self._lost.pop(id(transport), None)
        resumed = spent is not None
        rng = random.Random(f"{self.campaign_id}:{transport.name}")
        for attempt in range(1 + (spent or 0), policy.retry_budget + 1):
            delay = min(
                policy.base_delay * 2.0 ** (attempt - 1), policy.max_delay
            )
            deadline = time.monotonic() + delay * (
                1.0 + policy.jitter * rng.random()
            )
            while not resumed and time.monotonic() < deadline:
                with self._fatal_lock:
                    if table.done or self._fatal is not None:
                        self._lost[id(transport)] = attempt - 1
                        return False
                time.sleep(0.05)
            resumed = False
            if transport.reconnect():
                with self._fatal_lock:
                    self.reconnects += 1
                    self.degradation_log.append(
                        f"{transport.name}: reconnected on attempt "
                        f"{attempt}/{policy.retry_budget}"
                    )
                _RECONNECTS.inc()
                obs_trace.span(
                    "reconnect",
                    campaign=self.campaign_id,
                    worker=transport.name,
                    attempt=attempt,
                )
                return True
        with self._fatal_lock:
            self.degradation_log.append(
                f"{transport.name}: abandoned after "
                f"{policy.retry_budget} reconnect attempt(s)"
            )
        return False

    def _finish_inline(
        self,
        context: ShardContext,
        table: LeaseTable,
        leftovers: List[ShardLease],
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Compute unfinished shards in-process (all workers lost).

        The inline executor persists on the coordinator, so a campaign
        that outlives its whole fleet pays the context build once, not
        once per batch.  A deadline expiring mid-fallback propagates as
        :class:`repro.service.deadline.DeadlineExpired` — the fallback
        never computes draws past the budget either.
        """
        if self._inline is None:
            self._inline = InlineTransport(name="inline-fallback")
        self.inline_shards += len(leftovers)
        _INLINE_SHARDS.inc(len(leftovers))
        obs_trace.span(
            "inline_fallback",
            campaign=self.campaign_id,
            shards=len(leftovers),
        )
        self.degradation_log.append(
            f"degraded to inline execution for {len(leftovers)} shard(s) "
            "(no live worker finished them)"
        )
        for lease in leftovers:
            tally = self._inline.run_shard(
                context, lease.shard_id, lease.start, lease.count,
                deadline=deadline,
            )
            table.complete(lease, tally)
            self._note_complete(self._inline.name, lease)

    def transport_report(self) -> Dict[str, int]:
        """Cumulative shipped-byte counters summed over this coordinator's
        socket transports (zeros when no transport keeps counters)."""
        total: Dict[str, int] = {}
        for transport in self.transports:
            for key, value in (getattr(transport, "stats", None) or {}).items():
                total[key] = total.get(key, 0) + value
        return total

    def degradation_report(self) -> Dict[str, Any]:
        """How far this campaign has slid down the degradation ladder.

        The self-healing counterpart of :meth:`transport_report`: shard
        re-leases, workers won back (and how many probe attempts that
        took, via :attr:`degradation_log`), whether the campaign ever
        fell all the way to inline execution, and each transport's
        current liveness — enough to answer "did the fleet heal, and at
        what cost?" after a chaotic run.
        """
        with self._fatal_lock:
            events = list(self.degradation_log)
            reconnects = self.reconnects
        return {
            "releases": self.releases,
            "reconnects": reconnects,
            "inline_fallback": self.inline_shards > 0,
            "inline_shards": self.inline_shards,
            "events": events,
            "workers": [
                {
                    "name": transport.name,
                    "kind": type(transport).__name__,
                    "alive": transport.alive,
                    "reconnects": (getattr(transport, "stats", None) or {}).get(
                        "reconnects", 0
                    ),
                }
                for transport in self.transports
            ],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def live_workers(self) -> int:
        return sum(1 for t in self.transports if t.alive)

    def close(self) -> None:
        for transport in self.transports:
            transport.close()
        if self._inline is not None:
            self._inline.close()
            self._inline = None
        _purge_leases(self.campaign_id)


def _map_worker_error(error: WorkerError) -> BaseException:
    """Re-raise a worker's fatal exception under its original type when
    that type is part of this package's public error surface."""
    from repro.core.errors import FailingSequenceError, InvalidGeneratorError

    known = {
        "FailingSequenceError": FailingSequenceError,
        "InvalidGeneratorError": InvalidGeneratorError,
        "ValueError": ValueError,
        "KeyError": KeyError,
        "TypeError": TypeError,
    }
    exc_type = known.get(error.exception_type or "")
    if exc_type is not None:
        return exc_type(str(error))
    return error
