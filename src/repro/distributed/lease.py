"""Shard leases: who is computing which draw range, and for how long.

The coordinator splits a batch of global draw indices into *shards*
(contiguous ``[start, start + count)`` ranges) and hands each one out
under a :class:`ShardLease`.  The :class:`LeaseTable` is the single
source of truth for shard state:

- **pending** — not yet assigned (or released back after a failure);
- **leased** — held by a named worker until its deadline;
- **done** — its :class:`~repro.campaign.Tally` recorded.

Because every draw is a pure function of ``(campaign seed, group key,
draw index)`` (see :meth:`repro.campaign.SamplingCampaign.rng_at`),
re-leasing is always safe: a shard recomputed by a different worker
yields the exact same tally.  A shard is held by one worker at a
time, and only its holder releases or completes it.  Once every shard
is done, :meth:`LeaseTable.assemble` sums their tallies in draw order.

The table is thread-safe: the coordinator drives one thread per worker,
all checking out of and completing into the same table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign import Tally, add_tallies


class DistributedSamplingError(RuntimeError):
    """The distributed run could not complete (e.g. a shard exhausted its
    retry budget, or every worker died with fallback disabled)."""


@dataclass
class ShardLease:
    """One contiguous draw range and its assignment history."""

    shard_id: int
    start: int
    count: int
    attempts: int = 0
    worker: Optional[str] = None
    #: Human-readable failure trail (worker name + error per attempt),
    #: surfaced in :class:`DistributedSamplingError` messages.
    failures: List[str] = field(default_factory=list)


class LeaseTable:
    """Thread-safe shard state for one dispatched draw range."""

    def __init__(
        self,
        start: int,
        count: int,
        shard_size: int,
        max_attempts: int = 4,
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self.start = start
        self.count = count
        self.max_attempts = max_attempts
        self._shards: List[ShardLease] = []
        offset = start
        shard_id = 0
        while offset < start + count:
            size = min(shard_size, start + count - offset)
            self._shards.append(ShardLease(shard_id, offset, size))
            shard_id += 1
            offset += size
        self._pending: List[int] = list(range(len(self._shards)))
        self._tallies: Dict[int, Tally] = {}
        self._failed: Optional[ShardLease] = None
        self._lock = threading.Lock()
        self._progress = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # Worker-side operations
    # ------------------------------------------------------------------
    def checkout(self, worker: str, wait: bool = True) -> Optional[ShardLease]:
        """Lease the next pending shard to *worker*.

        Returns ``None`` once every shard is done (or a shard failed
        terminally).  With *wait*, blocks while other workers still hold
        active leases — their shard may yet be released back (worker
        death), in which case this worker picks it up.
        """
        with self._progress:
            while True:
                if self._failed is not None or self.complete_locked():
                    return None
                if self._pending:
                    lease = self._shards[self._pending.pop(0)]
                    lease.attempts += 1
                    lease.worker = worker
                    return lease
                if not wait:
                    return None
                self._progress.wait(timeout=0.5)

    def complete(self, lease: ShardLease, tally: Tally) -> None:
        """Record a finished shard's tally."""
        if tally.draws != lease.count:
            raise DistributedSamplingError(
                f"shard {lease.shard_id} tallied {tally.draws} draw(s) "
                f"for a {lease.count}-draw range — a worker is not honouring "
                "the draw-index contract"
            )
        with self._progress:
            self._tallies[lease.shard_id] = tally
            self._progress.notify_all()

    def release(self, lease: ShardLease, error: str) -> None:
        """Return a leased shard to the pending queue after a failure.

        A shard that has burnt :attr:`max_attempts` leases marks the
        whole table failed — every ``checkout`` then returns ``None``
        and :meth:`assemble` raises with the failure trail.
        """
        with self._progress:
            lease.failures.append(f"{lease.worker or '?'}: {error}")
            lease.worker = None
            if lease.attempts >= self.max_attempts:
                self._failed = lease
            else:
                self._pending.append(lease.shard_id)
            self._progress.notify_all()

    # ------------------------------------------------------------------
    # Coordinator-side state
    # ------------------------------------------------------------------
    def complete_locked(self) -> bool:
        return len(self._tallies) == len(self._shards)

    def wait_progress(self, timeout: float = 0.5) -> None:
        """Block until the table changes state (a completion, release, or
        failure), or *timeout* elapses.  The coordinator's dispatch loop
        waits here instead of joining worker threads, so it returns once
        the table is done even while a driver thread is still probing a
        lost worker."""
        with self._progress:
            if not self.complete_locked() and self._failed is None:
                self._progress.wait(timeout)

    @property
    def done(self) -> bool:
        """Whether every shard has recorded its tally."""
        with self._lock:
            return self.complete_locked()

    @property
    def failed(self) -> bool:
        """Whether a shard failed terminally (burnt its retry budget).

        Deadline-aware drivers poll with ``checkout(wait=False)`` and
        need to distinguish "nothing to lease right now" from "the table
        is dead" without blocking."""
        with self._lock:
            return self._failed is not None

    def unfinished(self) -> List[ShardLease]:
        """Shards without a tally (for inline fallback / diagnostics)."""
        with self._lock:
            return [
                shard
                for shard in self._shards
                if shard.shard_id not in self._tallies
            ]

    def failure_log(self) -> List[str]:
        """Every recorded lease failure, in observation order."""
        with self._lock:
            return [line for shard in self._shards for line in shard.failures]

    def assemble(self) -> Tally:
        """The range's tally: the shards' tallies summed in draw order.

        Summing in draw order keeps, for answers that are equal but
        typed differently (``1``, ``1.0``, ``True``), the
        representation a serial tally of the range keeps, so tallies,
        adaptive-stopping boundaries, and checkpoints all agree byte
        for byte with a serial run.
        """
        with self._lock:
            if self._failed is not None:
                raise DistributedSamplingError(
                    f"shard {self._failed.shard_id} (draws "
                    f"[{self._failed.start}, "
                    f"{self._failed.start + self._failed.count})) failed "
                    f"{self._failed.attempts} time(s): "
                    + "; ".join(self._failed.failures)
                )
            if not self.complete_locked():
                missing = [
                    s.shard_id
                    for s in self._shards
                    if s.shard_id not in self._tallies
                ]
                raise DistributedSamplingError(
                    f"shards {missing} never completed (all workers lost?)"
                )
            return add_tallies(
                self._tallies[shard.shard_id] for shard in self._shards
            )
