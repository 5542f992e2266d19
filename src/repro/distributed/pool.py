"""Persistent local worker pool: the one local parallel fan-out.

A :class:`LocalPoolTransport` forks one worker process per slot **once
per campaign** and keeps it serving shards over a pipe — warm chains,
warm violation indexes, warm memo caches — so a batch pays neither
process spawn nor cold caches.  The processes run
:func:`repro.distributed.worker.pool_worker_main`, the same
:class:`~repro.distributed.worker.ShardExecutor` as the socket service,
so local-pool, remote, and inline execution are byte-identical.

Liveness: a pool worker that dies mid-shard (killed, OOM, crashed) is
detected by ``Process.is_alive`` inside the result wait loop and
reported as :class:`~repro.distributed.transport.WorkerUnavailable`, so
the coordinator re-leases its shard — the distributed failure semantics,
at local scale.  A dead pool worker stays dead (``reconnect`` is the
base class's ``False``): its process is gone, so the coordinator's
degradation ladder steps past it rather than backing off on it.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed.protocol import WorkerError
from repro.distributed.transport import (
    WorkerTransport,
    WorkerUnavailable,
    _record_pushed_metrics,
)
from repro.distributed.worker import ShardContext, pool_worker_main
from repro.service.deadline import Deadline, DeadlineExpired


def _pool_context():
    """The multiprocessing start context (fork where available).

    ``fork`` keeps the pool cheap to start and lets workers inherit the
    imported modules; platforms without it (or sandboxes that refuse to
    fork) make :meth:`LocalPoolTransport.spawn` raise
    :class:`WorkerUnavailable`, and callers fall back to inline
    execution.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - platform-dependent
        raise WorkerUnavailable(f"no fork start method: {exc}") from exc


class LocalPoolTransport(WorkerTransport):
    """One persistent local worker process, driven over a pipe."""

    def __init__(self, index: int = 0) -> None:
        context = _pool_context()
        self._conn, child_conn = context.Pipe(duplex=True)
        try:
            self._process = context.Process(
                target=pool_worker_main,
                args=(child_conn,),
                daemon=True,
                name=f"repro-pool-{index}",
            )
            self._process.start()
        except OSError as exc:
            raise WorkerUnavailable(f"cannot fork a pool worker: {exc}") from exc
        finally:
            child_conn.close()
        self.name = f"pool-{index}(pid={self._process.pid})"
        self._shipped: set = set()

    @classmethod
    def spawn(cls, workers: int) -> List["LocalPoolTransport"]:
        """Start *workers* persistent pool processes."""
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        pool: List[LocalPoolTransport] = []
        try:
            for index in range(workers):
                pool.append(cls(index))
        except WorkerUnavailable:
            for transport in pool:
                transport.close()
            raise
        return pool

    @property
    def pid(self) -> Optional[int]:
        """The worker process id (tests kill it to exercise re-leasing)."""
        return self._process.pid

    # ------------------------------------------------------------------
    # Request/response over the pipe
    # ------------------------------------------------------------------
    def _request(
        self, kind: str, data: Any, timeout: Optional[float]
    ) -> Tuple[str, Any]:
        if not self.alive:
            raise WorkerUnavailable(f"pool worker {self.name} already dead")
        try:
            self._conn.send((kind, data))
        except (OSError, ValueError) as exc:
            self._mark_dead()
            raise WorkerUnavailable(
                f"pool worker {self.name} pipe broken: {exc}"
            ) from exc
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(0.2):
                    return self._conn.recv()
            except (EOFError, OSError) as exc:
                self._mark_dead()
                raise WorkerUnavailable(
                    f"pool worker {self.name} died mid-request: {exc}"
                ) from exc
            if not self._process.is_alive():
                self._mark_dead()
                raise WorkerUnavailable(
                    f"pool worker {self.name} exited mid-request "
                    f"(exitcode {self._process.exitcode})"
                )
            if deadline is not None and time.monotonic() > deadline:
                self._mark_dead()
                raise WorkerUnavailable(
                    f"pool worker {self.name} silent past the "
                    f"{timeout}s lease timeout; assuming it hung"
                )

    def _mark_dead(self) -> None:
        self.alive = False
        try:
            self._conn.close()
        except OSError:
            pass
        if self._process.is_alive():
            self._process.terminate()

    # ------------------------------------------------------------------
    # WorkerTransport protocol
    # ------------------------------------------------------------------
    def ensure_context(
        self, context: ShardContext, timeout: Optional[float] = None
    ) -> None:
        if context.context_id in self._shipped:
            return
        kind, data = self._request("context", context, timeout=None)
        if kind == "error":
            raise WorkerError(
                data.get("message", "context build failed"),
                exception_type=data.get("exception"),
                fatal=bool(data.get("fatal", True)),
            )
        if kind != "context_ok":
            self._mark_dead()
            raise WorkerUnavailable(
                f"pool worker {self.name} answered a context with {kind!r}"
            )
        self._shipped.add(context.context_id)

    def run_shard(
        self, context: ShardContext, shard_id: int, start: int, count: int,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.ensure_context(context)
        request = {
            "context": context.context_id,
            "shard": shard_id,
            "start": start,
            "count": count,
        }
        if deadline is not None:
            request["deadline"] = round(deadline.remaining(), 6)
        kind, data = self._request("run", request, timeout=timeout)
        if kind == "need_context":
            # The worker's LRU evicted this (previously shipped) context;
            # re-ship once and retry.
            self._shipped.discard(context.context_id)
            self.ensure_context(context)
            if deadline is not None:
                request["deadline"] = round(deadline.remaining(), 6)
            kind, data = self._request("run", request, timeout=timeout)
        if kind == "error":
            if data.get("deadline_expired"):
                raise DeadlineExpired(data.get("message", "deadline expired"))
            raise WorkerError(
                data.get("message", "worker error"),
                exception_type=data.get("exception"),
                fatal=bool(data.get("fatal")),
            )
        if kind != "result":
            self._mark_dead()
            raise WorkerUnavailable(
                f"pool worker {self.name} answered a shard with {kind!r}"
            )
        _record_pushed_metrics(self.name, data.get("metrics"))
        return data["outcomes"], data.get("cache_stats", {})

    def close(self) -> None:
        if self.alive and self._process.is_alive():
            try:
                self._conn.send(("shutdown", None))
                self._process.join(timeout=2.0)
            except (OSError, ValueError):
                pass
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=2.0)
        self.alive = False
        try:
            self._conn.close()
        except OSError:
            pass
