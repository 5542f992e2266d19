"""Persistent local worker pool: forked socket workers.

A :class:`LocalPoolTransport` forks one worker process per slot **once
per campaign** and keeps it serving shards — warm chains, warm
violation indexes, warm memo caches — so a batch pays neither process
spawn nor cold caches.  A pool worker is a socket worker: the transport
is a :class:`~repro.distributed.transport.SocketTransport` whose
connection is the parent's end of a :func:`socket.socketpair`, and the
forked child runs the socket worker's own connection loop
(:class:`~repro.distributed.worker.WorkerHost`) on the other end, over
the same :class:`~repro.distributed.worker.ShardExecutor` as ``ocqa
worker``.  So local-pool, remote and inline execution are
byte-identical, and a pool worker speaks the same frames, heartbeats
and lease rule as a remote one.

Liveness: a pool worker heartbeats while it builds a context or
computes a shard, so a slow one keeps its lease.  One that dies
(killed, OOM, crashed) closes its end of the pair, and one silent past
the lease timeout is terminated; either way the transport raises
:class:`~repro.distributed.transport.WorkerUnavailable` and the
coordinator re-leases the shard.  A lost pool worker never comes back
(``can_reconnect`` is ``False``), so the coordinator abandons it at once
instead of walking its reconnect ladder.

A forked child first closes every pool socket it inherited but its own
end — its own parent end and its earlier siblings' — so it reads EOF,
and exits, once its parent closes the pool or dies.

A pool worker's telemetry snapshot rides each heartbeat and result.
Once its process exits (closed or dead), the last snapshot is final, so
it is folded into the registry's retained total and the per-worker
source dropped — a process that opens and closes a pool per campaign
keeps O(live workers) snapshots.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
from typing import Any, List, Optional, Set

from repro.distributed.transport import (
    SocketTransport,
    WorkerUnavailable,
    _record_pushed_metrics,
    _retire_pushed_metrics,
)
from repro.distributed.worker import WorkerHost

#: Every pool socket this process holds: the parent end of each live
#: pool worker, and a child end between its socketpair and its fork.
_POOL_SOCKETS: Set[socket.socket] = set()


def _pool_context():
    """The multiprocessing start context (fork where available).

    ``fork`` keeps the pool cheap to start and lets workers inherit the
    imported modules; platforms without it (or sandboxes that refuse to
    fork) make :meth:`LocalPoolTransport.spawn` raise
    :class:`WorkerUnavailable`.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - platform-dependent
        raise WorkerUnavailable(f"no fork start method: {exc}") from exc


def _serve_forked(conn: socket.socket, name: str) -> None:
    """A pool worker process: serve *conn* until its parent closes it."""
    for sock in _POOL_SOCKETS:
        if sock is not conn:
            sock.close()
    host = WorkerHost(name=name)
    try:
        host._serve_connection(conn)
    finally:
        conn.close()
        host.executor.close()


class LocalPoolTransport(SocketTransport):
    """One persistent local worker process, driven over a socketpair."""

    can_reconnect = False

    def __init__(self, index: int = 0) -> None:
        context = _pool_context()
        parent_end, child_end = socket.socketpair()
        _POOL_SOCKETS.update((parent_end, child_end))
        try:
            self._process = context.Process(
                target=_serve_forked,
                args=(child_end, f"pool-{index}"),
                daemon=True,
                name=f"repro-pool-{index}",
            )
            self._process.start()
        except OSError as exc:
            _POOL_SOCKETS.discard(parent_end)
            parent_end.close()
            raise WorkerUnavailable(f"cannot fork a pool worker: {exc}") from exc
        finally:
            _POOL_SOCKETS.discard(child_end)
            child_end.close()
        # The socketpair stands in for the TCP dial; host and port go unused.
        super().__init__(
            "localhost", 0, name=f"pool-{index}(pid={self._process.pid})"
        )
        self._sock = parent_end
        #: Orders a snapshot push against the retirement at exit: a
        #: straggler's frame racing :meth:`close` is either folded in or
        #: dropped, never counted twice.
        self._telemetry_lock = threading.Lock()

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

    def _connection(self) -> socket.socket:
        if self._sock is None:
            raise WorkerUnavailable(f"pool worker {self.name} is gone")
        return self._sock

    def _drop(self) -> None:
        if self._sock is not None:
            _POOL_SOCKETS.discard(self._sock)
        super()._drop()
        if self._process.is_alive():
            self._process.terminate()
        self._retire()

    def _push_metrics(self, snapshot: Any) -> None:
        with self._telemetry_lock:
            if self.alive:
                _record_pushed_metrics(self.name, snapshot)

    def _retire(self) -> None:
        with self._telemetry_lock:
            _retire_pushed_metrics(self.name)

    def reconnect(self) -> bool:
        return False

    def close(self) -> None:
        if self._sock is not None:
            _POOL_SOCKETS.discard(self._sock)
            try:
                # Unlike a close, a shutdown reaches the child even while
                # a driver thread still blocks in a read on this end.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        super().close()
        self.alive = False
        self._process.join(timeout=2.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=2.0)
        self._retire()
