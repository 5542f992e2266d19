"""Worker lifecycle supervision: spawn, probe, drain, rolling restart.

The :class:`Supervisor` owns a fleet of ``ocqa worker`` subprocesses so
a long-lived service deployment does not: it spawns them, probes their
health over protocol ``ping`` frames, respawns the ones that die, and —
the part that makes deploys boring — performs **rolling restarts** by
draining one worker at a time (SIGTERM, which the worker routes into
its graceful-drain path and answers by exiting 0) while the rest of the
fleet keeps serving.

Campaign determinism across all of this is free by construction: draws
are pure functions of ``(campaign seed, group key, draw index)``, so a
shard handed back by a draining worker is recomputed byte-identically
wherever the coordinator re-leases it.  A restarted worker listens on a
new port, which :attr:`Supervisor.addresses` follows; the query service
reads those addresses per query, so the replacement takes shards from
the next query on with nothing to resync.

The supervisor is deliberately dependency-free (stdlib ``subprocess`` +
the in-repo socket transport) so ``ocqa serve --workers N`` works on a
bare machine.
"""

from __future__ import annotations

import logging
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

log = logging.getLogger(__name__)

_ANNOUNCE = re.compile(r"listening on ([\w.\-]+):(\d+)")

#: Consecutive failed ping probes before a worker is declared unhealthy
#: and restarted (one flaky probe must not bounce a busy worker).
DEFAULT_PROBE_STRIKES = 3


def _worker_environment() -> Dict[str, str]:
    """The child environment, with this checkout importable.

    Failpoint/chaos variables inherit naturally — the chaos soak relies
    on ``REPRO_FAILPOINTS`` reaching supervised workers.
    """
    env = dict(os.environ)
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


class ManagedWorker:
    """One supervised ``ocqa worker`` subprocess."""

    def __init__(
        self,
        index: int,
        *,
        host: str = "127.0.0.1",
        context_limit: Optional[int] = None,
        max_inflight: int = 0,
        drain_timeout: float = 30.0,
        startup_timeout: float = 20.0,
    ) -> None:
        self.index = index
        self.host = host
        self.context_limit = context_limit
        self.max_inflight = max_inflight
        self.drain_timeout = drain_timeout
        self.startup_timeout = startup_timeout
        self.generation = 0
        self.restarts = 0
        self._proc: Optional[subprocess.Popen] = None
        self._port: Optional[int] = None
        self._announce = threading.Event()
        #: Recent child output (announce lines, drain notices, crash
        #: tracebacks) for post-mortems.
        self.output: Deque[str] = deque(maxlen=64)

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self) -> "ManagedWorker":
        """Start (or replace) the subprocess and wait for its announce."""
        if self.alive:
            raise RuntimeError(f"worker {self.index} already running")
        self.generation += 1
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--listen",
            f"{self.host}:0",
            "--name",
            f"supervised-{self.index}g{self.generation}",
        ]
        if self.context_limit is not None:
            command += ["--context-limit", str(self.context_limit)]
        if self.max_inflight:
            command += ["--max-inflight", str(self.max_inflight)]
        self._announce.clear()
        self._port = None
        self._proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_worker_environment(),
        )
        threading.Thread(
            target=self._pump_output, args=(self._proc,), daemon=True
        ).start()
        if not self._announce.wait(self.startup_timeout):
            self.kill()
            raise RuntimeError(
                f"worker {self.index} did not announce within "
                f"{self.startup_timeout}s: {list(self.output)}"
            )
        return self

    def _pump_output(self, proc: subprocess.Popen) -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            line = line.rstrip("\n")
            self.output.append(line)
            match = _ANNOUNCE.search(line)
            if match and not self._announce.is_set():
                self._port = int(match.group(2))
                self._announce.set()
        proc.stdout.close()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    @property
    def exitcode(self) -> Optional[int]:
        return self._proc.poll() if self._proc is not None else None

    @property
    def address(self) -> str:
        address = self.announced_address
        if address is None:
            raise RuntimeError(f"worker {self.index} has not announced yet")
        return address

    @property
    def announced_address(self) -> Optional[str]:
        """This generation's ``host:port``, or ``None`` until it announces
        (a respawn clears it before the new process binds its port)."""
        port = self._port
        return None if port is None else f"{self.host}:{port}"

    # ------------------------------------------------------------------
    # Health and shutdown
    # ------------------------------------------------------------------
    def probe(self, timeout: float = 5.0) -> bool:
        """One ping-frame health probe (a fresh, short-lived connection)."""
        if not self.alive or self._port is None:
            return False
        from repro.distributed.transport import SocketTransport

        transport = SocketTransport(
            self.host, self._port, connect_timeout=timeout
        )
        try:
            return transport.ping()
        finally:
            transport.close()

    def drain(self, timeout: Optional[float] = None) -> Optional[int]:
        """SIGTERM the worker and wait for its graceful exit.

        The worker's signal handler routes into the drain path: it stops
        accepting, finishes or hands back in-flight shards, and exits 0.
        Returns the exit code (``None`` only if the process refused to
        die and had to be killed).
        """
        if self._proc is None:
            return None
        budget = timeout if timeout is not None else self.drain_timeout + 10.0
        if self.alive and not self._announce.is_set():
            # A still-booting worker has not installed its SIGTERM
            # handler yet (the announce line is printed after it has);
            # terminating now would bypass the drain path entirely.
            self._announce.wait(self.startup_timeout)
        if self.alive:
            self._proc.terminate()
        try:
            return self._proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            log.warning(
                "supervised worker %d ignored SIGTERM for %.1fs; killing",
                self.index,
                budget,
            )
            self.kill()
            return self._proc.poll()

    def kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass


class Supervisor:
    """Spawn, watch, and restart a fleet of sampling workers.

    ``with Supervisor(workers=3) as sup: ...`` yields a fleet to pass as
    ``fleet=`` to :class:`repro.service.server.QueryService`, whose
    queries shard onto ``sup.addresses``.  A monitor thread probes each
    worker every *probe_interval* seconds (process liveness + a protocol
    ping) and respawns the dead or unresponsive, up to *max_restarts*
    per worker.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        probe_interval: float = 2.0,
        probe_strikes: int = DEFAULT_PROBE_STRIKES,
        max_restarts: int = 5,
        context_limit: Optional[int] = None,
        max_inflight: int = 0,
        drain_timeout: float = 30.0,
        startup_timeout: float = 20.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        self.probe_interval = probe_interval
        self.probe_strikes = max(1, probe_strikes)
        self.max_restarts = max_restarts
        self.workers: List[ManagedWorker] = [
            ManagedWorker(
                index,
                host=host,
                context_limit=context_limit,
                max_inflight=max_inflight,
                drain_timeout=drain_timeout,
                startup_timeout=startup_timeout,
            )
            for index in range(workers)
        ]
        self._strikes: Dict[int, int] = {}
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: Human-readable lifecycle events (spawn, restart, drain) in
        #: observation order, for status output and tests.
        self.events: List[str] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Supervisor":
        for worker in self.workers:
            worker.spawn()
            self._event(f"worker {worker.index} up at {worker.address}")
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True, name="repro-supervisor"
        )
        self._monitor.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop monitoring and take the fleet down (drained by default)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.probe_interval + 2.0)
            self._monitor = None
        for worker in self.workers:
            if drain and worker.alive:
                code = worker.drain()
                self._event(f"worker {worker.index} drained (exit {code})")
            else:
                worker.kill()

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def addresses(self) -> Tuple[str, ...]:
        """``host:port`` of each live, announced worker; read it per use,
        since a respawned worker listens on a new port."""
        live = []
        for worker in self.workers:
            address = worker.announced_address
            if address is not None and worker.alive:
                live.append(address)
        return tuple(live)

    def _event(self, message: str) -> None:
        with self._lock:
            self.events.append(message)
        log.info("supervisor: %s", message)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            for worker in self.workers:
                if self._stop.is_set():
                    return
                self._check(worker)

    def _check(self, worker: ManagedWorker) -> None:
        if not worker.alive:
            self._event(
                f"worker {worker.index} exited "
                f"(code {worker.exitcode}); restarting"
            )
            self._restart(worker)
            return
        if worker.probe():
            self._strikes[worker.index] = 0
            return
        strikes = self._strikes.get(worker.index, 0) + 1
        self._strikes[worker.index] = strikes
        if strikes >= self.probe_strikes:
            self._event(
                f"worker {worker.index} failed {strikes} probe(s); restarting"
            )
            worker.kill()
            self._restart(worker)

    def _restart(self, worker: ManagedWorker) -> None:
        if worker.restarts >= self.max_restarts:
            self._event(
                f"worker {worker.index} exhausted its {self.max_restarts} "
                "restart(s); leaving it down"
            )
            return
        worker.restarts += 1
        self._strikes[worker.index] = 0
        try:
            worker.spawn()
            self._event(
                f"worker {worker.index} respawned at {worker.address} "
                f"(restart {worker.restarts}/{self.max_restarts})"
            )
        except RuntimeError as exc:
            self._event(f"worker {worker.index} respawn failed: {exc}")

    # ------------------------------------------------------------------
    # Rolling restart
    # ------------------------------------------------------------------
    def rolling_restart(self, settle_timeout: float = 20.0) -> List[int]:
        """Drain and replace one worker at a time; returns exit codes.

        At every moment all but one worker serve traffic.  Each drain is
        a real SIGTERM (the deploy path, not a simulation): the worker
        finishes or hands back its shards and exits 0, then its
        replacement spawns on a new port and must answer a ping before
        the next worker is touched.  A coordinator riding through this
        re-leases the drained worker's shards to the rest of its fleet
        (campaigns complete byte-identically); the replacement serves
        the coordinators built from :attr:`addresses` after it is up.
        """
        codes: List[int] = []
        for worker in self.workers:
            code = worker.drain()
            codes.append(-1 if code is None else code)
            self._event(f"worker {worker.index} drained for restart (exit {code})")
            worker.spawn()
            settle = time.monotonic() + settle_timeout
            while time.monotonic() < settle:
                if worker.probe():
                    break
                time.sleep(0.2)
            else:
                raise RuntimeError(
                    f"worker {worker.index} replacement at {worker.address} "
                    f"did not answer pings within {settle_timeout}s"
                )
            self._event(
                f"worker {worker.index} replacement up at {worker.address}"
            )
        return codes

    def status(self) -> List[Dict[str, Any]]:
        """Per-worker status (the ``fleet`` section of ``/status``)."""
        return [
            {
                "index": worker.index,
                "address": worker.announced_address,
                "pid": worker.pid,
                "alive": worker.alive,
                "generation": worker.generation,
                "restarts": worker.restarts,
            }
            for worker in self.workers
        ]


__all__ = ["ManagedWorker", "Supervisor", "DEFAULT_PROBE_STRIKES"]
