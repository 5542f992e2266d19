"""Deterministic fault injection for the distributed sampling service.

Chaos engineering, reproducibly: every fault this module injects —
dropped/delayed/duplicated/truncated/bit-flipped frames, stalled
heartbeats, crashes at the nastiest code points — is driven by a seeded
:class:`FaultPlan`, so a red soak run is a *seed*, not an anecdote.
Re-run with the same seed and the same faults hit the same frames.

Three layers:

- **Failpoints** — named crash sites compiled into the production code
  (``worker.mid_shard``, ``worker.after_result``,
  ``worker.context_build``, ``campaign.save_checkpoint``, and the
  overload sites ``worker.memory_pressure``, ``service.queue_flood``,
  ``service.slow_consumer``).  Armed via the ``REPRO_FAILPOINTS``
  environment variable (inherited by pool forks and worker
  subprocesses) or :func:`set_failpoint`; a triggered failpoint raises
  :class:`FailpointError`, hard-exits the process, or (``sleep``)
  stalls the call site — exercising exactly the recovery paths
  (re-lease, reconnect, checkpoint quarantine, load shedding,
  deadline expiry) that clean unit tests cannot reach.
- **:class:`ChaosProxy`** — a frame-aware TCP proxy between a
  coordinator and a worker.  It parses protocol frames off the wire and,
  per the plan's schedule, passes, delays, duplicates, truncates,
  bit-flips, or drops them — or stalls the stream long enough to expire
  a heartbeat lease.  The hostile-network simulator behind the chaos
  soak.
- **:class:`ChaosTransport`** — an in-process transport wrapper
  injecting transport-level faults (:class:`WorkerUnavailable`, delays)
  on the plan's schedule, for socket-free coordinator tests.

The invariant all of this exists to prove: a campaign's estimates are
byte-identical to the serial run under *any* fault schedule — the
``(eps, delta)`` guarantee holds through a hostile network, not just on
the happy path.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.distributed.protocol import FRAME_PREFIX

log = logging.getLogger(__name__)

#: Environment variable arming failpoints in workers and subprocesses.
#: Comma-separated ``name[:hit][=action]`` specs — ``hit`` is the 1-based
#: invocation that triggers (default 1), ``action`` is ``raise``
#: (default), ``exit`` (hard ``os._exit``, a real crash), or
#: ``sleepN`` (stall the call site for ``N`` seconds — default 1 — the
#: slow-consumer/memory-pressure simulator that turns a failpoint into
#: an overload fault instead of a crash).
FAILPOINTS_ENV_VAR = "REPRO_FAILPOINTS"


class FailpointError(RuntimeError):
    """An armed failpoint fired (the injected, *transient* crash)."""


@dataclass
class _Failpoint:
    """One armed crash site: fires on invocation number *hit*."""

    name: str
    hit: int = 1
    action: str = "raise"
    calls: int = 0
    fired: bool = False


_FAILPOINTS: Dict[str, _Failpoint] = {}
_FAILPOINT_LOCK = threading.Lock()


def parse_failpoints(spec: str) -> Dict[str, _Failpoint]:
    """Parse a ``REPRO_FAILPOINTS`` spec string.

    ``"worker.mid_shard,campaign.save_checkpoint:2=exit"`` arms
    ``worker.mid_shard`` to raise on its first invocation and
    ``campaign.save_checkpoint`` to hard-exit on its second.
    """
    out: Dict[str, _Failpoint] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        action = "raise"
        if "=" in part:
            part, action = part.rsplit("=", 1)
        hit = 1
        if ":" in part:
            part, hit_str = part.rsplit(":", 1)
            hit = int(hit_str)
        if action not in ("raise", "exit") and not _parse_sleep_action(action):
            raise ValueError(
                f"failpoint action must be 'raise', 'exit', or 'sleep[N]', "
                f"got {action!r}"
            )
        out[part] = _Failpoint(name=part, hit=max(1, hit), action=action)
    return out


def _parse_sleep_action(action: str) -> Optional[float]:
    """``sleep`` / ``sleepN`` -> the stall duration (None if not a sleep)."""
    if not action.startswith("sleep"):
        return None
    suffix = action[len("sleep"):]
    if not suffix:
        return 1.0
    try:
        seconds = float(suffix)
    except ValueError:
        return None
    return seconds if seconds > 0 else None


def set_failpoint(name: str, hit: int = 1, action: str = "raise") -> None:
    """Arm *name* to fire on its *hit*-th invocation (test/chaos API)."""
    if action not in ("raise", "exit") and not _parse_sleep_action(action):
        raise ValueError(
            f"failpoint action must be 'raise', 'exit', or 'sleep[N]', "
            f"got {action!r}"
        )
    with _FAILPOINT_LOCK:
        _FAILPOINTS[name] = _Failpoint(name=name, hit=max(1, hit), action=action)


def clear_failpoints() -> None:
    """Disarm every failpoint (test isolation)."""
    with _FAILPOINT_LOCK:
        _FAILPOINTS.clear()


def failpoint_fired(name: str) -> bool:
    """Whether the armed failpoint *name* has fired (test assertion)."""
    with _FAILPOINT_LOCK:
        point = _FAILPOINTS.get(name)
        return bool(point and point.fired)


def failpoint(name: str) -> None:
    """The crash site: a no-op unless *name* is armed.

    Compiled into the nasty moments of worker/executor/campaign code; the
    empty-registry fast path is one dict lookup, cheap enough for per-shard
    and per-checkpoint call sites (measured by ``scenario_chaos_overhead``).
    """
    if not _FAILPOINTS:
        return
    with _FAILPOINT_LOCK:
        point = _FAILPOINTS.get(name)
        if point is None:
            return
        point.calls += 1
        if point.fired or point.calls != point.hit:
            return
        point.fired = True
        action = point.action
    log.warning("failpoint %s firing (action=%s)", name, action)
    if action == "exit":
        os._exit(23)
    stall = _parse_sleep_action(action)
    if stall is not None:
        time.sleep(stall)
        return
    raise FailpointError(f"injected failpoint {name!r} fired")


def _arm_from_env() -> None:
    spec = os.environ.get(FAILPOINTS_ENV_VAR, "")
    if not spec:
        return
    with _FAILPOINT_LOCK:
        for name, point in parse_failpoints(spec).items():
            _FAILPOINTS.setdefault(name, point)


_arm_from_env()


# ----------------------------------------------------------------------
# The fault plan
# ----------------------------------------------------------------------

#: Frame-level fault classes a :class:`ChaosProxy` can inject.
FAULT_KINDS = (
    "corrupt",  # flip one bit in the frame (CRC/parse must catch it)
    "truncate",  # ship a partial frame, then cut the connection
    "flap",  # drop the connection without forwarding
    "delay",  # hold the frame briefly, then forward
    "duplicate",  # forward the frame twice
    "stall",  # go silent past the heartbeat lease, then resume
)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of injected faults.

    ``rates`` maps fault kinds (:data:`FAULT_KINDS`) to per-frame
    probabilities; unlisted kinds never fire.  Every consumer derives a
    named :class:`FaultStream` via :meth:`stream` — two runs with the
    same seed draw identical schedules stream by stream, which is what
    makes a failing chaos run reproducible from its printed seed.
    """

    seed: int
    rates: Tuple[Tuple[str, float], ...] = ()
    delay_seconds: float = 0.05
    stall_seconds: float = 3.0

    @classmethod
    def create(
        cls,
        seed: int,
        rates: Optional[Dict[str, float]] = None,
        delay_seconds: float = 0.05,
        stall_seconds: float = 3.0,
    ) -> "FaultPlan":
        """Build a plan from a ``{kind: probability}`` mapping."""
        chosen = dict(rates if rates is not None else DEFAULT_FAULT_RATES)
        unknown = set(chosen) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"expected a subset of {FAULT_KINDS}"
            )
        return cls(
            seed=seed,
            rates=tuple(sorted(chosen.items())),
            delay_seconds=delay_seconds,
            stall_seconds=stall_seconds,
        )

    def stream(self, name: str) -> "FaultStream":
        """The deterministic fault stream owned by *name*."""
        return FaultStream(self, name)

    def describe(self) -> str:
        """One line identifying this plan (printed for red-run repro)."""
        rates = ", ".join(f"{kind}={rate}" for kind, rate in self.rates)
        return f"FaultPlan(seed={self.seed}, {rates})"


#: A moderately hostile network: most frames pass, every class fires.
DEFAULT_FAULT_RATES: Dict[str, float] = {
    "corrupt": 0.04,
    "truncate": 0.02,
    "flap": 0.02,
    "delay": 0.06,
    "duplicate": 0.04,
    "stall": 0.01,
}


class FaultStream:
    """One named consumer's deterministic sequence of fault decisions."""

    def __init__(self, plan: FaultPlan, name: str) -> None:
        self.plan = plan
        self.name = name
        self._rng = random.Random(f"{plan.seed}:{name}")

    def next_fault(self) -> Optional[str]:
        """The fault to inject on the next frame (``None`` = pass)."""
        roll = self._rng.random()
        cumulative = 0.0
        for kind, rate in self.plan.rates:
            cumulative += rate
            if roll < cumulative:
                return kind
        return None

    def randrange(self, stop: int) -> int:
        """A deterministic index draw (e.g. which bit to flip)."""
        return self._rng.randrange(stop)


# ----------------------------------------------------------------------
# The chaos socket proxy
# ----------------------------------------------------------------------


class ChaosProxy:
    """A frame-aware TCP proxy injecting a :class:`FaultPlan`'s faults.

    Sits between a coordinator and one worker: coordinators connect to
    :attr:`port` instead of the worker's, and every protocol frame in
    either direction is individually passed, delayed, duplicated,
    truncated, bit-flipped, or dropped per the plan — with connection
    flaps and heartbeat stalls thrown in.  Fault decisions come from a
    per-connection-per-direction :class:`FaultStream`, so the schedule
    is reproducible from the plan seed alone.

    Injected-fault counts accumulate in :attr:`injected` (by kind) —
    the chaos soak asserts every class actually fired.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        name: str = "chaos",
    ) -> None:
        self.upstream = (upstream_host, int(upstream_port))
        self.plan = plan
        self.name = name
        self.injected: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._count_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._conn_count = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ChaosProxy":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._shutdown.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def injected_total(self) -> int:
        with self._count_lock:
            return sum(self.injected.values())

    def injected_kinds(self) -> List[str]:
        """Fault classes that actually fired at least once."""
        with self._count_lock:
            return sorted(kind for kind, n in self.injected.items() if n)

    def _record(self, kind: str) -> None:
        with self._count_lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # Pumping
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        self._sock.settimeout(0.5)
        while not self._shutdown.is_set():
            try:
                downstream, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream, timeout=10)
            except OSError:
                downstream.close()
                continue
            index = self._conn_count
            self._conn_count += 1
            for direction, source, sink in (
                ("c2w", downstream, upstream),
                ("w2c", upstream, downstream),
            ):
                stream = self.plan.stream(f"conn{index}:{direction}")
                threading.Thread(
                    target=self._pump,
                    args=(source, sink, stream),
                    daemon=True,
                ).start()

    def _read_frame(self, source: socket.socket) -> Optional[bytes]:
        """One whole protocol frame off *source* (None on EOF/teardown)."""
        try:
            prefix = self._recv_exact(source, FRAME_PREFIX.size)
            if prefix is None:
                return None
            _magic, header_len, blob_len = FRAME_PREFIX.unpack(prefix)
            body = self._recv_exact(source, header_len + blob_len)
            if body is None:
                return None
            return prefix + body
        except OSError:
            return None

    @staticmethod
    def _recv_exact(source: socket.socket, count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            chunk = source.recv(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _pump(
        self, source: socket.socket, sink: socket.socket, stream: FaultStream
    ) -> None:
        try:
            while not self._shutdown.is_set():
                frame = self._read_frame(source)
                if frame is None:
                    return
                fault = stream.next_fault()
                if fault is None:
                    sink.sendall(frame)
                    continue
                self._record(fault)
                if fault == "corrupt":
                    # Flip one bit past the fixed prefix: the header JSON
                    # or the blob — CRC/parse validation must catch it.
                    mutable = bytearray(frame)
                    span = len(mutable) - FRAME_PREFIX.size
                    offset = FRAME_PREFIX.size + stream.randrange(max(span, 1))
                    mutable[offset] ^= 1 << stream.randrange(8)
                    sink.sendall(bytes(mutable))
                elif fault == "truncate":
                    sink.sendall(frame[: max(1, len(frame) // 2)])
                    return
                elif fault == "flap":
                    return
                elif fault == "delay":
                    time.sleep(self.plan.delay_seconds)
                    sink.sendall(frame)
                elif fault == "duplicate":
                    sink.sendall(frame)
                    sink.sendall(frame)
                elif fault == "stall":
                    # Heartbeat stall: go silent long enough for the
                    # coordinator's lease timer to expire, then resume.
                    time.sleep(self.plan.stall_seconds)
                    sink.sendall(frame)
        except OSError:
            return
        finally:
            for peer in (source, sink):
                try:
                    peer.close()
                except OSError:
                    pass


# ----------------------------------------------------------------------
# The in-process chaos transport
# ----------------------------------------------------------------------


@dataclass
class _ChaosCounters:
    failures: int = 0
    delays: int = 0
    reconnects: int = 0


class ChaosTransport:
    """A :class:`~repro.distributed.transport.WorkerTransport` wrapper
    injecting transport-level faults on the plan's schedule.

    Per shard the plan's ``flap`` rate raises
    :class:`~repro.distributed.transport.WorkerUnavailable` (before the
    inner transport computes anything) and ``delay`` sleeps briefly —
    exercising the coordinator's re-lease, reconnect/backoff, and
    degradation paths without a socket in sight.  ``reconnect`` always
    succeeds (the inner transport never actually died), so a
    chaos-wrapped fleet heals on the coordinator's schedule.
    """

    def __init__(self, inner: Any, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = f"chaos({inner.name})"
        self.alive = True
        self.campaign_id: Optional[str] = None
        self.counters = _ChaosCounters()
        self._stream = plan.stream(f"transport:{inner.name}")

    def bind_campaign(self, campaign_id: str) -> None:
        self.campaign_id = campaign_id
        self.inner.bind_campaign(campaign_id)

    def ensure_context(self, context: Any, timeout: Optional[float] = None) -> None:
        self.inner.ensure_context(context, timeout=timeout)

    def run_shard(
        self,
        context: Any,
        shard_id: int,
        start: int,
        count: int,
        timeout: Optional[float] = None,
        deadline: Any = None,
    ) -> Any:
        from repro.distributed.transport import WorkerUnavailable

        fault = self._stream.next_fault()
        if fault in ("flap", "truncate", "corrupt", "stall"):
            self.counters.failures += 1
            self.alive = False
            raise WorkerUnavailable(
                f"chaos transport {self.name} injected a {fault} fault on "
                f"shard {shard_id}"
            )
        if fault == "delay":
            self.counters.delays += 1
            time.sleep(self.plan.delay_seconds)
        return self.inner.run_shard(
            context, shard_id, start, count, timeout=timeout, deadline=deadline
        )

    def reconnect(self) -> bool:
        self.counters.reconnects += 1
        self.alive = True
        return True

    @property
    def stats(self) -> Dict[str, int]:
        stats = dict(getattr(self.inner, "stats", None) or {})
        stats["reconnects"] = stats.get("reconnects", 0) + self.counters.reconnects
        return stats

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosTransport {self.name} faults={self.counters.failures}>"


__all__ = [
    "ChaosProxy",
    "ChaosTransport",
    "DEFAULT_FAULT_RATES",
    "FAILPOINTS_ENV_VAR",
    "FAULT_KINDS",
    "FailpointError",
    "FaultPlan",
    "FaultStream",
    "clear_failpoints",
    "failpoint",
    "failpoint_fired",
    "parse_failpoints",
    "set_failpoint",
]
