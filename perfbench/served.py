"""The ``serve_cold`` and ``serve_hot_update`` workloads.

Both launch ``ocqa serve`` as a separate process (through
``serve_entry.py``, with its default serial sampling) and drive it from
this process with :data:`CLIENTS` closed-loop clients over keep-alive
HTTP connections: each client sends its next request only after the
previous answer arrived.  Every answer is checked; see the workload
functions for what.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.layers import SERVICE_ROOTS, derive
from perfbench.metrics import (
    CHECK,
    OK,
    Metric,
    OpLog,
    Outcome,
    canonical,
    classify,
    end_to_end,
    median,
    overhead_ratio,
    peak_rss_mb,
    percentile,
)
from perfbench.spans import layer_table, load_dump

CLIENTS = 2
#: Service launches per run; ``setup_s`` is their median.
SETUPS = 5
REQUEST_TIMEOUT = 60.0
START_TIMEOUT = 60.0
#: Response fields that differ between two correct answers.
VOLATILE = ("elapsed_seconds", "cached", "cache_age_seconds")


class Service:
    """One ``ocqa serve`` process and the client side of talking to it."""

    def __init__(self, root: str, out_dir: str, index: int) -> None:
        self.trace_out = os.path.join(out_dir, f"service-{index}.trace.json")
        for suffix in ("", ".on", ".off"):
            if os.path.exists(self.trace_out + suffix):
                os.remove(self.trace_out + suffix)
        self._stderr = open(os.path.join(out_dir, f"service-{index}.log"), "w")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(root, "perfbench", "serve_entry.py"),
                self.trace_out,
                "--listen",
                "127.0.0.1:0",
                "--name",
                "perfbench",
            ],
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        self.host, self.port = self._await_announce()

    def _await_announce(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if " listening on " in line:
                host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
                return host, int(port)
        self.stop()
        raise RuntimeError("ocqa serve did not announce its address")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            conn = self.connect()
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError("ocqa serve never reported healthy")

    def toggle_trace(self, on: bool) -> None:
        """Install (or remove) the probes in the service and wait for it."""
        marker = self.trace_out + (".on" if on else ".off")
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        deadline = time.monotonic() + START_TIMEOUT
        while not os.path.exists(marker):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("service did not acknowledge the trace switch")
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


def post(
    conn: http.client.HTTPConnection, path: str, payload: Dict[str, Any]
) -> Tuple[Optional[int], Optional[Dict[str, Any]], bool]:
    """``(status, body, timed_out)``; status ``None`` on a transport error."""
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data), False
    except socket.timeout:
        conn.close()
        return None, None, True
    except (OSError, http.client.HTTPException, ValueError):
        conn.close()
        return None, None, False


def start_service(root: str, out_dir: str, seed: int) -> Tuple[Service, List[float]]:
    """Launch :data:`SETUPS` services, keep the last; returns the set-up times.

    Set-up is launch until ``/healthz`` answers 200, plus registering the
    named instance.
    """
    times: List[float] = []
    service = None
    for index in range(SETUPS):
        if service is not None:
            service.stop()
        started = time.perf_counter()
        service = Service(root, out_dir, index)
        try:
            service.wait_healthy()
            conn = service.connect()
            status, body, _ = post(conn, "/query", inputs.registration_payload(seed))
            conn.close()
            if status != 200:
                raise RuntimeError(f"instance registration failed: {status} {body}")
        except BaseException:
            service.stop()
            raise
        times.append(time.perf_counter() - started)
    return service, times


def closed_loop(
    service: Service,
    seconds: float,
    next_op: Callable[[], Any],
    do_op: Callable[[http.client.HTTPConnection, Any], None],
) -> float:
    """Run :data:`CLIENTS` closed-loop clients for *seconds*; returns the
    window, from the first send until the last client finished."""
    stop_at = time.perf_counter() + seconds
    lock = threading.Lock()

    def client() -> None:
        conn = service.connect()
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    op = next_op()
                do_op(conn, op)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


@dataclass
class Phase:
    """What one timed window measured."""

    window_s: float = 0.0
    query_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    draws: int = 0


class AnswerBook:
    """First answer per key; later answers must match it byte for byte."""

    def __init__(self, log: OpLog) -> None:
        self.log = log
        self.first: Dict[Any, str] = {}
        self.ops: Dict[Any, List[int]] = {}
        self._lock = threading.Lock()

    def check(self, key: Any, body: Dict[str, Any], index: int) -> None:
        text = canonical(body, VOLATILE)
        with self._lock:
            self.ops.setdefault(key, []).append(index)
            first = self.first.setdefault(key, text)
        if text != first:
            self.log.fail_check(index)

    def verify(self, key: Any, recomputed: Optional[Dict[str, Any]]) -> None:
        """Compare a recompute with the key's first answer; on mismatch
        every operation that returned that answer fails its check."""
        if recomputed is not None and canonical(recomputed, VOLATILE) == self.first[key]:
            return
        for index in self.ops[key]:
            self.log.fail_check(index)


class RWLock:
    """Many readers or one writer, writers first: queries read, updates write.

    Holding updates back while a query is in flight pins every answer to
    one known instance digest, which the output checks key on.  A waiting
    writer stops new readers, so updates run in schedule order after at
    most one in-flight query.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writing or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writing or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writing = True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()


def _timed_post(conn, path, payload, log: OpLog):
    started = time.perf_counter()
    status, body, timed_out = post(conn, path, payload)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    outcome = classify(status, timed_out)
    if outcome == OK and not (body or {}).get("ok"):
        outcome = CHECK
    return log.record(outcome), outcome, body, elapsed_ms


def _phases(
    service: Service, seconds: float, trace: bool, run_phase: Callable[[float], Phase]
) -> List[Phase]:
    """One untraced window, or (traced run) an untraced then a traced half."""
    if not trace:
        return [run_phase(seconds)]
    untraced = run_phase(seconds / 2)
    service.toggle_trace(True)
    traced = run_phase(seconds / 2)
    service.toggle_trace(False)
    return [untraced, traced]


def _finish(
    service: Service,
    phases: List[Phase],
    trace: bool,
    setups: List[float],
    log: OpLog,
    extra_shown: List[Metric],
    env: Dict[str, Any],
    adom_values: int,
) -> Outcome:
    rss = peak_rss_mb(service.proc.pid)
    code = service.stop()
    notes: List[str] = []
    correct = code == 0 and log.failed == 0
    if code != 0:
        notes.append(f"service exited with code {code}")
    window = sum(phase.window_s for phase in phases)
    queries = [ms for phase in phases for ms in phase.query_ms]
    updates = [ms for phase in phases for ms in phase.update_ms]
    draws = sum(phase.draws for phase in phases)
    reported = end_to_end(setups, queries, draws, window, rss)
    shown = list(extra_shown)
    p95 = percentile(queries, 0.95)
    if p95 is not None:
        shown.insert(0, Metric("query_p95_ms", p95, "ms", len(queries)))
    if updates:
        shown.append(Metric("update_p50_ms", median(updates), "ms", len(updates)))
    shown.append(Metric("error_rate", log.error_rate, "ratio", log.attempted))
    per_layer: Dict[str, float] = {}
    if trace:
        spans, counts = load_dump(service.trace_out)
        table = layer_table(spans, SERVICE_ROOTS)
        notes.append(table.render("traced half, service process"))
        per_layer = derive(table, counts)
        untraced, traced = phases
        per_layer["trace.overhead_ratio"] = overhead_ratio(untraced.query_ms, traced.query_ms)
        per_layer["compiler.adom_values"] = adom_values
        reported = []
    return Outcome(env, reported, shown, log, correct, notes, per_layer)


# ----------------------------------------------------------------------
# serve_cold
# ----------------------------------------------------------------------
def serve_cold(root: str, out_dir: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """``/query`` with ``cache: "bypass"``: the recompute path.

    Check: every answer for a repeated ``(query, seed, adaptive)`` — one
    instance, never updated — matches the first byte for byte.
    """
    service, setups = start_service(root, out_dir, seed)
    log = OpLog()
    book = AnswerBook(log)
    schedule = inputs.cold_schedule(seed)

    def run_phase(length: float) -> Phase:
        phase = Phase()
        lock = threading.Lock()

        def do_op(conn, payload) -> None:
            index, outcome, body, elapsed_ms = _timed_post(conn, "/query", payload, log)
            if outcome != OK:
                return
            book.check((payload["query"], payload["seed"], payload["adaptive"]), body, index)
            with lock:
                phase.query_ms.append(elapsed_ms)
                phase.draws += int(body["runs"])

        phase.window_s = closed_loop(service, length, lambda: next(schedule), do_op)
        return phase

    try:
        phases = _phases(service, seconds, trace, run_phase)
    except BaseException:
        service.stop()
        raise
    instance = inputs.served_instance(seed)
    env = {"clients": CLIENTS, "service_workers": 0, "setups": SETUPS}
    return _finish(service, phases, trace, setups, log, [], env, _adom(instance))


def _adom(instance: Dict[str, List[List[str]]]) -> int:
    return len({value for rows in instance.values() for row in rows for value in row})


# ----------------------------------------------------------------------
# serve_hot_update
# ----------------------------------------------------------------------
def serve_hot_update(
    root: str, out_dir: str, seed: int, seconds: float, trace: bool
) -> Outcome:
    """Standing queries (``cache: "use"``) beside ``/update`` deltas.

    Checks: every answer for a repeated ``(query, seed, instance digest)``
    matches the first byte for byte; every update reports the delta it
    was sent; and every key first answered from the cache — an entry
    migrated across an update — is recomputed with ``cache: "bypass"``
    against that digest's instance after the window and must match.  A
    key first answered by a miss was itself a recompute.
    """
    service, setups = start_service(root, out_dir, seed)
    log = OpLog()
    book = AnswerBook(log)
    standing = inputs.standing_queries(seed)
    schedule = inputs.hot_schedule(seed)
    rw = RWLock()
    state = {"digest": "initial", "instance": inputs.served_instance(seed)}
    snapshots = {"initial": state["instance"]}
    computed: set = set()
    hits = misses = 0

    def run_phase(length: float) -> Phase:
        phase = Phase()
        lock = threading.Lock()

        def do_op(conn, op) -> None:
            nonlocal hits, misses
            kind, item = op
            if kind == "update":
                rw.acquire_write()
                try:
                    index, outcome, body, elapsed_ms = _timed_post(
                        conn, "/update", item.payload(), log
                    )
                    if outcome == OK:
                        if body["added"] != len(item.add) or body["removed"] != len(item.remove):
                            log.fail_check(index)
                        state["digest"] = body["digest"]
                        state["instance"] = inputs.apply_delta(state["instance"], item)
                        snapshots[body["digest"]] = state["instance"]
                finally:
                    rw.release_write()
                if outcome == OK:
                    with lock:
                        phase.update_ms.append(elapsed_ms)
                return
            rw.acquire_read()
            try:
                digest = state["digest"]
                index, outcome, body, elapsed_ms = _timed_post(conn, "/query", standing[item], log)
            finally:
                rw.release_read()
            if outcome != OK:
                return
            key = (item, digest)
            book.check(key, body, index)
            with lock:
                phase.query_ms.append(elapsed_ms)
                phase.draws += int(body["runs"])
                if body["cached"]:
                    hits += 1
                else:
                    misses += 1
                    computed.add(key)

        phase.window_s = closed_loop(service, length, lambda: next(schedule), do_op)
        return phase

    try:
        phases = _phases(service, seconds, trace, run_phase)
        unverified = [key for key in book.first if key not in computed]
        conn = service.connect()
        try:
            for item, digest in unverified:
                payload = dict(standing[item], cache="bypass")
                del payload["instance"]
                payload["database"] = snapshots[digest]
                payload["constraints"] = inputs.CONSTRAINTS
                status, body, _ = post(conn, "/query", payload)
                book.verify((item, digest), body if status == 200 else None)
        finally:
            conn.close()
    except BaseException:
        service.stop()
        raise
    shown = [
        Metric("miss_share", misses / max(hits + misses, 1), "ratio", hits + misses),
        Metric("verified_migrated_keys", len(unverified), "count"),
    ]
    env = {"clients": CLIENTS, "service_workers": 0, "setups": SETUPS}
    return _finish(
        service, phases, trace, setups, log, shown, env, _adom(inputs.served_instance(seed))
    )
