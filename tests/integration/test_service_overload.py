"""Overload-robustness integration: worker SIGTERM drain (the
regression the service layer was built around), the supervisor's
health-probe/rolling-restart loop, and the acceptance soak — a
saturating client fan-in against the query service while one worker is
SIGTERMed, with every query either byte-identical to serial or shed
with a typed retriable error.

Skips cleanly where localhost sockets or subprocesses are unavailable.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.distributed import Coordinator
from repro.obs import metrics as obs_metrics
from repro.queries import parse_cq
from repro.service import AdmissionController
from repro.service.server import QueryService
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

CAMPAIGN = dict(
    workload=key_conflict_workload(
        clean_rows=8, conflict_groups=4, group_size=3, seed=9
    ),
    query=parse_cq("Q(x) :- R(x, y, z)"),
    rng_seed=7,
    runs=60,
)


@pytest.fixture(autouse=True)
def _clean_overload_stats():
    obs_metrics.REGISTRY.reset()
    yield
    obs_metrics.REGISTRY.reset()


def _spawn_worker(extra_args=(), env_extra=None):
    """Start ``ocqa worker`` on a free port; returns (process, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    try:
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "--listen",
                "127.0.0.1:0",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
    except OSError as exc:  # pragma: no cover - platform-dependent
        pytest.skip(f"cannot spawn worker subprocesses: {exc}")
    line = process.stdout.readline()
    match = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
    if not match:
        process.kill()
        pytest.skip(f"worker did not announce a port: {line!r}")
    return process, int(match.group(1))


def _reap(process):
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _run_campaign(coordinator=None):
    backend = SQLiteBackend()
    CAMPAIGN["workload"].load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        CAMPAIGN["workload"].schema,
        [CAMPAIGN["workload"].key_spec],
        policy=SamplerPolicy.OPERATIONAL_UNIFORM,
        rng=random.Random(CAMPAIGN["rng_seed"]),
        coordinator=coordinator,
    )
    try:
        return sampler.run(CAMPAIGN["query"], runs=CAMPAIGN["runs"])
    finally:
        backend.close()


class TestWorkerSigtermDrain:
    """Satellite regression: SIGTERM mid-shard must drain, not traceback."""

    def test_sigterm_mid_shard_exits_zero_without_traceback(self):
        serial = _run_campaign()
        # Stall the worker's first shard so the SIGTERM provably lands
        # mid-shard (the chaos sleep action holds it for 0.6s).
        victim, victim_port = _spawn_worker(
            env_extra={"REPRO_FAILPOINTS": "worker.mid_shard=sleep0.6"}
        )
        survivor, survivor_port = _spawn_worker()
        try:
            coordinator = Coordinator.from_options(
                worker_addresses=[
                    f"127.0.0.1:{victim_port}",
                    f"127.0.0.1:{survivor_port}",
                ],
                shard_size=4,
                lease_timeout=20,
            )

            def terminate_mid_run():
                time.sleep(0.3)
                try:
                    os.kill(victim.pid, signal.SIGTERM)
                except ProcessLookupError:  # pragma: no cover
                    pass

            terminator = threading.Thread(target=terminate_mid_run)
            terminator.start()
            try:
                churned = _run_campaign(coordinator=coordinator)
            finally:
                terminator.join()
                coordinator.close()
            victim_exit = victim.wait(timeout=30)
            victim_output = victim.stdout.read()
        finally:
            _reap(victim)
            _reap(survivor)
        # Graceful drain: exit 0, the drain banner, and no traceback.
        assert victim_exit == 0, victim_output
        assert "drained" in victim_output
        assert "Traceback" not in victim_output
        # The re-leased shards recomputed the same draws.
        assert churned.frequencies == serial.frequencies
        assert churned.runs == serial.runs

    def test_serve_front_drains_on_sigterm(self):
        # The HTTP front honors the same contract as workers: SIGTERM
        # after the announce line drains and exits 0, no traceback.
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--listen",
                "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            os.kill(process.pid, signal.SIGTERM)
            exit_code = process.wait(timeout=30)
            output = line + process.stdout.read()
        finally:
            _reap(process)
        assert exit_code == 0, output
        assert "drained" in output
        assert "Traceback" not in output

    def test_sigint_is_equivalent(self):
        worker, port = _spawn_worker()
        try:
            time.sleep(0.2)
            os.kill(worker.pid, signal.SIGINT)
            exit_code = worker.wait(timeout=30)
            output = worker.stdout.read()
        finally:
            _reap(worker)
        assert exit_code == 0, output
        assert "drained" in output
        assert "Traceback" not in output


class TestSupervisor:
    def test_probes_restarts_and_rolling_restart(self):
        from repro.service.supervisor import Supervisor

        serial = _run_campaign()
        try:
            supervisor = Supervisor(
                workers=2, probe_interval=0.5, startup_timeout=30.0
            )
            supervisor.start()
        except (OSError, RuntimeError) as exc:  # pragma: no cover
            pytest.skip(f"cannot run supervised workers: {exc}")
        try:
            assert len(supervisor.addresses) == 2
            for worker in supervisor.workers:
                assert worker.probe(timeout=10.0)

            coordinator = Coordinator.from_options(
                worker_addresses=list(supervisor.addresses), shard_size=6
            )
            try:
                before = _run_campaign(coordinator=coordinator)
            finally:
                coordinator.close()
            assert before.frequencies == serial.frequencies

            # A SIGKILLed worker is respawned by the monitor loop.
            victim = supervisor.workers[0]
            victim_pid = victim.pid
            victim.kill()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if (
                    supervisor.workers[0].alive
                    and supervisor.workers[0].pid != victim_pid
                ):
                    break
                time.sleep(0.2)
            assert supervisor.workers[0].alive
            assert supervisor.workers[0].pid != victim_pid
            assert any("restart" in event for event in supervisor.events)
            # Let the replacement finish booting before restarting it.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    if supervisor.workers[0].probe(timeout=2.0):
                        break
                except OSError:
                    pass
                time.sleep(0.2)

            # Rolling restart: every generation drains with exit 0, and
            # the fresh fleet still produces byte-identical estimates.
            exit_codes = supervisor.rolling_restart(settle_timeout=30.0)
            assert exit_codes == [0, 0]
            coordinator = Coordinator.from_options(
                worker_addresses=list(supervisor.addresses), shard_size=6
            )
            try:
                after = _run_campaign(coordinator=coordinator)
            finally:
                coordinator.close()
            assert after.frequencies == serial.frequencies
        finally:
            supervisor.close()


def _counter_total(name):
    parsed = obs_metrics.parse_prometheus_text(obs_metrics.REGISTRY.render())
    return sum(value for _, value in parsed.get(name, []))


class TestServiceFollowsFleet:
    def test_respawned_worker_takes_the_next_query(self):
        """A respawned worker listens on a new port.  The service reads
        the fleet's addresses per query, so the next query ships its
        shards to the replacement — it neither waits out the reconnect
        backoff on the dead port nor runs the shards inline."""
        from repro.service.supervisor import Supervisor

        status, expected = QueryService().handle_query(_query_payload())
        assert status == 200 and not expected["deadline_expired"]
        try:
            fleet = Supervisor(workers=1, probe_interval=0.5, startup_timeout=30.0)
            fleet.start()
        except (OSError, RuntimeError) as exc:  # pragma: no cover
            pytest.skip(f"cannot run supervised workers: {exc}")
        try:
            service = QueryService(fleet=fleet, name="fleet-follow")
            payload = _query_payload(cache="bypass")
            status, body = service.handle_query(payload)
            assert status == 200, body
            assert body["frequencies"] == expected["frequencies"]

            victim = fleet.workers[0]
            victim_pid = victim.pid
            victim.kill()
            deadline = time.monotonic() + 30
            while not (fleet.addresses and victim.pid != victim_pid):
                assert time.monotonic() < deadline, fleet.events
                time.sleep(0.1)

            inline_before = _counter_total("ocqa_inline_shards_total")
            completions_before = _counter_total("ocqa_shard_completions_total")
            started = time.monotonic()
            status, body = service.handle_query(payload)
            elapsed = time.monotonic() - started
            assert status == 200, body
            assert body["frequencies"] == expected["frequencies"]
            assert body["runs"] == expected["runs"]
            assert elapsed < 5.0, elapsed
            assert _counter_total("ocqa_inline_shards_total") == inline_before
            assert _counter_total("ocqa_shard_completions_total") > completions_before
        finally:
            fleet.close()


def _query_payload(**overrides):
    payload = {
        "database": {"R": [["a", "b"], ["a", "c"], ["b", "b"]]},
        "constraints": "R(x, y), R(x, z) -> y = z",
        "query": "Q(x) :- R(x, y)",
        "epsilon": 0.3,
        "delta": 0.3,
        "runs": 40,
        "seed": 11,
        "deadline": 25.0,
    }
    payload.update(overrides)
    return payload


def _post(address, payload, timeout=30.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceOverloadSoak:
    """The acceptance soak: saturating fan-in + one SIGTERMed worker.

    Every query must finish byte-identical to serial within its
    deadline OR be shed/deadlined with a typed retriable error — no
    hangs, no tracebacks, no unbounded queue growth.
    """

    CLIENTS = 12

    def test_saturating_fanin_with_worker_sigterm(self):
        # The serial ground truth for the payload used by every client.
        with QueryService() as baseline:
            status, expected = baseline.handle_query(_query_payload())
        assert status == 200 and not expected["deadline_expired"]

        victim, victim_port = _spawn_worker()
        survivor, survivor_port = _spawn_worker()
        service = QueryService(
            admission=AdmissionController(
                max_concurrent=2, max_queue_depth=2, max_wait=0.5
            ),
            worker_addresses=(
                f"127.0.0.1:{victim_port}",
                f"127.0.0.1:{survivor_port}",
            ),
            lease_timeout=20.0,
            drain_timeout=60.0,
            name="overload-soak",
        )
        responses = []
        errors = []
        lock = threading.Lock()
        try:
            service.start()
            address = service.address
            barrier = threading.Barrier(self.CLIENTS)

            def client(index):
                try:
                    barrier.wait(timeout=30)
                    status, body = _post(address, _query_payload(), timeout=120)
                    with lock:
                        responses.append((index, status, body))
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    with lock:
                        errors.append((index, exc))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(self.CLIENTS)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.4)
            os.kill(victim.pid, signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=180)
            assert not any(t.is_alive() for t in threads), "client hang"
            victim_exit = victim.wait(timeout=30)
            victim_output = victim.stdout.read()
            status_body = service.status()
        finally:
            service.close()
            _reap(victim)
            _reap(survivor)

        assert not errors, errors
        assert len(responses) == self.CLIENTS
        completed, shed = 0, 0
        for index, status, body in responses:
            if status == 200 and not body["deadline_expired"]:
                # Byte-identical to the serial ground truth.
                assert body["frequencies"] == expected["frequencies"], index
                assert body["runs"] == expected["runs"]
                completed += 1
            elif status == 200:
                # Deadlined: best-effort with widened accounting.
                assert body["achieved_epsilon"] is not None
                completed += 1
            else:
                # Shed: typed, retriable, with a retry hint.
                assert status in (429, 503), (index, status, body)
                assert body["retriable"], body
                assert body["reason"], body
                assert body["retry_after"] > 0
                shed += 1
        # Saturation really happened, and so did useful work.
        assert completed >= 1
        assert shed >= 1, [r[1] for r in responses]
        # Bounded queue growth, with the high-water mark on record.
        overload = status_body["overload"]
        assert overload["queue_depth_high_water"] >= 1
        assert overload["queue_depth_high_water"] <= 2
        assert overload["sheds"]
        # The SIGTERMed worker drained cleanly mid-soak.
        assert victim_exit == 0, victim_output
        assert "Traceback" not in victim_output
