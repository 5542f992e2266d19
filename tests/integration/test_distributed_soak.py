"""Soak tests for the multiplexing worker: one worker process, many
concurrent coordinator campaigns — plus kill-mid-shard churn — all
byte-identical to serial runs.

These are the test-side twins of the CI ``distributed-soak`` matrix:
the acceptance bar is that a single ``ocqa worker --listen`` process
drives two concurrent coordinator campaigns to exactly the estimates
the serial runs produce, and that SIGKILLing a worker mid-shard never
changes a digit.

Skips cleanly where localhost sockets or subprocesses are unavailable.
"""

import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed import Coordinator, WorkerServer
from repro.queries import parse_cq
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

#: Two deliberately different campaigns (workload shape, query, seed),
#: so a worker mixing up its multiplexed connections cannot pass.
CAMPAIGN_A = dict(
    workload=key_conflict_workload(
        clean_rows=8, conflict_groups=4, group_size=3, seed=9
    ),
    query=parse_cq("Q(x) :- R(x, y, z)"),
    rng_seed=7,
    runs=60,
)
CAMPAIGN_B = dict(
    workload=key_conflict_workload(
        clean_rows=5, conflict_groups=6, group_size=2, seed=23
    ),
    query=parse_cq("Q(x, y) :- R(x, y, z)"),
    rng_seed=40,
    runs=80,
)

#: A fat-outcome campaign: many clean rows and a whole-row query make
#: every draw ship a large, highly repetitive answer set — the regime
#: outcome interning/compression exists for.
CAMPAIGN_FAT = dict(
    workload=key_conflict_workload(
        clean_rows=150, conflict_groups=8, group_size=2, seed=5
    ),
    query=parse_cq("Q(x, y, z) :- R(x, y, z)"),
    rng_seed=13,
    runs=45,
)


def _spawn_worker():
    """Start ``ocqa worker`` on a free port; returns (process, port)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0"],
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


@pytest.fixture
def one_worker():
    process, port = _spawn_worker()
    yield process, port
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()


def _run_campaign(spec, coordinator=None, **coordinator_kwargs):
    backend = SQLiteBackend()
    spec["workload"].load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        spec["workload"].schema,
        [spec["workload"].key_spec],
        policy=SamplerPolicy.OPERATIONAL_UNIFORM,
        rng=random.Random(spec["rng_seed"]),
        coordinator=coordinator,
        **coordinator_kwargs,
    )
    try:
        return sampler.run(spec["query"], runs=spec["runs"])
    finally:
        sampler.close_coordinator()
        backend.close()


class TestOneWorkerManyCampaigns:
    def test_two_concurrent_campaigns_one_worker_process(self, one_worker):
        """The acceptance scenario: ONE ``ocqa worker`` subprocess serves
        two coordinators concurrently, each campaign byte-identical to
        its serial run."""
        serial = {
            "a": _run_campaign(CAMPAIGN_A),
            "b": _run_campaign(CAMPAIGN_B),
        }
        _process, port = one_worker
        address = f"127.0.0.1:{port}"
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def drive(label, spec):
            try:
                coordinator = Coordinator.connect([address], shard_size=7)
                barrier.wait(timeout=10)  # genuinely concurrent campaigns
                try:
                    results[label] = _run_campaign(spec, coordinator=coordinator)
                finally:
                    coordinator.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((label, exc))

        threads = [
            threading.Thread(target=drive, args=("a", CAMPAIGN_A)),
            threading.Thread(target=drive, args=("b", CAMPAIGN_B)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert results["a"].frequencies == serial["a"].frequencies
        assert results["a"].runs == serial["a"].runs
        assert results["b"].frequencies == serial["b"].frequencies
        assert results["b"].runs == serial["b"].runs

    def test_same_campaign_twice_concurrently_shares_warm_context(self, one_worker):
        """Two coordinators racing the *same* campaign share one warm
        context (content-addressed) and both match serial."""
        serial = _run_campaign(CAMPAIGN_A)
        _process, port = one_worker
        address = f"127.0.0.1:{port}"
        results = {}
        errors = []

        def drive(label):
            try:
                coordinator = Coordinator.connect([address], shard_size=9)
                try:
                    results[label] = _run_campaign(
                        CAMPAIGN_A, coordinator=coordinator
                    )
                finally:
                    coordinator.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append((label, exc))

        threads = [
            threading.Thread(target=drive, args=(label,)) for label in ("x", "y")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert results["x"].frequencies == serial.frequencies
        assert results["y"].frequencies == serial.frequencies


class TestChurn:
    def test_sigkill_mid_shard_is_byte_identical(self):
        """Two subprocess workers; one is SIGKILLed while shards are in
        flight.  The re-leased shards recompute the same draws."""
        serial = _run_campaign(CAMPAIGN_A)
        victim, victim_port = _spawn_worker()
        survivor, survivor_port = _spawn_worker()
        try:
            coordinator = Coordinator.connect(
                [f"127.0.0.1:{victim_port}", f"127.0.0.1:{survivor_port}"],
                shard_size=4,
                lease_timeout=20,
            )

            def kill_mid_run():
                time.sleep(0.3)
                try:
                    os.kill(victim.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            killer = threading.Thread(target=kill_mid_run)
            killer.start()
            try:
                churned = _run_campaign(CAMPAIGN_A, coordinator=coordinator)
            finally:
                killer.join()
                coordinator.close()
        finally:
            for process in (victim, survivor):
                if process.poll() is None:
                    process.terminate()
                    try:
                        process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        process.kill()
        assert churned.frequencies == serial.frequencies
        assert churned.runs == serial.runs


class TestFatOutcomeShipping:
    def test_matches_serial(self):
        """A fat-answer-set campaign over a real worker: estimates equal
        the serial run's, and its interned result stream ships
        compressed, in fewer bytes than it pickles to."""
        server = WorkerServer()
        server.start()
        try:
            serial = _run_campaign(CAMPAIGN_FAT)
            coordinator = Coordinator.connect(
                [f"127.0.0.1:{server.port}"], shard_size=15
            )
            try:
                distributed = _run_campaign(CAMPAIGN_FAT, coordinator=coordinator)
                stats = coordinator.transport_report()
            finally:
                coordinator.close()
        finally:
            server.shutdown()
        assert distributed.frequencies == serial.frequencies
        assert distributed.runs == serial.runs
        assert stats["compressed_frames"] > 0
        assert stats["payload_wire_bytes"] < stats["payload_raw_bytes"]
