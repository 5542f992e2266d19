"""End-to-end smoke of the distributed service: real worker *processes*
(``python -m repro.cli worker --listen ...``) serving a coordinator over
localhost TCP — the deployment shape the CI distributed-smoke job runs.

Skips cleanly where localhost sockets or subprocesses are unavailable.
"""

import os
import random
import re
import subprocess
import sys
import time

import pytest

from repro.distributed import Coordinator, SocketTransport
from repro.queries import parse_cq
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

WORKLOAD = key_conflict_workload(
    clean_rows=8, conflict_groups=4, group_size=3, seed=9
)
QUERY = parse_cq("Q(x) :- R(x, y, z)")


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
def worker_fleet():
    workers = [_spawn_worker() for _ in range(2)]
    yield workers
    for process, _port in workers:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()


def _run_campaign(**kwargs):
    backend = SQLiteBackend()
    WORKLOAD.load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        WORKLOAD.schema,
        [WORKLOAD.key_spec],
        policy=SamplerPolicy.OPERATIONAL_UNIFORM,
        rng=random.Random(7),
        **kwargs,
    )
    try:
        return sampler.run(QUERY, runs=60)
    finally:
        backend.close()


class TestWorkerService:
    def test_coordinator_over_two_subprocess_workers(self, worker_fleet):
        serial = _run_campaign()
        addresses = [f"127.0.0.1:{port}" for _process, port in worker_fleet]
        coordinator = Coordinator.from_options(
            worker_addresses=addresses, shard_size=10
        )
        try:
            distributed = _run_campaign(coordinator=coordinator)
        finally:
            coordinator.close()
        assert distributed.frequencies == serial.frequencies
        assert distributed.runs == serial.runs

    def test_killed_subprocess_worker_is_survivable(self, worker_fleet):
        serial = _run_campaign()
        addresses = [f"127.0.0.1:{port}" for _process, port in worker_fleet]
        coordinator = Coordinator.from_options(
            worker_addresses=addresses, shard_size=5, lease_timeout=20
        )
        worker_fleet[0][0].kill()
        time.sleep(0.2)
        try:
            distributed = _run_campaign(coordinator=coordinator)
        finally:
            coordinator.close()
        assert distributed.frequencies == serial.frequencies

    def test_worker_answers_ping_and_shutdown(self, worker_fleet):
        _process, port = worker_fleet[0]
        transport = SocketTransport("127.0.0.1", port)
        assert transport.ping()
        transport.shutdown_worker()
        process = worker_fleet[0][0]
        assert process.wait(timeout=10) == 0
