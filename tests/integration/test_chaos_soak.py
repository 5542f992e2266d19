"""Seeded chaos soak: a campaign through a hostile network is
byte-identical to the serial run.

A :class:`ChaosProxy` sits between the coordinator and a real
``WorkerServer`` and — on a schedule derived entirely from one seed —
bit-flips frames, truncates them, flaps connections, delays and
duplicates traffic, and stalls heartbeats past the lease timeout.  A
failpoint additionally crashes a checkpoint save mid-write.  Through all
of it the estimates must not move by one digit.

The seed comes from ``REPRO_CHAOS_SEED`` (CI sets/prints it; default
fixed).  Every assertion embeds the plan description, so a red run is a
reproducible seed, not an anecdote.
"""

import os
import random

import pytest

from repro.distributed import (
    ChaosProxy,
    Coordinator,
    FaultPlan,
    ReconnectPolicy,
    WorkerServer,
)
from repro.distributed.chaos import (
    FailpointError,
    clear_failpoints,
    set_failpoint,
)
from repro.queries import parse_cq
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

#: One seed drives every fault decision in this module.  Override with
#: ``REPRO_CHAOS_SEED`` to reproduce (or explore) a schedule; CI prints
#: the value it used on failure.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260807"))

#: Aggressive enough that every fault class fires within a soak round,
#: mild enough that the campaign still converges quickly.
SOAK_RATES = {
    "corrupt": 0.08,
    "truncate": 0.03,
    "flap": 0.04,
    "delay": 0.10,
    "duplicate": 0.08,
    "stall": 0.03,
}

CAMPAIGN = dict(
    workload=key_conflict_workload(
        clean_rows=8, conflict_groups=4, group_size=3, seed=9
    ),
    query=parse_cq("Q(x) :- R(x, y, z)"),
    rng_seed=7,
    runs=60,
)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    clear_failpoints()
    yield
    clear_failpoints()


def _plan(stall_seconds=3.5):
    return FaultPlan.create(
        CHAOS_SEED,
        rates=SOAK_RATES,
        delay_seconds=0.02,
        stall_seconds=stall_seconds,
    )


def _run_campaign(spec, coordinator=None, checkpoint_path=None, max_draws=None):
    backend = SQLiteBackend()
    spec["workload"].load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        spec["workload"].schema,
        [spec["workload"].key_spec],
        policy=SamplerPolicy.OPERATIONAL_UNIFORM,
        rng=random.Random(spec["rng_seed"]),
        coordinator=coordinator,
        checkpoint_path=checkpoint_path,
    )
    try:
        return sampler.run(spec["query"], runs=spec["runs"], max_draws=max_draws)
    finally:
        backend.close()


def _chaotic_coordinator(proxy, **kwargs):
    kwargs.setdefault("shard_size", 5)
    kwargs.setdefault("lease_timeout", 2.5)
    # Heavy fault rates can legitimately fail one shard several times;
    # the poison-shard guard must not trip on an honest hostile network.
    kwargs.setdefault("max_attempts", 10)
    kwargs.setdefault(
        "reconnect",
        ReconnectPolicy(retry_budget=10, base_delay=0.1, max_delay=1.0),
    )
    return Coordinator.from_options(
        worker_addresses=[f"127.0.0.1:{proxy.port}"], **kwargs
    )


class TestChaosSoak:
    def test_hostile_network_is_byte_identical(self):
        """The capstone: ≥4 fault classes actually injected, estimates
        byte-identical to serial, and the flapped worker demonstrably
        won back (not inline-degraded around)."""
        serial = _run_campaign(CAMPAIGN)
        plan = _plan()
        required = {"corrupt", "flap", "stall"}
        server = WorkerServer(heartbeat_interval=0.5)
        thread = server.start()
        try:
            with ChaosProxy(server.host, server.port, plan) as proxy:
                coordinator = _chaotic_coordinator(proxy)
                try:
                    # Soak until the required fault classes all fired (the
                    # schedule is seed-deterministic, but frame counts vary
                    # with timing) — every round must match serial exactly.
                    for round_index in range(4):
                        chaotic = _run_campaign(CAMPAIGN, coordinator=coordinator)
                        assert chaotic.frequencies == serial.frequencies, (
                            f"estimate divergence under {plan.describe()} "
                            f"(round {round_index})"
                        )
                        assert chaotic.runs == serial.runs
                        if required <= set(proxy.injected_kinds()) and len(
                            proxy.injected_kinds()
                        ) >= 4:
                            break
                    report = coordinator.degradation_report()
                    transport_stats = coordinator.transport_report()
                finally:
                    coordinator.close()
                kinds = proxy.injected_kinds()
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert required <= set(kinds), (
            f"fault classes {sorted(required - set(kinds))} never fired "
            f"under {plan.describe()}; injected: {proxy.injected}"
        )
        assert len(kinds) >= 4, (
            f"only {kinds} injected under {plan.describe()}"
        )
        # The same campaign re-used its reconnected worker: the lease
        # releases were healed by transport reconnects, not by degrading
        # to inline execution.
        assert report["reconnects"] > 0, (
            f"no reconnects recorded under {plan.describe()}: {report}"
        )
        assert transport_stats["reconnects"] > 0, transport_stats
        assert not report["inline_fallback"], (
            f"campaign degraded to inline under {plan.describe()}: {report}"
        )
        # Frame checksums turned the bit flips into transient
        # reconnects, never pickle-level failures.
        if proxy.injected.get("corrupt"):
            assert report["releases"] > 0

    def test_mid_checkpoint_crash_resumes_to_identical_estimates(self, tmp_path):
        """A checkpoint save torn mid-write during a chaotic distributed
        run: the failpoint kills the save, the campaign resumes from the
        last durable checkpoint, and the final estimates still match the
        serial run exactly."""
        serial = _run_campaign(CAMPAIGN)
        path = str(tmp_path / "campaign.ckpt")
        plan = _plan()
        server = WorkerServer(heartbeat_interval=0.5)
        thread = server.start()
        try:
            with ChaosProxy(server.host, server.port, plan, name="ckpt") as proxy:
                coordinator = _chaotic_coordinator(proxy)
                try:
                    # Phase 1: a clean partial run persists a durable
                    # checkpoint.
                    partial = _run_campaign(
                        CAMPAIGN,
                        coordinator=coordinator,
                        checkpoint_path=path,
                        max_draws=20,
                    )
                    assert partial.runs == 20
                    assert os.path.exists(path)
                    # Phase 2: the next save is torn mid-write.
                    set_failpoint("campaign.save_checkpoint")
                    with pytest.raises(FailpointError):
                        _run_campaign(
                            CAMPAIGN,
                            coordinator=coordinator,
                            checkpoint_path=path,
                            max_draws=40,
                        )
                    clear_failpoints()
                    # Phase 3: resume from the last good checkpoint and
                    # finish the campaign under continuing chaos.
                    final = _run_campaign(
                        CAMPAIGN, coordinator=coordinator, checkpoint_path=path
                    )
                finally:
                    coordinator.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert final.runs == serial.runs
        assert final.frequencies == serial.frequencies, (
            f"resume-after-torn-checkpoint diverged under {plan.describe()}"
        )
