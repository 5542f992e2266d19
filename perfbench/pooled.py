"""The ``campaign_pool`` workload: repeated pooled ``KeyRepairSampler.run``.

One warm sampler over a many-small-groups ``key_conflict_workload``
(operational semantics, so a group can lose every tuple) answers
``Q(x) :- R(x, y, z)`` again and again with a fixed draw count, its
draws sharded over a persistent local pool of :data:`WORKERS` processes.
No HTTP, no cache, no per-draw SQL: the columnar draw engine, the
coordinator's shard ship/merge and the tally are what run.

Check: after the window, a fresh in-process serial sampler with the
same seed replays the same sequence of calls — so the same draw
ranges — and every pooled estimate must equal its serial twin exactly.
"""

from __future__ import annotations

import random
import resource
import time
from typing import Any, Dict, List, Tuple

from perfbench import inputs
from perfbench.layers import CAMPAIGN_PROBES, CAMPAIGN_ROOTS, WORKER_SIDE, derive
from perfbench.metrics import (
    CHECK,
    ERROR,
    OK,
    Metric,
    OpLog,
    Outcome,
    end_to_end,
    median,
    overhead_ratio,
    peak_rss_mb,
)
from perfbench.spans import Tracer, layer_table

WORKERS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _columnar_counts() -> Tuple[int, int]:
    from repro.diagnostics import cache_report

    stats = cache_report().columnar
    return stats.get("draws_vectorized", 0), stats.get("draws_replayed", 0)


def campaign_pool(root: str, out_dir: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.distributed import Coordinator
    from repro.queries import parse_cq
    from repro.sql import KeyRepairSampler, SamplerPolicy, create_backend
    from repro.workloads import key_conflict_workload

    workload = key_conflict_workload(
        inputs.CAMPAIGN_CLEAN_ROWS,
        inputs.CAMPAIGN_GROUPS,
        group_size=inputs.CAMPAIGN_GROUP_SIZE,
        arity=3,
        seed=seed,
    )
    query = parse_cq(inputs.CAMPAIGN_QUERY)
    sampler_seed = inputs.campaign_seed(seed)
    runs = inputs.CAMPAIGN_RUNS

    def new_sampler(coordinator=None):
        backend = create_backend("sqlite")
        workload.load_into(backend)
        sampler = KeyRepairSampler(
            backend,
            workload.schema,
            [workload.key_spec],
            policy=SamplerPolicy.OPERATIONAL_UNIFORM,
            rng=random.Random(sampler_seed),
            coordinator=coordinator,
        )
        return backend, sampler

    # Set-up: pool start, backend load, sampler init and one untimed
    # warm-up campaign (chain and plan build in the workers), timed
    # :data:`SETUPS` times; the last sampler is kept for the window.
    setups: List[float] = []
    pool_starts: List[float] = []
    backend = coordinator = None
    log = OpLog()
    indices: List[int] = [-1]  # the warm-up is set-up, not an operation
    tracer = Tracer()

    def run_phase(length: float) -> Tuple[float, List[float], int]:
        latencies: List[float] = []
        draws = 0
        stop_at = time.perf_counter() + length
        started = time.perf_counter()
        while time.perf_counter() < stop_at:
            began = time.perf_counter()
            try:
                report = sampler.run(query, runs=runs)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                log.record(ERROR)
                reports.append(None)
                indices.append(-1)
                continue
            latencies.append((time.perf_counter() - began) * 1000.0)
            draws += report.runs
            indices.append(log.record(OK))
            reports.append(report)
        return time.perf_counter() - started, latencies, draws

    try:
        for _ in range(SETUPS):
            if coordinator is not None:
                coordinator.close()
                backend.close()
            started = time.perf_counter()
            coordinator = Coordinator.from_options(workers=WORKERS)
            pool_starts.append(time.perf_counter() - started)
            backend, sampler = new_sampler(coordinator)
            reports = [sampler.run(query, runs=runs)]
            setups.append(time.perf_counter() - started)
        if trace:
            untraced = run_phase(seconds / 2)
            tracer.install(CAMPAIGN_PROBES)
            try:
                traced = run_phase(seconds / 2)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            pooled_spans, pooled_counts = tracer.drain()
        else:
            phases = [run_phase(seconds)]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + sum(
            peak_rss_mb(transport.pid) for transport in coordinator.transports
        )
        degradation = coordinator.degradation_report()
    finally:
        if coordinator is not None:
            coordinator.close()
        if backend is not None:
            backend.close()

    # The serial replay: same seed, same call sequence, same draw ranges.
    replay_backend, serial = new_sampler()
    vectorized_before, replayed_before = _columnar_counts()
    if trace:
        tracer.install(CAMPAIGN_PROBES)
    replay_started = time.perf_counter()
    mismatched_warmup = False
    try:
        for index, pooled in zip(indices, reports):
            if pooled is None:
                break  # the draw cursor no longer lines up; already failed
            twin = serial.run(query, runs=runs)
            if twin.items() != pooled.items() or twin.runs != pooled.runs:
                if index < 0:
                    mismatched_warmup = True
                else:
                    log.fail_check(index)
    finally:
        tracer.uninstall()
        replay_backend.close()
    replay_s = time.perf_counter() - replay_started
    if mismatched_warmup:
        log.record(CHECK)
    vectorized_after, replayed_after = _columnar_counts()

    window = sum(phase[0] for phase in phases)
    latencies = [ms for phase in phases for ms in phase[1]]
    draws = sum(phase[2] for phase in phases)
    env: Dict[str, Any] = {"clients": 1, "pool_workers": WORKERS, "setups": SETUPS}
    shown = [
        Metric("error_rate", log.error_rate, "ratio", log.attempted),
        Metric("serial_replay_s", replay_s, "s", len(reports)),
    ]
    reported = end_to_end(setups, latencies, draws, window, rss)
    notes: List[str] = []
    per_layer: Dict[str, float] = {}
    if trace:
        table = layer_table(pooled_spans, CAMPAIGN_ROOTS)
        notes.append(table.render("traced half, campaign process (pooled)"))
        per_layer = derive(table, pooled_counts)
        replay_spans, replay_counts = tracer.drain()
        replay_table = layer_table(replay_spans, CAMPAIGN_ROOTS)
        notes.append(replay_table.render("serial replay, in process (worker-side layers)"))
        replay = derive(replay_table, replay_counts)
        vectorized = vectorized_after - vectorized_before
        replayed = replayed_after - replayed_before
        replay["columnar.vectorized_ratio"] = (
            vectorized / (vectorized + replayed) if vectorized + replayed else 0.0
        )
        per_layer.update({name: replay[name] for name in WORKER_SIDE})
        (_, untraced_ms, _), (_, traced_ms, _) = phases
        per_layer["trace.overhead_ratio"] = overhead_ratio(untraced_ms, traced_ms)
        per_layer["pool.start_ms"] = median(pool_starts) * 1000.0
        per_layer["coordinator.releases"] = degradation["releases"]
        per_layer["coordinator.reconnects"] = degradation["reconnects"]
        per_layer["coordinator.inline_shards"] = degradation["inline_shards"]
        reported = []
    correct = log.failed == 0 and log.attempted > 0
    return Outcome(env, reported, shown, log, correct, notes, per_layer)
