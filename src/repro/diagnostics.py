"""Inconsistency diagnosis: a human-readable report on ``V(D, Sigma)``.

Before repairing, users typically want to *understand* the inconsistency:
which constraints fail, how often, which facts are implicated, how the
conflicts cluster, and how expensive exact repairing would be.  This
module assembles that report from the core machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.constraints.base import Constraint, ConstraintSet
from repro.core.localization import LocalizationError, conflict_components
from repro.core.violations import violations
from repro.db.facts import Database, Fact
from repro.obs import metrics as obs_metrics
from repro.obs import overload_stats

#: ``cache name -> {"hits": .., "misses": .., "size": .., "limit": ..}``.
CacheStats = Dict[str, Dict[str, int]]


@dataclass
class ConstraintDiagnosis:
    """Violation statistics for one constraint."""

    constraint: Constraint
    violation_count: int
    involved_facts: FrozenSet[Fact]

    @property
    def satisfied(self) -> bool:
        """Whether this constraint holds on the database."""
        return self.violation_count == 0


@dataclass
class InconsistencyReport:
    """The full diagnosis of a database against a constraint set."""

    database_size: int
    per_constraint: List[ConstraintDiagnosis]
    violating_facts: FrozenSet[Fact]
    components: Optional[Tuple[FrozenSet[Fact], ...]]

    @property
    def is_consistent(self) -> bool:
        """``D |= Sigma``."""
        return all(d.satisfied for d in self.per_constraint)

    @property
    def total_violations(self) -> int:
        """Number of violations across all constraints."""
        return sum(d.violation_count for d in self.per_constraint)

    @property
    def clean_fraction(self) -> float:
        """Fraction of facts not involved in any violation."""
        if self.database_size == 0:
            return 1.0
        return 1.0 - len(self.violating_facts) / self.database_size

    @property
    def largest_component(self) -> int:
        """Size of the biggest conflict component (0 when consistent or
        components are unavailable due to TGDs)."""
        if not self.components:
            return 0
        return max(len(c) for c in self.components)

    def format(self) -> str:
        """Render the report as plain text."""
        lines = [
            f"database: {self.database_size} facts",
            f"status:   {'CONSISTENT' if self.is_consistent else 'INCONSISTENT'}",
        ]
        for diagnosis in self.per_constraint:
            mark = "ok " if diagnosis.satisfied else "VIOLATED"
            lines.append(
                f"  [{mark}] {diagnosis.constraint}  "
                f"({diagnosis.violation_count} violation(s), "
                f"{len(diagnosis.involved_facts)} fact(s))"
            )
        if not self.is_consistent:
            lines.append(
                f"violating facts: {len(self.violating_facts)} "
                f"({100 * (1 - self.clean_fraction):.1f}% of the database)"
            )
            if self.components is not None:
                sizes = sorted((len(c) for c in self.components), reverse=True)
                lines.append(
                    f"conflict components: {len(self.components)} "
                    f"(sizes {sizes}) — exact repairing is exponential only "
                    f"in the largest ({self.largest_component})"
                )
            else:
                lines.append(
                    "conflict components: unavailable (TGDs present; "
                    "insertions may couple distant parts of the database)"
                )
        return "\n".join(lines)


@dataclass
class CacheReport:
    """Hit/miss counters for every memo backing a chain or engine, plus
    the process-wide counters of :data:`repro.obs.metrics.REGISTRY`.

    ``per_cache`` maps cache names (``violations``, ``steps``,
    ``operation_maps``, ``transitions``, ...) to their counters;
    ``shared`` holds the process-wide ``functools.lru_cache`` memos
    (operation sort keys, per-violation deletion sets, fact sort keys,
    prepared draws) that all engines share; ``workers`` sums the same
    memo counters over the sampling worker processes whose telemetry
    snapshots reached this process (local pool or remote).
    """

    per_cache: CacheStats
    shared: CacheStats
    workers: CacheStats = field(default_factory=dict)
    #: Number of worker processes whose snapshots ``workers`` sums,
    #: exited pool workers included.
    worker_count: int = 0
    #: Socket-transport counters summed over every transport this process
    #: opened (``ocqa_transport_events_total``): frames/bytes sent and
    #: received, raw vs on-the-wire payload bytes (the compression win),
    #: compressed frames, integrity faults, reconnects, stale frames.
    transport: Dict[str, int] = field(default_factory=dict)
    #: Absorbed faults by kind (``ocqa_faults_total``): malformed or
    #: CRC-failing frames, dropped connections, injected failpoint
    #: crashes — the events the self-healing runtime absorbed rather
    #: than surfaced.
    faults: Dict[str, int] = field(default_factory=dict)
    #: Overload counters (:func:`repro.obs.overload_stats`): the
    #: admission queue's depth high-water mark, load sheds per reason,
    #: deadline expirations, and graceful-drain durations — how hard the
    #: service is being pushed and what it refused rather than queued.
    overload: Dict[str, object] = field(default_factory=dict)
    #: Columnar-core counters (``ocqa_columnar_events_total``): how much
    #: work ran on the columnar paths (plans compiled, or gated by a
    #: ``plan_gated_*`` reason, walk tables compiled or shared by a
    #: component of the same chain shape, draws read off walk tables
    #: (and how many of those replayed their stream instead of reading
    #: the block directly) or walked on overflowed chains) versus the
    #: object fallbacks — the observability for ``REPRO_COLUMNAR``.
    columnar: Dict[str, int] = field(default_factory=dict)
    #: Query-service result-cache counters (``ocqa_cache_*_total``),
    #: summed over every cache this process ran: hits, misses,
    #: delta-driven invalidations, LRU/TTL evictions, and migrations of
    #: provably untouched entries across updates.
    result_cache: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def _hit_rate(stats: Dict[str, int]) -> float:
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        return stats.get("hits", 0) / lookups if lookups else 0.0

    def format(self) -> str:
        """Render the counters as plain text."""
        lines = ["cache statistics:"]
        sections = [("instance", self.per_cache), ("shared", self.shared)]
        if self.workers:
            sections.append((f"workers x{self.worker_count}", self.workers))
        for section, stats in sections:
            for name, counters in sorted(stats.items()):
                lines.append(
                    f"  [{section}] {name}: {counters.get('hits', 0)} hit(s), "
                    f"{counters.get('misses', 0)} miss(es), "
                    f"{counters.get('size', 0)}/{counters.get('limit', 0)} entries "
                    f"({100 * self._hit_rate(counters):.1f}% hit rate)"
                )
        if self.transport:
            raw = self.transport.get("payload_raw_bytes", 0)
            wire = self.transport.get("payload_wire_bytes", 0)
            ratio = f"{raw / wire:.2f}x" if wire else "n/a"
            lines.append(
                "transport: "
                f"{self.transport.get('frames_sent', 0)} frame(s) out / "
                f"{self.transport.get('frames_received', 0)} in, "
                f"{self.transport.get('bytes_sent', 0)} B out / "
                f"{self.transport.get('bytes_received', 0)} B in, "
                f"result payloads {raw} B raw -> {wire} B shipped "
                f"({ratio} compression, "
                f"{self.transport.get('compressed_frames', 0)} compressed frame(s))"
            )
        if self.columnar:
            gated = sum(
                count
                for stat, count in self.columnar.items()
                if stat.startswith("plan_gated_")
            )
            lines.append(
                "columnar: "
                f"{self.columnar.get('plans_compiled', 0)} plan(s) / "
                f"{gated} gated, "
                f"{self.columnar.get('walk_tables_compiled', 0)} walk table(s) "
                f"compiled / {self.columnar.get('walk_tables_shared', 0)} shared, "
                f"{self.columnar.get('draws_table', 0)} draw(s) from tables "
                f"({self.columnar.get('draws_table_replayed', 0)} replayed) / "
                f"{self.columnar.get('draws_walked', 0)} walked"
            )
        if self.result_cache:
            hits = self.result_cache.get("hits", 0)
            misses = self.result_cache.get("misses", 0)
            lookups = hits + misses
            rate = f"{100 * hits / lookups:.1f}%" if lookups else "n/a"
            lines.append(
                "result cache: "
                f"{hits} hit(s), {misses} miss(es) ({rate} hit rate), "
                f"{self.result_cache.get('invalidations', 0)} "
                f"invalidation(s), {self.result_cache.get('migrations', 0)} "
                f"migration(s), {self.result_cache.get('evictions', 0)} "
                f"eviction(s)"
            )
        if self.faults:
            counts = ", ".join(
                f"{name}={count}" for name, count in sorted(self.faults.items())
            )
            lines.append(f"faults absorbed: {counts}")
        if self.overload:
            sheds = self.overload.get("sheds") or {}
            shed_text = (
                ", ".join(f"{r}={c}" for r, c in sorted(sheds.items()))
                if sheds
                else "none"
            )
            drains = self.overload.get("drain_seconds") or []
            drain_count = self.overload.get("drains", len(drains))
            slowest = self.overload.get(
                "drain_seconds_max", max(drains) if drains else 0.0
            )
            drain_text = (
                f"{drain_count} drain(s), slowest {slowest:.2f}s"
                if drain_count
                else "no drains"
            )
            lines.append(
                "overload: queue high-water "
                f"{self.overload.get('queue_depth_high_water', 0)}, "
                f"sheds: {shed_text}, "
                f"{self.overload.get('deadline_expirations', 0)} deadline "
                f"expiration(s), {drain_text}"
            )
        return "\n".join(lines)


def _shared_cache_stats() -> CacheStats:
    """Counters of the module-level ``lru_cache`` memos."""
    from repro.core.engine import _operation_sort_key
    from repro.core.justified import _deletion_ops
    from repro.core.sampling import _prepared_draw
    from repro.db.facts import _fact_sort_key

    out: CacheStats = {}
    for name, fn in (
        ("operation_sort_keys", _operation_sort_key),
        ("deletion_ops", _deletion_ops),
        ("prepared_draws", _prepared_draw),
        ("fact_sort_keys", _fact_sort_key),
    ):
        info = fn.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.currsize,
            "limit": info.maxsize or 0,
        }
    return out


# functools offers no hook to count lru_cache hits where they happen, so
# collectors copy the memo infos in just before each render or snapshot:
# this process's hits and misses for its own ``/metrics``, and every
# field into the worker registry, whose snapshots workers push to their
# parent (``cache_report().workers``).
_CACHE_HITS = obs_metrics.REGISTRY.gauge(
    "ocqa_cache_hits",
    "Shared lru_cache memo hits by cache (scrape-time snapshot).",
    ("cache",),
)
_CACHE_MISSES = obs_metrics.REGISTRY.gauge(
    "ocqa_cache_misses",
    "Shared lru_cache memo misses by cache (scrape-time snapshot).",
    ("cache",),
)
_WORKER_MEMOS = {
    stat: obs_metrics.WORKER_REGISTRY.gauge(
        f"ocqa_worker_cache_{stat}",
        f"Shared lru_cache memo {stat} of this worker process, by cache.",
        ("cache",),
    )
    for stat in ("hits", "misses", "size", "limit")
}


@obs_metrics.REGISTRY.add_collector
def _publish_memo_infos() -> None:
    if not obs_metrics.metrics_enabled():
        return
    for name, counters in _shared_cache_stats().items():
        _CACHE_HITS.set(counters["hits"], cache=name)
        _CACHE_MISSES.set(counters["misses"], cache=name)


@obs_metrics.WORKER_REGISTRY.add_collector
def _publish_worker_memo_infos() -> None:
    if not obs_metrics.metrics_enabled():
        return
    for name, counters in _shared_cache_stats().items():
        for stat, gauge in _WORKER_MEMOS.items():
            gauge.set(counters[stat], cache=name)


def _label_sums(name: str) -> Dict[str, int]:
    """A registry metric's series summed by their first label value
    (empty when the metric is undeclared or has no series yet)."""
    metric = obs_metrics.REGISTRY.get(name)
    totals: Dict[str, int] = {}
    if metric is not None:
        for key, value in metric.series().items():
            totals[key[0]] = totals.get(key[0], 0) + int(value)
    return totals


def _worker_memos() -> Tuple[int, CacheStats]:
    """``(worker_count, memo counters)`` from the workers' pushed
    :data:`_WORKER_MEMOS` families, summed over the fleet."""
    sources, families = obs_metrics.REGISTRY.remote_families()
    memos: CacheStats = {}
    for stat, gauge in _WORKER_MEMOS.items():
        family = families.get(gauge.name)
        if family is None:
            continue
        for (cache,), value in family["series"].items():
            memos.setdefault(cache, {})[stat] = int(value)
    return sources, memos


def _result_cache_stats() -> Dict[str, int]:
    """The result caches' ``ocqa_cache_*_total`` counters, each summed
    over all its labels (empty while no cache has counted anything)."""
    totals = {
        stat: sum(_label_sums(f"ocqa_cache_{stat}_total").values())
        for stat in ("hits", "misses", "invalidations", "evictions", "migrations")
    }
    return totals if any(totals.values()) else {}


def cache_report(source=None) -> CacheReport:
    """Cache counters for *source* — a ``RepairingChain`` or ``RepairEngine``.

    Chains contribute their transition/distribution memos *and* their
    engine's caches; engines contribute theirs alone.  Everything else
    is read from :data:`repro.obs.metrics.REGISTRY` and the worker
    snapshots pushed into it — the shared ``lru_cache`` memos, the
    fleet's memos, transport, fault, overload, columnar and result-cache
    counters — so the report and ``GET /metrics`` never disagree.  Pass
    ``source=None`` for a process/fleet-level report with no instance
    section.
    """
    per_cache: CacheStats = {}
    if source is not None:
        engine = getattr(source, "engine", source)
        if hasattr(engine, "cache_stats"):
            per_cache.update(engine.cache_stats())
        if source is not engine and hasattr(source, "cache_stats"):
            per_cache.update(source.cache_stats())
    worker_count, workers = _worker_memos()
    return CacheReport(
        per_cache=per_cache,
        shared=_shared_cache_stats(),
        workers=workers,
        worker_count=worker_count,
        transport=_label_sums("ocqa_transport_events_total"),
        faults={
            kind: count
            for kind, count in _label_sums("ocqa_faults_total").items()
            if count
        },
        overload=overload_stats(),
        columnar=dict(sorted(_label_sums("ocqa_columnar_events_total").items())),
        result_cache=_result_cache_stats(),
    )


def diagnose(database: Database, constraints: ConstraintSet) -> InconsistencyReport:
    """Build an :class:`InconsistencyReport` for ``(D, Sigma)``."""
    per_constraint: List[ConstraintDiagnosis] = []
    all_involved: set = set()
    for constraint in constraints:
        found = [v for v in violations(database, ConstraintSet([constraint]))]
        involved: set = set()
        for violation in found:
            involved.update(violation.facts)
        all_involved.update(involved)
        per_constraint.append(
            ConstraintDiagnosis(
                constraint=constraint,
                violation_count=len(found),
                involved_facts=frozenset(involved),
            )
        )
    try:
        components: Optional[Tuple[FrozenSet[Fact], ...]] = conflict_components(
            database, constraints
        )
    except LocalizationError:
        components = None
    return InconsistencyReport(
        database_size=len(database),
        per_constraint=per_constraint,
        violating_facts=frozenset(all_involved),
        components=components,
    )
