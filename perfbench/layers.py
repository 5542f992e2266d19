"""The layers a traced run times, and the per-layer metrics derived from them.

Each :class:`~perfbench.spans.Probe` names a public callable by the
module that defines it; the span name's prefix is the layer.  Callers
that import a function into their own namespace are probed at that
name (``repro.service.server.request_cache_key``), since that is the
name they resolve.  Hooks record counts after each span closes, so the
ratios below are measured where the work happens.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from perfbench.spans import LayerTable, Probe, Tracer

SERVICE_ROOTS = ("server.query", "server.update")
CAMPAIGN_ROOTS = ("sampler.run",)


def _count(key: str):
    def hook(tracer: Tracer, args, kwargs, result, error) -> None:
        tracer.count(key)

    return hook


def _on_cache_get(tracer, args, kwargs, result, error) -> None:
    tracer.count("cache.lookups")
    if result is not None:
        tracer.count("cache.hits")


def _on_apply_update(tracer, args, kwargs, result, error) -> None:
    tracer.count("cache.updates")
    if result:
        tracer.count("cache.invalidated", result.get("invalidated", 0))
        tracer.count("cache.migrated", result.get("migrated", 0))


def _on_admit(tracer, args, kwargs, result, error) -> None:
    if error is not None:
        tracer.count("admission.sheds")


def _on_load(tracer, args, kwargs, result, error) -> None:
    tracer.count("backend.loads")
    tracer.count("backend.rows", len(args[1]))


def _on_components(tracer, args, kwargs, result, error) -> None:
    tracer.count("violations.component_calls")
    tracer.count("violations.components", len(result or ()))


def _on_compile(tracer, args, kwargs, result, error) -> None:
    query = args[1] if len(args) > 1 else kwargs.get("query")
    if type(query).__name__ != "ConjunctiveQuery":
        tracer.count("compiler.fo")


def _count_arg(position: int, args, kwargs) -> int:
    """The ``count`` argument of a draw-range method (*position* counts ``self``)."""
    return int(args[position] if len(args) > position else kwargs["count"])


def _on_object_draws(tracer, args, kwargs, result, error) -> None:
    # deletions_for_range(self, start, count)
    tracer.count("draws.object", _count_arg(2, args, kwargs))


def _on_columnar_draws(tracer, args, kwargs, result, error) -> None:
    # _columnar_outcomes(self, compiled, start, count); None means "not columnar"
    if result is not None:
        tracer.count("draws.columnar", _count_arg(3, args, kwargs))


def _on_estimate(tracer, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("campaign.estimates")
        tracer.count("campaign.draws", result.draws)
        tracer.count("campaign.stopped_early", int(result.stopped_early))


def _on_range(tracer, args, kwargs, result, error) -> None:
    # run_range(self, context, start, count)
    tracer.count("coordinator.draws", _count_arg(3, args, kwargs))


def _on_recv(tracer, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("transport.bytes", result.getbuffer().nbytes)


#: The sampling stack under ``sampler.run``, shared by both processes.
SAMPLING_PROBES = (
    Probe("repro.sql.sampler", "BaseCampaignSampler", "run", "sampler.run"),
    Probe("repro.sql.sampler", "BaseCampaignSampler", "compile", "compiler.compile", _on_compile),
    Probe("repro.sql.sampler", "BaseCampaignSampler", "outcomes_for_range", "draws.outcomes"),
    Probe("repro.sql.generic", "ConstraintRepairSampler", "deletions_for_range", "draws.object", _on_object_draws),
    Probe("repro.sql.sampler", "KeyRepairSampler", "deletions_for_range", "draws.object", _on_object_draws),
    Probe("repro.sql.sampler", "KeyRepairSampler", "_columnar_outcomes", "draws.columnar", _on_columnar_draws),
    Probe("repro.sql.sampler", None, "_build_columnar_plan", "columnar.plan_build"),
    Probe("repro.sql.rewriting", "DeletionRewriter", "mark_deleted", "eval.mark"),
    Probe("repro.sql.rewriting", "DeletionRewriter", "clear", "eval.mark"),
    Probe("repro.sql.compiler", "CompiledQuery", "run", "eval.run"),
    Probe("repro.campaign", "SamplingCampaign", "estimate", "campaign.estimate", _on_estimate),
    Probe("repro.distributed.coordinator", "Coordinator", "run_range", "coordinator.range", _on_range),
    Probe("repro.sql.backend", "SQLBackend", "load", "backend.load", _on_load),
)

#: ``ocqa serve``: the request path around the sampling stack.
SERVICE_PROBES = SAMPLING_PROBES + (
    Probe("repro.service.server", "QueryService", "handle_query", "server.query", _count("server.requests")),
    Probe("repro.service.server", "QueryService", "handle_update", "server.update", _count("server.requests")),
    Probe("repro.service.server", "_QueryRequest", "parse", "server.decode"),
    Probe("repro.constraints.parser", None, "parse_constraints", "server.decode"),
    Probe("repro.db.schema", "Schema", "infer", "schema.infer"),
    Probe("repro.service.server", None, "request_cache_key", "cache.key"),
    Probe("repro.sql.digest", None, "database_digest", "cache.digest"),
    Probe("repro.service.cache", "ResultCache", "get", "cache.get", _on_cache_get),
    Probe("repro.service.server", "QueryService", "_cached_body", "cache.get"),
    Probe("repro.service.server", "QueryService", "_store_result", "cache.put"),
    Probe("repro.service.cache", "ResultCache", "apply_update", "cache.apply_update", _on_apply_update),
    Probe("repro.service.admission", "AdmissionController", "admit", "admission.wait", _on_admit),
    Probe("repro.sql", None, "create_backend", "backend.connect"),
    Probe("repro.sql.backend", "SQLBackend", "insert_facts", "backend.write"),
    Probe("repro.sql.backend", "SQLBackend", "delete_facts", "backend.write"),
    Probe("repro.sql.generic", "ConstraintRepairSampler", "__init__", "sampler.init"),
    Probe("repro.sql.generic", "ConstraintRepairSampler", "apply_update", "sampler.update", _count("sampler.updates")),
    Probe("repro.sql.violations", "SQLDeltaViolationIndex", "__init__", "violations.build"),
    Probe("repro.sql.violations", "SQLDeltaViolationIndex", "components", "violations.components", _on_components),
    Probe("repro.sql.violations", "SQLDeltaViolationIndex", "apply_delete", "violations.delta"),
    Probe("repro.sql.violations", "SQLDeltaViolationIndex", "apply_insert", "violations.delta"),
)

#: The pooled campaign: the sampling stack plus the pipe to the workers.
CAMPAIGN_PROBES = SAMPLING_PROBES + (
    Probe("multiprocessing.connection", "Connection", "_recv_bytes", "transport.recv", _on_recv),
)

#: Worker-side layers of ``campaign_pool``: the pool workers run them
#: untraced, so a traced run times them on the in-process serial replay
#: of the same draw ranges.
WORKER_SIDE = (
    "draws.object_ms_per_draw",
    "draws.columnar_ms_per_draw",
    "columnar.plan_build_ms",
    "columnar.vectorized_ratio",
    "eval.mark_ms_per_draw",
    "eval.run_ms_per_draw",
    "eval.share",
)

#: Every per-layer metric, in report order: ``(name, unit, better)``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("server.requests", "count", "higher"),
    ("server.decode_ms", "ms", "lower"),
    ("cache.key_ms", "ms", "lower"),
    ("cache.get_ms", "ms", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.apply_update_ms", "ms", "lower"),
    ("cache.invalidated_per_update", "count", "lower"),
    ("cache.migrated_per_update", "count", "higher"),
    ("admission.wait_ms", "ms", "lower"),
    ("admission.sheds", "count", "lower"),
    ("backend.load_ms", "ms", "lower"),
    ("backend.rows_loaded", "count", "lower"),
    ("violations.build_ms", "ms", "lower"),
    ("violations.delta_ms", "ms", "lower"),
    ("violations.components", "count", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.fo_share", "ratio", "lower"),
    ("compiler.adom_values", "count", "lower"),
    ("draws.object_ms_per_draw", "ms", "lower"),
    ("draws.columnar_ms_per_draw", "ms", "lower"),
    ("columnar.plan_build_ms", "ms", "lower"),
    ("columnar.vectorized_ratio", "ratio", "higher"),
    ("eval.mark_ms_per_draw", "ms", "lower"),
    ("eval.run_ms_per_draw", "ms", "lower"),
    ("eval.share", "ratio", "lower"),
    ("campaign.tally_ms_per_draw", "ms", "lower"),
    ("campaign.draws_per_query", "count", "lower"),
    ("campaign.early_stop_ratio", "ratio", "higher"),
    ("pool.start_ms", "ms", "lower"),
    ("coordinator.range_ms_per_draw", "ms", "lower"),
    ("coordinator.ranges", "count", "lower"),
    ("transport.bytes_per_draw", "B", "lower"),
    ("coordinator.releases", "count", "lower"),
    ("coordinator.reconnects", "count", "lower"),
    ("coordinator.inline_shards", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.unattributed_ms", "ms", "lower"),
)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def derive(table: LayerTable, counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced phase (``ms`` values per op)."""
    c = counts.get
    ms = 1000.0
    object_draws = c("draws.object", 0)
    updates = c("sampler.updates", 0)
    estimates = c("campaign.estimates", 0)
    return {
        "server.requests": c("server.requests", 0),
        "server.decode_ms": _ratio(table.self_s("server.decode"), c("server.requests", 0), ms),
        "cache.key_ms": _ratio(table.inclusive_s("cache.key"), table.calls("cache.key"), ms),
        "cache.get_ms": _ratio(table.self_s("cache.get"), c("cache.lookups", 0), ms),
        "cache.put_ms": _ratio(table.inclusive_s("cache.put"), table.calls("cache.put"), ms),
        "cache.hit_ratio": _ratio(c("cache.hits", 0), c("cache.lookups", 0)),
        "cache.apply_update_ms": _ratio(
            table.inclusive_s("cache.apply_update"), c("cache.updates", 0), ms
        ),
        "cache.invalidated_per_update": _ratio(c("cache.invalidated", 0), c("cache.updates", 0)),
        "cache.migrated_per_update": _ratio(c("cache.migrated", 0), c("cache.updates", 0)),
        "admission.wait_ms": _ratio(
            table.inclusive_s("admission.wait"), table.calls("admission.wait"), ms
        ),
        "admission.sheds": c("admission.sheds", 0),
        "backend.load_ms": _ratio(table.inclusive_s("backend.load"), c("backend.loads", 0), ms),
        "backend.rows_loaded": _ratio(c("backend.rows", 0), c("backend.loads", 0)),
        "violations.build_ms": _ratio(
            table.self_s("violations.build"), table.calls("violations.build"), ms
        ),
        "violations.delta_ms": _ratio(table.self_s("violations.delta"), updates, ms),
        "violations.components": _ratio(
            c("violations.components", 0), c("violations.component_calls", 0)
        ),
        "compiler.compile_ms": _ratio(
            table.inclusive_s("compiler.compile"), table.calls("compiler.compile"), ms
        ),
        "compiler.fo_share": _ratio(c("compiler.fo", 0), table.calls("compiler.compile")),
        "draws.object_ms_per_draw": _ratio(table.self_s("draws.object"), object_draws, ms),
        "draws.columnar_ms_per_draw": _ratio(
            table.self_s("draws.columnar"), c("draws.columnar", 0), ms
        ),
        "columnar.plan_build_ms": _ratio(
            table.inclusive_s("columnar.plan_build"), table.calls("columnar.plan_build"), ms
        ),
        "eval.mark_ms_per_draw": _ratio(table.self_s("eval.mark"), object_draws, ms),
        "eval.run_ms_per_draw": _ratio(table.self_s("eval.run"), object_draws, ms),
        "eval.share": _ratio(
            table.self_s("eval.mark") + table.self_s("eval.run"), table.root_s
        ),
        "campaign.tally_ms_per_draw": _ratio(
            table.self_s("campaign.estimate"), c("campaign.draws", 0), ms
        ),
        "campaign.draws_per_query": _ratio(c("campaign.draws", 0), estimates),
        "campaign.early_stop_ratio": _ratio(c("campaign.stopped_early", 0), estimates),
        "coordinator.range_ms_per_draw": _ratio(
            table.inclusive_s("coordinator.range"), c("coordinator.draws", 0), ms
        ),
        "coordinator.ranges": _ratio(table.calls("coordinator.range"), estimates),
        "transport.bytes_per_draw": _ratio(c("transport.bytes", 0), c("coordinator.draws", 0)),
        "trace.attributed_share": table.attributed_share,
        "trace.unattributed_ms": _ratio(table.unattributed_s, table.roots, ms),
    }


def per_layer_result(
    measured: Dict[str, float], extra: Optional[Dict[str, Any]] = None
) -> List[Tuple[str, float, str]]:
    """``(name, value, unit)`` for every :data:`PER_LAYER` metric.

    Layers a workload never reaches read 0.
    """
    values = dict(measured)
    values.update(extra or {})
    return [(name, float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER]
