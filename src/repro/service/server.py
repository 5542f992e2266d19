"""The persistent multi-tenant CQA query service (``ocqa serve``).

A thread-pool HTTP/JSON front end over the sampling machinery: clients
POST CP(t)/OCA queries to ``/query`` and the service multiplexes them
onto the coordinator/worker fleet — worker processes already serve many
campaigns concurrently (each coordinator connection carries its own
campaign tag), so one long-lived fleet absorbs every tenant's load.

Three overload rails stand between a request and the samplers:

- :class:`~repro.service.admission.AdmissionController` — a bounded run
  queue with per-tenant concurrency and draw-budget quotas.  A request
  the service cannot take *now* is **shed**, not queued forever: the
  client gets HTTP 429 with a ``Retry-After`` header and a typed,
  retriable error body (``Overloaded`` / ``BudgetExhausted``).
- :class:`~repro.service.deadline.Deadline` — every admitted query
  carries a wall-clock budget that propagates end-to-end (service ->
  coordinator -> wire frames -> worker shard executor).  A query that
  cannot finish in time returns a *best-effort* estimate over the draws
  completed, with the widened ``(eps, delta)`` accounting
  (``achieved_epsilon``) instead of silently overrunning.
- **Graceful drain** — on SIGTERM the service stops accepting, answers
  new queries with a retriable 503, lets admitted queries finish
  (bounded by ``drain_timeout``), records the drain duration, and exits
  0.  Paired with the worker-side drain in
  :mod:`repro.distributed.worker`, a rolling restart of the whole
  deployment loses no campaign state and changes no estimate.

In front of the rails sits the **result cache**
(:mod:`repro.service.cache`): repeat queries are answered from memory
without consuming admission budget, ``POST /query`` takes ``cache:
"use" | "bypass" | "refresh"``, and ``POST /update`` applies base-table
deltas to a named instance through the samplers' incremental path —
whose :class:`~repro.campaign.UpdateReport` invalidates exactly the
cached answers the delta could have changed.

Failpoints ``service.queue_flood`` (inside the admission wait) and
``service.slow_consumer`` (in the response write path) hook the chaos
harness into the service layer; see :mod:`repro.distributed.chaos`.

Deployment note: the *service* speaks JSON over HTTP and is safe to
front with ordinary ingress, but the coordinator<->worker protocol
behind it still ships pickled campaign contexts — keep worker ports on
trusted networks only (see the README's "Failure semantics").
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.httpd import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.service.admission import (
    AdmissionController,
    RetriableServiceError,
    TenantQuota,
)
from repro.service.cache import CacheHit, ResultCache, request_cache_key
from repro.service.deadline import Deadline

log = logging.getLogger(__name__)

#: Wall-clock budget for queries that do not send their own.
DEFAULT_QUERY_DEADLINE = 30.0

#: Result-cache entries a service keeps by default (0 disables).
DEFAULT_CACHE_SIZE = 256

#: Named instances one service will hold for the update path.
MAX_INSTANCES = 64

_QUERY_LATENCY = obs_metrics.REGISTRY.histogram(
    "ocqa_query_latency_seconds",
    "End-to-end latency of executed /query requests, by tenant.",
    ("tenant",),
)
_QUERIES = obs_metrics.REGISTRY.counter(
    "ocqa_queries_total",
    "/query outcomes, by tenant and status "
    "(ok, error, invalid, shed, draining).",
    ("tenant", "status"),
)
_SERVICE_UPTIME = obs_metrics.REGISTRY.gauge(
    "ocqa_service_uptime_seconds", "Seconds since the query service started."
)
_QUERIES_SERVED = obs_metrics.REGISTRY.gauge(
    "ocqa_queries_served", "Queries answered 200 since service start."
)
_UPDATES = obs_metrics.REGISTRY.counter(
    "ocqa_updates_total",
    "/update outcomes, by status (ok, invalid, draining, error).",
    ("status",),
)


class ServiceUnavailable(RetriableServiceError):
    """The service is draining; retry against a healthy replica."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message, reason="draining", retry_after=retry_after)


def _bad_request(message: str) -> Tuple[int, Dict[str, Any]]:
    return 400, {"ok": False, "error": message, "retriable": False}


class _ServiceInstance:
    """A named, updatable database the service holds between requests.

    Registered by a ``/query`` payload carrying both ``instance`` and
    ``database``; later queries may name the instance instead of
    re-shipping the database, and ``/update`` applies base-table deltas
    through the sampler's incremental path — which is what feeds the
    result cache's delta-driven invalidation.
    """

    __slots__ = ("name", "database", "constraints_text", "digest", "lock")

    def __init__(self, name: str, database: Any, constraints_text: str) -> None:
        from repro.sql.digest import database_digest

        self.name = name
        self.database = database
        self.constraints_text = constraints_text
        self.digest = database_digest(database)
        self.lock = threading.Lock()


class QueryService:
    """The query front end: admission, deadlines, drain — then sampling.

    *worker_addresses* / *workers* describe the sampling fleet every
    admitted query is sharded onto (empty means serial, in-process
    sampling — still admission-controlled and deadline-bounded).
    Request handling lives in :meth:`handle_query` so tests can drive
    the full admission/deadline/shedding logic without a socket.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: Optional[AdmissionController] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        worker_addresses: Sequence[str] = (),
        workers: Optional[int] = None,
        lease_timeout: Optional[float] = None,
        default_deadline: float = DEFAULT_QUERY_DEADLINE,
        max_deadline: float = 300.0,
        drain_timeout: float = 30.0,
        name: Optional[str] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_ttl: Optional[float] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        if max_deadline < default_deadline:
            raise ValueError(
                f"max_deadline ({max_deadline}) must be >= default_deadline "
                f"({default_deadline})"
            )
        if drain_timeout <= 0:
            raise ValueError(f"drain_timeout must be positive, got {drain_timeout}")
        self.admission = admission or AdmissionController(quotas=quotas)
        self.worker_addresses = tuple(worker_addresses)
        self.workers = workers
        self.lease_timeout = lease_timeout
        self.default_deadline = default_deadline
        self.max_deadline = max_deadline
        self.drain_timeout = drain_timeout
        self.name = name or "ocqa-service"
        self.result_cache: Optional[ResultCache] = (
            ResultCache(cache_size, cache_ttl, name=self.name)
            if cache_size > 0
            else None
        )
        if self.result_cache is not None:
            from repro.diagnostics import register_result_cache

            register_result_cache(self.result_cache)
        self._instances: Dict[str, _ServiceInstance] = {}
        self._instances_lock = threading.Lock()
        self.queries_served = 0
        self.started_at = time.monotonic()
        self._draining = threading.Event()
        self._drained = threading.Event()
        self._active_cond = threading.Condition()
        self._active_requests = 0
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._host, self._port = host, int(port)

        def _publish_service_gauges() -> None:
            _SERVICE_UPTIME.set(round(time.monotonic() - self.started_at, 3))
            _QUERIES_SERVED.set(self.queries_served)

        self._gauge_collector = _publish_service_gauges

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryService":
        """Bind and serve in a background thread (port 0 picks a port)."""
        service = self

        class _Handler(_ServiceHandler):
            pass

        _Handler.service = service
        self._httpd = ThreadingHTTPServer(
            (self._host, self._port), _Handler
        )
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            daemon=True,
            name=f"{self.name}-http",
        )
        self._thread.start()
        obs_metrics.REGISTRY.add_collector(self._gauge_collector)
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[:2]

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def request_drain(self) -> None:
        """Start a graceful drain (idempotent, signal-handler safe)."""
        self._draining.set()

    def drain(self) -> float:
        """Drain and stop: refuse new queries, finish admitted ones.

        Blocks until in-flight requests hit zero or *drain_timeout*
        elapses; returns the drain duration (recorded via
        :func:`repro.diagnostics.record_drain` either way).
        """
        self.request_drain()
        started = time.monotonic()
        deadline = started + self.drain_timeout
        with self._active_cond:
            while self._active_requests > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    log.warning(
                        "%s: drain timed out with %d request(s) in flight",
                        self.name,
                        self._active_requests,
                    )
                    break
                self._active_cond.wait(timeout=min(remaining, 0.2))
        duration = time.monotonic() - started
        from repro.diagnostics import record_drain

        record_drain(duration)
        self._drained.set()
        self.close()
        return duration

    def close(self) -> None:
        if self.result_cache is not None:
            from repro.diagnostics import unregister_result_cache

            unregister_result_cache(self.result_cache)
        obs_metrics.REGISTRY.remove_collector(self._gauge_collector)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until a requested drain completes (for ``serve_service``)."""
        return self._drained.wait(timeout)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle_query(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Admit, run, and answer one query; returns ``(status, body)``.

        Typed refusals: 503 + ``draining`` while draining, 429 +
        ``reason``/``retry_after`` for admission sheds — both marked
        ``retriable`` so clients back off and retry instead of failing.
        """
        tenant = (
            str(payload.get("tenant", "default"))
            if isinstance(payload, dict)
            else "default"
        )
        if self._draining.is_set():
            exc = ServiceUnavailable(f"{self.name} is draining")
            _QUERIES.inc(tenant=tenant, status="draining")
            return 503, self._refusal_body(exc)
        try:
            request = _QueryRequest.parse(payload, self)
        except ValueError as exc:
            _QUERIES.inc(tenant=tenant, status="invalid")
            return _bad_request(str(exc))
        started = time.monotonic()
        cache_key = None
        if self.result_cache is not None and request.cache_mode != "bypass":
            cache_key = request_cache_key(
                request.database,
                request.constraints,
                request.query,
                seed=request.seed,
                runs=request.runs,
                adaptive=request.adaptive,
            )
            if request.cache_mode == "use":
                hit = self.result_cache.get(
                    cache_key, request.epsilon, request.delta
                )
                if hit is not None:
                    # A hit costs no draws, so it bypasses admission:
                    # serving from memory must keep working exactly when
                    # the service is too loaded to recompute.
                    body = self._cached_body(request, hit)
                    self.queries_served += 1
                    _QUERY_LATENCY.observe(
                        time.monotonic() - started, tenant=request.tenant
                    )
                    _QUERIES.inc(tenant=request.tenant, status="ok")
                    return 200, body
        try:
            ticket = self.admission.admit(request.tenant, draws=request.planned_draws)
        except RetriableServiceError as exc:
            _QUERIES.inc(tenant=request.tenant, status="shed")
            return 429, self._refusal_body(exc)
        token = obs_metrics.set_tenant(request.tenant)
        try:
            with ticket:
                body = self._run_admitted(request)
            if cache_key is not None:
                self._store_result(cache_key, request, body)
            body["cached"] = False
            self.queries_served += 1
            _QUERY_LATENCY.observe(
                time.monotonic() - started, tenant=request.tenant
            )
            _QUERIES.inc(tenant=request.tenant, status="ok")
            return 200, body
        except ValueError as exc:
            _QUERIES.inc(tenant=request.tenant, status="invalid")
            return _bad_request(str(exc))
        except Exception as exc:  # noqa: BLE001 - service boundary
            log.exception("%s: query failed", self.name)
            _QUERY_LATENCY.observe(
                time.monotonic() - started, tenant=request.tenant
            )
            _QUERIES.inc(tenant=request.tenant, status="error")
            return 500, {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "retriable": False,
            }
        finally:
            obs_metrics.reset_tenant(token)

    @staticmethod
    def _refusal_body(exc: RetriableServiceError) -> Dict[str, Any]:
        return {
            "ok": False,
            "error": str(exc),
            "reason": exc.reason,
            "retriable": True,
            "retry_after": exc.retry_after,
            "draining": exc.reason == "draining",
        }

    def _run_admitted(self, request: "_QueryRequest") -> Dict[str, Any]:
        """Run one admitted query against a fresh sampler + coordinator.

        Each query gets its own coordinator (dispatch is single-threaded
        per coordinator); the *workers* behind it are shared — their
        servers multiplex campaigns per connection — which is what makes
        concurrent tenants cheap.
        """
        from repro.db.schema import Schema
        from repro.distributed import Coordinator
        from repro.sql import ConstraintRepairSampler, create_backend

        deadline = Deadline.after(request.deadline_seconds)
        started = time.monotonic()
        coordinator = Coordinator.from_options(
            workers=self.workers,
            worker_addresses=self.worker_addresses,
            **({"lease_timeout": self.lease_timeout}
               if self.lease_timeout is not None else {}),
        )
        try:
            schema = Schema.infer(request.database).extend(
                request.constraints.schema()
            )
            with create_backend("sqlite") as backend:
                backend.load(request.database, schema)
                sampler = ConstraintRepairSampler(
                    backend,
                    schema,
                    request.constraints,
                    rng=random.Random(request.seed),
                    adaptive=request.adaptive,
                    coordinator=coordinator,
                )
                report = sampler.run(
                    request.query,
                    runs=request.runs,
                    epsilon=request.epsilon,
                    delta=request.delta,
                    deadline=deadline,
                )
        finally:
            if coordinator is not None:
                coordinator.close()
        frequencies: List[List[Any]] = [
            [[str(term) for term in candidate], frequency]
            for candidate, frequency in report.items()
        ]
        return {
            "ok": True,
            "tenant": request.tenant,
            "frequencies": frequencies,
            "runs": report.runs,
            "epsilon": request.epsilon,
            "delta": request.delta,
            "adaptive": report.adaptive,
            "stopped_early": report.stopped_early,
            "deadline_expired": report.deadline_expired,
            "achieved_epsilon": report.achieved_epsilon,
            "elapsed_seconds": round(time.monotonic() - started, 6),
        }

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def _cached_body(
        self, request: "_QueryRequest", hit: CacheHit
    ) -> Dict[str, Any]:
        """Assemble the response for a cache hit.

        The stored core is byte-identical to what a recompute would
        return for an exact-level hit; a weaker-level hit keeps the
        stronger entry's frequencies (a strictly better estimate, still
        valid at the requested level) and reports the level actually
        achieved in ``cache_epsilon``/``cache_delta``.
        """
        body = hit.body
        body["tenant"] = request.tenant
        body["cached"] = True
        body["cache_age_seconds"] = round(hit.age_seconds, 3)
        if not hit.exact:
            body["cache_epsilon"] = hit.epsilon
            body["cache_delta"] = hit.delta
        body["epsilon"] = request.epsilon
        body["delta"] = request.delta
        return body

    def _store_result(
        self,
        cache_key: Any,
        request: "_QueryRequest",
        body: Dict[str, Any],
    ) -> None:
        """Cache one finished ``/query`` body (``use`` misses + ``refresh``).

        Best-effort results are never cached: a deadline-expired body
        certifies a *wider* epsilon than requested, and byte-identity
        with an unhurried recompute would be broken.
        """
        if self.result_cache is None:
            return
        if not body.get("ok") or body.get("deadline_expired"):
            return
        from repro.queries.relations import dependency_relations

        core = {
            key: value
            for key, value in body.items()
            if key != "elapsed_seconds"
        }
        self.result_cache.put(
            cache_key,
            request.epsilon,
            request.delta,
            draws=int(body.get("runs") or 0),
            relations=dependency_relations(request.query),
            body=core,
        )

    # ------------------------------------------------------------------
    # Instance registry + the update path
    # ------------------------------------------------------------------
    def register_instance(
        self, name: str, database: Any, constraints_text: str
    ) -> "_ServiceInstance":
        """Create or replace the named instance (``/query`` side effect)."""
        with self._instances_lock:
            existing = self._instances.get(name)
            if (
                existing is None
                and len(self._instances) >= MAX_INSTANCES
            ):
                raise ValueError(
                    f"instance limit reached ({MAX_INSTANCES}); "
                    f"re-use or update an existing instance"
                )
            instance = _ServiceInstance(name, database, constraints_text)
            self._instances[name] = instance
            return instance

    def get_instance(self, name: str) -> Optional["_ServiceInstance"]:
        with self._instances_lock:
            return self._instances.get(name)

    def handle_update(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Apply a base-table delta to a named instance; returns ``(status, body)``.

        The delta runs through ``ConstraintRepairSampler.apply_update``
        — the same incremental violation-index path every sampler uses —
        and the resulting :class:`~repro.campaign.UpdateReport` drives
        the result cache: entries the delta could have changed are
        invalidated, provably untouched ones are migrated to the
        post-update instance digest and keep hitting.
        """
        if self._draining.is_set():
            _UPDATES.inc(status="draining")
            return 503, self._refusal_body(
                ServiceUnavailable(f"{self.name} is draining")
            )
        try:
            return self._apply_update(payload)
        except ValueError as exc:
            _UPDATES.inc(status="invalid")
            return _bad_request(str(exc))
        except Exception as exc:  # noqa: BLE001 - service boundary
            log.exception("%s: update failed", self.name)
            _UPDATES.inc(status="error")
            return 500, {
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "retriable": False,
            }

    def _apply_update(self, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        import dataclasses

        from repro.constraints import ConstraintSet
        from repro.constraints.parser import parse_constraints
        from repro.db.facts import Database, Fact
        from repro.db.schema import Schema
        from repro.sql import ConstraintRepairSampler, create_backend
        from repro.sql.digest import database_digest

        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        name = payload.get("instance")
        if not name:
            raise ValueError("missing required field 'instance'")
        instance = self.get_instance(str(name))
        if instance is None:
            raise ValueError(
                f"unknown instance {name!r}; register it with a /query "
                f"carrying both 'instance' and 'database'"
            )

        def _facts(field: str) -> List[Fact]:
            spec = payload.get(field) or {}
            if not isinstance(spec, dict):
                raise ValueError(
                    f"'{field}' must be a {{relation: [rows]}} object"
                )
            out = []
            for relation, rows in spec.items():
                if not isinstance(rows, list):
                    raise ValueError(f"'{field}.{relation}' must be a list of rows")
                for row in rows:
                    if not isinstance(row, (list, tuple)):
                        raise ValueError(
                            f"'{field}.{relation}' rows must be arrays"
                        )
                    out.append(Fact(str(relation), tuple(row)))
            return out

        add = _facts("add")
        remove = _facts("remove")
        if not add and not remove:
            raise ValueError("update must add or remove at least one fact")
        with instance.lock:
            old_db = instance.database
            # Normalize the delta against what is actually there so the
            # rolled digest stays truthful under duplicate adds/removes.
            added = [f for f in add if f not in old_db]
            removed = [f for f in remove if f in old_db]
            constraints = ConstraintSet(
                parse_constraints(instance.constraints_text)
            )
            schema = Schema.infer(old_db).extend(constraints.schema())
            known = {rel.name: rel.arity for rel in schema}
            for fact in added:
                arity = known.get(fact.relation)
                if arity is None or arity != fact.arity:
                    raise ValueError(
                        f"added fact {fact} does not fit the instance "
                        f"schema (known relations: {sorted(known)})"
                    )
            report = None
            if added or removed:
                with create_backend("sqlite") as backend:
                    backend.load(old_db, schema)
                    sampler = ConstraintRepairSampler(
                        backend, schema, constraints
                    )
                    report = sampler.apply_update(added, removed)
                new_db = Database((old_db.facts - set(removed)) | set(added))
                old_digest = instance.digest
                new_digest = database_digest(new_db)
                instance.database = new_db
                instance.digest = new_digest
                report = dataclasses.replace(
                    report, old_digest=old_digest, new_digest=new_digest
                )
            cache_outcome = {"invalidated": 0, "migrated": 0, "flushed": 0}
            if report is not None and self.result_cache is not None:
                cache_outcome = self.result_cache.apply_update(report)
        _UPDATES.inc(status="ok")
        return 200, {
            "ok": True,
            "instance": instance.name,
            "digest": instance.digest,
            "added": len(added),
            "removed": len(removed),
            "touched_groups": len(report.touched_groups) if report else 0,
            "touched_relations": sorted(report.unsafe_relations)
            if report
            else [],
            "cache": cache_outcome,
        }

    def status(self) -> Dict[str, Any]:
        """The ``/status`` body: admission occupancy + overload counters."""
        from repro.diagnostics import aggregated_overload_stats

        with self._instances_lock:
            instances = sorted(self._instances)
        return {
            "name": self.name,
            "draining": self.draining,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "queries_served": self.queries_served,
            "admission": self.admission.snapshot(),
            "overload": aggregated_overload_stats(),
            "workers": list(self.worker_addresses),
            "local_pool": self.workers or 0,
            "result_cache": self.result_cache.stats()
            if self.result_cache is not None
            else None,
            "instances": instances,
        }

    # ------------------------------------------------------------------
    # In-flight accounting (for drain)
    # ------------------------------------------------------------------
    def _enter_request(self) -> None:
        with self._active_cond:
            self._active_requests += 1

    def _exit_request(self) -> None:
        with self._active_cond:
            self._active_requests -= 1
            self._active_cond.notify_all()


class _QueryRequest:
    """A validated ``/query`` payload."""

    __slots__ = (
        "tenant",
        "database",
        "constraints",
        "query",
        "epsilon",
        "delta",
        "runs",
        "adaptive",
        "seed",
        "deadline_seconds",
        "planned_draws",
        "cache_mode",
        "instance",
    )

    @classmethod
    def parse(cls, payload: Dict[str, Any], service: QueryService) -> "_QueryRequest":
        from repro.analysis.hoeffding import sample_size
        from repro.constraints import ConstraintSet
        from repro.constraints.parser import parse_constraints
        from repro.io import database_from_json
        from repro.queries.parser import parse_query

        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        self = cls()
        self.tenant = str(payload.get("tenant", "default"))
        cache_mode = str(payload.get("cache", "use"))
        if cache_mode not in ("use", "bypass", "refresh"):
            raise ValueError(
                f"'cache' must be 'use', 'bypass', or 'refresh', "
                f"got {cache_mode!r}"
            )
        self.cache_mode = cache_mode
        instance = payload.get("instance")
        self.instance = None if instance is None else str(instance)
        stored = None
        if self.instance is not None and "database" not in payload:
            stored = service.get_instance(self.instance)
            if stored is None:
                raise ValueError(
                    f"unknown instance {self.instance!r}; register it by "
                    f"sending 'database' (and 'constraints') along with "
                    f"'instance' once"
                )
        required = ("query",) if stored is not None else (
            "database",
            "constraints",
            "query",
        )
        for field in required:
            if field not in payload:
                raise ValueError(f"missing required field {field!r}")
        if stored is not None:
            self.database = stored.database
            constraints = payload.get("constraints", stored.constraints_text)
        else:
            database = payload["database"]
            if isinstance(database, str):
                self.database = database_from_json(database)
            elif isinstance(database, dict):
                self.database = database_from_json(json.dumps(database))
            else:
                raise ValueError(
                    "'database' must be a {relation: [rows]} object or its "
                    "JSON string"
                )
            constraints = payload["constraints"]
        if isinstance(constraints, list):
            constraints = "\n".join(constraints)
        if not isinstance(constraints, str):
            raise ValueError(
                "'constraints' must be constraint text (string or list "
                "of lines)"
            )
        self.constraints = ConstraintSet(parse_constraints(constraints))
        if self.instance is not None and stored is None:
            service.register_instance(self.instance, self.database, constraints)
        self.query = parse_query(str(payload["query"]))
        self.epsilon = float(payload.get("epsilon", 0.1))
        self.delta = float(payload.get("delta", 0.1))
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        runs = payload.get("runs")
        self.runs = None if runs is None else int(runs)
        if self.runs is not None and self.runs < 1:
            raise ValueError(f"runs must be positive, got {self.runs}")
        self.adaptive = bool(payload.get("adaptive", False))
        seed = payload.get("seed")
        self.seed = None if seed is None else int(seed)
        deadline = payload.get("deadline", service.default_deadline)
        deadline = float(deadline)
        if deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {deadline}")
        self.deadline_seconds = min(deadline, service.max_deadline)
        #: The draw budget this query asks the admission controller for:
        #: the explicit run count, or the Hoeffding count implied by
        #: ``(epsilon, delta)`` — the worst case, since adaptive
        #: campaigns never exceed it.
        self.planned_draws = (
            self.runs
            if self.runs is not None
            else sample_size(self.epsilon, self.delta)
        )
        return self


class _ServiceHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :meth:`QueryService.handle_query`."""

    service: QueryService
    protocol_version = "HTTP/1.1"

    #: Cap request bodies (a whole database rides in one) at 64 MiB —
    #: a memory-pressure guard, not a protocol limit.
    MAX_BODY = 64 * 1024 * 1024

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path not in ("/query", "/update"):
            self._respond(404, {"ok": False, "error": f"no such path {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._respond(400, {"ok": False, "error": "bad Content-Length"})
            return
        if length <= 0 or length > self.MAX_BODY:
            self._respond(
                413 if length > self.MAX_BODY else 400,
                {"ok": False, "error": f"unacceptable body length {length}"},
            )
            return
        try:
            payload = json.loads(self.rfile.read(length))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._respond(400, {"ok": False, "error": f"bad JSON body: {exc}"})
            return
        self.service._enter_request()
        try:
            if self.path == "/update":
                status, body = self.service.handle_update(payload)
            else:
                status, body = self.service.handle_query(payload)
        finally:
            self.service._exit_request()
        self._respond(status, body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/status":
            self._respond(200, self.service.status())
        elif self.path == "/metrics":
            # The parent registry merges the service's own series with
            # the worker snapshots pushed on result/heartbeat frames —
            # one scrape covers the whole fleet this service drives.
            self._respond_text(200, obs_metrics.REGISTRY.render())
        elif self.path == "/healthz":
            self._respond(
                503 if self.service.draining else 200,
                {"ok": not self.service.draining,
                 "draining": self.service.draining},
            )
        else:
            self._respond(404, {"ok": False, "error": f"no such path {self.path}"})

    def _respond_text(self, status: int, text: str) -> None:
        encoded = text.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", METRICS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            log.debug("client went away mid-response")

    def _respond(self, status: int, body: Dict[str, Any]) -> None:
        from repro.distributed.chaos import failpoint

        encoded = json.dumps(body).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            retry_after = body.get("retry_after")
            if status in (429, 503) and retry_after:
                self.send_header("Retry-After", str(max(1, int(retry_after + 0.5))))
            self.end_headers()
            # A slow/stuck client connection must not wedge the service:
            # the chaos harness arms this site (action=sleepN) to prove
            # other requests keep flowing while one response stalls.
            failpoint("service.slow_consumer")
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            log.debug("client went away mid-response")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        log.debug("%s %s", self.address_string(), format % args)


def serve_service(service: QueryService, announce: bool = True) -> int:
    """Run *service* until SIGTERM/SIGINT triggers a graceful drain.

    The ``ocqa serve`` driver: installs signal handlers routing into the
    drain path, blocks, and returns 0 after a clean drain — the process
    exit the supervisor/rolling-restart machinery relies on.
    """
    import signal

    service.start()

    def _drain_signal(_signum: int, _frame: Any) -> None:
        service.request_drain()

    previous = {}
    try:
        # Handlers go in BEFORE the announce line: anything supervising
        # the service treats the announce as "ready" and may SIGTERM at
        # any moment after it.
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _drain_signal)
            except ValueError:  # pragma: no cover - non-main thread
                break
        if announce:
            host, port = service.address
            print(
                f"repro query service {service.name} listening on "
                f"{host}:{port}",
                flush=True,
            )
        while not service.draining:
            time.sleep(0.2)
        duration = service.drain()
        if announce:
            print(
                f"repro query service {service.name} drained in "
                f"{duration:.2f}s",
                flush=True,
            )
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        service.drain()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        service.close()
    return 0


__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_QUERY_DEADLINE",
    "MAX_INSTANCES",
    "QueryService",
    "ServiceUnavailable",
    "serve_service",
]
