"""Command-line front end.

Installed as ``ocqa``; see ``ocqa --help``.  All subcommands read the
database from a JSON file (see :mod:`repro.io`) and constraints from a
text file in the parser syntax.

Examples::

    ocqa violations --db d.json --constraints sigma.txt
    ocqa repairs    --db d.json --constraints sigma.txt --generator uniform
    ocqa oca        --db d.json --constraints sigma.txt --query "Q(x) :- R(x, y)"
    ocqa sample     --db d.json --constraints sigma.txt --query "Q(x) :- R(x, y)" \
                    --epsilon 0.05 --delta 0.05 --seed 7
    ocqa chain      --db d.json --constraints sigma.txt --format ascii
    ocqa abc        --db d.json --constraints sigma.txt --query "Q(x) :- R(x, y)"
    ocqa worker     --listen 0.0.0.0:7461 --max-inflight 4
    ocqa sql-sample --db d.json --constraints sigma.txt --query "..." \
                    --worker host1:7461 --worker host2:7461 --seed 7
    ocqa serve      --listen 0.0.0.0:8080 --supervise 2 \
                    --tenant acme:4:50000:100000
    ocqa status     --service 127.0.0.1:8080
    ocqa top        --service 127.0.0.1:8080 --interval 2
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from repro.abc_repairs import abc_repairs, certain_answers
from repro.core import (
    DeletionOnlyUniformGenerator,
    PreferenceGenerator,
    TrustGenerator,
    UniformGenerator,
    approximate_oca,
    exact_oca,
    repair_distribution,
    violations,
)
from repro.db.facts import Fact
from repro.io import load_constraints, load_database
from repro.queries.parser import parse_query
from repro.viz import chain_to_ascii, chain_to_dot, distribution_table


def _build_generator(args: argparse.Namespace, constraints):
    name = args.generator
    if name == "uniform":
        return UniformGenerator(constraints)
    if name == "deletion":
        return DeletionOnlyUniformGenerator(constraints)
    if name == "preference":
        return PreferenceGenerator(constraints, relation=args.preference_relation)
    if name == "trust":
        if not args.trust:
            raise SystemExit("--trust FILE is required for the trust generator")
        with open(args.trust, encoding="utf-8") as fh:
            raw = json.load(fh)
        trust = {}
        for entry in raw:
            trust[Fact(entry["relation"], tuple(entry["values"]))] = Fraction(
                str(entry["trust"])
            )
        return TrustGenerator(constraints, trust)
    raise SystemExit(f"unknown generator {name!r}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", required=True, help="database JSON file")
    parser.add_argument("--constraints", required=True, help="constraint text file")
    parser.add_argument(
        "--generator",
        default="uniform",
        choices=["uniform", "deletion", "preference", "trust"],
        help="repairing Markov chain generator",
    )
    parser.add_argument(
        "--preference-relation",
        default="Pref",
        help="relation name for the preference generator",
    )
    parser.add_argument("--trust", help="trust JSON file for the trust generator")
    parser.add_argument(
        "--max-states",
        type=int,
        default=200_000,
        help="state budget for exact chain exploration",
    )


def _cmd_violations(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    found = sorted(violations(database, constraints), key=str)
    for violation in found:
        print(violation)
    print(f"{len(found)} violation(s)")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.diagnostics import diagnose

    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    print(diagnose(database, constraints).format())
    return 0


def _cmd_repairs(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    generator = _build_generator(args, constraints)
    distribution = repair_distribution(database, generator, max_states=args.max_states)
    print(distribution_table(distribution.items()))
    if distribution.failure_probability:
        print(f"failing-sequence probability: {distribution.failure_probability}")
    return 0


def _cmd_oca(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    generator = _build_generator(args, constraints)
    query = parse_query(args.query)
    result = exact_oca(database, generator, query, max_states=args.max_states)
    print(distribution_table(result.items(), header=("tuple", "CP")))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    generator = _build_generator(args, constraints)
    query = parse_query(args.query)
    rng = random.Random(args.seed)
    coordinator = _build_coordinator(args)
    try:
        estimates = approximate_oca(
            database,
            generator,
            query,
            epsilon=args.epsilon,
            delta=args.delta,
            rng=rng,
            allow_failing=args.allow_failing,
            adaptive=args.adaptive,
            coordinator=coordinator,
            deadline=_deadline_from(args),
        )
    finally:
        if coordinator is not None:
            coordinator.close()
    # Ties break on the candidate: answer sets iterate in hash order,
    # which changes from process to process.
    for candidate, estimate in sorted(
        estimates.items(), key=lambda kv: (-kv[1], repr(kv[0]))
    ):
        print(f"{candidate}  ~CP = {estimate:.4f}")
    rule = "empirical-Bernstein adaptive" if args.adaptive else "Hoeffding"
    print(
        f"(epsilon={args.epsilon}, delta={args.delta}; additive-error guarantee "
        f"per Theorem 9, {rule} stopping)"
    )
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    generator = _build_generator(args, constraints)
    chain = generator.chain(database)
    if args.format == "dot":
        print(chain_to_dot(chain, max_states=args.max_states))
    else:
        print(chain_to_ascii(chain, max_states=args.max_states))
    return 0


def _cmd_abc(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    repairs = abc_repairs(database, constraints)
    for repair in sorted(repairs, key=repr):
        print(repr(repair))
    print(f"{len(repairs)} ABC repair(s)")
    if args.query:
        query = parse_query(args.query)
        answers = certain_answers(database, constraints, query)
        print(f"certain answers: {sorted(answers)}")
    return 0


def _cmd_sql_sample(args: argparse.Namespace) -> int:
    from repro.db.schema import Schema
    from repro.sql import ConstraintRepairSampler, create_backend

    database = load_database(args.db)
    constraints = load_constraints(args.constraints)
    query = parse_query(args.query)
    coordinator = _build_coordinator(args)
    schema = Schema.infer(database).extend(constraints.schema())
    with create_backend(args.backend) as backend:
        backend.load(database, schema)
        sampler = ConstraintRepairSampler(
            backend,
            schema,
            constraints,
            rng=random.Random(args.seed),
            checkpoint_path=args.checkpoint,
            adaptive=args.adaptive,
            coordinator=coordinator,
        )
        try:
            report = sampler.run(
                query,
                runs=args.runs,
                epsilon=args.epsilon,
                delta=args.delta,
                deadline=_deadline_from(args),
            )
        finally:
            sampler.close_coordinator()
            if coordinator is not None:
                coordinator.close()
    for candidate, estimate in report.items():
        print(f"{candidate}  ~CP = {estimate:.4f}")
    suffix = " (empirical-Bernstein early stop)" if report.stopped_early else ""
    print(
        f"({report.runs} sampling runs over {len(sampler.components)} "
        f"conflict components{suffix})"
    )
    if report.deadline_expired:
        achieved = (
            f"{report.achieved_epsilon:.4f}"
            if report.achieved_epsilon is not None
            else "unknown"
        )
        print(
            f"(deadline expired: best-effort estimate from the completed "
            f"draws; achieved epsilon ~{achieved} at delta={args.delta})"
        )
    return 0


def _parse_listen(listen: str) -> tuple:
    host, _, port = listen.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(
            f"--listen must be host:port (port 0 picks a free one), "
            f"got {listen!r}"
        )
    return host, int(port)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import serve

    host, port = _parse_listen(args.listen)
    if args.max_inflight < 0:
        raise SystemExit(
            f"--max-inflight must be >= 0 (0 disables backpressure), "
            f"got {args.max_inflight}"
        )
    if args.drain_timeout <= 0:
        raise SystemExit(
            f"--drain-timeout must be positive seconds, got {args.drain_timeout}"
        )
    if args.metrics_port is not None and args.metrics_port < 0:
        raise SystemExit(
            f"--metrics-port must be >= 0 (0 picks a free port), "
            f"got {args.metrics_port}"
        )
    serve(
        host,
        port,
        name=args.name,
        context_limit=args.context_limit,
        max_inflight=args.max_inflight,
        drain_timeout=args.drain_timeout,
        metrics_port=args.metrics_port,
    )
    return 0


def _parse_tenant_quota(spec: str):
    """Parse ``NAME:CONCURRENCY[:DRAWS_PER_SEC[:BURST]]`` quota specs."""
    from repro.service import TenantQuota

    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4 or not parts[0]:
        raise SystemExit(
            f"--tenant must be NAME:CONCURRENCY[:DRAWS_PER_SEC[:BURST]], "
            f"got {spec!r}"
        )
    try:
        concurrent = int(parts[1])
        per_second = float(parts[2]) if len(parts) > 2 else None
        burst = float(parts[3]) if len(parts) > 3 else None
    except ValueError as exc:
        raise SystemExit(f"bad --tenant quota {spec!r}: {exc}") from None
    if concurrent <= 0:
        raise SystemExit(f"--tenant concurrency must be positive, got {spec!r}")
    return parts[0], TenantQuota(
        max_concurrent=concurrent, draws_per_second=per_second, burst=burst
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import AdmissionController
    from repro.service.server import QueryService, serve_service

    host, port = _parse_listen(args.listen)
    for flag in ("default_deadline", "max_deadline", "drain_timeout", "max_wait"):
        value = getattr(args, flag)
        if value is not None and value <= 0:
            raise SystemExit(
                f"--{flag.replace('_', '-')} must be positive seconds, got {value}"
            )
    if args.max_concurrent <= 0 or args.max_queue_depth < 0:
        raise SystemExit(
            "--max-concurrent must be positive and --max-queue-depth >= 0"
        )
    if args.cache_size < 0:
        raise SystemExit(f"--cache-size must be >= 0, got {args.cache_size}")
    if args.workers is not None and args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    if args.cache_ttl is not None and args.cache_ttl <= 0:
        raise SystemExit(
            f"--cache-ttl must be positive seconds, got {args.cache_ttl}"
        )
    quotas = dict(_parse_tenant_quota(spec) for spec in args.tenant or ())
    admission = AdmissionController(
        max_concurrent=args.max_concurrent,
        max_queue_depth=args.max_queue_depth,
        max_wait=args.max_wait,
        quotas=quotas,
    )
    supervisor = None
    if args.supervise:
        from repro.service.supervisor import Supervisor

        supervisor = Supervisor(
            workers=args.supervise,
            max_inflight=args.max_inflight,
            drain_timeout=args.drain_timeout,
        )
        supervisor.start()
    try:
        worker_addresses = list(args.worker or ())
        if supervisor is not None:
            worker_addresses.extend(supervisor.addresses)
        service = QueryService(
            host,
            port,
            admission=admission,
            worker_addresses=tuple(worker_addresses),
            workers=args.workers,
            lease_timeout=args.lease_timeout,
            default_deadline=args.default_deadline,
            max_deadline=args.max_deadline,
            drain_timeout=args.drain_timeout,
            name=args.name,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
        )
        return serve_service(service)
    finally:
        if supervisor is not None:
            supervisor.close()


def _cmd_status(args: argparse.Namespace) -> int:
    if args.service:
        import urllib.error
        import urllib.request

        host, port = _parse_listen(args.service)
        url = f"http://{host}:{port}/status"
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            status = json.loads(response.read().decode("utf-8"))
        # Fold the server's /metrics snapshot in (best-effort: older
        # servers without the endpoint still answer /status fine).
        try:
            metrics_url = f"http://{host}:{port}/metrics"
            with urllib.request.urlopen(
                metrics_url, timeout=args.timeout
            ) as response:
                exposition = response.read().decode("utf-8")
        except (urllib.error.URLError, OSError, ValueError):
            exposition = None
        if exposition:
            from repro.obs.metrics import parse_prometheus_text

            try:
                parsed = parse_prometheus_text(exposition)
            except ValueError:
                parsed = {}
            status["metrics"] = {
                name: [
                    [dict(labels), value] for labels, value in sorted(
                        samples, key=lambda item: sorted(item[0].items())
                    )
                ]
                for name, samples in sorted(parsed.items())
            }
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    from repro.diagnostics import cache_report

    print(cache_report(None).format())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import http_fetcher, run_top

    host, port = _parse_listen(args.service)
    metrics = None
    if args.metrics:
        mhost, mport = _parse_listen(args.metrics)
        metrics = f"{mhost}:{mport}"
    if args.interval <= 0:
        raise SystemExit(f"--interval must be positive, got {args.interval}")
    iterations = 1 if args.once else args.iterations
    if iterations is not None and iterations <= 0:
        raise SystemExit(f"--iterations must be positive, got {iterations}")
    fetch = http_fetcher(f"{host}:{port}", metrics=metrics, timeout=args.timeout)
    try:
        return run_top(
            fetch,
            interval=args.interval,
            iterations=iterations,
            clear=not args.no_clear and not args.once,
        )
    except KeyboardInterrupt:
        return 0


def _add_distribution(parser: argparse.ArgumentParser) -> None:
    """Campaign-sharding options shared by the sampling subcommands.

    Determinism note: with a fixed ``--seed``, every configuration of
    these flags — serial, local pool, remote workers, and any mid-run
    worker deaths — produces byte-identical estimates (draws are
    indexed substreams of the campaign seed; see
    :mod:`repro.distributed`).
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard draws across N persistent local worker processes",
    )
    parser.add_argument(
        "--worker",
        action="append",
        metavar="HOST:PORT",
        help="add a remote worker (started with 'ocqa worker --listen'); "
        "repeatable",
    )
    parser.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds a worker may hold a shard lease before it is "
        "re-leased elsewhere; also bounds per-frame socket waits "
        "(default: 60)",
    )
    parser.add_argument(
        "--context-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds to wait for a worker to load a shipped campaign "
        "context (cold caches on slow links may need more; default: "
        "scales with the lease timeout)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole estimation; on expiry the "
        "campaign returns a best-effort estimate with widened "
        "(epsilon, delta) accounting instead of running on",
    )


def _validate_distribution(args: argparse.Namespace) -> None:
    """Reject nonsensical distribution flags before they become a hang.

    A negative ``--workers`` names no pool (``0`` means none).  A
    non-positive timeout or deadline would disable the very waits it
    is supposed to bound, and a deadline shorter than an *explicit*
    lease timeout means a lost worker could not be detected before the
    budget is gone.  When only ``--deadline`` is given, the lease
    timeout is clamped down to it instead (socket waits then respect
    the budget automatically).
    """
    if args.workers is not None and args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    for flag in ("lease_timeout", "context_timeout", "deadline"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            raise SystemExit(
                f"--{flag.replace('_', '-')} must be positive seconds, "
                f"got {value}"
            )
    deadline = getattr(args, "deadline", None)
    lease = getattr(args, "lease_timeout", None)
    if deadline is not None:
        if lease is not None and deadline < lease:
            raise SystemExit(
                f"--deadline ({deadline}s) is shorter than --lease-timeout "
                f"({lease}s): a worker holding a lease could never be "
                "re-leased before the budget expires; lower --lease-timeout "
                "to at most the deadline"
            )
        if lease is None:
            args.lease_timeout = deadline


def _deadline_from(args: argparse.Namespace):
    """The :class:`repro.service.deadline.Deadline` implied by --deadline."""
    if getattr(args, "deadline", None) is None:
        return None
    from repro.service.deadline import Deadline

    return Deadline.after(args.deadline)


def _build_coordinator(args: argparse.Namespace):
    """The coordinator implied by the CLI's distribution flags.

    Built here (not inside the samplers) so ``--lease-timeout`` and
    ``--context-timeout`` reach it.  Returns ``None`` for the serial
    path; the caller owns (and must close) a returned coordinator.
    """
    from repro.distributed import Coordinator

    _validate_distribution(args)
    kwargs = {}
    if args.lease_timeout is not None:
        kwargs["lease_timeout"] = args.lease_timeout
    return Coordinator.from_options(
        workers=args.workers,
        worker_addresses=args.worker or (),
        context_timeout=args.context_timeout,
        **kwargs,
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``ocqa`` argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ocqa",
        description="Operational consistent query answering (PODS 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("violations", help="list constraint violations")
    _add_common(p)
    p.set_defaults(fn=_cmd_violations)

    p = sub.add_parser("diagnose", help="summarise the inconsistency of a database")
    _add_common(p)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("repairs", help="exact operational repair distribution")
    _add_common(p)
    p.set_defaults(fn=_cmd_repairs)

    p = sub.add_parser("oca", help="exact operational consistent answers")
    _add_common(p)
    p.add_argument("--query", required=True, help='e.g. "Q(x) :- R(x, y)"')
    p.set_defaults(fn=_cmd_oca)

    p = sub.add_parser("sample", help="additive-error approximate answers")
    _add_common(p)
    p.add_argument("--query", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--allow-failing",
        action="store_true",
        help="discard failing walks instead of erroring (heuristic mode)",
    )
    p.add_argument(
        "--adaptive",
        action="store_true",
        help="empirical-Bernstein adaptive stopping (never more draws "
        "than the Hoeffding count)",
    )
    _add_distribution(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("chain", help="render the repairing Markov chain")
    _add_common(p)
    p.add_argument("--format", choices=["ascii", "dot"], default="ascii")
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("abc", help="classical ABC repairs and certain answers")
    _add_common(p)
    p.add_argument("--query", help="optionally compute certain answers")
    p.set_defaults(fn=_cmd_abc)

    p = sub.add_parser(
        "sql-sample",
        help="Section 5 scheme: sample repairs inside a SQL backend "
        "(TGD-free constraints)",
    )
    _add_common(p)
    p.add_argument("--query", required=True)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=None, help="override the Hoeffding count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--backend",
        choices=["sqlite", "postgres", "memory"],
        default=None,
        help="SQL backend (default: $REPRO_SQL_BACKEND, else sqlite)",
    )
    p.add_argument(
        "--adaptive",
        action="store_true",
        help="empirical-Bernstein adaptive stopping",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        help="campaign checkpoint file (resume warm chains across runs)",
    )
    _add_distribution(p)
    p.set_defaults(fn=_cmd_sql_sample)

    p = sub.add_parser(
        "worker",
        help="run a sampling worker serving shard requests over TCP; one "
        "worker process serves many coordinators/campaigns concurrently "
        "(see the README's distributed deployment how-to)",
    )
    p.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="bind address (port 0 picks a free port, printed on start)",
    )
    p.add_argument("--name", default=None, help="worker name for logs/leases")
    p.add_argument(
        "--context-limit",
        type=int,
        default=8,
        metavar="N",
        help="warm campaign contexts kept resident (LRU-evicted beyond N)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        metavar="N",
        help="shards a single connection may have executing at once before "
        "the worker answers with a retriable busy error (0: unbounded)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, seconds to wait for in-flight shards to "
        "finish before exiting anyway",
    )
    p.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus metrics on this sidecar port "
        "(0 picks a free port, printed on start)",
    )
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the persistent multi-tenant query service (HTTP/JSON "
        "front over the sharded sampling fleet; see the README's "
        "'Running as a service' section)",
    )
    p.add_argument(
        "--listen",
        default="127.0.0.1:8080",
        metavar="HOST:PORT",
        help="HTTP bind address (port 0 picks a free port, printed on start)",
    )
    p.add_argument("--name", default=None, help="service name for logs")
    p.add_argument(
        "--worker",
        action="append",
        metavar="HOST:PORT",
        help="add an existing remote worker; repeatable",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="also shard across N in-process pool workers",
    )
    p.add_argument(
        "--supervise",
        type=int,
        default=0,
        metavar="N",
        help="spawn and supervise N local worker subprocesses (health "
        "probes, bounded restarts, graceful drain on shutdown)",
    )
    p.add_argument(
        "--max-concurrent",
        type=int,
        default=8,
        help="queries executing at once before new arrivals queue",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=16,
        help="queued queries before arrivals are shed with a 429",
    )
    p.add_argument(
        "--max-wait",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="longest a query may queue before it is shed",
    )
    p.add_argument(
        "--tenant",
        action="append",
        metavar="NAME:CONC[:DRAWS_PER_SEC[:BURST]]",
        help="per-tenant quota: max concurrent queries and an optional "
        "draw-rate token bucket; repeatable",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-query deadline when the request does not set one",
    )
    p.add_argument(
        "--max-deadline",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="cap on client-requested deadlines",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, seconds to wait for in-flight queries "
        "(and supervised workers) to finish before exiting anyway",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=0,
        metavar="N",
        help="per-connection in-flight shard bound for supervised workers "
        "(0: unbounded)",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="shard lease timeout for the service's coordinators",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in entries (LRU; 0 disables the cache)",
    )
    p.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire cached results after this many seconds (default: never)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "status",
        help="overload/cache status: of a running service (--service) or "
        "of this process's diagnostics registry",
    )
    p.add_argument(
        "--service",
        default=None,
        metavar="HOST:PORT",
        help="query a running 'ocqa serve' instance's /status endpoint",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="HTTP timeout for --service",
    )
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser(
        "top",
        help="refreshing terminal view over a running service's /metrics "
        "and /status: queue depth, per-tenant draw throughput, lease "
        "ages, cache hit rates, query latency quantiles",
    )
    p.add_argument(
        "--service",
        required=True,
        metavar="HOST:PORT",
        help="a running 'ocqa serve' instance",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="HOST:PORT",
        help="scrape /metrics from a different endpoint (e.g. a worker's "
        "--metrics-port sidecar); defaults to --service",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="exit after N refreshes (default: run until interrupted)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit (implies --no-clear)",
    )
    p.add_argument(
        "--no-clear",
        action="store_true",
        help="append refreshes instead of clearing the screen",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="HTTP timeout per scrape",
    )
    p.set_defaults(fn=_cmd_top)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``ocqa`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
