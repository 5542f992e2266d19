"""The end-to-end SQL sampling scheme of Section 5.

For key constraints, violations partition into independent *conflict
groups* (tuples sharing a key value), so the global repairing Markov
chain factorises into one tiny chain per group — the "localization of
repairs" optimization the paper's Section 6 points to.  Each sampling
run draws one repair by sampling every group independently, materialises
the removed tuples in the ``R__del`` tables, and evaluates the query
rewritten over ``R EXCEPT R__del``; tuple frequencies over ``n`` runs
estimate ``CP`` with the additive Hoeffding guarantee (or the
empirical-Bernstein adaptive variant — see
:class:`repro.campaign.SamplingCampaign`).

Three per-group policies:

- ``KEEP_ONE_UNIFORM`` — keep exactly one tuple per group, uniformly (the
  classical ABC-style repair sampling; "randomly pick at most one tuple
  to be left there");
- ``OPERATIONAL_UNIFORM`` — sample the group's repairing chain under the
  uniform generator (pair deletions included, so *zero* survivors are
  possible, as the operational semantics allows);
- ``TRUST`` — sample the group's chain under Example 5's trust-based
  generator.

The sampler targets the :class:`repro.sql.backend.SQLBackend` protocol,
so the same code runs on SQLite, PostgreSQL, and the in-memory backend.
All per-group randomness flows through the campaign's draw-indexed RNG
substreams (:meth:`repro.campaign.SamplingCampaign.rng_at`): draw ``i``
of group ``g`` depends only on ``(campaign seed, g, i)``, so draws are
independent of batch boundaries, a checkpointed campaign resumes with
bit-identical sequences, and any draw range can be computed by any
worker — the contract behind :mod:`repro.distributed`.  Pass ``workers``
(persistent local pool) or ``worker_addresses`` (remote ``host:port``
workers started with ``ocqa worker``) to shard a campaign's draws; the
merged estimates are byte-identical to a single-process run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign import (
    SamplingCampaign,
    UpdateReport,
    _key_str,
    campaign_fingerprint,
)
from repro.constraints.base import ConstraintSet
from repro.constraints.shortcuts import key as key_constraints
from repro.core import columnar, mt19937
from repro.core.chain import ChainGenerator, RepairingChain
from repro.core.generators import TrustGenerator, UniformGenerator
from repro.core.sampling import sample_walk
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.db.terms import Term, is_var
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query
from repro.sql.backend import SQLBackend
from repro.sql.compiler import CompiledQuery, compile_cq, compile_fo_query
from repro.sql.rewriting import DeletionRewriter

AnyQuery = Union[Query, ConjunctiveQuery]

_DRAW_RANGES = obs_metrics.REGISTRY.counter(
    "ocqa_draw_ranges_total",
    "Draw ranges executed, by evaluation path.",
    ("path",),
)


def instance_digest(backend: SQLBackend, schema: Schema) -> str:
    """A stable digest of the instance currently loaded in *backend*.

    Folded into the samplers' campaign fingerprints so a checkpoint
    written against one data instance is rejected when the base tables
    have since changed — schema and policy alone cannot catch a data
    refresh, and merging tallies across instances silently skews CP.
    """
    return campaign_fingerprint(
        *(
            (relation.name, tuple(sorted(map(str, backend.select_all(relation.name)))))
            for relation in schema
        )
    )


class SamplerPolicy(str, Enum):
    """How survivors are chosen inside one key-conflict group."""

    KEEP_ONE_UNIFORM = "keep_one_uniform"
    OPERATIONAL_UNIFORM = "operational_uniform"
    TRUST = "trust"


@dataclass(frozen=True)
class KeySpec:
    """A key constraint: *positions* form a key of *relation*/*arity*."""

    relation: str
    arity: int
    positions: Tuple[int, ...]

    def constraints(self) -> ConstraintSet:
        """The EGDs expressing this key."""
        return ConstraintSet(key_constraints(self.relation, self.arity, self.positions))


@dataclass
class ConflictGroup:
    """Tuples of one relation sharing a key value."""

    spec: KeySpec
    key_value: Tuple[Term, ...]
    facts: Tuple[Fact, ...]

    def __len__(self) -> int:
        return len(self.facts)


@dataclass
class SamplingReport:
    """Result of a sampling campaign: estimates plus run statistics."""

    frequencies: Dict[Tuple[Term, ...], float]
    runs: int
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    #: Whether the empirical-Bernstein rule ended the campaign before the
    #: fixed Hoeffding count (``runs`` then reports the draws taken).
    adaptive: bool = False
    stopped_early: bool = False
    #: The campaign's deadline expired mid-run: the report is a
    #: best-effort estimate over the draws completed in time, and
    #: ``achieved_epsilon`` is the (wider) accuracy those draws certify
    #: at the requested delta (see
    #: :func:`repro.analysis.bernstein.widened_epsilon`).
    deadline_expired: bool = False
    achieved_epsilon: Optional[float] = None

    def cp(self, candidate: Tuple[Term, ...]) -> float:
        """Estimated ``CP(t)`` (0.0 for unseen tuples)."""
        return self.frequencies.get(tuple(candidate), 0.0)

    def items(self) -> List[Tuple[Tuple[Term, ...], float]]:
        """Estimates, most probable first."""
        return sorted(self.frequencies.items(), key=lambda kv: (-kv[1], repr(kv[0])))


class BaseCampaignSampler:
    """Campaign plumbing shared by the SQL samplers.

    Subclasses set ``backend``, ``schema``, ``rng`` and ``rewriter``
    before calling :meth:`_init_campaign`, implement
    :meth:`_fingerprint_parts` and :meth:`deletions_for_range`;
    everything else — lazy instance digest, campaign attach/bind, query
    compilation under the rewriting, and the estimation loop — lives
    here exactly once.
    """

    backend: SQLBackend
    schema: Schema
    rng: random.Random
    rewriter: DeletionRewriter
    campaign: SamplingCampaign

    def _init_campaign(
        self,
        campaign: Optional[SamplingCampaign],
        checkpoint_path: Optional[str],
        adaptive: bool,
        workers: Optional[int] = None,
        worker_addresses: Sequence[str] = (),
        coordinator=None,
    ) -> None:
        #: Lazily computed (full-table scan) — only needed when the
        #: fingerprint is actually compared, i.e. when a checkpoint or an
        #: externally shared campaign is in play.
        self._data_digest: Optional[str] = None
        #: The *rolling* instance digest (:mod:`repro.sql.digest`) —
        #: also lazy, but once materialized it is maintained in
        #: O(|delta|) through :meth:`apply_update` instead of being
        #: recomputed, so update reports can name the pre/post instance
        #: identity without a rescan.  ``None`` until someone asks.
        self._result_digest = None
        if campaign is None:
            if checkpoint_path is None:
                campaign = SamplingCampaign(rng=self.rng, adaptive=adaptive)
            else:
                campaign = SamplingCampaign.attach(
                    checkpoint_path,
                    self.fingerprint(),
                    rng=self.rng,
                    adaptive=adaptive,
                )
        else:
            campaign.bind_fingerprint(self.fingerprint())
        self.campaign = campaign
        self._init_distribution(workers, worker_addresses, coordinator)

    def _init_distribution(
        self,
        workers: Optional[int],
        worker_addresses: Sequence[str],
        coordinator,
    ) -> None:
        """Set up the (optional) coordinator sharding this campaign.

        ``workers=N`` starts a persistent local pool
        (:class:`repro.distributed.LocalPoolTransport`);
        ``worker_addresses`` adds remote ``host:port`` workers; an
        explicit *coordinator* is used as-is (and not closed by this
        sampler).  Draws are substream-deterministic, so every
        configuration — including none — produces identical estimates.
        """
        self.coordinator = coordinator
        self._owns_coordinator = False
        if coordinator is None and (workers or worker_addresses):
            from repro.distributed import Coordinator

            self.coordinator = Coordinator.from_options(workers, worker_addresses)
            self._owns_coordinator = self.coordinator is not None
        self._shard_contexts: Dict[str, Any] = {}
        #: Per-compiled-query columnar draw plans (``False`` marks a
        #: query the columnar gate rejected, so it is not re-analyzed
        #: every batch).  Invalidated with the shard contexts on every
        #: base-table delta.
        self._columnar_plans: Dict[Any, Any] = {}

    def close_coordinator(self) -> None:
        """Shut down a coordinator this sampler started (no-op otherwise)."""
        if self.coordinator is not None and self._owns_coordinator:
            self.coordinator.close()
        self.coordinator = None
        self._owns_coordinator = False

    def fingerprint(self) -> str:
        """The campaign identity of this sampler's semantic inputs."""
        if self._data_digest is None:
            self._data_digest = instance_digest(self.backend, self.schema)
        return campaign_fingerprint(self._data_digest, *self._fingerprint_parts())

    def _fingerprint_parts(self) -> Tuple:
        """Sampler-specific fingerprint components (policy, keys, ...)."""
        raise NotImplementedError

    def result_digest(self) -> str:
        """The rolling instance digest the result cache keys entries by.

        Equals :func:`repro.sql.digest.database_digest` of the loaded
        instance; first call scans the tables, after which
        :meth:`apply_update` rolls it forward per delta.
        """
        from repro.sql.digest import InstanceDigest

        if self._result_digest is None:
            self._result_digest = InstanceDigest.of_backend(
                self.backend, self.schema
            )
        return self._result_digest.hexdigest()

    def _roll_result_digest(
        self, added: Sequence[Fact], removed: Sequence[Fact]
    ) -> Tuple[Optional[str], Optional[str]]:
        """Advance the rolling digest through a delta.

        Returns ``(old, new)`` hexdigests, or ``(None, None)`` when the
        digest was never materialized — consumers must then treat the
        update as unprovable and flush conservatively.
        """
        if self._result_digest is None:
            return None, None
        old = self._result_digest.hexdigest()
        self._result_digest.update(added, removed)
        return old, self._result_digest.hexdigest()

    def _refresh_campaign_identity(self) -> None:
        """Re-bind the campaign to the current (post-update) instance.

        Called after a base-table delta: the data digest changes with
        the tables, and checkpoints written afterwards must validate
        against the instance they were actually drawn from.  Campaigns
        that never bound a fingerprint (the default private path) skip
        the rescan entirely.  Cached distributed shard contexts embed a
        snapshot of the instance, so they are dropped too — the next
        distributed batch ships the post-update facts instead of having
        workers silently sample the stale snapshot.
        """
        self._data_digest = None
        self._shard_contexts.clear()
        self._columnar_plans.clear()
        if self.campaign.fingerprint:
            self.campaign.fingerprint = self.fingerprint()

    def deletions_for_range(self, start: int, count: int) -> List[List[Fact]]:
        """Deleted facts for draws ``[start, start + count)``.

        Pure in the draw indices: the result depends only on the
        campaign seed, the conflict groups, and the range — never on
        which process computes it or how a campaign was batched.
        """
        raise NotImplementedError

    def sample_deletions(self) -> List[Fact]:
        """One repair draw (consumes the next global draw index)."""
        return self.deletions_for_range(self.campaign.claim_draws(1), 1)[0]

    # ------------------------------------------------------------------
    # Query compilation under the rewriting
    # ------------------------------------------------------------------
    def compile(self, query: AnyQuery) -> CompiledQuery:
        """Compile *query* against the ``R EXCEPT R__del`` relation map."""
        relation_map = self.rewriter.relation_map()
        if isinstance(query, ConjunctiveQuery):
            return compile_cq(query, relation_map)
        return compile_fo_query(query, relation_map)

    def compile_original(self, query: AnyQuery) -> CompiledQuery:
        """Compile *query* against the raw tables (for E8 comparisons)."""
        if isinstance(query, ConjunctiveQuery):
            return compile_cq(query)
        return compile_fo_query(query)

    # ------------------------------------------------------------------
    # The estimation loop
    # ------------------------------------------------------------------
    def outcomes_for_range(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> List[Any]:
        """Answer sets for draws ``[start, start + count)``.

        The unit of work a shard executes: sample each draw's deletions
        from the draw-indexed substreams, mark them in the rewriter, and
        evaluate the compiled query.  Workers in :mod:`repro.distributed`
        run exactly this method on a rebuilt sampler, which is why a
        distributed campaign's outcome stream is byte-identical to a
        local one.

        When the columnar core applies (:mod:`repro.core.columnar`,
        ``REPRO_COLUMNAR`` unset/1), the same answer sets come from a
        compiled draw plan — pre-seeded MT19937 word columns stepped
        through walk tables, byte-identical to this loop — and the
        object path below remains the reference implementation.
        """
        fast = self._columnar_outcomes(compiled, start, count)
        if fast is not None:
            _DRAW_RANGES.inc(path="columnar")
            return fast
        _DRAW_RANGES.inc(path="object")
        return self._object_outcomes(compiled, start, count)

    def _object_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> List[Any]:
        """The reference (per-Fact, per-query) outcome loop."""
        outcomes: List[Any] = []
        for deletions in self.deletions_for_range(start, count):
            self.rewriter.clear()
            self.rewriter.mark_deleted(deletions)
            outcomes.append(compiled.run(self.backend))
        self.rewriter.clear()
        return outcomes

    def _columnar_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> Optional[List[Any]]:
        """Columnar fast path — ``None`` when this sampler has none."""
        del compiled, start, count
        return None

    def _shard_context_payload(self, query: AnyQuery) -> Tuple[str, Dict[str, Any]]:
        """``(kind, payload)`` for a distributed shard context."""
        raise NotImplementedError

    def _shard_context(self, query: AnyQuery):
        """The (cached) distributed context describing this campaign."""
        from repro.distributed import ShardContext

        cache_key = campaign_fingerprint(str(query), self.campaign.seed)
        context = self._shard_contexts.get(cache_key)
        if context is None:
            kind, payload = self._shard_context_payload(query)
            context = ShardContext.create(kind, payload)
            self._shard_contexts[cache_key] = context
        return context

    def _draw_answer_sets(self, compiled: CompiledQuery, batch: int):
        """*batch* draws: mark deletions, evaluate, collect answer sets."""
        start = self.campaign.claim_draws(batch)
        return self.outcomes_for_range(compiled, start, batch)

    def run(
        self,
        query: AnyQuery,
        runs: Optional[int] = None,
        epsilon: float = 0.1,
        delta: float = 0.1,
        adaptive: Optional[bool] = None,
        max_draws: Optional[int] = None,
        target: Optional[Tuple[Term, ...]] = None,
        deadline=None,
    ) -> SamplingReport:
        """Estimate ``CP`` for every observed tuple over ``runs`` repairs.

        Without an explicit run count, ``n = ln(2/delta) / (2 eps^2)``
        runs are performed (Section 5's recipe; 150 for the default
        parameters).  With *adaptive* (or a campaign built with
        ``adaptive=True``), the empirical-Bernstein rule may stop the
        campaign earlier (see :mod:`repro.analysis.bernstein` for the
        exact guarantee accounting); with *target* additionally set, the
        adaptive rule tests only that answer tuple's stream — the
        per-tuple early-termination mode for targeted ``CP(t)`` queries,
        whose early stop certifies the target's estimate alone.  A
        campaign with a checkpoint path persists its progress and
        resumes across processes; *max_draws* caps this call's draws for
        deliberate interruption.  The compiled query's identity travels
        with the tallies, so an interrupted campaign resumed under a
        different query is rejected rather than merged.

        With a coordinator attached (``workers`` / ``worker_addresses``
        / ``coordinator``), each batch's draw range is sharded across
        the workers and the merged outcome stream — hence every tally,
        adaptive stop, and checkpoint — is byte-identical to the
        serial run, regardless of worker count or mid-shard deaths.

        A *deadline* (:class:`repro.service.deadline.Deadline`)
        propagates into the coordinator and over the wire to workers;
        on expiry the campaign stops where it is and the report comes
        back with ``deadline_expired=True`` and the widened
        ``achieved_epsilon`` the completed draws certify — re-running
        the same campaign (same seed, same checkpoint) resumes exactly
        where the deadline cut it off.
        """
        compiled = self.compile(query)
        obs_trace.span(
            "campaign",
            fingerprint=self.campaign.fingerprint[:12],
            tenant=obs_metrics.current_tenant(),
            runs=runs,
            epsilon=epsilon,
            delta=delta,
            adaptive=bool(self.campaign.adaptive if adaptive is None else adaptive),
            distributed=self.coordinator is not None,
        )
        if self.coordinator is not None:
            context = self._shard_context(query)

            def draw(batch: int):
                start = self.campaign.claim_draws(batch)
                return self.coordinator.run_range(
                    context, start, batch, deadline=deadline
                )

        else:

            def draw(batch: int):
                if deadline is not None:
                    deadline.check("serial draw batch")
                return self._draw_answer_sets(compiled, batch)

        result = self.campaign.estimate(
            draw,
            runs=runs,
            epsilon=epsilon,
            delta=delta,
            adaptive=adaptive,
            max_draws=max_draws,
            estimation_key=campaign_fingerprint(compiled.sql, compiled.parameters),
            stop_target=tuple(target) if target is not None else None,
            deadline=deadline,
        )
        return SamplingReport(
            frequencies=result.frequencies,
            runs=result.valid,
            epsilon=epsilon,
            delta=delta,
            adaptive=result.adaptive,
            stopped_early=result.stopped_early,
            deadline_expired=result.deadline_expired,
            achieved_epsilon=result.achieved_epsilon,
        )

    def sample_repair(self) -> Database:
        """Draw one full repaired instance (useful for inspection/tests)."""
        self.rewriter.clear()
        self.rewriter.mark_deleted(self.sample_deletions())
        repaired = self.rewriter.live_database()
        self.rewriter.clear()
        return repaired


class KeyRepairSampler(BaseCampaignSampler):
    """Samples key-violation repairs directly inside the SQL backend."""

    def __init__(
        self,
        backend: SQLBackend,
        schema: Schema,
        keys: Sequence[KeySpec],
        policy: SamplerPolicy = SamplerPolicy.KEEP_ONE_UNIFORM,
        trust: Optional[Mapping[Fact, Union[float, int]]] = None,
        rng: Optional[random.Random] = None,
        campaign: Optional[SamplingCampaign] = None,
        checkpoint_path: Optional[str] = None,
        adaptive: bool = False,
        workers: Optional[int] = None,
        worker_addresses: Sequence[str] = (),
        coordinator=None,
    ) -> None:
        self.backend = backend
        self.schema = schema
        self.keys = tuple(keys)
        self.policy = SamplerPolicy(policy)
        self.trust = dict(trust) if trust else {}
        self.rng = rng or random.Random()
        self.rewriter = DeletionRewriter(backend, schema)
        #: The campaign owning warm chains, the draw cursor, the
        #: estimation tallies, and (optionally) the on-disk checkpoint.
        self._init_campaign(
            campaign,
            checkpoint_path,
            adaptive,
            workers=workers,
            worker_addresses=worker_addresses,
            coordinator=coordinator,
        )
        self._generators: Dict[KeySpec, ChainGenerator] = {}
        self._buckets: Dict[KeySpec, Dict[Tuple[Term, ...], set]] = {}
        self._scan_buckets()
        self.groups: Tuple[ConflictGroup, ...] = self._rebuild_groups()

    def _fingerprint_parts(self) -> Tuple:
        return (
            "KeyRepairSampler",
            self.schema.fingerprint(),
            self.keys,
            self.policy.value,
            sorted((str(f), str(t)) for f, t in self.trust.items()),
        )

    # ------------------------------------------------------------------
    # Conflict detection (one scan, then delta-maintained)
    # ------------------------------------------------------------------
    def _scan_buckets(self) -> None:
        for spec in self.keys:
            rows = self.backend.select_all(spec.relation)
            buckets: Dict[Tuple[Term, ...], set] = {}
            for row in rows:
                fact = Fact(spec.relation, tuple(row))
                key_value = tuple(row[p] for p in spec.positions)
                buckets.setdefault(key_value, set()).add(fact)
            self._buckets[spec] = buckets

    def _rebuild_groups(self) -> Tuple[ConflictGroup, ...]:
        groups: List[ConflictGroup] = []
        for spec in self.keys:
            buckets = self._buckets.get(spec, {})
            for key_value, facts in sorted(buckets.items(), key=lambda kv: str(kv[0])):
                if len(facts) > 1:
                    groups.append(
                        ConflictGroup(spec, key_value, tuple(sorted(facts, key=str)))
                    )
        return tuple(groups)

    def apply_update(
        self, added: Iterable[Fact] = (), removed: Iterable[Fact] = ()
    ) -> UpdateReport:
        """Apply a base-table delta and re-derive the conflict groups.

        The groups are maintained from the in-memory key buckets — no
        table re-scan — and only the groups whose fact sets actually
        changed lose their cached chains (the fact tuple is the cache
        key, so untouched groups keep their amortized state).  Returns
        an :class:`repro.campaign.UpdateReport` naming exactly those
        changed groups (plus the pre/post instance digests when the
        rolling digest is live) — the feed the service result cache
        invalidates from.
        """
        added = list(added)
        removed = list(removed)
        old_groups = [group.facts for group in self.groups]
        if removed:
            self.backend.delete_facts(removed)
        if added:
            self.backend.insert_facts(added)
            self.backend.extend_adom(
                value for fact in added for value in fact.values
            )
        for spec in self.keys:
            buckets = self._buckets[spec]
            for fact in removed:
                if fact.relation != spec.relation or fact.arity != spec.arity:
                    continue
                key_value = tuple(fact.values[p] for p in spec.positions)
                bucket = buckets.get(key_value)
                if bucket is not None:
                    bucket.discard(fact)
                    if not bucket:
                        del buckets[key_value]
            for fact in added:
                if fact.relation != spec.relation or fact.arity != spec.arity:
                    continue
                key_value = tuple(fact.values[p] for p in spec.positions)
                buckets.setdefault(key_value, set()).add(fact)
        self.groups = self._rebuild_groups()
        self.campaign.prune_chains(group.facts for group in self.groups)
        old_digest, new_digest = self._roll_result_digest(added, removed)
        self._refresh_campaign_identity()
        return UpdateReport.from_groups(
            added,
            removed,
            old_groups,
            [group.facts for group in self.groups],
            old_digest=old_digest,
            new_digest=new_digest,
        )

    # ------------------------------------------------------------------
    # Per-group sampling policies
    # ------------------------------------------------------------------
    def _group_generator(self, spec: KeySpec) -> ChainGenerator:
        generator = self._generators.get(spec)
        if generator is None:
            constraints = spec.constraints()
            if self.policy is SamplerPolicy.OPERATIONAL_UNIFORM:
                generator = UniformGenerator(constraints)
            else:
                # TrustGenerator snapshots the trust mapping, and the
                # snapshot lives as long as the cached chains — mutate
                # trust through a fresh sampler instead.
                generator = TrustGenerator(constraints, self.trust)
            self._generators[spec] = generator
        return generator

    def _group_chain(self, group: ConflictGroup) -> RepairingChain:
        """The group's warm chain: every draw of the campaign walks it,
        so the engine's incremental machinery (violation deltas,
        justified-operation maps, transition memos) amortizes across
        all ``n`` runs."""
        return self.campaign.chain(
            group.facts,
            lambda: self._group_generator(group.spec).chain(Database(group.facts)),
        )

    def deletions_for_range(self, start: int, count: int) -> List[List[Fact]]:
        """Deleted facts for draws ``[start, start + count)``.

        Batched group by group: all of a group's walks run over its one
        shared chain before moving on, so hot prefix states are
        enumerated once per campaign rather than once per draw.  Draw
        ``i`` of group ``g`` comes from the substream
        :meth:`repro.campaign.SamplingCampaign.rng_at`\\ ``(g, i)`` —
        a pure function of the campaign seed, so any contiguous range
        can be computed by any process (the :mod:`repro.distributed`
        sharding contract) and the sequences are independent of batch
        boundaries (the property behind checkpoint/resume equality and
        local == distributed byte-identity).
        """
        per_run: List[List[Fact]] = [[] for _ in range(count)]
        for group in self.groups:
            if self.policy is SamplerPolicy.KEEP_ONE_UNIFORM:
                for offset, deletions in enumerate(per_run):
                    rng = self.campaign.rng_at(group.facts, start + offset)
                    survivor = rng.choice(group.facts)
                    deletions.extend(f for f in group.facts if f != survivor)
                continue
            chain = self._group_chain(group)
            for offset, deletions in enumerate(per_run):
                walk = sample_walk(
                    chain, self.campaign.rng_at(group.facts, start + offset)
                )
                deletions.extend(sorted(chain.database - walk.result, key=str))
        return per_run

    def _shard_context_payload(self, query: AnyQuery) -> Tuple[str, Dict[str, Any]]:
        return (
            "key_sampler",
            {
                "facts": tuple(self.backend.fetch_database(self.schema)),
                "schema": self.schema,
                "keys": self.keys,
                "policy": self.policy.value,
                "trust": dict(self.trust),
                "seed": self.campaign.seed,
                "query": query,
            },
        )

    # ------------------------------------------------------------------
    # Columnar fast path
    # ------------------------------------------------------------------
    def _columnar_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> Optional[List[Any]]:
        """Answer sets via a compiled columnar draw plan, or ``None``.

        The plan is built once per (compiled query, instance) and gated
        conservatively — any precondition it cannot prove falls back to
        the object path (see :func:`_build_columnar_plan`).  Setting
        ``REPRO_COLUMNAR_VERIFY=1`` additionally recomputes every batch
        through the reference loop and asserts equality (used by the
        benchmark conformance checks; far too slow for production).
        """
        if count <= 0 or not columnar.available():
            return None
        key = (compiled.sql, tuple(compiled.parameters))
        plan = self._columnar_plans.get(key)
        if plan is None:
            plan = _build_columnar_plan(self, compiled)
            self._columnar_plans[key] = plan if plan is not None else False
        if plan is False or plan is None:
            return None
        outcomes = plan.outcomes(start, count)
        # The reference loop leaves the rewriter cleared; match it so
        # interleaved object-path callers see the same backend state.
        self.rewriter.clear()
        if os.environ.get("REPRO_COLUMNAR_VERIFY"):
            reference = self._object_outcomes(compiled, start, count)
            if outcomes != reference:
                raise AssertionError(
                    "columnar draw plan diverged from the object path for "
                    f"draws [{start}, {start + count})"
                )
        return outcomes


class _ColumnarDrawPlan:
    """A compiled, vectorized form of ``outcomes_for_range``.

    Built by :func:`_build_columnar_plan` for single-atom conjunctive
    queries over a key-repair sampler.  The observation: with the
    rewriting's ``R EXCEPT R__del`` set semantics, a draw's answer set
    is exactly ``clean_answers ∪ (projections of each conflict group's
    surviving facts)`` — rows outside every conflict group can never be
    deleted, and each group's survivors depend only on that group's own
    draw substream.  So one batch needs: the MT19937 word matrix for
    every (group, draw) seed string (:func:`repro.core.mt19937.batch_words`),
    one vectorized pass through the concatenated walk tables
    (:class:`repro.core.columnar.WalkArena`), and a per-draw union of
    precomputed projection sets.  Instances that exhaust their word
    budget — or groups whose chains need weighted draws — are replayed
    per instance with a genuinely seeded ``random.Random`` over the same
    table, so every outcome is byte-identical to the reference loop by
    construction.
    """

    __slots__ = (
        "clean_answers",
        "vector_entries",
        "replay_entries",
        "arena",
        "word_budget",
    )

    def __init__(
        self,
        clean_answers: frozenset,
        vector_entries: List[Tuple[str, bytes, Any, List[frozenset]]],
        replay_entries: List[Tuple[str, Any, List[frozenset]]],
        word_budget: int,
    ) -> None:
        self.clean_answers = clean_answers
        self.vector_entries = vector_entries
        self.replay_entries = replay_entries
        self.arena = (
            columnar.WalkArena([entry[2] for entry in vector_entries])
            if vector_entries
            else None
        )
        self.word_budget = word_budget

    def _replay(self, prefix_text: str, table: Any, index: int) -> int:
        rng = random.Random(prefix_text + str(index))
        return columnar.replay_walk(table, rng)

    def outcomes(self, start: int, count: int) -> List[Any]:
        per_offset: List[List[frozenset]] = [[] for _ in range(count)]
        vectorized = replayed = 0
        if self.vector_entries:
            seeds: List[bytes] = []
            for _, prefix, _, _ in self.vector_entries:
                seeds.extend(
                    prefix + str(start + offset).encode()
                    for offset in range(count)
                )
            words = mt19937.batch_words(seeds, self.word_budget)
            if words is None:
                for prefix_text, _, table, projections in self.vector_entries:
                    for offset in range(count):
                        state = self._replay(prefix_text, table, start + offset)
                        replayed += 1
                        extra = projections[state]
                        if extra:
                            per_offset[offset].append(extra)
            else:
                final, completed = self.arena.run_grid(count, words)
                bases = self.arena.initial.tolist()
                finals = final.tolist()
                all_completed = bool(completed.all())
                flags = completed.tolist() if not all_completed else None
                instance = 0
                for group, (prefix_text, _, table, projections) in enumerate(
                    self.vector_entries
                ):
                    base = bases[group]
                    for offset in range(count):
                        if all_completed or flags[instance]:
                            state = finals[instance] - base
                            vectorized += 1
                        else:
                            state = self._replay(
                                prefix_text, table, start + offset
                            )
                            replayed += 1
                        extra = projections[state]
                        if extra:
                            per_offset[offset].append(extra)
                        instance += 1
        for prefix_text, table, projections in self.replay_entries:
            for offset in range(count):
                state = self._replay(prefix_text, table, start + offset)
                replayed += 1
                extra = projections[state]
                if extra:
                    per_offset[offset].append(extra)
        if vectorized:
            columnar.record_stat("draws_vectorized", vectorized)
        if replayed:
            columnar.record_stat("draws_replayed", replayed)
        clean = self.clean_answers
        return [
            clean.union(*extras) if extras else clean for extras in per_offset
        ]


def _keep_one_table(size: int) -> Any:
    """The 1-step walk table of ``rng.choice(facts)``.

    ``Random.choice`` and ``randrange`` both route through
    ``_randbelow``, so a uniform table over *size* successors consumes
    exactly the words the ``KEEP_ONE_UNIFORM`` object path would.
    """
    table = columnar.WalkTable()
    table.absorbing.append(False)
    table.uniform.append(True)
    table.counts.append(size)
    table.denominators.append(0)
    table.cumulative.append(())
    table.successors.append(tuple(range(1, size + 1)))
    table.payload.append(None)
    for _ in range(size):
        table.absorbing.append(True)
        table.uniform.append(True)
        table.counts.append(0)
        table.denominators.append(0)
        table.cumulative.append(())
        table.successors.append(())
        table.payload.append(None)
    return table


#: Word columns pre-seeded per (group, draw); deep rejection-sampling
#: tails beyond this fall back to per-instance replay, bit-exactly.
_PLAN_WORD_BUDGET = min(24, mt19937.MAX_PARTIAL_WORDS)


def _build_columnar_plan(
    sampler: "KeyRepairSampler", compiled: CompiledQuery
) -> Optional[_ColumnarDrawPlan]:
    """Compile a :class:`_ColumnarDrawPlan`, or ``None`` when gated.

    Every gate is a precondition of the clean/survivor decomposition:
    a single-atom CQ with distinct variable terms (so answers are plain
    row projections), a SQL backend (rows compare in the dialect's
    decoded space on both paths), the compiled query built against this
    sampler's live rewriting, each queried-relation fact in at most one
    conflict group (unions would otherwise double-delete), and every
    group fact resolvable to exactly one base row.
    """
    try:
        source = compiled.source
        if not isinstance(source, ConjunctiveQuery) or len(source.body) != 1:
            return None
        atom = source.body[0]
        if not source.head or not atom.terms:
            return None
        if any(not is_var(term) for term in atom.terms):
            return None
        if len(set(atom.terms)) != len(atom.terms):
            return None
        if any(not is_var(term) for term in source.head):
            return None
        position_of = {term: pos for pos, term in enumerate(atom.terms)}
        if any(term not in position_of for term in source.head):
            return None
        if not sampler.backend.supports_sql:
            return None
        live_map = sampler.rewriter.relation_map()
        if compiled.relation_map is None or dict(compiled.relation_map) != dict(
            live_map
        ):
            return None
        rows = {tuple(row) for row in sampler.backend.select_all(atom.relation)}
        groups = [
            group
            for group in sampler.groups
            if group.spec.relation == atom.relation
        ]
        mapped: Dict[Fact, Tuple] = {}
        for group in groups:
            for fact in group.facts:
                if fact in mapped:
                    return None
                row = tuple(fact.values)
                if row not in rows:
                    row = tuple(str(value) for value in fact.values)
                    if row not in rows:
                        return None
                mapped[fact] = row
        if len(set(mapped.values())) != len(mapped):
            return None
        projection = tuple(position_of[term] for term in source.head)
        clean_answers = frozenset(
            tuple(row[p] for p in projection)
            for row in rows - set(mapped.values())
        )

        def project(fact: Fact) -> Tuple:
            row = mapped[fact]
            return tuple(row[p] for p in projection)

        vector_entries: List[Tuple[str, bytes, Any, List[frozenset]]] = []
        replay_entries: List[Tuple[str, Any, List[frozenset]]] = []
        for group in groups:
            prefix_text = f"{sampler.campaign.seed}:{_key_str(group.facts)}#"
            prefix = prefix_text.encode()
            if len(prefix) > 2400:
                # Key words would spill past the 624-word MT state; the
                # whole-batch seeder cannot vectorize such groups.
                return None
            if sampler.policy is SamplerPolicy.KEEP_ONE_UNIFORM:
                table = _keep_one_table(len(group.facts))
                projections = [frozenset()] + [
                    frozenset((project(fact),)) for fact in group.facts
                ]
            else:
                table = columnar.compile_walk_table(
                    sampler._group_chain(group)
                )
                if table is None:
                    return None
                projections = [
                    frozenset()
                    if state is None
                    else frozenset(project(fact) for fact in state.db.facts)
                    for state in table.payload
                ]
            if table.vectorizable:
                vector_entries.append((prefix_text, prefix, table, projections))
            else:
                replay_entries.append((prefix_text, table, projections))
    except Exception:
        columnar.record_stat("plan_build_errors")
        return None
    columnar.record_stat("plans_compiled")
    return _ColumnarDrawPlan(
        clean_answers, vector_entries, replay_entries, _PLAN_WORD_BUDGET
    )
