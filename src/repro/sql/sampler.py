"""The end-to-end SQL sampling scheme of Section 5.

Violations of a TGD-free constraint set (keys, FDs, denial constraints)
are detected by SQL self-joins (:mod:`repro.sql.violations`) and grouped
into *conflict components*: facts linked by a violation, closed under
every constraint.  The global repairing Markov chain factorises into
one small chain per component — the "localization of repairs"
optimization the paper's Section 6 points to — so each sampling run
draws one repair by walking every component's chain independently,
materialises the removed tuples in the ``R__del`` tables, and evaluates
the query rewritten over ``R EXCEPT R__del``; tuple frequencies over
``n`` runs estimate ``CP`` with the additive Hoeffding guarantee (or the
empirical-Bernstein adaptive variant — see
:class:`repro.campaign.SamplingCampaign`).

:class:`ConstraintRepairSampler` is that loop.  :class:`KeyRepairSampler`
constructs it from key specifications, with three policies:

- ``KEEP_ONE_UNIFORM`` — keep exactly one tuple per key group, uniformly
  (the classical ABC-style repair sampling; "randomly pick at most one
  tuple to be left there").  A component is a key group only when each
  relation has at most one key, so this policy requires that;
- ``OPERATIONAL_UNIFORM`` — walk the component's repairing chain under
  the uniform generator (pair deletions included, so *zero* survivors
  are possible, as the operational semantics allows);
- ``TRUST`` — walk the component's chain under Example 5's trust-based
  generator.

For a single-atom conjunctive query (``parse_query`` returns one for
any conjunctive text), a draw range runs through a compiled columnar
draw plan (:func:`_build_columnar_plan`) instead of per-draw SQL; its
outcomes are byte-identical to the reference loop.  A first-order query
ranges over each sampled repair's own live domain
(:mod:`repro.sql.compiler`).

The samplers run the same SQL on any :class:`repro.sql.backend.SQLBackend`
(SQLite or PostgreSQL).  All per-component randomness flows through the
campaign's draw-indexed RNG substreams
(:meth:`repro.campaign.SamplingCampaign.rng_at`): draw
``i`` of component ``g`` depends only on ``(campaign seed, g, i)``, so
draws are independent of batch boundaries, a checkpointed campaign
resumes with bit-identical sequences, and any draw range can be
computed by any worker — the contract behind :mod:`repro.distributed`.
Pass a ``coordinator`` (:meth:`repro.distributed.Coordinator.from_options`
builds one over a local pool and/or remote ``ocqa worker`` addresses) to
shard a campaign's draws; the merged estimates are byte-identical to a
single-process run.  The caller that builds a coordinator closes it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign import (
    SamplingCampaign,
    UpdateReport,
    _key_str,
    campaign_fingerprint,
    generator_signature,
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
from repro.sql.violations import SQLDeltaViolationIndex

AnyQuery = Union[Query, ConjunctiveQuery]

#: Builds the per-component chain generator from a constraint set.
GeneratorFactory = Callable[[ConstraintSet], ChainGenerator]

#: A component's walk table plus the facts surviving at each of its
#: states (only absorbing states' entries are read).
WalkTableFn = Callable[
    [FrozenSet[Fact]], Optional[Tuple[columnar.WalkTable, List[Iterable[Fact]]]]
]

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
    """How :class:`KeyRepairSampler` chooses survivors in a key group."""

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
    """Campaign plumbing of the SQL sampler.

    :class:`ConstraintRepairSampler` sets ``backend``, ``schema``,
    ``rng`` and ``rewriter`` before calling :meth:`_init_campaign`, and
    implements ``_fingerprint_parts``, ``deletions_for_range``,
    ``_columnar_outcomes`` and ``_shard_context_payload``; the lazy
    data digest, campaign attach/bind, query compilation under the
    rewriting, and the estimation loop live here.
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
        coordinator,
    ) -> None:
        #: Lazily computed (full-table scan) — only needed when the
        #: fingerprint is actually compared, i.e. when a checkpoint or an
        #: externally shared campaign is in play.
        self._data_digest: Optional[str] = None
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
        #: The caller's coordinator sharding this campaign (``None``:
        #: serial).  Draws are substream-deterministic, so every fleet —
        #: including none — produces identical estimates; the caller
        #: that built it closes it.
        self.coordinator = coordinator
        self._shard_contexts: Dict[str, Any] = {}
        #: Per-compiled-query columnar draw plans (``False`` marks a
        #: query the columnar gate rejected, so it is not re-analyzed
        #: every batch).  Invalidated with the shard contexts on every
        #: base-table delta.
        self._columnar_plans: Dict[Any, Any] = {}

    def fingerprint(self) -> str:
        """The campaign identity of this sampler's semantic inputs."""
        if self._data_digest is None:
            self._data_digest = instance_digest(self.backend, self.schema)
        return campaign_fingerprint(self._data_digest, *self._fingerprint_parts())

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
        return compile_fo_query(query, relation_map, schema=self.schema)

    def compile_original(self, query: AnyQuery) -> CompiledQuery:
        """Compile *query* against the raw tables (for E8 comparisons)."""
        if isinstance(query, ConjunctiveQuery):
            return compile_cq(query)
        return compile_fo_query(query, schema=self.schema)

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

    def _shard_context(self, query: AnyQuery):
        """The (cached) distributed context describing this campaign."""
        from repro.distributed import ShardContext

        cache_key = campaign_fingerprint(query, self.campaign.seed)
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

        With a *coordinator* attached, each batch's draw range is
        sharded across its workers and the merged outcome stream — hence
        every tally, adaptive stop, and checkpoint — is byte-identical
        to the serial run, regardless of worker count or mid-shard
        deaths.

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


class ConstraintRepairSampler(BaseCampaignSampler):
    """Section 5's sampling loop for TGD-free (denial-style) constraints.

    *generator_factory* receives the constraint set and returns the
    chain generator used on each conflict component (default: the
    uniform generator).  The factory is called once; the same generator
    drives every component's chain.

    Violation detection runs through an incremental
    :class:`repro.sql.violations.SQLDeltaViolationIndex`: the full
    self-joins execute once, and subsequent base-table deltas
    (:meth:`apply_update`) refresh the conflict components from pinned
    delta joins instead of re-running them.  Each component also keeps
    one repairing chain per campaign, so every draw's walk shares the
    engine's delta-maintained state.
    """

    def __init__(
        self,
        backend: SQLBackend,
        schema: Schema,
        constraints: ConstraintSet,
        generator_factory: GeneratorFactory = UniformGenerator,
        rng: Optional[random.Random] = None,
        campaign: Optional[SamplingCampaign] = None,
        checkpoint_path: Optional[str] = None,
        adaptive: bool = False,
        coordinator=None,
    ) -> None:
        if not constraints.deletion_only():
            raise ValueError(
                "ConstraintRepairSampler requires TGD-free constraints "
                "(violations must be detectable by flat SQL joins)"
            )
        self.backend = backend
        self.schema = schema
        self.constraints = constraints
        self.generator = generator_factory(constraints)
        self.rng = rng or random.Random()
        self.rewriter = DeletionRewriter(backend, schema)
        self._init_campaign(campaign, checkpoint_path, adaptive, coordinator)
        self.violation_index = SQLDeltaViolationIndex(backend, constraints)
        self.components: Tuple[FrozenSet[Fact], ...] = (
            self.violation_index.components()
        )

    def _fingerprint_parts(self) -> Tuple:
        return (
            type(self).__name__,
            self.schema.fingerprint(),
            tuple(sorted(repr(c) for c in self.constraints)),
            generator_signature(self.generator),
        )

    # ------------------------------------------------------------------
    # Incremental base-table maintenance
    # ------------------------------------------------------------------
    def apply_update(
        self, added: Iterable[Fact] = (), removed: Iterable[Fact] = ()
    ) -> UpdateReport:
        """Apply a base-table delta and re-derive the conflict components.

        Deletions drop dead violation edges in memory; insertions run
        pinned delta joins only for the constraints whose bodies mention
        a touched relation.  Components are then recomputed from the
        maintained edge sets (pure union-find — no SQL), and only
        components whose fact sets changed lose their cached chains.
        Returns an :class:`repro.campaign.UpdateReport` naming the
        changed components for result-cache invalidation; whoever keeps
        the instance's digest fills in its digests.
        """
        added = list(added)
        removed = list(removed)
        old_components = self.components
        if removed:
            self.backend.delete_facts(removed)
            self.violation_index.apply_delete(removed)
        if added:
            self.backend.insert_facts(added)
            self.violation_index.apply_insert(added)
        self.components = self.violation_index.components()
        self.campaign.prune_chains(self.components)
        self._refresh_campaign_identity()
        return UpdateReport.from_groups(
            added, removed, old_components, self.components
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _component_chain(self, component: FrozenSet[Fact]) -> RepairingChain:
        """The component's warm chain: every draw of the campaign walks
        it, so the engine's incremental machinery (violation deltas,
        justified-operation maps, transition memos) amortizes across all
        ``n`` runs."""
        return self.campaign.chain(
            component, lambda: self.generator.chain(Database(component))
        )

    def deletions_for_range(self, start: int, count: int) -> List[List[Fact]]:
        """Deleted facts for draws ``[start, start + count)``.

        Batched component by component: all of a component's walks run
        over its one warm chain before moving on, so hot prefix states
        are enumerated once per campaign rather than once per draw.
        Draw ``i`` of component ``g`` comes from the substream
        :meth:`repro.campaign.SamplingCampaign.rng_at`\\ ``(g, i)`` — a
        pure function of the campaign seed, so any contiguous range can
        be computed by any process (the :mod:`repro.distributed`
        sharding contract) and the sequences are independent of batch
        boundaries (the property behind checkpoint/resume equality and
        local == distributed byte-identity).
        """
        per_run: List[List[Fact]] = [[] for _ in range(count)]
        for component in self.components:
            chain = self._component_chain(component)
            for offset, deletions in enumerate(per_run):
                walk = sample_walk(
                    chain, self.campaign.rng_at(component, start + offset)
                )
                deletions.extend(sorted(chain.database - walk.result, key=str))
        return per_run

    def _replica(self) -> Callable[..., "ConstraintRepairSampler"]:
        """This sampler's constructor with its draw-defining arguments
        bound; a worker calls it with its own backend, schema and
        campaign."""
        return functools.partial(
            ConstraintRepairSampler,
            constraints=self.constraints,
            generator_factory=functools.partial(_shipped, self.generator),
        )

    def _shard_context_payload(self, query: AnyQuery) -> Tuple[str, Dict[str, Any]]:
        return (
            "constraint_sampler",
            {
                "facts": tuple(self.backend.fetch_database(self.schema)),
                "schema": self.schema,
                "sampler": self._replica(),
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

        ``tests/property/test_columnar_props.py`` pins its outcomes to
        the object path's.
        """
        return self._plan_outcomes(compiled, start, count, self._chain_table)

    def _chain_table(
        self, component: FrozenSet[Fact]
    ) -> Optional[Tuple[columnar.WalkTable, List[Iterable[Fact]]]]:
        """The component's chain as a walk table (``None`` past the
        state limit) and the facts surviving at each state."""
        table = columnar.compile_walk_table(self._component_chain(component))
        if table is None:
            return None
        return table, [
            () if state is None else state.db.facts for state in table.payload
        ]

    def _plan_outcomes(
        self,
        compiled: CompiledQuery,
        start: int,
        count: int,
        walk_table: WalkTableFn,
    ) -> Optional[List[Any]]:
        """Run the plan built over *walk_table*'s per-component tables.

        The plan is built once per (compiled query, instance) and gated
        conservatively — any precondition it cannot prove falls back to
        the object path (see :func:`_build_columnar_plan`).
        """
        if count <= 0 or not columnar.available():
            return None
        key = (compiled.sql, tuple(compiled.parameters))
        plan = self._columnar_plans.get(key)
        if plan is None:
            plan = _build_columnar_plan(self, compiled, walk_table) or False
            self._columnar_plans[key] = plan
        if plan is False:
            return None
        outcomes = plan.outcomes(start, count)
        # The reference loop leaves the rewriter cleared; match it so
        # interleaved object-path callers see the same backend state.
        self.rewriter.clear()
        return outcomes


def _shipped(generator: ChainGenerator, constraints: ConstraintSet) -> ChainGenerator:
    """A picklable generator factory returning an already-built generator."""
    del constraints
    return generator


class KeyRepairSampler(ConstraintRepairSampler):
    """:class:`ConstraintRepairSampler` over key constraints.

    Each :class:`KeySpec` becomes its EGDs.  ``OPERATIONAL_UNIFORM`` and
    ``TRUST`` choose the chain generator (the trust mapping is
    validated here, at construction).  ``KEEP_ONE_UNIFORM`` is the one
    policy that is not a chain walk, so this class draws it itself.
    """

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
        coordinator=None,
    ) -> None:
        self.keys = tuple(keys)
        self.policy = SamplerPolicy(policy)
        self.trust = dict(trust) if trust else {}
        if self.policy is SamplerPolicy.KEEP_ONE_UNIFORM:
            relations = [spec.relation for spec in self.keys]
            if len(set(relations)) != len(relations):
                raise ValueError(
                    "KEEP_ONE_UNIFORM keeps one fact per key group, so it "
                    "takes at most one key per relation; use "
                    "OPERATIONAL_UNIFORM or TRUST for overlapping keys"
                )
        super().__init__(
            backend,
            schema,
            ConstraintSet(c for spec in self.keys for c in spec.constraints()),
            generator_factory=(
                functools.partial(TrustGenerator, trust=self.trust)
                if self.policy is SamplerPolicy.TRUST
                else UniformGenerator
            ),
            rng=rng,
            campaign=campaign,
            checkpoint_path=checkpoint_path,
            adaptive=adaptive,
            coordinator=coordinator,
        )

    def _fingerprint_parts(self) -> Tuple:
        # KEEP_ONE_UNIFORM shares OPERATIONAL_UNIFORM's generator.
        return super()._fingerprint_parts() + (self.policy.value,)

    def _replica(self) -> Callable[..., "KeyRepairSampler"]:
        return functools.partial(
            KeyRepairSampler, keys=self.keys, policy=self.policy, trust=self.trust
        )

    def deletions_for_range(self, start: int, count: int) -> List[List[Fact]]:
        """``KEEP_ONE_UNIFORM`` keeps one uniformly chosen fact of each
        component (one key group); the chain policies walk the parent's
        warm chains.  Draws come from the same ``(seed, component, i)``
        substreams either way."""
        if self.policy is not SamplerPolicy.KEEP_ONE_UNIFORM:
            return super().deletions_for_range(start, count)
        per_run: List[List[Fact]] = [[] for _ in range(count)]
        for component in self.components:
            facts = sorted(component, key=str)
            for offset, deletions in enumerate(per_run):
                rng = self.campaign.rng_at(component, start + offset)
                survivor = rng.choice(facts)
                deletions.extend(fact for fact in facts if fact != survivor)
        return per_run

    def _columnar_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> Optional[List[Any]]:
        """The plan over ``KEEP_ONE_UNIFORM``'s one-step tables, or the
        parent's chain-table plan for the chain policies."""
        if self.policy is not SamplerPolicy.KEEP_ONE_UNIFORM:
            return super()._columnar_outcomes(compiled, start, count)
        return self._plan_outcomes(compiled, start, count, _keep_one_table)


class _ColumnarDrawPlan:
    """A compiled, vectorized form of ``outcomes_for_range``.

    Built by :func:`_build_columnar_plan` for single-atom conjunctive
    queries.  The observation: with the rewriting's ``R EXCEPT R__del``
    set semantics, a draw's answer set is exactly ``clean_answers ∪
    (projections of each conflict component's surviving R facts)`` —
    rows outside every component can never be deleted, and each
    component's survivors depend only on that component's own draw
    substream.  So one batch needs: the MT19937 word matrix for every
    (component, draw) seed string
    (:func:`repro.core.mt19937.batch_words`), one vectorized pass
    through the concatenated walk tables
    (:class:`repro.core.columnar.WalkArena`), and a per-draw union of
    precomputed projection sets.  Instances that exhaust their word
    budget — or components whose chains need weighted draws — are
    replayed per instance with a genuinely seeded ``random.Random`` over
    the same table, so every outcome is byte-identical to the reference
    loop by construction.
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
            columnar.EVENTS.inc(vectorized, stat="draws_vectorized")
        if replayed:
            columnar.EVENTS.inc(replayed, stat="draws_replayed")
        clean = self.clean_answers
        return [
            clean.union(*extras) if extras else clean for extras in per_offset
        ]


def _keep_one_table(
    component: FrozenSet[Fact],
) -> Tuple[columnar.WalkTable, List[Iterable[Fact]]]:
    """The 1-step walk table of ``rng.choice(facts)``, and its survivors.

    ``Random.choice`` and ``randrange`` both route through
    ``_randbelow``, so a uniform table over the component's facts (in
    ``str`` order) consumes exactly the words the ``KEEP_ONE_UNIFORM``
    object path would; state ``i + 1`` keeps fact ``i``.
    """
    facts = sorted(component, key=str)
    table = columnar.WalkTable()
    table.absorbing.append(False)
    table.uniform.append(True)
    table.counts.append(len(facts))
    table.denominators.append(0)
    table.cumulative.append(())
    table.successors.append(tuple(range(1, len(facts) + 1)))
    table.payload.append(None)
    for _ in facts:
        table.absorbing.append(True)
        table.uniform.append(True)
        table.counts.append(0)
        table.denominators.append(0)
        table.cumulative.append(())
        table.successors.append(())
        table.payload.append(None)
    return table, [()] + [(fact,) for fact in facts]


#: Word columns pre-seeded per (component, draw); deep rejection-sampling
#: tails beyond this fall back to per-instance replay, bit-exactly.
_PLAN_WORD_BUDGET = min(24, mt19937.MAX_PARTIAL_WORDS)


def _build_columnar_plan(
    sampler: ConstraintRepairSampler,
    compiled: CompiledQuery,
    walk_table: WalkTableFn,
) -> Optional[_ColumnarDrawPlan]:
    """Compile a :class:`_ColumnarDrawPlan`, or ``None`` when gated.

    *walk_table* gives each conflict component's table and the facts
    surviving at each state.  Components without a fact of the queried
    relation never change the answer, so the plan skips them.  Every
    gate is a precondition of the clean/survivor decomposition: a
    single-atom CQ with distinct variable terms (so answers are plain
    row projections), the compiled query built against this sampler's
    live rewriting, and every component fact of the queried relation
    resolvable to exactly one base row.
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
        if compiled.relation_map != sampler.rewriter.relation_map():
            return None
        rows = {tuple(row) for row in sampler.backend.select_all(atom.relation)}
        components = []
        mapped: Dict[Fact, Tuple] = {}
        for component in sampler.components:
            queried = [fact for fact in component if fact.relation == atom.relation]
            if not queried:
                continue
            components.append(component)
            for fact in queried:
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

        def project(survivors: Iterable[Fact]) -> frozenset:
            return frozenset(
                tuple(mapped[fact][p] for p in projection)
                for fact in survivors
                if fact in mapped
            )

        vector_entries: List[Tuple[str, bytes, Any, List[frozenset]]] = []
        replay_entries: List[Tuple[str, Any, List[frozenset]]] = []
        for component in components:
            prefix_text = f"{sampler.campaign.seed}:{_key_str(component)}#"
            prefix = prefix_text.encode()
            if len(prefix) > 2400:
                # Key words would spill past the 624-word MT state; the
                # whole-batch seeder cannot vectorize such components.
                return None
            built = walk_table(component)
            if built is None:
                return None
            table, survivors = built
            projections = [project(facts) for facts in survivors]
            if table.vectorizable:
                vector_entries.append((prefix_text, prefix, table, projections))
            else:
                replay_entries.append((prefix_text, table, projections))
    except Exception:
        columnar.EVENTS.inc(stat="plan_build_errors")
        return None
    columnar.EVENTS.inc(stat="plans_compiled")
    return _ColumnarDrawPlan(
        clean_answers, vector_entries, replay_entries, _PLAN_WORD_BUDGET
    )
