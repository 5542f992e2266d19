"""The end-to-end SQL sampling scheme of Section 5.

Violations of a TGD-free constraint set (keys, FDs, denial constraints)
are detected by SQL self-joins (:mod:`repro.sql.violations`) and grouped
into *conflict components*: facts linked by a violation, closed under
every constraint.  The global repairing Markov chain factorises into
one small chain per component — the "localization of repairs"
optimization the paper's Section 6 points to — so each sampling run
draws one repair by walking every component's chain independently,
materialises the removed tuples in the ``R__del`` tables, and evaluates
the query rewritten over ``R EXCEPT R__del`` (or, for a conjunctive
query, reads the same answers off its witnesses; see below); tuple
frequencies over
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

Every draw comes from its component's compiled walk table
(:func:`repro.core.columnar.compile_walk_table`): on a table whose
states are all uniform and under 256-way, each choice is the top byte of
a word of the draw's first 64-byte block of its counter-based stream
(:func:`repro.campaign.block_words`), read off the keyed digest with no
unpack; any other draw replays the table with its
:class:`~repro.campaign.DrawStream`.  The absorbing state each walk
reaches indexes the component's precomputed survivors and deletions.
A sampler compiles
one table per chain *shape* (:meth:`ConstraintRepairSampler._shape_key`:
the fact count, violation edges and ``str(op)``-ordered operation
universe over the component's facts in ``str`` order, plus each fact's
trust under TRUST): components with equal keys share one table and one
list of survivor and deletion positions, relabelled into their own
facts, for the sampler's life.  A component with a non-local
generator, a term that is not a ``str`` or ``int``, or two facts or
operations that print alike compiles its own chain.

A conjunctive query (``parse_query`` returns one for any conjunctive
text) then needs no per-draw SQL.  One flat join over the base tables
lists its *witnesses* once per instance: each is an answer plus the
facts the body maps onto, the answer's lineage.  An answer with a
witness of clean facts alone is certain, and otherwise holds on a draw
when some witness keeps all its facts; each conflict component is an
independent block of that lineage, as in probabilistic databases
(Dalvi and Suciu, JACM 2012).  Witnesses inside one component fold
into per-state answer sets (a single-atom query's projected
survivors), and those spanning components are checked against each
draw's states (:func:`_build_columnar_plan`, whose gates count their
reasons).  A first-order query, or a conjunctive one a gate refuses,
marks each draw's deletions and evaluates in SQL; a first-order query
ranges over each sampled repair's own live domain
(:mod:`repro.sql.compiler`).  With ``REPRO_COLUMNAR=0`` the draws walk
the chains fact by fact and every query evaluates in SQL, the
reference every table route is byte-identical to.

The samplers run the same SQL on any :class:`repro.sql.backend.SQLBackend`
(SQLite or PostgreSQL).  All per-component randomness flows through the
campaign's draw-indexed RNG substreams
(:meth:`repro.campaign.SamplingCampaign.rng_at`): draw
``i`` of component ``g`` depends only on ``(campaign seed, g, i)``,
with ``g`` keyed by its facts' ``repr`` (so components that print
alike draw different streams), so
draws are independent of batch boundaries, a checkpointed campaign
resumes with bit-identical sequences, and any draw range can be
computed by any worker — the contract behind :mod:`repro.distributed`.
Pass a ``coordinator`` (:meth:`repro.distributed.Coordinator.from_options`
builds one over a local pool and/or remote ``ocqa worker`` addresses) to
shard a campaign's draws; the merged estimates are byte-identical to a
single-process run.  The caller that builds a coordinator closes it.
"""

from __future__ import annotations

import copy
import functools
import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.campaign import (
    _COUNTER,
    DrawStream,
    SamplingCampaign,
    Tally,
    UpdateReport,
    _count_elements,
    campaign_fingerprint,
    generator_identity,
    stream_hasher,
    tally_outcomes,
)
from repro.constraints.base import ConstraintSet
from repro.constraints.shortcuts import key as key_constraints
from repro.core import columnar
from repro.core.chain import ChainGenerator, RepairingChain
from repro.core.generators import TrustGenerator, UniformGenerator
from repro.core.justified import MAX_SUBSET_FACTS
from repro.core.localization import LOCAL_GENERATOR_TYPES
from repro.core.sampling import sample_walk
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.db.terms import Term
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query
from repro.sql.backend import SQLBackend
from repro.sql.compiler import (
    CompiledQuery,
    compile_cq,
    compile_fo_query,
    compile_witnesses,
)
from repro.sql.rewriting import DeletionRewriter
from repro.sql.violations import SQLDeltaViolationIndex

AnyQuery = Union[Query, ConjunctiveQuery]

#: Builds the per-component chain generator from a constraint set.
GeneratorFactory = Callable[[ConstraintSet], ChainGenerator]

#: A component's walk table plus the facts surviving and the facts
#: deleted at each of its states (only absorbing states' entries are
#: read).
ComponentTable = Tuple[columnar.WalkTable, List[Iterable[Fact]], List[List[Fact]]]

#: A component's :data:`ComponentTable`, or ``None`` when its chain
#: overflows the table's state limit.
WalkTableFn = Callable[[FrozenSet[Fact]], Optional[ComponentTable]]

#: A chain shape's walk table with the positions of the facts surviving
#: and deleted at each state, into a component's facts in ``str`` order.
ChainShape = Tuple[columnar.WalkTable, List[Tuple[int, ...]], List[Tuple[int, ...]]]

#: ``columnar``: walk-table draws answered without SQL (conjunctive
#: queries, from their witnesses); ``table``: walk-table draws evaluated
#: by per-draw SQL (first-order queries and gated plans); ``object``:
#: the reference walk (``REPRO_COLUMNAR=0``).
_DRAW_RANGES = obs_metrics.REGISTRY.counter(
    "ocqa_draw_ranges_total",
    "Draw ranges executed, by evaluation path.",
    ("path",),
)


#: The witness rows a draw plan fetches at most, unless the queried
#: relations hold more rows than that: a single-atom query has at most
#: one witness per row, so every one plans.  Past the budget (a join
#: whose rows multiply) the query keeps per-draw SQL; its witness query
#: stops one row past the budget, so no build holds more rows than this
#: or than it already read of the queried tables (a join of two
#: three-column atoms peaks near 13 MiB at the budget).
MAX_WITNESSES = 1 << 14


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
        #: Per-compiled-query columnar draw plans bound to this
        #: campaign's draw sources (``False`` marks a query the columnar
        #: gate rejected).  Invalidated with the shard contexts on every
        #: base-table delta.
        self._columnar_plans: Dict[Any, Any] = {}
        #: Each component's draw source, shared by every compiled query
        #: of this campaign, and the sources of all components that
        #: :meth:`deletions_for_range` reads; invalidated with the plans.
        self._component_draws: Dict[FrozenSet[Fact], _ComponentDraws] = {}
        self._deletion_entries: Optional[List[_ComponentDraws]] = None

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
        self._component_draws.clear()
        self._deletion_entries = None
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
    ) -> Tally:
        """The :class:`~repro.campaign.Tally` of draws ``[start, start + count)``.

        The unit of work a shard executes: sample each draw's deletions
        from the draw-indexed substreams, mark them in the rewriter,
        evaluate the compiled query, and count each answer once per draw
        it holds on.  Workers in :mod:`repro.distributed` run exactly
        this method on a rebuilt sampler, which is why a distributed
        campaign's tallies equal a local one's, key representations
        included.

        When the columnar core applies (:mod:`repro.core.columnar`,
        ``REPRO_COLUMNAR`` unset/1), the deletions come from the
        components' walk tables, and a conjunctive query's tally comes
        straight from its witness-lineage draw plan with no SQL at all;
        both equal the tally of the reference walk ``REPRO_COLUMNAR=0``
        runs.
        """
        fast = self._columnar_outcomes(compiled, start, count)
        if fast is not None:
            _DRAW_RANGES.inc(path="columnar")
            return fast
        _DRAW_RANGES.inc(path="table" if columnar.enabled() else "object")
        return tally_outcomes(self._sql_outcomes(compiled, start, count))

    def _sql_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> Iterator[FrozenSet[Tuple]]:
        """Per-draw SQL: mark each draw's deletions, run the query.

        The deletion tables are empty between draws, whatever a draw
        raises: a backend outlives the campaign that marked it.
        """
        for deletions in self.deletions_for_range(start, count):
            try:
                self.rewriter.mark_deleted(deletions)
                answers = compiled.run(self.backend)
            finally:
                self.rewriter.clear()
            yield answers

    def shard_context(self, query: AnyQuery):
        """The (cached) distributed context describing this campaign.

        A sharded campaign reads nothing else of its instance: build
        the context first, and whatever guards the instance can be
        released while the workers draw.
        """
        from repro.distributed import ShardContext

        cache_key = campaign_fingerprint(query, self.campaign.seed)
        context = self._shard_contexts.get(cache_key)
        if context is None:
            kind, payload = self._shard_context_payload(query)
            context = ShardContext.create(kind, payload)
            self._shard_contexts[cache_key] = context
        return context


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
        sharded across its workers and their tallies are summed in draw
        order — so every tally, adaptive stop, and checkpoint is
        byte-identical to the serial run, regardless of worker count or
        mid-shard deaths.

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
            context = self.shard_context(query)

            def draw(batch: int):
                start = self.campaign.claim_draws(batch)
                return self.coordinator.run_range(
                    context, start, batch, deadline=deadline
                )

        else:

            def draw(batch: int):
                if deadline is not None:
                    deadline.check("serial draw batch")
                start = self.campaign.claim_draws(batch)
                return self.outcomes_for_range(compiled, start, batch)

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
        deletions = self.sample_deletions()
        try:
            self.rewriter.mark_deleted(deletions)
            return self.rewriter.live_database()
        finally:
            self.rewriter.clear()


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
    delta joins instead of re-running them.  Components of one chain
    shape share one walk table for the sampler's life
    (:meth:`_chain_table`); a component that needs its chain keeps one
    per campaign, so every draw's walk shares the engine's
    delta-maintained state.

    The fields split into *instance state*, which only
    :meth:`apply_update` changes — the backend, the rewriting, the
    violation index and its components, the walk tables by shape and by
    component, and each compiled query's witness plan — and *campaign
    state*: the RNG, the :class:`~repro.campaign.SamplingCampaign`, the
    coordinator, shard contexts, and the draw sources and plans bound
    to the campaign's seed.  :meth:`new_campaign` returns a sampler
    sharing this one's instance state with a campaign of its own, so a
    long-lived instance pays for its load, self-joins, tables and
    witness joins once, and each campaign only for its seeded draws.
    Samplers sharing instance state must not run at the same time,
    except a sharded campaign whose :meth:`shard_context` is built: it
    reads nothing else of the instance.
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
        self.rewriter = DeletionRewriter(backend, schema)
        self.violation_index = SQLDeltaViolationIndex(backend, constraints)
        #: Walk tables by chain shape (:meth:`_shape_key`); ``None``
        #: marks a shape past the table's state limit.  A key holds no
        #: fact, so entries outlive :meth:`apply_update`; there are at
        #: most as many as live components.
        self._shapes: Dict[Tuple, Optional[ChainShape]] = {}
        #: Each drawn component's :data:`ComponentTable` (``None``: its
        #: chain is walked), from the one walk-table function this
        #: sampler's policy draws with; dropped with the component.
        self._tables: Dict[FrozenSet[Fact], Optional[ComponentTable]] = {}
        #: Each compiled query's witness plan (``False``: gated), least
        #: recently used first; cleared by every :meth:`apply_update`.
        self._witness_plans: Dict[Tuple, Union["_WitnessPlan", bool]] = {}
        #: The most witness plans kept (``None``: no bound), for an
        #: owner that bounds its caches.
        self.plan_limit: Optional[int] = None
        #: Whether components may share shapes at all: the generator's
        #: weights are component-local (its exact type; a subclass may
        #: reweigh), and its engine checks the violation index's
        #: constraints, whose constants are ``str`` or ``int``.  Over
        #: such terms SQL equality is Python's on every backend, so the
        #: index's edges are the ones the chain's engine finds.
        self._keyed_shapes = (
            type(self.generator) in LOCAL_GENERATOR_TYPES
            and self.generator.constraints == constraints
            and all(type(value) in (str, int) for value in constraints.constants)
        )
        self.rng = rng or random.Random()
        self._init_campaign(campaign, checkpoint_path, adaptive, coordinator)

    @property
    def components(self) -> Tuple[FrozenSet[Fact], ...]:
        """The conflict components of the current instance."""
        return self.violation_index.components()

    def new_campaign(
        self,
        rng: Optional[random.Random] = None,
        adaptive: bool = False,
        coordinator=None,
    ) -> "ConstraintRepairSampler":
        """A sampler over this one's instance state with a fresh campaign
        (see the class docstring): byte-identical to a sampler built
        from scratch over the same instance with the same arguments."""
        sampler = copy.copy(self)
        sampler.rng = rng or random.Random()
        sampler._init_campaign(None, None, adaptive, coordinator)
        return sampler

    def _fingerprint_parts(self) -> Tuple:
        return (
            type(self).__name__,
            self.schema.fingerprint(),
            tuple(sorted(repr(c) for c in self.constraints)),
            generator_identity(self.generator),
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
        a touched relation.  The index then re-derives only the
        components the delta touched (pure union-find — no SQL), and
        only those lose their cached tables and chains; every witness
        plan is dropped.  Apart from the SQL statements, the cost grows
        with the delta and the components it touched, not with the
        instance.  Returns an :class:`repro.campaign.UpdateReport`
        naming the changed components for result-cache invalidation;
        whoever keeps the instance's digest fills in its digests.
        """
        added = list(added)
        removed = list(removed)
        if removed:
            self.backend.delete_facts(removed)
            self.violation_index.apply_delete(removed)
        if added:
            self.backend.insert_facts(added)
            self.violation_index.apply_insert(added)
        gone, born = self.violation_index.regroup()
        for component in gone:
            self._tables.pop(component, None)
        self._witness_plans.clear()
        _trim(self._shapes, len(self.components))
        self.campaign.prune_chains(self.components)
        self._refresh_campaign_identity()
        return UpdateReport.from_groups(added, removed, gone, born)

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

        With the columnar core on, each walk replays the component's
        walk table instead (:meth:`_table_deletions`); the loop below is
        the reference both routes agree with byte for byte.
        """
        if columnar.enabled():
            return self._table_deletions(start, count, self._chain_table)
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
    # Walk-table draws
    # ------------------------------------------------------------------
    def _columnar_outcomes(
        self, compiled: CompiledQuery, start: int, count: int
    ) -> Optional[Tally]:
        """The range's tally from a compiled columnar draw plan, or
        ``None`` when no plan serves the query.

        ``tests/property/test_columnar_props.py`` pins its tallies,
        draw by draw, to the ``REPRO_COLUMNAR=0`` reference.
        """
        return self._plan_outcomes(compiled, start, count, self._chain_table)

    def _chain_table(self, component: FrozenSet[Fact]) -> Optional[ComponentTable]:
        """The component's chain as a walk table (``None`` past the
        state limit) with the facts surviving and deleted at each
        state, deletions ordered as the reference walk orders them.

        Components of one chain shape (:meth:`_shape_key`) share the
        first one's table and per-state fact positions, relabelled into
        their own facts, so no other builds a chain; a shape past the
        state limit is remembered, and its components are walked.
        """
        facts = sorted(component, key=str)
        key = self._shape_key(facts)
        if key is None:
            return self._compiled_table(component)
        if key not in self._shapes:
            built = self._compiled_table(component)
            self._shapes[key] = None if built is None else _positions(built, facts)
            _trim(self._shapes, len(self.components))
            return built
        shape = self._shapes[key]
        if shape is None:
            return None
        columnar.EVENTS.inc(stat="walk_tables_shared")
        table, survivors, deletions = shape
        return (
            table,
            [tuple(facts[p] for p in kept) for kept in survivors],
            [[facts[p] for p in gone] for gone in deletions],
        )

    def _shape_key(self, facts: Sequence[Fact]) -> Optional[Tuple]:
        """What the chain over *facts* (a component in ``str`` order)
        depends on, written over their positions, or ``None`` when the
        component must compile on its own.

        The key holds the fact count, the violation edges, the
        operation universe (every non-empty subset of each edge) in
        ``str(op)`` order — the engine offers each state's extensions
        in that order — and, under a :class:`TrustGenerator`, each
        position's trust.  The edges are the violation index's, which
        are the chain engine's when :attr:`_keyed_shapes` holds and
        every term is a ``str`` or ``int``.  A component with any other
        term, with an edge too wide to enumerate
        (:data:`MAX_SUBSET_FACTS`), or with two operations (so also two
        facts) that print alike gets no key: a ``str`` tie leaves the
        order to set iteration.
        """
        if not self._keyed_shapes:
            return None
        if any(
            type(value) not in (str, int) for fact in facts for value in fact.values
        ):
            return None
        position = {fact: i for i, fact in enumerate(facts)}
        by_fact = self.violation_index.fact_edges
        edges = sorted(
            {
                tuple(sorted(position[member] for member in edge))
                for fact in facts
                for edge in by_fact[fact]
            }
        )
        if any(len(edge) > MAX_SUBSET_FACTS for edge in edges):
            return None
        subsets = {
            subset
            for edge in edges
            for size in range(1, len(edge) + 1)
            for subset in combinations(edge, size)
        }
        # Each subset's ``str(Operation.delete(...))``; every fact is in
        # an edge, so two facts that print alike make two such ties.
        names = [str(fact) for fact in facts]
        named = sorted(
            (
                f"-{names[subset[0]]}"
                if len(subset) == 1
                else "-{" + ", ".join(names[p] for p in subset) + "}",
                subset,
            )
            for subset in subsets
        )
        if any(a[0] == b[0] for a, b in zip(named, named[1:])):
            return None
        trust = (
            tuple(self.generator.trust_of(fact) for fact in facts)
            if type(self.generator) is TrustGenerator
            else ()
        )
        return len(facts), tuple(edges), tuple(s for _, s in named), trust

    def _compiled_table(self, component: FrozenSet[Fact]) -> Optional[ComponentTable]:
        """:meth:`_chain_table` compiled from the component's own chain."""
        chain = self._component_chain(component)
        table = columnar.compile_walk_table(chain)
        if table is None:
            return None
        survivors: List[Iterable[Fact]] = []
        deletions: List[List[Fact]] = []
        for state in table.payload:
            survivors.append(() if state is None else state.db.facts)
            deletions.append(
                [] if state is None else sorted(chain.database - state.db, key=str)
            )
        return table, survivors, deletions

    def _draws_for(
        self, components: Iterable[FrozenSet[Fact]], walk_table: WalkTableFn
    ) -> List["_ComponentDraws"]:
        """The (cached) draw source of each of *components*: its table
        comes from the instance state, its stream from the campaign."""
        cache = self._component_draws
        tables = self._tables
        entries = []
        for component in components:
            entry = cache.get(component)
            if entry is None:
                if component in tables:
                    built = tables[component]
                else:
                    built = tables[component] = walk_table(component)
                hasher = stream_hasher(self.campaign.seed, component)
                entry = (
                    _ComponentDraws(hasher, self._component_chain(component))
                    if built is None
                    else _ComponentDraws(hasher, None, *built)
                )
                cache[component] = entry
            entries.append(entry)
        return entries

    def _table_deletions(
        self, start: int, count: int, walk_table: WalkTableFn
    ) -> List[List[Fact]]:
        """``deletions_for_range`` read off the components' states."""
        entries = self._deletion_entries
        if entries is None:
            entries = self._draws_for(self.components, walk_table)
            self._deletion_entries = entries
        per_run: List[List[Fact]] = [[] for _ in range(count)]
        for entry, states in zip(entries, _draw_states(entries, start, count)):
            deletions = entry.deletions
            for run, state in zip(per_run, states):
                run.extend(deletions[state])
        return per_run

    def _plan_outcomes(
        self,
        compiled: CompiledQuery,
        start: int,
        count: int,
        walk_table: WalkTableFn,
    ) -> Optional[Tally]:
        """Tally the range with the plan built over *walk_table*'s
        per-component tables.

        The witness plan is built once per (compiled query, instance
        state) and gated conservatively — any precondition it cannot
        prove falls back to per-draw SQL (see
        :func:`_build_columnar_plan`); each campaign binds it to its own
        draw sources.  It only reads the backend, so a planned campaign
        writes nothing.
        """
        if count <= 0 or not columnar.enabled():
            return None
        key = (compiled.sql, tuple(compiled.parameters))
        plan = self._columnar_plans.get(key)
        if plan is None:
            plans = self._witness_plans
            witnesses = plans.pop(key, None)
            if witnesses is None:
                witnesses = _build_columnar_plan(self, compiled) or False
            plans[key] = witnesses
            if self.plan_limit is not None:
                _trim(plans, self.plan_limit)
            plan = (
                False
                if witnesses is False
                else _ColumnarDrawPlan(
                    witnesses, self._draws_for(witnesses.components, walk_table)
                )
            )
            self._columnar_plans[key] = plan
        if plan is False:
            return None
        return plan.tally(start, count)


def _trim(cache: Dict, limit: int) -> None:
    """Drop *cache*'s oldest entries past *limit*."""
    while len(cache) > limit:
        del cache[next(iter(cache))]


def _positions(built: ComponentTable, facts: Sequence[Fact]) -> ChainShape:
    """*built*'s survivors and deletions as positions into *facts*."""
    position = {fact: i for i, fact in enumerate(facts)}
    table, survivors, deletions = built
    return (
        table,
        [tuple(sorted(position[f] for f in kept)) for kept in survivors],
        [tuple(position[f] for f in gone) for gone in deletions],
    )


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
        substreams either way, and with the columnar core on both read
        their walk tables; the ``rng.choice`` loop below is the
        ``KEEP_ONE_UNIFORM`` reference."""
        if self.policy is not SamplerPolicy.KEEP_ONE_UNIFORM:
            return super().deletions_for_range(start, count)
        if columnar.enabled():
            return self._table_deletions(start, count, _keep_one_table)
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
    ) -> Optional[Tally]:
        """The plan over ``KEEP_ONE_UNIFORM``'s one-step tables, or the
        parent's chain-table plan for the chain policies."""
        if self.policy is not SamplerPolicy.KEEP_ONE_UNIFORM:
            return super()._columnar_outcomes(compiled, start, count)
        return self._plan_outcomes(compiled, start, count, _keep_one_table)


class _ComponentDraws:
    """One conflict component's draw source, built once per campaign.

    ``hasher`` is the component's keyed stream hasher
    (:func:`repro.campaign.stream_hasher`), so ``DrawStream(hasher, i)``
    is exactly ``draw_rng(seed, component, i)``.  ``table`` is its walk
    table, or ``None`` when the chain overflowed the table's state
    limit: then ``chain`` is walked draw by draw, and each result not
    seen before is appended as a new state.  ``survivors[s]`` and
    ``deletions[s]`` are the facts kept and removed at absorbing state
    ``s``; a table's lists are the instance's, shared and never
    extended.
    """

    __slots__ = (
        "hasher",
        "chain",
        "table",
        "survivors",
        "deletions",
        "_reached",
    )

    def __init__(
        self,
        hasher: Any,
        chain: Optional[RepairingChain],
        table: Optional[columnar.WalkTable] = None,
        survivors: Sequence[Iterable[Fact]] = (),
        deletions: Sequence[List[Fact]] = (),
    ) -> None:
        self.hasher = hasher
        self.chain = chain
        self.table = table
        self.survivors = survivors if table is not None else list(survivors)
        self.deletions = deletions if table is not None else list(deletions)
        self._reached: Dict[Database, int] = {}

    def states(
        self, start: int, count: int, counters: Optional[Sequence[bytes]] = None
    ) -> List[int]:
        """The absorbing states of draws ``[start, start + count)``.

        *counters* are the draws' packed counters, which one
        :func:`_draw_states` range shares among its entries.  On a
        table with ``shifts`` each walk applies
        ``Random._randbelow_with_getrandbits``'s rejection rule to
        ``top >> shifts[state]``, ``top`` being digest byte ``4w + 3``
        (the top byte of word ``w``), so it reaches the state
        :func:`repro.core.columnar.replay_walk` reaches with the draw's
        :class:`~repro.campaign.DrawStream`: ~0.7 us a walk on the
        ``campaign_pool`` shape, hash included, where unpacking 16
        words made it ~1.2 us (2-vCPU x86-64, CPython 3.11).  Any other
        table, and a walk that needs a 17th word, replays its stream;
        those draws count ``draws_table_replayed``, once per call.
        """
        table = self.table
        shifts = None if table is None else table.shifts
        if shifts is None:
            if table is not None:
                columnar.EVENTS.inc(count, stat="draws_table_replayed")
            return [self._state_at(index) for index in range(start, start + count)]
        if counters is None:
            counters = _draw_counters(start, count)
        copy = self.hasher.copy
        absorbing = table.absorbing
        counts = table.counts
        successors = table.successors
        states = []
        replayed = 0
        for index, counter in enumerate(counters, start):
            digest = copy()
            digest.update(counter)
            block = digest.digest()
            state = 0
            # Word w is little-endian, so byte 4w + 3 is its top byte.
            cursor = 3
            while not absorbing[state]:
                bound = counts[state]
                shift = shifts[state]
                while cursor < 64:
                    choice = block[cursor] >> shift
                    cursor += 4
                    if choice < bound:
                        break
                else:
                    state = self._state_at(index)
                    replayed += 1
                    break
                state = successors[state][choice]
            states.append(state)
        if replayed:
            columnar.EVENTS.inc(replayed, stat="draws_table_replayed")
        return states

    def _state_at(self, index: int) -> int:
        """Draw *index*'s absorbing state through its :class:`DrawStream`."""
        rng = DrawStream(self.hasher, index)
        if self.table is not None:
            return columnar.replay_walk(self.table, rng)
        result = sample_walk(self.chain, rng).result
        state = self._reached.get(result)
        if state is None:
            state = self._reached[result] = len(self.survivors)
            self.survivors.append(result.facts)
            self.deletions.append(sorted(self.chain.database - result, key=str))
        return state


def _draw_states(
    entries: Sequence[_ComponentDraws], start: int, count: int
) -> List[List[int]]:
    """Each entry's absorbing state for draws ``[start, start + count)``."""
    walked = count * sum(1 for entry in entries if entry.table is None)
    if walked:
        columnar.EVENTS.inc(walked, stat="draws_walked")
    if len(entries) * count > walked:
        columnar.EVENTS.inc(len(entries) * count - walked, stat="draws_table")
    counters = _draw_counters(start, count)
    return [entry.states(start, count, counters) for entry in entries]


def _draw_counters(start: int, count: int) -> List[bytes]:
    """Block 0's packed counter of each draw in ``[start, start + count)``."""
    return [_COUNTER.pack(index, 0) for index in range(start, start + count)]


class _WitnessPlan(NamedTuple):
    """A conjunctive query's witnesses split by component: the seed-free
    half of a draw plan, built by :func:`_build_columnar_plan` once per
    instance state.

    ``requirements[i]`` maps a fact of ``components[i]`` to the fact
    sets (containing it) that witnesses need kept in that component,
    each with the answers of the witnesses that need nothing else and,
    when a spanning witness needs it, its id; ``spanning`` lists each
    remaining answer's spanning witnesses as sets of those ids, and
    ``linked`` the indexes of the components some spanning witness
    needs a fact set of.
    """

    certain: frozenset
    components: List[FrozenSet[Fact]]
    requirements: List[Dict[Fact, List[Tuple]]]
    spanning: List[Tuple[Tuple, List[FrozenSet[int]]]]
    linked: List[int]


class _ColumnarDrawPlan:
    """A conjunctive query's ``outcomes_for_range`` with no per-draw SQL.

    A :class:`_WitnessPlan` bound to one campaign's draw sources
    ``entries``, one per component (see the module docstring).  Under
    the rewriting's ``R EXCEPT R__del`` set semantics an answer holds
    on a draw exactly when one of its witnesses keeps all its facts,
    and only conflict facts are ever deleted, each by its own
    component's draw substream.  So one range needs each component's
    absorbing state per draw (:func:`_draw_states`).

    A range's tally counts each certain answer once, with multiplicity
    the range's draw count.  Per draw it counts the union of the
    answers the components' states add and the spanning answers the
    draw meets; neither holds a certain answer, and an answer two
    components add on one draw counts once.
    """

    __slots__ = (
        "certain",
        "entries",
        "spanning",
        "_requirements",
        "_linked",
        "_answers",
        "_met",
    )

    def __init__(
        self, witnesses: _WitnessPlan, entries: List[_ComponentDraws]
    ) -> None:
        self.certain = witnesses.certain
        self.entries = entries
        self.spanning = witnesses.spanning
        self._requirements = witnesses.requirements
        self._linked = witnesses.linked
        #: Per entry and state: the answers its kept facts give, and
        #: the requirement ids they meet (both extended lazily, as a
        #: walked component reaches new states).
        self._answers: List[List[frozenset]] = [[] for _ in entries]
        self._met: List[List[FrozenSet[int]]] = [[] for _ in entries]

    def _fold(self, index: int) -> List[frozenset]:
        """Entry *index*'s per-state answers, covering every state it
        has reached."""
        answers, met = self._answers[index], self._met[index]
        requirements = self._requirements[index]
        for facts in self.entries[index].survivors[len(answers) :]:
            kept = frozenset(facts)
            heads = set()
            ids = set()
            for fact in kept:
                for needed, local, rid in requirements.get(fact, ()):
                    if needed <= kept:
                        heads.update(local)
                        if rid is not None:
                            ids.add(rid)
            answers.append(frozenset(heads))
            met.append(frozenset(ids))
        return answers

    def tally(self, start: int, count: int) -> Tally:
        states = _draw_states(self.entries, start, count)
        # Each draw's row: what every component's state adds on it.
        rows = zip(
            *(
                map(self._fold(index).__getitem__, reached)
                for index, reached in enumerate(states)
            )
        )
        counts = dict.fromkeys(self.certain, count)
        linked = [(self._met[index], states[index]) for index in self._linked]
        for offset, row in enumerate(rows):
            drawn = frozenset().union(*row)
            if self.spanning:
                met = frozenset().union(
                    *(ids[reached[offset]] for ids, reached in linked)
                )
                found = [
                    answer
                    for answer, witnesses in self.spanning
                    if answer not in drawn and any(w <= met for w in witnesses)
                ]
                if found:
                    drawn = drawn.union(found)
            _count_elements(counts, drawn)
        return Tally(count, count, counts)


def _keep_one_table(component: FrozenSet[Fact]) -> ComponentTable:
    """The 1-step walk table of ``rng.choice(facts)``, and its survivors
    and deletions.

    ``Random.choice`` and ``randrange`` both route through
    ``_randbelow``, so a uniform table over the component's facts (in
    ``str`` order) consumes exactly the words the ``KEEP_ONE_UNIFORM``
    reference would; state ``i + 1`` keeps fact ``i``.
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
    table.finish()
    survivors: List[Iterable[Fact]] = [()] + [(fact,) for fact in facts]
    deletions = [[]] + [facts[:i] + facts[i + 1 :] for i in range(len(facts))]
    return table, survivors, deletions


def _gated(reason: str) -> None:
    """Count a plan gate (``plan_gated_<reason>``); the query keeps
    per-draw SQL."""
    columnar.EVENTS.inc(stat=f"plan_gated_{reason}")


def _build_columnar_plan(
    sampler: ConstraintRepairSampler, compiled: CompiledQuery
) -> Optional[_WitnessPlan]:
    """Compile a :class:`_WitnessPlan`, or ``None`` when gated.

    One flat join over the base tables (:func:`compile_witnesses`)
    lists the witnesses, split by the conflict components they need
    kept; only those components are drawn.  Each gate is a precondition
    of the lineage decomposition and counts its own ``plan_gated_*`` stat on
    ``ocqa_columnar_events_total``: ``first_order`` (not a conjunctive
    query), ``relation_map`` (not compiled against this sampler's live
    rewriting), ``unresolved_fact`` and ``shared_row`` (a conflict fact
    of a queried relation resolves to no base row, or to one another
    fact resolves to: marking a fact deleted removes its row), and
    ``witness_budget`` (the join has more rows than
    :data:`MAX_WITNESSES` and than the queried relations hold).
    """
    try:
        source = compiled.source
        if not isinstance(source, ConjunctiveQuery):
            return _gated("first_order")
        if compiled.relation_map != sampler.rewriter.relation_map():
            return _gated("relation_map")
        backend = sampler.backend
        rows = {
            relation: {tuple(row) for row in backend.select_all(relation)}
            for relation in {atom.relation for atom in source.body}
        }
        # Each conflict fact of a queried relation, numbered, by the row
        # it deletes.
        numbered: Dict[str, Dict[Tuple, int]] = {relation: {} for relation in rows}
        conflict: List[Fact] = []
        component_of: List[int] = []
        components = sampler.components
        for index, component in enumerate(components):
            for fact in component:
                base = rows.get(fact.relation)
                if base is None:
                    continue
                row = tuple(fact.values)
                if row not in base:
                    row = tuple(str(value) for value in fact.values)
                    if row not in base:
                        return _gated("unresolved_fact")
                if row in numbered[fact.relation]:
                    return _gated("shared_row")
                numbered[fact.relation][row] = len(conflict)
                conflict.append(fact)
                component_of.append(index)
        # Each witness row is the answer, then one row per atom; only
        # atoms over a relation with conflict facts are looked up.
        arity = source.arity
        spans = []
        start = arity
        for atom in source.body:
            if numbered[atom.relation]:
                spans.append((numbered[atom.relation], start, start + atom.arity))
            start += atom.arity
        budget = max(MAX_WITNESSES, sum(map(len, rows.values())))
        witnesses = backend.execute(*compile_witnesses(source, budget + 1))
        if len(witnesses) > budget:
            return _gated("witness_budget")
        # Split each witness by component: a requirement is the facts one
        # component must keep, and a witness of one requirement folds
        # into that component's per-state answers.
        certain = set()
        needs: Dict[Tuple[int, FrozenSet[int]], list] = {}
        spanning: Dict[Tuple, Set[FrozenSet[int]]] = {}
        next_rid = 0
        for row in witnesses:
            parts: Dict[int, Set[int]] = {}
            for numbers, begin, end in spans:
                number = numbers.get(row[begin:end])
                if number is not None:
                    parts.setdefault(component_of[number], set()).add(number)
            answer = row[:arity]
            if not parts:
                certain.add(answer)
                continue
            shares = [
                needs.setdefault((index, frozenset(part)), [set(), None])
                for index, part in parts.items()
            ]
            if len(shares) == 1:
                shares[0][0].add(answer)
                continue
            for share in shares:
                if share[1] is None:
                    share[1] = next_rid
                    next_rid += 1
            spanning.setdefault(answer, set()).add(
                frozenset(share[1] for share in shares)
            )
        # A certain answer needs no witness of its own.
        requirements: Dict[int, Dict[Fact, List[Tuple]]] = {}
        for (index, part), (heads, rid) in needs.items():
            heads = frozenset(heads - certain)
            if heads or rid is not None:
                facts = frozenset(conflict[number] for number in part)
                requirements.setdefault(index, {}).setdefault(
                    next(iter(facts)), []
                ).append((facts, heads, rid))
        used = sorted(requirements)
        plan = _WitnessPlan(
            frozenset(certain),
            [components[index] for index in used],
            [requirements[index] for index in used],
            [
                (answer, list(witnesses))
                for answer, witnesses in spanning.items()
                if answer not in certain
            ],
            [
                position
                for position, index in enumerate(used)
                if any(
                    rid is not None
                    for group in requirements[index].values()
                    for _, _, rid in group
                )
            ],
        )
    except Exception:
        columnar.EVENTS.inc(stat="plan_build_errors")
        return None
    columnar.EVENTS.inc(stat="plans_compiled")
    return plan
