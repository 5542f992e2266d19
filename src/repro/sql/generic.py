"""A SQL-backed sampler for arbitrary TGD-free constraints.

Generalizes :class:`repro.sql.sampler.KeyRepairSampler` beyond keys:
violations of *any* EGD/DC set are detected by SQL self-joins
(:mod:`repro.sql.violations`), grouped into conflict components, and
each component is repaired by its own in-memory repairing Markov chain
(exact factorization for component-local generators — see
:mod:`repro.core.localization`).  Queries run against the
``R EXCEPT R_del`` rewriting, exactly as in Section 5.

Like the key sampler, this targets the
:class:`repro.sql.backend.SQLBackend` protocol (SQLite, PostgreSQL, or
the in-memory backend) and runs its estimation loop through a
:class:`repro.campaign.SamplingCampaign`: warm per-component chains,
draw-indexed RNG substreams, optional on-disk checkpointing, and
empirical-Bernstein adaptive stopping.
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign import SamplingCampaign, UpdateReport, generator_signature
from repro.constraints.base import ConstraintSet
from repro.core.chain import ChainGenerator, RepairingChain
from repro.core.generators import UniformGenerator
from repro.core.sampling import sample_walk
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query
from repro.sql.backend import SQLBackend
from repro.sql.rewriting import DeletionRewriter
from repro.sql.sampler import BaseCampaignSampler
from repro.sql.violations import SQLDeltaViolationIndex

AnyQuery = Union[Query, ConjunctiveQuery]

#: Builds the per-component chain generator from a constraint set.
GeneratorFactory = Callable[[ConstraintSet], ChainGenerator]


class ConstraintRepairSampler(BaseCampaignSampler):
    """Section 5's sampling loop for arbitrary denial-style constraints.

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
        workers: Optional[int] = None,
        worker_addresses: Sequence[str] = (),
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
        self._init_campaign(
            campaign,
            checkpoint_path,
            adaptive,
            workers=workers,
            worker_addresses=worker_addresses,
            coordinator=coordinator,
        )
        self.violation_index = SQLDeltaViolationIndex(backend, constraints)
        self.components: Tuple[FrozenSet[Fact], ...] = (
            self.violation_index.components()
        )

    def _fingerprint_parts(self) -> Tuple:
        return (
            "ConstraintRepairSampler",
            self.schema.fingerprint(),
            tuple(sorted(str(c) for c in self.constraints)),
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
        changed components (and the pre/post instance digests when the
        rolling digest is live) for result-cache invalidation.
        """
        added = list(added)
        removed = list(removed)
        old_components = self.components
        if removed:
            self.backend.delete_facts(removed)
            self.violation_index.apply_delete(removed)
        if added:
            self.backend.insert_facts(added)
            self.backend.extend_adom(
                value for fact in added for value in fact.values
            )
            self.violation_index.apply_insert(added)
        self.components = self.violation_index.components()
        self.campaign.prune_chains(self.components)
        old_digest, new_digest = self._roll_result_digest(added, removed)
        self._refresh_campaign_identity()
        return UpdateReport.from_groups(
            added,
            removed,
            old_components,
            self.components,
            old_digest=old_digest,
            new_digest=new_digest,
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _component_chain(self, component: FrozenSet[Fact]) -> RepairingChain:
        return self.campaign.chain(
            component, lambda: self.generator.chain(Database(component))
        )

    def deletions_for_range(self, start: int, count: int) -> List[List[Fact]]:
        """Deleted facts for draws ``[start, start + count)``, batched
        component by component over each component's warm chain.  Draw
        ``i`` of a component comes from the campaign's ``(seed,
        component, i)`` substream, so any range is computable by any
        process (see
        :meth:`repro.sql.sampler.KeyRepairSampler.deletions_for_range`)."""
        per_run: List[List[Fact]] = [[] for _ in range(count)]
        for component in self.components:
            chain = self._component_chain(component)
            for offset, deletions in enumerate(per_run):
                walk = sample_walk(
                    chain, self.campaign.rng_at(component, start + offset)
                )
                deletions.extend(sorted(chain.database - walk.result, key=str))
        return per_run

    def _shard_context_payload(self, query: AnyQuery) -> Tuple[str, dict]:
        return (
            "constraint_sampler",
            {
                "facts": tuple(self.backend.fetch_database(self.schema)),
                "schema": self.schema,
                "constraints": self.constraints,
                "generator": self.generator,
                "seed": self.campaign.seed,
                "query": query,
            },
        )
