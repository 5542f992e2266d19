"""Columnar core == object path, property-tested.

The columnar accelerators (:mod:`repro.core.columnar` and the sampler
draw plans built on them) are never allowed to be a semantic fork: every
vectorized answer must equal what the plain-Python object path computes,
on *every* input, not just the benchmark shapes.  Hypothesis drives
random edge sets, deletion deltas, and full sampler workloads through
both implementations and asserts exact agreement — including the
byte-identity of sampler outcome streams, which the distributed lease
table's duplicate-drop correctness rests on.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSet, parse_constraints
from repro.core import columnar
from repro.core.incremental import DeltaViolationIndex
from repro.core.sampling import sample_walk
from repro.core.operations import Operation
from repro.core.violations import violations
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries import parse_cq
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLiteBackend,
)
from repro.workloads import key_conflict_workload

from tests.property.strategies import key_sigma, key_violation_databases

pytestmark = pytest.mark.skipif(
    not columnar.available(), reason="the columnar core needs numpy"
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: A small shared fact pool; edges and deletions both draw from it so
#: overlaps are common (the interesting case for membership joins).
_POOL = [Fact("R", (f"k{i % 4}", f"v{i}")) for i in range(12)]

fact_subsets = st.frozensets(st.sampled_from(_POOL), max_size=5)

edge_lists = st.lists(
    st.frozensets(st.sampled_from(_POOL), min_size=1, max_size=4),
    max_size=12,
)

#: Removal probes mix pool facts with strangers the index never saw.
removals = st.frozensets(
    st.one_of(
        st.sampled_from(_POOL),
        st.sampled_from([Fact("S", ("x",)), Fact("R", ("other", "z"))]),
    ),
    max_size=6,
)


# ----------------------------------------------------------------------
# EdgeMembershipIndex == set algebra
# ----------------------------------------------------------------------


class TestEdgeMembershipIndex:
    @given(edges=edge_lists, removed=removals)
    @settings(max_examples=120, deadline=None)
    def test_pure_probe_equals_the_isdisjoint_filter(self, edges, removed):
        index = columnar.EdgeMembershipIndex(edges)
        expected = [edge for edge in edges if edge.isdisjoint(removed)]
        assert index.payloads_disjoint_from(removed) == expected
        # Pure: probing never changes what survives.
        assert index.surviving() == list(edges)

    @given(
        edges=edge_lists,
        waves=st.lists(removals, min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_sequential_removal_tracks_the_object_set(self, edges, waves):
        index = columnar.EdgeMembershipIndex(edges)
        survivors = list(edges)
        for wave in waves:
            expected = [edge for edge in survivors if edge.isdisjoint(wave)]
            changed = index.remove_facts(wave)
            assert changed == (len(expected) != len(survivors))
            survivors = expected
            assert index.surviving() == survivors
            assert index.live_count == len(survivors)

    @given(edges=edge_lists, removed=removals)
    @settings(max_examples=60, deadline=None)
    def test_members_extractor_indexes_payload_fact_sets(self, edges, removed):
        # Payloads that are not themselves fact collections (the shape
        # the violation index uses: Violation objects with a ``.facts``).
        payloads = [(f"edge{i}", edge) for i, edge in enumerate(edges)]
        index = columnar.EdgeMembershipIndex(
            payloads, members=lambda payload: payload[1]
        )
        expected = [p for p in payloads if p[1].isdisjoint(removed)]
        assert index.payloads_disjoint_from(removed) == expected


# ----------------------------------------------------------------------
# DeltaViolationIndex: vectorized monotone deletion == the genexpr
# ----------------------------------------------------------------------


class TestMonotoneDeletionParity:
    @given(db=key_violation_databases(), removed=st.data())
    @settings(max_examples=100, deadline=None)
    def test_indexed_survivors_equal_the_object_filter(self, db, removed):
        sigma = key_sigma()
        old = violations(db, sigma)
        victims = removed.draw(
            st.frozensets(st.sampled_from(sorted(db.facts, key=str)), max_size=3)
            if db.facts
            else st.just(frozenset())
        )
        if not victims:
            return
        op = Operation.delete(victims)
        new_db = op.apply(db)
        # Force the columnar path regardless of the size threshold ...
        index = DeltaViolationIndex(sigma)
        index.MONOTONE_INDEX_THRESHOLD = 0
        vectorized = index.violations_after(db, old, op, new_db)
        # ... and pin it to both the genexpr semantics and a fresh
        # from-scratch detection on the mutated database.
        expected = frozenset(
            v for v in old if v.facts.isdisjoint(victims & db.facts)
        )
        assert vectorized == expected
        assert vectorized == violations(new_db, sigma)

    @given(db=key_violation_databases())
    @settings(max_examples=40, deadline=None)
    def test_repeated_probes_reuse_one_cached_index(self, db):
        sigma = key_sigma()
        old = violations(db, sigma)
        if not db.facts:
            return
        index = DeltaViolationIndex(sigma)
        index.MONOTONE_INDEX_THRESHOLD = 0
        for victim in sorted(db.facts, key=str)[:3]:
            op = Operation.delete(victim)
            new_db = op.apply(db)
            assert index.violations_after(db, old, op, new_db) == frozenset(
                v for v in old if victim not in v.facts
            )
        if old:
            assert len(index._monotone_indexes) == 1


# ----------------------------------------------------------------------
# Sampler draw plans: columnar outcome streams == the reference loop
# ----------------------------------------------------------------------


#: The sampler inputs the draw plan must agree with the object path on:
#: the three key policies (TRUST's weighted tables take the replay
#: entries), the generic sampler on the same keys, and the generic
#: sampler with a cross-relation constraint, whose components span R
#: and S while the query reads R alone.
PARITY_INPUTS = (
    SamplerPolicy.OPERATIONAL_UNIFORM,
    SamplerPolicy.KEEP_ONE_UNIFORM,
    SamplerPolicy.TRUST,
    "constraint",
    "cross_relation",
)


def _parity_sampler(kind, clean_rows, groups, group_size, seed):
    workload = key_conflict_workload(
        clean_rows=clean_rows,
        conflict_groups=groups,
        group_size=group_size,
        arity=3,
        seed=seed,
    )
    database = workload.database
    schema = workload.schema
    if kind == "cross_relation":
        # S(y) conflicts with every R row carrying y: one member of each
        # of the first two groups, and one otherwise clean row.
        rows = sorted(database, key=str)
        dups = [row for row in rows if row.values[0].startswith("dup")]
        clean = [row for row in rows if row.values[0].startswith("c")]
        picks = dups[::group_size][:2] + clean[:1]
        database = Database(
            [*database, *(Fact("S", (row.values[1],)) for row in picks)]
        )
        schema = Schema.infer(database)
    backend = SQLiteBackend()
    backend.load(database, schema)
    if kind in ("constraint", "cross_relation"):
        constraints = workload.constraints
        if kind == "cross_relation":
            constraints = ConstraintSet(
                [*constraints, *parse_constraints("R(x, y, z), S(y) -> false")]
            )
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(seed)
        )
    else:
        rng = random.Random(seed)
        trust = {
            fact: Fraction(rng.randint(0, 4), 4)
            for fact in sorted(database, key=str)
        }
        sampler = KeyRepairSampler(
            backend,
            schema,
            [workload.key_spec],
            policy=kind,
            trust=trust if kind is SamplerPolicy.TRUST else None,
            rng=random.Random(seed),
        )
    return backend, sampler


class TestSamplerOutcomeParity:
    @given(
        kind=st.sampled_from(PARITY_INPUTS),
        # The non-key projection tells a group's members apart.
        query=st.sampled_from(["Q(x) :- R(x, y, z)", "Q(x, z) :- R(x, y, z)"]),
        clean_rows=st.integers(min_value=0, max_value=6),
        groups=st.integers(min_value=1, max_value=4),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_columnar_outcomes_equal_object_outcomes(
        self, kind, query, clean_rows, groups, group_size, seed, start
    ):
        backend, sampler = _parity_sampler(
            kind, clean_rows, groups, group_size, seed
        )
        try:
            if kind == "cross_relation":
                spans = [{fact.relation for fact in c} for c in sampler.components]
                assert {"R", "S"} in spans
            compiled = sampler.compile(parse_cq(query))
            fast = sampler._columnar_outcomes(compiled, start, 8)
            reference = sampler._object_outcomes(compiled, start, 8)
            assert fast is not None, "the standard workload must not gate off"
            assert fast == reference
        finally:
            backend.close()

    def test_plan_survives_apply_update_with_identical_results(self):
        backend, sampler = _parity_sampler(
            SamplerPolicy.OPERATIONAL_UNIFORM, 6, 3, 2, seed=9
        )
        try:
            compiled = sampler.compile(parse_cq("Q(x) :- R(x, y, z)"))
            assert sampler._columnar_outcomes(compiled, 0, 6) is not None
            victim = min(sampler.components[0], key=str)
            sampler.apply_update(removed=[victim])
            # The delta invalidated the plan cache; the rebuilt plan must
            # agree with the reference loop on the mutated instance.
            compiled = sampler.compile(parse_cq("Q(x) :- R(x, y, z)"))
            fast = sampler._columnar_outcomes(compiled, 0, 6)
            assert fast == sampler._object_outcomes(compiled, 0, 6)
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Walk tables: compiled replay == the live chain walk
# ----------------------------------------------------------------------


class TestWalkTableReplay:
    @given(
        groups=st.integers(min_value=1, max_value=3),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
        draws=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_walk_reaches_the_same_absorbing_state(
        self, groups, group_size, seed, draws
    ):
        backend, sampler = _parity_sampler(
            SamplerPolicy.OPERATIONAL_UNIFORM, 2, groups, group_size, seed
        )
        try:
            for component in sampler.components:
                chain = sampler._component_chain(component)
                table = columnar.compile_walk_table(chain)
                assert table is not None
                for index in range(draws):
                    rng = sampler.campaign.rng_at(component, index)
                    state = columnar.replay_walk(table, rng)
                    survivors = table.payload[state].db.facts
                    walk = sample_walk(
                        chain, sampler.campaign.rng_at(component, index)
                    )
                    assert survivors == walk.result.facts
        finally:
            backend.close()
