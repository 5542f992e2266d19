"""SQL-incremental == SQL-full equivalence on the E11 workload.

The acceptance bar for :class:`repro.sql.violations.SQLDeltaViolationIndex`
is exact agreement with a from-scratch
:func:`repro.sql.violations.conflict_hypergraph_sql` after every delta —
deletions, restorations, and base-table updates — plus distributional
correctness of the batched SQL samplers against the exact in-memory
chain.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UniformGenerator
from repro.analysis import max_absolute_error
from repro.constraints import ConstraintSet, parse_constraints
from repro.core.oca import exact_oca
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries import parse_cq
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLDeltaViolationIndex,
    SQLiteBackend,
    components_from_edges,
    conflict_components_sql,
    conflict_hypergraph_sql,
)
from repro.sql.rewriting import DeletionRewriter
from repro.workloads import key_conflict_workload, preference_workload


def _loaded_backend(workload):
    backend = SQLiteBackend()
    backend.load(workload.database, workload.schema)
    return backend


def test_delta_index_tracks_random_delete_restore_sequences():
    """Delta-maintained edges equal the full self-join after every step
    of a run/clear cycle over the rewriting's live view (E11 shape)."""
    workload = key_conflict_workload(
        clean_rows=40, conflict_groups=8, group_size=3, arity=3, seed=11
    )
    backend = _loaded_backend(workload)
    sigma = workload.key_spec.constraints()
    rewriter = DeletionRewriter(backend, workload.schema)
    relation_map = rewriter.relation_map()
    index = SQLDeltaViolationIndex(backend, sigma, relation_map)
    rng = random.Random(42)
    facts = sorted(workload.database.facts, key=str)
    deleted: set = set()
    for step in range(40):
        if deleted and rng.random() < 0.4:
            restored = set(rng.sample(sorted(deleted, key=str), 1))
            deleted -= restored
            rewriter.clear()
            rewriter.mark_deleted(sorted(deleted, key=str))
            index.apply_insert(restored)
        else:
            fresh = {
                f for f in rng.sample(facts, rng.randint(1, 4)) if f not in deleted
            }
            deleted |= fresh
            rewriter.mark_deleted(sorted(fresh, key=str))
            index.apply_delete(fresh)
        full = conflict_hypergraph_sql(backend, sigma, relation_map)
        assert index.current() == full, f"divergence at step {step}"
    assert index.delta_queries > 0  # the insert path actually ran
    backend.close()


def test_delta_index_deletion_waves_track_full_detection():
    """Waves of deletions over a constraint with many edges keep exactly
    the edges the full self-join finds, down to none, with no SQL."""
    workload = key_conflict_workload(
        clean_rows=10, conflict_groups=30, group_size=3, arity=3, seed=13
    )
    backend = _loaded_backend(workload)
    sigma = workload.key_spec.constraints()
    rewriter = DeletionRewriter(backend, workload.schema)
    relation_map = rewriter.relation_map()
    index = SQLDeltaViolationIndex(backend, sigma, relation_map)
    assert len(index.current()) == 90
    rng = random.Random(17)
    live = sorted(workload.database.facts, key=str)
    while live:
        wave = set(rng.sample(live, min(len(live), rng.randint(1, 12))))
        live = [fact for fact in live if fact not in wave]
        rewriter.mark_deleted(sorted(wave, key=str))
        index.apply_delete(wave)
        assert index.current() == conflict_hypergraph_sql(
            backend, sigma, relation_map
        )
    assert index.current() == frozenset()
    assert index.delta_queries == 0
    backend.close()


def test_delta_index_skips_untouched_constraints():
    db, sigma = preference_workload(products=20, edges=40, conflicts=6, seed=3)
    backend = SQLiteBackend()
    backend.load(db, Schema.of(Pref=2))
    index = SQLDeltaViolationIndex(backend, sigma)
    before = index.skipped_constraints
    index.apply_delete([Fact("Unrelated", ("x",))])
    assert index.skipped_constraints > before
    assert index.current() == conflict_hypergraph_sql(backend, sigma)
    backend.close()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_maintained_components_follow_random_delta_waves(seed):
    """Waves of inserts and deletes that merge and split components: the
    components the index maintains equal ``components_from_edges`` over
    its edges, and the components a wave reports gone and born are
    exactly the difference."""
    sigma = ConstraintSet(
        parse_constraints("R(x, y), R(x, z) -> y = z\nR(x, y), S(y) -> false")
    )
    rng = random.Random(seed)
    universe = [Fact("R", (f"k{i}", f"v{j}")) for i in range(6) for j in range(4)]
    universe += [Fact("S", (f"v{j}",)) for j in range(4)]
    live = set(rng.sample(universe, 12))
    backend = SQLiteBackend()
    backend.load(Database(live), Schema.of(R=2, S=1))
    index = SQLDeltaViolationIndex(backend, sigma)
    try:
        for _ in range(12):
            before = set(index.components())
            removed = set(
                rng.sample(sorted(live, key=str), min(len(live), rng.randint(0, 3)))
            )
            added = set(rng.sample(universe, rng.randint(0, 3))) - live
            live = (live - removed) | added
            backend.delete_facts(removed)
            index.apply_delete(removed)
            backend.insert_facts(added)
            index.apply_insert(added)
            gone, born = index.regroup()
            components = index.components()
            assert components == components_from_edges(index.current())
            assert index.current() == conflict_hypergraph_sql(backend, sigma)
            assert set(gone) == before - set(components)
            assert set(born) == set(components) - before
    finally:
        backend.close()


def test_generic_sampler_apply_update_matches_fresh_detection():
    """Incrementally maintained components equal a from-scratch SQL
    detection after base-table inserts and deletes."""
    db, sigma = preference_workload(products=20, edges=60, conflicts=8, seed=5)
    schema = Schema.of(Pref=2)
    backend = SQLiteBackend()
    backend.load(db, schema)
    sampler = ConstraintRepairSampler(backend, schema, sigma, rng=random.Random(1))
    rng = random.Random(9)
    live = set(db.facts)
    for step in range(12):
        if live and rng.random() < 0.5:
            removed = set(rng.sample(sorted(live, key=str), rng.randint(1, 3)))
            live -= removed
            sampler.apply_update(removed=removed)
        else:
            added = {
                Fact("Pref", (f"p{rng.randint(0, 9)}", f"p{rng.randint(0, 9)}"))
            } - live
            live |= added
            sampler.apply_update(added=added)
        assert sampler.components == conflict_components_sql(backend, sigma), step
    backend.close()


@pytest.mark.experiment("E11")
def test_batched_key_sampler_matches_exact_chain():
    """The chain-reusing, batch-drawing sampler still estimates the exact
    operational CP within the additive epsilon."""
    workload = key_conflict_workload(
        clean_rows=10, conflict_groups=3, group_size=2, seed=4
    )
    query = parse_cq("Q(x) :- R(x, y, z)")
    exact = exact_oca(
        workload.database, UniformGenerator(workload.constraints), query
    ).as_dict()
    backend = _loaded_backend(workload)
    sampler = KeyRepairSampler(
        backend,
        workload.schema,
        [workload.key_spec],
        policy=SamplerPolicy.OPERATIONAL_UNIFORM,
        rng=random.Random(23),
    )
    report = sampler.run(query, epsilon=0.07, delta=0.02)
    assert max_absolute_error(exact, report.frequencies) <= 0.07
    backend.close()


def test_key_sampler_apply_update_regroups_incrementally():
    workload = key_conflict_workload(
        clean_rows=6, conflict_groups=3, group_size=2, arity=2, seed=8
    )
    backend = _loaded_backend(workload)
    sampler = KeyRepairSampler(
        backend, workload.schema, [workload.key_spec], rng=random.Random(2)
    )
    spec = workload.key_spec
    assert len(sampler.components) == 3
    # Split an existing group by deleting one of its two members.
    victim_group = sampler.components[0]
    sampler.apply_update(removed=[min(victim_group, key=str)])
    assert len(sampler.components) == 2
    # Create a brand-new conflict on a previously clean key value.
    sampler.apply_update(
        added=[Fact(spec.relation, ("brandnew", "v1")), Fact(spec.relation, ("brandnew", "v2"))]
    )
    assert len(sampler.components) == 3
    # Ground truth: rebuild a sampler from the mutated tables.
    fresh = KeyRepairSampler(
        backend, workload.schema, [spec], rng=random.Random(2)
    )
    assert fresh.components == sampler.components
    backend.close()
