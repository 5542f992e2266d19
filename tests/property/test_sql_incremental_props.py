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

from repro import UniformGenerator
from repro.analysis import max_absolute_error
from repro.core.oca import exact_oca
from repro.db.facts import Fact
from repro.db.schema import Schema
from repro.queries import parse_cq
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLDeltaViolationIndex,
    SQLiteBackend,
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
    assert len(sampler.groups) == 3
    # Split an existing group by deleting one of its two members.
    victim_group = sampler.groups[0]
    sampler.apply_update(removed=[victim_group.facts[0]])
    assert len(sampler.groups) == 2
    # Create a brand-new conflict on a previously clean key value.
    sampler.apply_update(
        added=[Fact(spec.relation, ("brandnew", "v1")), Fact(spec.relation, ("brandnew", "v2"))]
    )
    assert len(sampler.groups) == 3
    # Ground truth: rebuild a sampler from the mutated tables.
    fresh = KeyRepairSampler(
        backend, workload.schema, [spec], rng=random.Random(2)
    )
    assert [g.facts for g in fresh.groups] == [g.facts for g in sampler.groups]
    backend.close()
