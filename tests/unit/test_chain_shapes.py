"""Chain shapes and the structural identity of conflict components.

Components of one chain shape share one compiled walk table per
sampler, warm chains are keyed by the facts themselves, RNG streams by
their ``repr``, and touched groups are diffed as fact sets: ``str``
prints ``1`` and ``'1'`` alike, so no identity check may rest on it.
"""

import random

import pytest

from repro.campaign import SamplingCampaign, UpdateReport, group_key
from repro.constraints import ConstraintSet, key, parse_constraints
from repro.core import columnar
from repro.core.generators import UniformGenerator
from repro.core.sampling import approximate_cp
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.diagnostics import cache_report
from repro.queries import parse_cq, parse_query
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLiteBackend,
)
from repro.workloads import key_conflict_workload


#: Two key groups of ``R`` that print alike, and an ``S`` row one of
#: their members joins.
LOOK_ALIKE = [
    Fact("R", (1, "x")),
    Fact("R", (1, "y")),
    Fact("R", ("1", "x")),
    Fact("R", ("1", "y")),
    Fact("S", ("x",)),
]


def _sampler(facts, constraints, seed=3):
    database = Database(facts)
    schema = Schema.infer(database)
    backend = SQLiteBackend()
    backend.load(database, schema)
    sampler = ConstraintRepairSampler(
        backend, schema, constraints, rng=random.Random(seed)
    )
    return backend, sampler


class TestComponentsThatPrintAlike:
    """``R(1, x)`` and ``R('1', x)`` print alike but are different facts."""

    @pytest.mark.parametrize("columnar_setting", ["1", "0"])
    def test_each_component_walks_its_own_chain(self, monkeypatch, columnar_setting):
        monkeypatch.setenv("REPRO_COLUMNAR", columnar_setting)
        backend, sampler = _sampler(LOOK_ALIKE, ConstraintSet(key("R", 2, [0])))
        try:
            assert len(sampler.components) == 2
            report = sampler.run(parse_query("Q(x) :- R(x, y) & S(y)"), runs=2000)
        finally:
            backend.close()
        # Each component keeps R(c, x) with probability 1/3 (exact_oca).
        assert report.cp((1,)) == pytest.approx(1 / 3, abs=0.05)
        assert report.cp(("1",)) == pytest.approx(1 / 3, abs=0.05)

    @pytest.mark.parametrize("columnar_setting", ["1", "0"])
    def test_each_component_draws_its_own_stream(self, monkeypatch, columnar_setting):
        monkeypatch.setenv("REPRO_COLUMNAR", columnar_setting)
        backend, sampler = _sampler(LOOK_ALIKE, ConstraintSet(key("R", 2, [0])))
        try:
            draws = sampler.deletions_for_range(0, 400)
        finally:
            backend.close()

        def deleted(deletions, constant):
            return tuple(
                str(fact)
                for fact in deletions
                if fact.relation == "R" and type(fact.values[0]) is type(constant)
            )

        mirrored = sum(deleted(run, 1) == deleted(run, "1") for run in draws)
        # One shared substream would mirror every draw; independent
        # components agree on a third of them (three outcomes of 1/3).
        assert mirrored < 200

    def test_shared_campaigns_over_look_alike_instances_draw_different_streams(self):
        generator = UniformGenerator(ConstraintSet(key("R", 2, [0])))
        query = parse_cq("Q(x) :- R(x, y)")
        first = Database.of(Fact("R", (1, "a")), Fact("R", (1, "b")))
        second = Database.of(Fact("R", ("1", "a")), Fact("R", ("1", "b")))
        agreeing = 0
        for seed in range(10):
            # Two campaigns of one seed claim the same draw indices.
            one = approximate_cp(
                first, generator, query, (1,), campaign=SamplingCampaign(seed=seed)
            )
            two = approximate_cp(
                second, generator, query, ("1",), campaign=SamplingCampaign(seed=seed)
            )
            agreeing += one.successes == two.successes
        # One stream for both instances would agree on every seed.
        assert agreeing <= 3

    def test_shared_campaign_builds_a_chain_per_instance(self):
        generator = UniformGenerator(ConstraintSet(key("R", 2, [0])))
        query = parse_cq("Q(x) :- R(x, y)")
        campaign = SamplingCampaign(seed=7)
        first = Database.of(Fact("R", (1, "a")), Fact("R", (1, "b")))
        second = Database.of(Fact("R", ("1", "a")), Fact("R", ("1", "b")))
        approximate_cp(first, generator, query, (1,), campaign=campaign)
        result = approximate_cp(second, generator, query, ("1",), campaign=campaign)
        assert len(campaign._chains) == 2
        assert result.estimate == pytest.approx(2 / 3, abs=0.1)

    def test_update_report_diffs_fact_sets(self):
        one = frozenset({Fact("R", (1,)), Fact("S", (1,))})
        other = frozenset({Fact("R", ("1",)), Fact("S", ("1",))})
        assert group_key(one) == group_key(other)
        report = UpdateReport.from_groups(
            added=(), removed=[Fact("S", ("1",))],
            old_groups=[one, other], new_groups=[one],
        )
        assert report.touched_groups == (group_key(other),)
        assert report.touched_group_relations == {"R", "S"}

    def test_apply_update_reports_a_dissolved_look_alike(self):
        facts = [Fact("R", (1,)), Fact("S", (1,)), Fact("R", ("1",)), Fact("S", ("1",))]
        backend, sampler = _sampler(
            facts, ConstraintSet(parse_constraints("R(x), S(x) -> false"))
        )
        try:
            report = sampler.apply_update(removed=[Fact("S", ("1",))])
        finally:
            backend.close()
        # R('1') is clean now, so a cached answer over R must not survive.
        assert "R" in report.unsafe_relations
        assert len(report.touched_groups) == 1


@pytest.mark.skipif(
    not columnar.enabled(), reason="REPRO_COLUMNAR=0 turns walk tables off"
)
class TestWalkTableSharing:
    QUERY = parse_cq("Q(x) :- R(x, y, z)")

    def test_one_table_per_shape(self):
        workload = key_conflict_workload(2000, 400, group_size=3, arity=3, seed=11)
        backend = SQLiteBackend()
        workload.load_into(backend)
        sampler = KeyRepairSampler(
            backend,
            workload.schema,
            [workload.key_spec],
            policy=SamplerPolicy.OPERATIONAL_UNIFORM,
            rng=random.Random(5),
        )
        compiled = columnar.EVENTS.value(stat="walk_tables_compiled")
        shared = columnar.EVENTS.value(stat="walk_tables_shared")
        try:
            sampler.run(self.QUERY, runs=8)
            assert columnar.EVENTS.value(stat="walk_tables_compiled") - compiled == 1
            assert columnar.EVENTS.value(stat="walk_tables_shared") - shared == 399
            assert "walk table(s) compiled / " in cache_report().format()
            # Swap one member of a group for a fresh one: the group
            # changes, its shape does not.
            victim = min(sampler.components[0], key=str)
            fresh = Fact("R", (victim.values[0], "fresh_1", "fresh_2"))
            report = sampler.apply_update(added=[fresh], removed=[victim])
            assert len(report.touched_groups) == 2
            sampler.run(self.QUERY, runs=8)
            assert columnar.EVENTS.value(stat="walk_tables_compiled") - compiled == 1
            # Only the new group looks its shape up; the 399 untouched
            # groups keep their tables across the update.
            assert columnar.EVENTS.value(stat="walk_tables_shared") - shared == 400
        finally:
            backend.close()
