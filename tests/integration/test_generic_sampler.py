"""Integration tests: the generic SQL sampler against other engines."""

import random

import pytest

from repro import UniformGenerator
from repro.analysis import max_absolute_error, total_variation_distance
from repro.core.oca import exact_oca
from repro.db.schema import Schema
from repro.queries.parser import parse_cq
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLiteBackend,
)
from repro.workloads import key_conflict_workload, preference_workload


class TestGenericVsKeySampler:
    def test_agree_on_key_constraints(self):
        """On pure key constraints the generic sampler and the dedicated
        key sampler (operational-uniform policy) estimate the same CPs."""
        wl = key_conflict_workload(clean_rows=8, conflict_groups=3, group_size=2, seed=6)
        query = parse_cq("Q(x) :- R(x, y, z)")
        with SQLiteBackend() as be:
            be.load(wl.database, wl.schema)
            key_sampler = KeyRepairSampler(
                be,
                wl.schema,
                [wl.key_spec],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(1),
            )
            key_report = key_sampler.run(query, epsilon=0.07, delta=0.05)
            generic = ConstraintRepairSampler(
                be, wl.schema, wl.constraints, rng=random.Random(2)
            )
            generic_report = generic.run(query, epsilon=0.07, delta=0.05)
        # both carry the same additive guarantee around the same truth
        assert (
            max_absolute_error(key_report.frequencies, generic_report.frequencies)
            <= 2 * 0.07
        )

    def test_component_detection_matches(self):
        wl = key_conflict_workload(clean_rows=5, conflict_groups=4, group_size=2, seed=3)
        with SQLiteBackend() as be:
            be.load(wl.database, wl.schema)
            key_sampler = KeyRepairSampler(be, wl.schema, [wl.key_spec])
            generic = ConstraintRepairSampler(be, wl.schema, wl.constraints)
            assert key_sampler.components == generic.components


class TestGenericSamplerOnDCs:
    def test_preference_dc_matches_exact(self):
        """A denial constraint — outside KeyRepairSampler's scope — still
        matches the exact in-memory chain."""
        db, sigma = preference_workload(products=6, edges=4, conflicts=2, seed=9)
        query = parse_cq("Q(x, y) :- Pref(x, y)")
        exact = exact_oca(db, UniformGenerator(sigma), query).as_dict()
        with SQLiteBackend() as be:
            be.load(db, Schema.of(Pref=2))
            sampler = ConstraintRepairSampler(
                be, Schema.of(Pref=2), sigma, rng=random.Random(4)
            )
            report = sampler.run(query, epsilon=0.07, delta=0.02)
        assert max_absolute_error(exact, report.frequencies) <= 0.07

    def test_repair_marginals_converge(self, rng):
        """Sampled repair frequencies approach the exact distribution in
        total-variation distance."""
        db, sigma = preference_workload(products=5, edges=2, conflicts=2, seed=12)
        from repro.core.repairs import repair_distribution

        exact = {
            repair: float(p)
            for repair, p in repair_distribution(db, UniformGenerator(sigma)).items()
        }
        with SQLiteBackend() as be:
            be.load(db, Schema.of(Pref=2))
            sampler = ConstraintRepairSampler(
                be, Schema.of(Pref=2), sigma, rng=rng
            )
            counts: dict = {}
            n = 400
            for _ in range(n):
                repaired = sampler.sample_repair()
                counts[repaired] = counts.get(repaired, 0) + 1
        empirical = {repair: c / n for repair, c in counts.items()}
        assert total_variation_distance(exact, empirical) <= 0.1
