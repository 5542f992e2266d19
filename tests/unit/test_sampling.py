"""Unit tests for the Sample algorithm and additive-error approximation."""

import random
from fractions import Fraction

import pytest

from repro.constraints import ConstraintSet, key, parse_constraints
from repro.core.errors import FailingSequenceError
from repro.core.generators import (
    FunctionGenerator,
    PreferenceGenerator,
    UniformGenerator,
)
from repro.core.oca import exact_cp
from repro.core.errors import InvalidGeneratorError
from repro.core.sampling import (
    approximate_cp,
    approximate_oca,
    choose_transition,
    estimate_sequence_lengths,
    sample_many,
    sample_once,
    sample_walk,
)
from repro.core.operations import Operation
from repro.db.facts import Database, Fact
from repro.queries.parser import parse_cq, parse_query

R_AB = Fact("R", ("a", "b"))
R_AC = Fact("R", ("a", "c"))


@pytest.fixture
def key_setup():
    db = Database.of(R_AB, R_AC)
    sigma = ConstraintSet(key("R", 2, [0]))
    return db, UniformGenerator(sigma)


class TestSampleWalk:
    def test_walk_reaches_consistency(self, key_setup, rng):
        db, gen = key_setup
        walk = sample_walk(gen.chain(db), rng)
        assert walk.successful
        assert gen.constraints.is_satisfied(walk.result)

    def test_walk_lengths_bounded(self, key_setup, rng):
        db, gen = key_setup
        for _ in range(20):
            walk = sample_walk(gen.chain(db), rng)
            assert walk.length in (1, 2)  # one pair deletion or two singles?
            # Actually single deletions fix both violations at once; the
            # chain absorbs after exactly one step here.
            assert walk.length == 1

    def test_deterministic_with_seed(self, key_setup):
        db, gen = key_setup
        chain = gen.chain(db)
        a = sample_walk(chain, random.Random(7)).result
        b = sample_walk(chain, random.Random(7)).result
        assert a == b

    def test_consistent_input_walk_is_empty(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB)
        walk = sample_walk(UniformGenerator(sigma).chain(db))
        assert walk.length == 0 and walk.successful


class TestSampleOnce:
    def test_zero_or_one(self, key_setup, rng):
        db, gen = key_setup
        q = parse_cq("Q(y) :- R(x, y)")
        outcomes = {sample_once(gen.chain(db), q, ("b",), rng) for _ in range(30)}
        assert outcomes <= {0, 1}
        assert outcomes == {0, 1}  # CP = 1/3, both outcomes show up in 30 draws

    def test_failing_walk_raises(self, rng):
        sigma = ConstraintSet(parse_constraints("R(x) -> T(x)\nT(x) -> false"))
        db = Database.of(Fact("R", ("a",)))

        def only_insert(state, exts):
            return {op: 1 for op in exts if op.is_insert}

        gen = FunctionGenerator(sigma, only_insert)
        q = parse_query("Q() :- true")
        with pytest.raises(FailingSequenceError):
            sample_once(gen.chain(db), q, (), rng)

    def test_failing_walk_tolerated_when_allowed(self, rng):
        sigma = ConstraintSet(parse_constraints("R(x) -> T(x)\nT(x) -> false"))
        db = Database.of(Fact("R", ("a",)))

        def only_insert(state, exts):
            return {op: 1 for op in exts if op.is_insert}

        gen = FunctionGenerator(sigma, only_insert)
        q = parse_query("Q() :- true")
        assert sample_once(gen.chain(db), q, (), rng, allow_failing=True) is None


class TestApproximateCP:
    def test_within_additive_epsilon(self, key_setup, rng):
        db, gen = key_setup
        q = parse_cq("Q(y) :- R(x, y)")
        exact = float(exact_cp(db, gen, q, ("b",)))
        result = approximate_cp(db, gen, q, ("b",), epsilon=0.1, delta=0.05, rng=rng)
        assert abs(result.estimate - exact) <= 0.1
        assert result.samples == 185  # ceil(ln(40) / 0.02)

    def test_default_parameters_run_150_samples(self, key_setup, rng):
        db, gen = key_setup
        q = parse_cq("Q(y) :- R(x, y)")
        result = approximate_cp(db, gen, q, ("b",), rng=rng)
        assert result.samples == 150

    def test_certain_tuple_estimates_one(self, rng):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB, R_AC, Fact("S", ("keep",)))
        q = parse_cq("Q(x) :- S(x)")
        result = approximate_cp(db, UniformGenerator(sigma), q, ("keep",), rng=rng)
        assert result.estimate == 1.0

    def test_impossible_tuple_estimates_zero(self, key_setup, rng):
        db, gen = key_setup
        q = parse_cq("Q(y) :- R(x, y)")
        result = approximate_cp(db, gen, q, ("nope",), rng=rng)
        assert result.estimate == 0.0

    def test_conditional_estimate_with_failures(self, rng):
        sigma = ConstraintSet(parse_constraints("R(x) -> T(x)\nT(x) -> false"))
        db = Database.of(Fact("R", ("a",)))
        gen = UniformGenerator(sigma)
        q = parse_query("Q() :- !R('a')")
        result = approximate_cp(
            db, gen, q, (), epsilon=0.1, delta=0.1, rng=rng, allow_failing=True
        )
        # Every successful walk deletes R(a): conditional CP = 1.
        assert result.estimate == 1.0
        assert result.failing_walks > 0


class TestApproximateOCA:
    def test_matches_exact_within_epsilon(self, paper_pref_db, pref_sigma, rng):
        gen = PreferenceGenerator(pref_sigma)
        q = parse_query("Q(x) :- forall y (Pref(x, y) | x = y)")
        estimates = approximate_oca(
            paper_pref_db, gen, q, epsilon=0.08, delta=0.05, rng=rng
        )
        assert abs(estimates.get(("a",), 0.0) - 0.45) <= 0.08
        assert set(estimates) <= {("a",)}

    def test_empty_when_no_tuples(self, key_setup, rng):
        db, gen = key_setup
        q = parse_cq("Q(x) :- Missing(x)")
        assert approximate_oca(db, gen, q, rng=rng) == {}


class TestChooseTransition:
    OPS = [
        Operation.delete(Fact("R", (str(i), str(i)))) for i in range(3)
    ]

    def test_exact_distribution_over_uneven_fractions(self):
        """Exact integer sampling honours tiny Fraction probabilities."""
        transitions = [
            (self.OPS[0], Fraction(1, 7)),
            (self.OPS[1], Fraction(2, 7)),
            (self.OPS[2], Fraction(4, 7)),
        ]
        rng = random.Random(3)
        counts = {op: 0 for op in self.OPS}
        n = 7000
        for _ in range(n):
            counts[choose_transition(transitions, rng)] += 1
        for (op, p), slack in zip(transitions, (0.02, 0.02, 0.02)):
            assert abs(counts[op] / n - float(p)) < slack

    def test_degenerate_single_transition(self):
        transitions = [(self.OPS[0], Fraction(1))]
        assert choose_transition(transitions, random.Random(0)) is self.OPS[0]

    def test_weight_sum_drift_raises(self):
        """A non-stochastic distribution is an error, not a silent
        fallback to the last transition."""
        transitions = [
            (self.OPS[0], Fraction(1, 3)),
            (self.OPS[1], Fraction(1, 3)),
        ]
        with pytest.raises(InvalidGeneratorError):
            choose_transition(transitions, random.Random(0))


class TestSampleMany:
    def test_matches_serial_walk_sequence(self, key_setup):
        """The batched driver consumes the RNG exactly like a loop of
        individual walks, so seeded results are reproducible."""
        db, gen = key_setup
        serial_chain = gen.chain(db)
        rng = random.Random(42)
        serial = [sample_walk(serial_chain, rng).result for _ in range(12)]
        batched = [
            w.result for w in sample_many(gen.chain(db), 12, random.Random(42))
        ]
        assert serial == batched

    def test_walk_count(self, key_setup, rng):
        db, gen = key_setup
        assert len(sample_many(gen.chain(db), 17, rng)) == 17
        assert sample_many(gen.chain(db), 0, rng) == []


class TestSequenceLengths:
    def test_lengths_match_conflicts(self, paper_pref_db, pref_sigma, rng):
        gen = PreferenceGenerator(pref_sigma)
        lengths = estimate_sequence_lengths(paper_pref_db, gen, walks=10, rng=rng)
        # two symmetric conflicts, single deletions only: always 2 steps.
        assert lengths == [2] * 10
