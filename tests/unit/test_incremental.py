"""Unit tests for the incremental violation engine and its substrate:
the position-value fact index, structural-sharing database updates, and
the pinned homomorphism entry point."""

import random

import pytest

from repro.constraints import DC, ConstraintSet, key, parse_constraints
from repro.core.incremental import DeltaViolationIndex, incremental_violations
from repro.core.operations import Operation
from repro.core.violations import violations
from repro.db.atoms import Atom
from repro.db.facts import Database, Fact
from repro.db.homomorphism import (
    find_homomorphisms,
    find_homomorphisms_pinned,
    freeze_assignment,
)
from repro.db.terms import Var

X, Y, Z = Var("x"), Var("y"), Var("z")

R_AB = Fact("R", ("a", "b"))
R_AC = Fact("R", ("a", "c"))
R_BA = Fact("R", ("b", "a"))
S_AB = Fact("S", ("a", "b"))


class TestPositionIndex:
    def test_index_matches_brute_force(self):
        db = Database.of(R_AB, R_AC, R_BA, S_AB)
        for fact in db.facts:
            for position, value in enumerate(fact.values):
                expected = frozenset(
                    f
                    for f in db.facts
                    if f.relation == fact.relation
                    and len(f.values) > position
                    and f.values[position] == value
                )
                got = frozenset(db.facts_with(fact.relation, position, value))
                assert got == expected

    def test_missing_entries_are_empty(self):
        db = Database.of(R_AB)
        assert db.facts_with("R", 0, "zzz") == ()
        assert db.facts_with("Missing", 0, "a") == ()


class TestStructuralSharing:
    def test_with_added_equals_rebuild(self):
        db = Database.of(R_AB, R_AC)
        derived = db.with_added([R_BA, S_AB])
        assert derived == Database.of(R_AB, R_AC, R_BA, S_AB)

    def test_with_removed_equals_rebuild(self):
        db = Database.of(R_AB, R_AC, R_BA)
        derived = db.with_removed([R_AC, Fact("R", ("zz", "zz"))])
        assert derived == Database.of(R_AB, R_BA)

    def test_noop_updates_return_self(self):
        db = Database.of(R_AB)
        assert db.with_added([R_AB]) is db
        assert db.with_removed([R_AC]) is db

    def test_shared_indexes_stay_consistent(self):
        db = Database.of(R_AB, R_AC, S_AB)
        # Materialize the parent caches so the derived database takes the
        # incremental-update path rather than rebuilding lazily.
        _ = db.by_relation, db.position_index
        derived = db.with_removed([R_AC]).with_added([R_BA])
        fresh = Database.of(R_AB, S_AB, R_BA)
        assert derived == fresh
        assert {
            rel: frozenset(facts) for rel, facts in derived.by_relation.items()
        } == {rel: frozenset(facts) for rel, facts in fresh.by_relation.items()}
        for rel, inner in fresh.position_index.items():
            for key_, facts in inner.items():
                assert frozenset(derived.position_index[rel][key_]) == frozenset(facts)
        for rel, inner in derived.position_index.items():
            for key_, facts in inner.items():
                assert frozenset(fresh.position_index[rel][key_]) == frozenset(facts)

    def test_with_added_rejects_non_facts(self):
        db = Database.of(R_AB)
        with pytest.raises(TypeError):
            db.with_added(["not a fact"])


class TestPinnedHomomorphisms:
    ATOMS = (Atom("R", (X, Y)), Atom("R", (Y, Z)))

    def test_pinned_equals_filtered_full_search(self):
        db = Database.of(R_AB, R_BA, R_AC)
        for pin_index in range(len(self.ATOMS)):
            for fact in db.facts:
                expected = {
                    freeze_assignment(h)
                    for h in find_homomorphisms(self.ATOMS, db)
                    if self.ATOMS[pin_index].substitute(h).to_fact() == fact
                }
                got = {
                    freeze_assignment(h)
                    for h in find_homomorphisms_pinned(
                        self.ATOMS, db, pin_index, fact
                    )
                }
                assert got == expected

    def test_pin_to_external_fact(self):
        """The pinned fact need not belong to the database."""
        db = Database.of(R_BA)
        external = Fact("R", ("c", "b"))
        got = {
            freeze_assignment(h)
            for h in find_homomorphisms_pinned(self.ATOMS, db, 0, external)
        }
        # x -> c, y -> b pinned; R(y, z) must match R(b, a) in the db.
        assert got == {freeze_assignment({X: "c", Y: "b", Z: "a"})}

    def test_mismatched_pin_yields_nothing(self):
        db = Database.of(R_AB)
        assert (
            list(find_homomorphisms_pinned(self.ATOMS, db, 0, Fact("S", ("a", "b"))))
            == []
        )

    def test_partial_binding_respected(self):
        db = Database.of(R_AB, R_BA)
        got = list(
            find_homomorphisms_pinned(self.ATOMS, db, 0, R_AB, partial={Z: "a"})
        )
        assert got == [{X: "a", Y: "b", Z: "a"}]
        assert (
            list(find_homomorphisms_pinned(self.ATOMS, db, 0, R_AB, partial={Z: "q"}))
            == []
        )


class TestDeltaViolationIndex:
    def check(self, db, sigma, op):
        old = violations(db, sigma)
        new_db = op.apply(db)
        assert incremental_violations(db, old, op, sigma, new_db) == violations(
            new_db, sigma
        )

    def test_deletion_removes_key_violations(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB, R_AC)
        self.check(db, sigma, Operation.delete(R_AC))

    def test_insertion_creates_key_violations(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB)
        self.check(db, sigma, Operation.insert(R_AC))

    def test_untouched_relations_keep_violations_verbatim(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB, R_AC)
        old = violations(db, sigma)
        op = Operation.insert(Fact("Unrelated", ("q",)))
        got = incremental_violations(db, old, op, sigma)
        assert got == old

    def test_tgd_insertion_resolves_violation(self):
        """Adding the missing head fact must drop the TGD violation."""
        sigma = ConstraintSet(parse_constraints("R(x, y) -> exists z S(x, z)"))
        db = Database.of(R_AB)
        self.check(db, sigma, Operation.insert(Fact("S", ("a", "w"))))

    def test_tgd_witness_destruction_creates_violation(self):
        """Deleting the only head witness must surface a new violation."""
        sigma = ConstraintSet(parse_constraints("R(x, y) -> exists z S(x, z)"))
        db = Database.of(R_AB, Fact("S", ("a", "w")))
        self.check(db, sigma, Operation.delete(Fact("S", ("a", "w"))))

    def test_tgd_witness_destruction_with_remaining_witness(self):
        sigma = ConstraintSet(parse_constraints("R(x, y) -> exists z S(x, z)"))
        db = Database.of(R_AB, Fact("S", ("a", "w")), Fact("S", ("a", "v")))
        self.check(db, sigma, Operation.delete(Fact("S", ("a", "w"))))

    def test_self_join_body_insertion(self):
        """A pinned fact matching several body atoms is not double-counted."""
        sigma = ConstraintSet([DC([Atom("R", (X, Y)), Atom("R", (Y, X))])])
        db = Database.of(R_AB)
        self.check(db, sigma, Operation.insert(R_BA))
        loop = Fact("R", ("c", "c"))
        self.check(db, sigma, Operation.insert(loop))

    def test_multi_fact_operations(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB, R_AC, R_BA)
        self.check(db, sigma, Operation.delete([R_AB, R_AC]))
        self.check(db, sigma, Operation.insert([Fact("R", ("b", "q")), Fact("R", ("b", "r"))]))

    def test_mixed_constraint_set(self):
        sigma = ConstraintSet(
            parse_constraints(
                """
                R(x, y) -> exists z S(x, y, z)
                R(x, y), R(x, z) -> y = z
                """
            )
        )
        db = Database.of(R_AB, R_AC, Fact("T", ("a", "b")))
        index = DeltaViolationIndex(sigma)
        for op in [
            Operation.delete(R_AB),
            Operation.insert(Fact("S", ("a", "b", "c"))),
            Operation.insert(Fact("R", ("a", "d"))),
        ]:
            old = violations(db, sigma)
            new_db = op.apply(db)
            assert index.violations_after(db, old, op, new_db) == violations(
                new_db, sigma
            )

    def test_noop_operation_returns_old_set(self):
        sigma = ConstraintSet(key("R", 2, [0]))
        db = Database.of(R_AB, R_AC)
        old = violations(db, sigma)
        assert incremental_violations(db, old, Operation.insert(R_AB), sigma) == old
        assert (
            incremental_violations(db, old, Operation.delete(R_BA), sigma) == old
        )

    @staticmethod
    def _key_groups(groups, size):
        """*groups* keys with *size* conflicting rows each."""
        return Database.of(
            *(Fact("R", (f"k{g}", f"v{i}")) for g in range(groups) for i in range(size))
        )

    def test_one_index_serves_many_deletion_probes(self):
        """Deletions probed one after another against the same violation
        set (as sibling walk steps do) each keep exactly what detection
        from scratch finds: nothing carries over between probes."""
        sigma = ConstraintSet(key("R", 2, [0]))
        db = self._key_groups(groups=20, size=3)
        old = violations(db, sigma)
        assert len(old) >= 60
        index = DeltaViolationIndex(sigma)
        facts = sorted(db.facts, key=str)
        for victims in (facts[:1], facts[1:4], facts[::5], facts[2:3], facts[:1]):
            op = Operation.delete(victims)
            new_db = op.apply(db)
            assert index.violations_after(db, old, op, new_db) == violations(
                new_db, sigma
            )

    def test_deletion_chains_track_detection_from_scratch(self):
        """Each step's survivors feed the next deletion, down to a
        consistent database, and every step stays exact."""
        sigma = ConstraintSet(key("R", 2, [0]))
        db = self._key_groups(groups=20, size=3)
        current = violations(db, sigma)
        index = DeltaViolationIndex(sigma)
        rng = random.Random(5)
        steps = 0
        while current:
            involved = sorted(set().union(*(v.facts for v in current)), key=str)
            op = Operation.delete(rng.choice(involved))
            new_db = op.apply(db)
            current = index.violations_after(db, current, op, new_db)
            assert current == violations(new_db, sigma), f"step {steps}"
            db = new_db
            steps += 1
        # Two of each group's three rows had to go.
        assert steps == 40
