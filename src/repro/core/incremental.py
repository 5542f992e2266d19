"""Incremental violation maintenance under single-operation updates.

Every step of chain exploration and of every ``Sample`` walk replaces a
database ``D`` by ``D + F`` or ``D - F`` and needs the new violation set
``V(D ± F, Sigma)`` (Definition 2).  Recomputing it from scratch re-runs
a full backtracking join per constraint; this module instead derives it
from ``V(D, Sigma)`` with work proportional to the *delta*:

- constraints mentioning none of ``F``'s relations (body or head) keep
  their violations verbatim;
- a **deletion** ``-F`` kills exactly the violations whose body image
  intersects ``F``; for TGDs whose head mentions a deleted relation, the
  deletion may also *destroy a witness* and surface new violations —
  found by a joint body+head search seeded with one head atom pinned to
  a deleted fact (:func:`repro.db.homomorphism.find_homomorphisms_pinned`);
- an **insertion** ``+F`` can only create body homomorphisms that use
  some fact of ``F``, so a pinned search per (body atom, fact) pair
  enumerates exactly the new candidates; for TGDs whose head mentions an
  inserted relation, surviving violations are re-checked because the new
  facts may have completed a head witness.

The correctness argument mirrors first-order incremental view
maintenance over the conflict-hypergraph view of subset repairs
(Chomicki & Marcinkowski): violations of monotone (denial-style)
constraints behave exactly like hyperedges under deltas, and the TGD
head cases are the only non-monotone interactions.

The same delta discipline extends from violations to the *justified
operation* set ``JustOp(D', Sigma)`` (Definition 3):
:class:`DeltaOperationIndex` keys every violation's justified operations
on the violation itself and re-derives an entry only when the update
could actually change it — deletions of a violation are functions of its
body image alone, and insertions fixing a TGD violation depend on the
database only through the TGD's *head* relations.  A step that leaves a
violation alive and its constraint's head relations untouched therefore
reuses the cached entry verbatim.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.constraints.base import Constraint, ConstraintSet
from repro.constraints.tgd import TGD
from repro.core.justified import justified_deletions_for, justified_insertions_for
from repro.core.operations import Operation
from repro.core.violations import Violation, violations
from repro.db.facts import Database, Fact
from repro.db.homomorphism import (
    Assignment,
    find_homomorphisms_pinned,
    freeze_assignment,
)
from repro.db.terms import Term


class DeltaViolationIndex:
    """Maintains ``V(D, Sigma)`` across single-operation updates.

    Stateless — the caller keeps ``(D, V(D, Sigma))`` pairs (they live
    on :class:`repro.core.state.RepairState`) and asks for the successor
    set.  One index is shared by an entire
    :class:`repro.core.engine.RepairEngine`.  Without TGDs a deletion
    keeps exactly the violations whose body image is disjoint from the
    removed facts, one ``isdisjoint`` per violation.
    """

    def __init__(self, constraints: ConstraintSet) -> None:
        self.constraints = constraints
        self._no_tgds = constraints.deletion_only()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def violations_after(
        self,
        old_db: Database,
        old_violations: FrozenSet[Violation],
        op: Operation,
        new_db: Database,
    ) -> FrozenSet[Violation]:
        """``V(op(D), Sigma)`` given ``V(D, Sigma)``.

        *new_db* must equal ``op.apply(old_db)`` (passed in so callers
        that already materialized it don't pay twice).
        """
        if new_db is old_db:
            return old_violations
        if op.is_insert:
            changed = frozenset(op.facts - old_db.facts)
        else:
            changed = frozenset(op.facts & old_db.facts)
        if not changed:
            return old_violations
        if not op.is_insert and self._no_tgds:
            # Monotone fast path: without TGD heads a deletion can only
            # kill violations, and it kills exactly those whose body
            # image meets the removed facts — no per-constraint analysis
            # needed (violations of untouched constraints are trivially
            # disjoint from the removed facts).
            return frozenset(
                v for v in old_violations if v.facts.isdisjoint(changed)
            )
        changed_relations = frozenset(f.relation for f in changed)

        grouped: Dict[Constraint, List[Violation]] = {}
        for violation in old_violations:
            grouped.setdefault(violation.constraint, []).append(violation)

        out: Set[Violation] = set()
        for constraint in self.constraints:
            old_of_c = grouped.get(constraint, [])
            body_hit = bool(changed_relations & constraint.body_relations)
            head_hit = bool(changed_relations & constraint.head_relations)
            if not body_hit and not head_hit:
                out.update(old_of_c)
            elif op.is_insert:
                out.update(
                    self._after_insert(
                        constraint, old_of_c, changed, new_db, body_hit, head_hit
                    )
                )
            else:
                out.update(
                    self._after_delete(
                        constraint,
                        old_of_c,
                        changed,
                        old_db,
                        new_db,
                        body_hit,
                        head_hit,
                    )
                )
        return frozenset(out)

    # ------------------------------------------------------------------
    # Insertion: bodies can only gain matches, TGD heads can only gain
    # witnesses.
    # ------------------------------------------------------------------
    def _after_insert(
        self,
        constraint: Constraint,
        old_of_c: Sequence[Violation],
        added: FrozenSet[Fact],
        new_db: Database,
        body_hit: bool,
        head_hit: bool,
    ) -> Iterable[Violation]:
        if head_hit:
            # The inserted facts may complete a head witness for an
            # existing violation; re-check the (cheap, seeded) head.
            survivors = [
                v
                for v in old_of_c
                if not constraint.head_holds(v.h, new_db)
            ]
        else:
            survivors = list(old_of_c)
        if not body_hit:
            return survivors
        fresh: Set[Violation] = set()
        for assignment in self._pinned_body_matches(constraint, added, new_db):
            if not constraint.head_holds(assignment, new_db):
                fresh.add(Violation.of(constraint, assignment))
        return survivors + list(fresh)

    def _pinned_body_matches(
        self, constraint: Constraint, facts: FrozenSet[Fact], database: Database
    ) -> Iterable[Assignment]:
        """Body homomorphisms into *database* using some fact of *facts*.

        Each returned assignment binds exactly the body variables (the
        same shape the full search produces, so the resulting
        :class:`Violation` values are identical).  Assignments found via
        several pins are deduplicated.
        """
        seen: Set[Tuple] = set()
        for fact in facts:
            for index, atom in enumerate(constraint.body):
                if atom.relation != fact.relation or atom.arity != fact.arity:
                    continue
                for assignment in find_homomorphisms_pinned(
                    constraint.body, database, index, fact
                ):
                    frozen = freeze_assignment(assignment)
                    if frozen not in seen:
                        seen.add(frozen)
                        yield assignment

    # ------------------------------------------------------------------
    # Deletion: bodies can only lose matches, TGD heads can only lose
    # witnesses.
    # ------------------------------------------------------------------
    def _after_delete(
        self,
        constraint: Constraint,
        old_of_c: Sequence[Violation],
        removed: FrozenSet[Fact],
        old_db: Database,
        new_db: Database,
        body_hit: bool,
        head_hit: bool,
    ) -> Iterable[Violation]:
        if body_hit:
            survivors = [v for v in old_of_c if v.facts.isdisjoint(removed)]
        else:
            # Body images are intact, and deletions can never make a
            # failing head hold (TGD witnesses only disappear; EGD/DC
            # heads ignore the database), so every violation survives.
            survivors = list(old_of_c)
        if not head_hit or not isinstance(constraint, TGD):
            return survivors
        # A deleted fact may have been the last witness of a satisfied
        # body homomorphism: search (body + head) jointly over the *old*
        # database with one head atom pinned to a deleted fact, then keep
        # the body projections that are intact in, and violated by, the
        # new database.
        body_variables = constraint.body_variables
        joint_atoms = list(constraint.body) + list(constraint.head)
        body_count = len(constraint.body)
        fresh: Dict[Tuple, Violation] = {}
        for fact in removed:
            for offset, atom in enumerate(constraint.head):
                if atom.relation != fact.relation or atom.arity != fact.arity:
                    continue
                for joint in find_homomorphisms_pinned(
                    joint_atoms, old_db, body_count + offset, fact
                ):
                    assignment = {
                        var: value
                        for var, value in joint.items()
                        if var in body_variables
                    }
                    frozen = freeze_assignment(assignment)
                    if frozen in fresh:
                        continue
                    image = constraint.body_image(assignment)
                    if not all(f in new_db for f in image):
                        continue
                    if constraint.head_holds(assignment, new_db):
                        continue
                    fresh[frozen] = Violation(constraint, frozen)
        return survivors + list(fresh.values())


#: Per-violation justified operations: the decomposition of
#: ``JustOp(D', Sigma)`` Definition 3 induces (each operation is
#: justified *by* some violation).
OperationMap = Dict[Violation, Tuple[Operation, ...]]


class OperationMapState:
    """``JustOp(D', Sigma)`` for one database, in delta-friendly form.

    - ``by_violation`` — each current violation's justified operations;
    - ``counts`` — how many current violations justify each operation
      (an operation leaves the candidate set only when its count hits 0);
    - ``ordered`` — the candidate operations in the engine's
      deterministic sort order, so successor states whose candidate set
      only *shrinks* (every deletion step) derive their ordering by an
      O(n) filter instead of a fresh sort.
    """

    __slots__ = ("by_violation", "counts", "ordered")

    def __init__(
        self,
        by_violation: OperationMap,
        counts: Dict[Operation, int],
        ordered: Tuple[Operation, ...],
    ) -> None:
        self.by_violation = by_violation
        self.counts = counts
        self.ordered = ordered

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """The justified operations, deterministically ordered."""
        return self.ordered


class DeltaOperationIndex:
    """Maintains ``JustOp(D, Sigma)`` across single-operation updates.

    The analogue of :class:`DeltaViolationIndex` one level up: instead of
    re-running :func:`repro.core.justified.enumerate_justified_operations`
    at every state, the justified-operation set is derived from the
    predecessor's by touching only the violations the step changed.

    Reuse argument (why an entry survives a step): for a violation ``v``
    alive in both ``D'`` and ``op(D')``,

    - its justified *deletions* are the non-empty subsets of the body
      image ``h(phi)`` — a function of ``v`` alone;
    - its justified *insertions* (TGD violations only) are the missing
      head images ``h'(psi) - D'`` filtered by minimality, and both the
      missing part and the minimality re-check inspect only facts of the
      TGD's head relations (the body image is contained in either
      database because ``v`` is a current violation of both).

    So an entry is re-derived exactly when the violation is new or the
    update touched the constraint's head relations.
    """

    def __init__(
        self, constraints: ConstraintSet, base_constants: FrozenSet[Term]
    ) -> None:
        self.constraints = constraints
        self.base_constants = base_constants
        #: Union of TGD head relations: an update not touching them can
        #: never invalidate a surviving violation's entry.
        self._tgd_head_relations: FrozenSet[str] = frozenset(
            relation
            for constraint in constraints
            if isinstance(constraint, TGD)
            for relation in constraint.head_relations
        )
        #: Entries re-derived against a concrete database.
        self.derivations = 0
        #: Entries carried over verbatim from the predecessor state.
        self.reuses = 0

    # ------------------------------------------------------------------
    # Per-violation derivation
    # ------------------------------------------------------------------
    def ops_for(self, violation: Violation, database: Database) -> Tuple[Operation, ...]:
        """The operations justified by *violation* at *database*."""
        self.derivations += 1
        ops = tuple(justified_deletions_for(violation))
        if isinstance(violation.constraint, TGD):
            ops += tuple(
                justified_insertions_for(violation, database, self.base_constants)
            )
        return ops

    # ------------------------------------------------------------------
    # Full build (initial states, cache cold starts)
    # ------------------------------------------------------------------
    def full_state(
        self,
        database: Database,
        current_violations: Iterable[Violation],
        sort_key,
    ) -> OperationMapState:
        """Build the map from scratch (the non-incremental reference)."""
        by_violation: OperationMap = {}
        counts: Dict[Operation, int] = {}
        for violation in current_violations:
            entry = self.ops_for(violation, database)
            by_violation[violation] = entry
            for op in entry:
                counts[op] = counts.get(op, 0) + 1
        ordered = tuple(sorted(counts, key=sort_key))
        return OperationMapState(by_violation, counts, ordered)

    # ------------------------------------------------------------------
    # Delta derivation
    # ------------------------------------------------------------------
    def state_after(
        self,
        old: OperationMapState,
        op: Operation,
        new_db: Database,
        new_violations: FrozenSet[Violation],
        sort_key,
    ) -> OperationMapState:
        """``JustOp(op(D'), Sigma)`` given the predecessor's map.

        *new_violations* must be ``V(op(D'), Sigma)`` (the engine already
        maintains it via :class:`DeltaViolationIndex`).
        """
        old_map = old.by_violation
        if not self._tgd_head_relations:
            changed_relations: FrozenSet[str] = frozenset()
            heads_hit = False
        else:
            changed_relations = frozenset(f.relation for f in op.facts)
            heads_hit = bool(changed_relations & self._tgd_head_relations)
        by_violation: OperationMap = {}
        counts = dict(old.counts)
        changed = False
        grew = False
        for violation in new_violations:
            entry = old_map.get(violation)
            if entry is not None and (
                not heads_hit
                or not isinstance(violation.constraint, TGD)
                or not (changed_relations & violation.constraint.head_relations)
            ):
                self.reuses += 1
                by_violation[violation] = entry
                continue
            changed = True
            if entry is not None:
                # A TGD-head-touched violation: retract the stale entry
                # before re-deriving against the new database.
                for stale in entry:
                    counts[stale] -= 1
            fresh = self.ops_for(violation, new_db)
            by_violation[violation] = fresh
            for new_op in fresh:
                previous = counts.get(new_op, 0)
                if previous == 0:
                    grew = True
                counts[new_op] = previous + 1
        for violation, entry in old_map.items():
            if violation not in by_violation:
                changed = True
                for dead in entry:
                    counts[dead] -= 1
        if not changed:
            return OperationMapState(by_violation, counts, old.ordered)
        for dead in [candidate for candidate, count in counts.items() if count <= 0]:
            del counts[dead]
        if grew:
            ordered = tuple(sorted(counts, key=sort_key))
        else:
            # The candidate set only shrank: the predecessor's order is
            # still correct, restricted to the survivors.
            ordered = tuple(c for c in old.ordered if c in counts)
        return OperationMapState(by_violation, counts, ordered)


def incremental_violations(
    old_db: Database,
    old_violations: FrozenSet[Violation],
    op: Operation,
    constraints: ConstraintSet,
    new_db: Database | None = None,
) -> FrozenSet[Violation]:
    """Functional convenience wrapper around :class:`DeltaViolationIndex`."""
    if new_db is None:
        new_db = op.apply(old_db)
    return DeltaViolationIndex(constraints).violations_after(
        old_db, old_violations, op, new_db
    )


#: The non-incremental reference computation (re-exported so equivalence
#: tests and cold starts name the same definition the engine falls back to).
full_violations = violations
