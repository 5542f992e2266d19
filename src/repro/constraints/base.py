"""The abstract constraint interface and constraint sets.

Every constraint has the shape ``phi(x) -> psi(x)`` where ``phi`` (the
*body*) is a non-empty conjunction of atoms.  A *violation* of a
constraint in a database ``D`` is a homomorphism ``h`` from the body into
``D`` such that ``D`` does not satisfy ``h(kappa)`` (Definition 2).  The
concrete subclasses (:class:`repro.constraints.TGD`,
:class:`repro.constraints.EGD`, :class:`repro.constraints.DC`) implement
the head check.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.db.atoms import Atom, atoms_constants, atoms_variables
from repro.db.facts import Database, Fact
from repro.db.homomorphism import Assignment, find_homomorphisms
from repro.db.schema import Schema
from repro.db.terms import Term, Var


class Constraint(ABC):
    """Base class for TGDs, EGDs and denial constraints."""

    #: conjunction of body atoms ``phi``
    body: Tuple[Atom, ...]

    def __init__(self, body: Sequence[Atom]) -> None:
        body = tuple(body)
        if not body:
            raise ValueError("constraint bodies must be non-empty")
        self.body = body

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def body_variables(self) -> FrozenSet[Var]:
        """Variables occurring in the body."""
        return atoms_variables(self.body)

    @property
    def variables(self) -> FrozenSet[Var]:
        """All (universally and existentially quantified) variables."""
        return self.body_variables

    @property
    def constants(self) -> FrozenSet[Term]:
        """All constants mentioned by the constraint (contributes to the base)."""
        return atoms_constants(self.body)

    @property
    def body_relations(self) -> FrozenSet[str]:
        """Relation names mentioned by the body atoms.

        The incremental violation engine uses this to skip constraints
        whose body cannot possibly gain or lose a match under a
        single-fact update.
        """
        cached = self.__dict__.get("_body_relations")
        if cached is None:
            cached = frozenset(a.relation for a in self.body)
            self.__dict__["_body_relations"] = cached
        return cached

    @property
    @abstractmethod
    def head_relations(self) -> FrozenSet[str]:
        """Relation names whose facts the head check inspects.

        The incremental engine skips head re-checks for updates not
        touching these relations, so every subclass must state its
        dependency explicitly: an empty set asserts the head is
        database-independent (EGDs compare terms, DC heads are
        ``false``), while :class:`repro.constraints.TGD` returns its
        head atoms' relations.  Deliberately abstract — inheriting a
        silently-empty default would make a future database-inspecting
        head produce stale violation sets instead of an error.
        """

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    @abstractmethod
    def head_holds(self, assignment: Assignment, database: Database) -> bool:
        """Whether the head ``psi`` holds in *database* under *assignment*.

        *assignment* binds every body variable.
        """

    def violating_assignments(self, database: Database) -> Iterator[Assignment]:
        """Yield every body homomorphism under which the head fails."""
        for assignment in find_homomorphisms(self.body, database):
            if not self.head_holds(assignment, database):
                yield assignment

    def is_satisfied(self, database: Database) -> bool:
        """``D |= kappa``: no violating assignment exists."""
        for _ in self.violating_assignments(database):
            return False
        return True

    def body_image(self, assignment: Mapping[Var, Term]) -> FrozenSet[Fact]:
        """The set of facts ``h(phi)`` for a body homomorphism ``h``."""
        return frozenset(atom.substitute(assignment).to_fact() for atom in self.body)

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def schema(self) -> Schema:
        """The minimal schema covering this constraint's atoms."""
        from repro.db.schema import Relation

        return Schema(Relation(a.relation, a.arity) for a in self.body)

    # ------------------------------------------------------------------
    # Identity: constraints are value objects keyed by their structure.
    # ``str`` prints constants bare, so ``repr`` is the identity form.
    # ------------------------------------------------------------------
    @abstractmethod
    def __str__(self) -> str:
        ...

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._key()!r}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((type(self).__name__, self._key()))
            self.__dict__["_hash"] = cached
        return cached

    def __getstate__(self):
        # Never pickle the cached hash: it is per-process (randomized
        # str hashing) and a stale value breaks dict/set lookups after
        # cross-process unpickling (see repro.db.facts.Fact.__getstate__).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @abstractmethod
    def _key(self) -> Tuple:
        ...


class ConstraintSet:
    """An ordered, duplicate-free collection of constraints (``Sigma``)."""

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        seen: List[Constraint] = []
        for constraint in constraints:
            if not isinstance(constraint, Constraint):
                raise TypeError(
                    f"ConstraintSet holds Constraint objects, got {type(constraint).__name__}"
                )
            if constraint not in seen:
                seen.append(constraint)
        self._constraints: Tuple[Constraint, ...] = tuple(seen)

    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        """The constraints, in insertion order."""
        return self._constraints

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __contains__(self, constraint: object) -> bool:
        return constraint in self._constraints

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConstraintSet):
            return set(self._constraints) == set(other._constraints)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._constraints))

    @property
    def constants(self) -> FrozenSet[Term]:
        """All constants appearing in the constraint set."""
        out: set = set()
        for constraint in self._constraints:
            out.update(constraint.constants)
        return frozenset(out)

    def is_satisfied(self, database: Database) -> bool:
        """``D |= Sigma``: every constraint is satisfied."""
        return all(c.is_satisfied(database) for c in self._constraints)

    def schema(self) -> Schema:
        """The minimal schema covering every constraint."""
        merged = Schema()
        for constraint in self._constraints:
            merged = merged.extend(constraint.schema())
        return merged

    def deletion_only(self) -> bool:
        """Whether no constraint can require additions (i.e. no TGDs).

        For TGD-free constraint sets, every justified operation is a
        deletion, so every repairing Markov chain generator over them
        supports only deletions and is non-failing (Proposition 8).
        """
        from repro.constraints.tgd import TGD

        return not any(isinstance(c, TGD) for c in self._constraints)

    def __repr__(self) -> str:
        inner = "; ".join(str(c) for c in self._constraints)
        return f"ConstraintSet({inner})"
