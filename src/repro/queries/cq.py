"""Conjunctive queries.

A conjunctive query ``Q(x) :- R1(..), ..., Rk(..)`` is evaluated through
homomorphism search (Section 2), which is far cheaper than the generic
active-domain evaluator for the common case.  A CQ converts losslessly to
a general :class:`repro.queries.Query` via :meth:`to_query`, and
:meth:`from_query` lowers a first-order query back whenever its formula
is conjunctive.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.db.atoms import Atom, atoms_variables
from repro.db.facts import Database
from repro.db.homomorphism import find_homomorphisms
from repro.db.terms import Term, Var, is_var, term_str
from repro.queries.ast import And, AtomFormula, Exists, Formula
from repro.queries.query import Query


class ConjunctiveQuery:
    """``Q(head) :- body`` where the body is a conjunction of atoms.

    Body variables outside the head are existentially quantified.  The
    head may also contain constants (returned verbatim in each answer).
    """

    def __init__(
        self, head: Sequence[Term], body: Sequence[Atom], name: str = "Q"
    ) -> None:
        self.head: Tuple[Term, ...] = tuple(head)
        self.body: Tuple[Atom, ...] = tuple(body)
        self.name = name
        if not self.body:
            raise ValueError("conjunctive query bodies must be non-empty")
        body_vars = atoms_variables(self.body)
        missing = {t for t in self.head if is_var(t)} - set(body_vars)
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"head variables not in body: {names}")

    @property
    def arity(self) -> int:
        """Number of head positions."""
        return len(self.head)

    @property
    def is_boolean(self) -> bool:
        """Whether the query has an empty head."""
        return not self.head

    @property
    def head_variables(self) -> Tuple[Var, ...]:
        """Head positions that are variables, in order, without duplicates."""
        seen = dict.fromkeys(t for t in self.head if is_var(t))
        return tuple(seen)

    @property
    def existential_variables(self) -> FrozenSet[Var]:
        """Body variables that are not head variables."""
        return atoms_variables(self.body) - frozenset(self.head_variables)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def answers(self, database: Database) -> FrozenSet[Tuple[Term, ...]]:
        """All answers, via homomorphism search."""
        out = set()
        for hom in find_homomorphisms(self.body, database):
            out.add(tuple(hom[t] if is_var(t) else t for t in self.head))
        return frozenset(out)

    def holds(self, database: Database, candidate: Tuple[Term, ...]) -> bool:
        """Whether *candidate* is an answer (single membership test)."""
        if len(candidate) != self.arity:
            raise ValueError(
                f"candidate arity {len(candidate)} does not match query arity {self.arity}"
            )
        partial = {}
        for term, value in zip(self.head, candidate):
            if is_var(term):
                bound = partial.get(term)
                if bound is not None and bound != value:
                    return False
                partial[term] = value
            elif term != value:
                return False
        for _ in find_homomorphisms(self.body, database, partial):
            return True
        return False

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_formula(self) -> Formula:
        """The CQ as a first-order formula (existential conjunction)."""
        conjunction: Formula = (
            AtomFormula(self.body[0])
            if len(self.body) == 1
            else And(tuple(AtomFormula(a) for a in self.body))
        )
        existentials = tuple(
            sorted(self.existential_variables, key=lambda v: v.name)
        )
        if existentials:
            return Exists(existentials, conjunction)
        return conjunction

    def to_query(self) -> Query:
        """The CQ as a general :class:`repro.queries.Query`.

        Head constants are not expressible in a general query head, so
        they must be absent (use variables plus equality atoms instead).
        """
        if any(not is_var(t) for t in self.head):
            raise ValueError("cannot convert a CQ with head constants to a Query")
        return Query(tuple(self.head), self.to_formula(), name=self.name)

    @classmethod
    def from_query(cls, query: Query) -> Optional["ConjunctiveQuery"]:
        """The CQ equal to *query*, or ``None`` when it is not one.

        *query* is one when its formula is atoms under ``&`` and
        ``exists`` and every head variable occurs in an atom; then its
        answers never depend on the domain.  Bound variables are renamed
        apart (an inner ``exists y`` under a scope that already binds
        ``y``, an ``exists x`` over a head variable), and a quantified
        variable that occurs in no atom drops out: a satisfied body atom
        makes the domain non-empty.  Negation, ``forall``, ``|``, ``->``,
        equality and ``true``/``false`` stay first-order.
        """
        body: List[Atom] = []
        scope = {var: var for var in query.head}
        if not _flatten(query.formula, scope, set(query.head), body):
            return None
        if not set(query.head) <= atoms_variables(body):
            return None
        return cls(query.head, body, name=query.name)

    def __str__(self) -> str:
        head = ", ".join(term_str(t) for t in self.head)
        body = ", ".join(str(a) for a in self.body)
        return f"{self.name}({head}) :- {body}"

    def __repr__(self) -> str:
        return f"ConjunctiveQuery(head={self.head!r}, body={self.body!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))


def _flatten(
    formula: Formula, scope: Dict[Var, Var], taken: Set[Var], body: List[Atom]
) -> bool:
    """Append *formula*'s atoms, renamed by *scope*, to *body*; ``False``
    when *formula* leaves the conjunctive fragment.  *taken* holds every
    name already given out, so each binder gets a name of its own."""
    if isinstance(formula, AtomFormula):
        body.append(formula.atom.substitute(scope))
        return True
    if isinstance(formula, And):
        return all(_flatten(part, scope, taken, body) for part in formula.operands)
    if isinstance(formula, Exists):
        inner = dict(scope)
        for var in formula.variables:
            fresh, suffix = var, 0
            while fresh in taken:
                suffix += 1
                fresh = Var(f"{var.name}_{suffix}")
            taken.add(fresh)
            inner[var] = fresh
        return _flatten(formula.operand, inner, taken, body)
    return False
