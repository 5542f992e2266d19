"""First-order queries ``Q(x) = {x | phi}``.

A :class:`Query` pairs a tuple of head (free) variables with a formula and
evaluates to the set of head-variable bindings that satisfy the formula —
the paper's ``Q(D) = {c in dom(D)^|x| : D |= phi(c)}``.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Sequence, Tuple

from repro.db.facts import Database
from repro.db.terms import Term, Var
from repro.queries.ast import Formula
from repro.queries.eval import evaluate_formula


class Query:
    """A first-order query with an explicit head-variable tuple.

    The head may repeat variables and may omit some free variables only if
    the formula has no other free variables — i.e. every free variable of
    the formula must appear in the head, as in the paper's definition.
    """

    def __init__(self, head: Sequence[Var], formula: Formula, name: str = "Q") -> None:
        self.head: Tuple[Var, ...] = tuple(head)
        self.formula = formula
        self.name = name
        uncovered = formula.free_variables() - frozenset(self.head)
        if uncovered:
            names = ", ".join(sorted(v.name for v in uncovered))
            raise ValueError(
                f"free variables not in query head: {names}"
            )

    @property
    def arity(self) -> int:
        """Number of head positions (0 for boolean queries)."""
        return len(self.head)

    @property
    def is_boolean(self) -> bool:
        """Whether the query has an empty head (a sentence)."""
        return not self.head

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def answers(self, database: Database) -> FrozenSet[Tuple[Term, ...]]:
        """All answer tuples ``Q(D)`` over ``dom(D)`` plus the formula's
        constants.

        For a boolean query the result is ``{()}`` if the sentence holds
        and ``frozenset()`` otherwise.
        """
        dom: Tuple[Term, ...] = tuple(
            sorted(
                set(database.dom) | set(self.formula.constants()),
                key=lambda c: (type(c).__name__, str(c)),
            )
        )
        if self.is_boolean:
            holds = evaluate_formula(self.formula, database, {}, dom)
            return frozenset([()]) if holds else frozenset()
        distinct = tuple(dict.fromkeys(self.head))
        answers = set()
        for values in product(dom, repeat=len(distinct)):
            assignment = dict(zip(distinct, values))
            if evaluate_formula(self.formula, database, assignment, dom):
                answers.add(tuple(assignment[v] for v in self.head))
        return frozenset(answers)

    def holds(self, database: Database, candidate: Tuple[Term, ...]) -> bool:
        """Whether a single candidate tuple is an answer on *database*.

        This is the membership test used by OCQA: ``t in Q(s(D))``.  It is
        much cheaper than :meth:`answers` because only one assignment is
        evaluated.
        """
        if len(candidate) != self.arity:
            raise ValueError(
                f"candidate arity {len(candidate)} does not match query arity {self.arity}"
            )
        assignment = {}
        for var, value in zip(self.head, candidate):
            bound = assignment.get(var)
            if bound is not None and bound != value:
                return False
            assignment[var] = value
        dom: Tuple[Term, ...] = tuple(
            sorted(
                set(database.dom) | set(self.formula.constants()) | set(candidate),
                key=lambda c: (type(c).__name__, str(c)),
            )
        )
        return evaluate_formula(self.formula, database, assignment, dom)

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.head)
        return f"{self.name}({names}) :- {self.formula}"

    def __repr__(self) -> str:
        return f"Query(head={self.head!r}, formula={self.formula!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.head == other.head and self.formula == other.formula

    def __hash__(self) -> int:
        return hash((self.head, self.formula))
