"""Which relations a query's answer can depend on.

The result cache migrates a cached answer across a base-table delta
only when it can *prove* the answer never looked at anything the delta
touched.  Three ingredients:

- :func:`query_relations` — every relation the query mentions
  syntactically (always computable);
- :func:`domain_independent` — whether the answer is determined by the
  mentioned relations alone, or also by ``dom(D)``;
- :func:`dependency_relations` — the relation set usable as a
  *dependency footprint*, or ``None`` when no sound footprint exists.

A first-order query ranges over ``dom(D)``, which *every* fact in the
instance extends, regardless of relation; a universal quantifier, a
negation, an unguarded equality, or a head variable that occurs in no
atom makes the answer depend on it.  Rather than reimplement safe-range
analysis, :func:`domain_independent` accepts exactly the conjunctive
fragment (atoms composed with conjunction and existential
quantification, the shape ``parse_query`` produces for Datalog-style
bodies) whose head variables all occur in an atom.  The SQL compiler
picks each query's quantifier range by the same test
(:mod:`repro.sql.compiler`), and the footprint is ``None`` for anything
else; the cache then falls back to conservative invalidation for those
entries.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Union

from repro.queries.ast import And, AtomFormula, Exists, Formula
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query

__all__ = ["dependency_relations", "domain_independent", "query_relations"]

AnyQuery = Union[Query, ConjunctiveQuery]


def _formula_relations(formula: Formula) -> FrozenSet[str]:
    if isinstance(formula, AtomFormula):
        return frozenset((formula.atom.relation,))
    out: set = set()
    for attr in ("operand", "premise", "conclusion", "operands"):
        value = getattr(formula, attr, None)
        if value is None:
            continue
        if isinstance(value, Formula):
            out |= _formula_relations(value)
        else:
            for part in value:
                out |= _formula_relations(part)
    return frozenset(out)


def query_relations(query: AnyQuery) -> FrozenSet[str]:
    """Every relation the query mentions."""
    if isinstance(query, ConjunctiveQuery):
        return frozenset(atom.relation for atom in query.body)
    return _formula_relations(query.formula)


def _conjunctive_fragment(formula: Formula) -> bool:
    """True when *formula* is atoms under only ``And`` / ``Exists``."""
    if isinstance(formula, AtomFormula):
        return True
    if isinstance(formula, Exists):
        return _conjunctive_fragment(formula.operand)
    if isinstance(formula, And):
        return all(_conjunctive_fragment(part) for part in formula.operands)
    return False


def domain_independent(query: AnyQuery) -> bool:
    """True when the answers never depend on ``dom(D)``: the query is in
    the conjunctive fragment and every head variable occurs free in an
    atom."""
    if isinstance(query, ConjunctiveQuery):
        return True
    return _conjunctive_fragment(query.formula) and frozenset(
        query.head
    ) <= query.formula.free_variables()


def dependency_relations(query: AnyQuery) -> Optional[FrozenSet[str]]:
    """The sound dependency footprint, or ``None`` if none exists.

    ``None`` means "may depend on the whole instance": the caller must
    treat any delta as touching this query.
    """
    if not domain_independent(query):
        return None
    return query_relations(query)
