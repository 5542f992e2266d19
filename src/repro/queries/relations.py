"""Which relations a query's answer can depend on.

The result cache migrates a cached answer across a base-table delta
only when it can *prove* the answer never looked at anything the delta
touched.  Two ingredients:

- :func:`query_relations` — every relation the query mentions
  syntactically (always computable);
- :func:`dependency_relations` — the relation set usable as a
  *dependency footprint*, or ``None`` when no sound footprint exists.

A conjunctive query binds every variable through an atom, so its
answers depend on the relations it mentions and nothing else.  A
first-order :class:`repro.queries.Query` ranges over ``dom(D)``, which
*every* fact in the instance extends, regardless of relation, so it
has no sound footprint; the cache then falls back to conservative
invalidation for those entries.  ``parse_query`` returns a
:class:`repro.queries.ConjunctiveQuery` for every conjunctive body
(:meth:`repro.queries.ConjunctiveQuery.from_query`), so the query's
type is the whole test.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Union

from repro.queries.ast import AtomFormula, Formula
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query

__all__ = ["dependency_relations", "query_relations"]

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


def dependency_relations(query: AnyQuery) -> Optional[FrozenSet[str]]:
    """The sound dependency footprint, or ``None`` if none exists.

    ``None`` means "may depend on the whole instance": the caller must
    treat any delta as touching this query.
    """
    if isinstance(query, ConjunctiveQuery):
        return query_relations(query)
    return None
