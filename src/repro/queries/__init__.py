"""First-order queries over databases (Section 2).

A query ``Q(x) = {x | phi}`` returns the tuples of active-domain constants
satisfying the first-order formula ``phi``.  The package provides:

- a formula AST (:mod:`repro.queries.ast`);
- an active-domain evaluator (:mod:`repro.queries.eval`);
- a textual parser (:func:`parse_query`, :func:`parse_formula`);
- conjunctive queries with a homomorphism-based fast path
  (:class:`ConjunctiveQuery`).

The query's type decides how it is evaluated.  :func:`parse_query`
returns a :class:`ConjunctiveQuery` for every conjunctive body (atoms
under ``&`` / ``exists``, every head variable in an atom), which the
in-memory engine answers by homomorphism search and the SQL compiler
as one flat join; everything else is a first-order :class:`Query`,
answered over the domain.  A hand-built :class:`Query` stays
first-order, which is always correct and serves as the reference.
"""

from repro.queries.ast import (
    Formula,
    AtomFormula,
    Equality,
    Not,
    And,
    Or,
    Implies,
    Exists,
    Forall,
    TrueFormula,
    FalseFormula,
)
from repro.queries.eval import evaluate_formula
from repro.queries.query import Query
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_cq, parse_formula, parse_query
from repro.queries.relations import dependency_relations, query_relations

__all__ = [
    "Formula",
    "AtomFormula",
    "Equality",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "TrueFormula",
    "FalseFormula",
    "evaluate_formula",
    "Query",
    "ConjunctiveQuery",
    "parse_formula",
    "parse_query",
    "parse_cq",
    "dependency_relations",
    "query_relations",
]
