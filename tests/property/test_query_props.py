"""Property tests: query engines agree with each other.

- the CQ fast path matches the generic FO evaluator;
- ``parse_query``'s lowering to a CQ matches the first-order reference,
  in memory and in SQL, with string and integer constants mixed;
- the SQL compilers match the in-memory engines;
- OCA probabilities are proper probabilities.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generators import UniformGenerator
from repro.core.oca import exact_oca
from repro.db.atoms import Atom
from repro.db.schema import Schema
from repro.db.terms import Var
from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import parse_query
from repro.sql.backend import SQLiteBackend
from repro.sql.compiler import compile_cq, compile_fo_query

from tests.first_order import CONJUNCTIVE_TEXTS, first_order
from tests.property.strategies import (
    key_sigma,
    key_violation_databases,
    small_binary_databases,
)

X, Y, Z = Var("x"), Var("y"), Var("z")

CQ_SHAPES = [
    ConjunctiveQuery((X,), (Atom("R", (X, Y)),)),
    ConjunctiveQuery((X, Z), (Atom("R", (X, Y)), Atom("R", (Y, Z)))),
    ConjunctiveQuery((X,), (Atom("R", (X, X)),)),
    ConjunctiveQuery((Y,), (Atom("R", ("a", Y)),)),
    ConjunctiveQuery((), (Atom("R", (X, Y)),)),
]

FO_SHAPES = [
    "Q(x) :- exists y R(x, y)",
    "Q(x) :- !(exists y R(x, y))",
    "Q(x, y) :- R(x, y) & !R(y, x)",
    "Q(x) :- forall y (R(y, x) -> R(x, y))",
    "Q() :- exists x R(x, x)",
]


@given(small_binary_databases(), st.sampled_from(CQ_SHAPES))
@settings(max_examples=60, deadline=None)
def test_cq_matches_fo_evaluator(db, cq):
    """Homomorphism evaluation == generic active-domain evaluation."""
    if any(not isinstance(t, Var) for t in cq.head):
        return
    assert cq.answers(db) == cq.to_query().answers(db)


#: ``1`` and ``'1'`` are different constants; so are ``2`` and ``'2'``.
MIXED_CONSTANTS = ("a", "b", 1, 2, "1", "2")


@given(
    small_binary_databases(max_size=6, constants=MIXED_CONSTANTS),
    st.sampled_from(CONJUNCTIVE_TEXTS),
)
@settings(max_examples=80, deadline=None)
def test_lowering_matches_first_order(db, text):
    """``parse_query``'s CQ == ``Query(head, parse_formula(body))``."""
    lowered = parse_query(text)
    reference = first_order(text)
    assert isinstance(lowered, ConjunctiveQuery)
    assert lowered.answers(db) == reference.answers(db)
    schema = Schema.of(R=2)
    with SQLiteBackend() as backend:
        backend.load(db, schema)
        assert compile_cq(lowered).run(backend) == compile_fo_query(
            reference, schema=schema
        ).run(backend)


@given(small_binary_databases(min_size=1), st.sampled_from(CQ_SHAPES))
@settings(max_examples=40, deadline=None)
def test_cq_sql_matches_memory(db, cq):
    with SQLiteBackend() as backend:
        backend.load(db, Schema.of(R=2))
        assert compile_cq(cq).run(backend) == cq.answers(db)


@given(small_binary_databases(min_size=1), st.sampled_from(FO_SHAPES))
@settings(max_examples=40, deadline=None)
def test_fo_sql_matches_memory(db, text):
    query = first_order(text)
    with SQLiteBackend() as backend:
        backend.load(db, Schema.of(R=2))
        compiled = compile_fo_query(query, schema=Schema.of(R=2))
        assert compiled.run(backend) == query.answers(db)


@given(key_violation_databases())
@settings(max_examples=25, deadline=None)
def test_oca_probabilities_are_proper(db):
    """Every CP lies in (0, 1] and certain tuples exist iff CP = 1."""
    cq = ConjunctiveQuery((X,), (Atom("R", (X, Y)),))
    result = exact_oca(db, UniformGenerator(key_sigma()), cq)
    for candidate, probability in result.items():
        assert Fraction(0) < probability <= Fraction(1)
        assert (probability == 1) == (candidate in result.certain())


@given(key_violation_databases())
@settings(max_examples=25, deadline=None)
def test_holds_agrees_with_answers(db):
    """Membership testing equals answer enumeration for every repair."""
    cq = ConjunctiveQuery((X, Y), (Atom("R", (X, Y)),))
    answers = cq.answers(db)
    for x in db.dom:
        for y in db.dom:
            assert cq.holds(db, (x, y)) == ((x, y) in answers)
