"""Unit tests for Query, ConjunctiveQuery, and the query parser."""

import pytest

from repro.db.atoms import Atom
from repro.db.facts import Database
from repro.db.terms import Var
from repro.parsing import ParseError
from repro.queries import (
    ConjunctiveQuery,
    Exists,
    Forall,
    Query,
    parse_cq,
    parse_formula,
    parse_query,
)
from repro.queries.ast import AtomFormula, Equality, Implies, Not, Or

from tests.first_order import FIRST_ORDER_TEXTS, first_order

X, Y, Z = Var("x"), Var("y"), Var("z")


@pytest.fixture
def db():
    return Database.from_tuples(
        {"R": [("a", "b"), ("b", "c"), ("a", "c")], "S": [("b",)]}
    )


class TestQuery:
    def test_answers(self, db):
        q = Query((X,), Exists((Y,), AtomFormula(Atom("R", (X, Y)))))
        assert q.answers(db) == {("a",), ("b",)}

    def test_boolean_query(self, db):
        yes = Query((), Exists((X,), AtomFormula(Atom("S", (X,)))))
        no = Query((), Exists((X,), AtomFormula(Atom("S", (X, )))))
        assert yes.answers(db) == {()}
        empty = Query((), Exists((X,), AtomFormula(Atom("Missing", (X,)))))
        assert empty.answers(db) == frozenset()

    def test_holds_single_candidate(self, db):
        q = Query((X,), Exists((Y,), AtomFormula(Atom("R", (X, Y)))))
        assert q.holds(db, ("a",))
        assert not q.holds(db, ("c",))

    def test_holds_arity_check(self, db):
        q = Query((X,), Exists((Y,), AtomFormula(Atom("R", (X, Y)))))
        with pytest.raises(ValueError):
            q.holds(db, ("a", "b"))

    def test_repeated_head_variable(self, db):
        q = Query((X, X), AtomFormula(Atom("S", (X,))))
        assert q.answers(db) == {("b", "b")}
        assert q.holds(db, ("b", "b"))
        assert not q.holds(db, ("b", "c"))

    def test_uncovered_free_variable_rejected(self):
        with pytest.raises(ValueError):
            Query((X,), AtomFormula(Atom("R", (X, Y))))

    def test_negation_query(self, db):
        # values never appearing in S
        q = Query((X,), Not(AtomFormula(Atom("S", (X,)))))
        assert q.answers(db) == {("a",), ("c",)}

    def test_forall_query(self, db):
        # x preferred over everything else (the Example 7 shape)
        formula = Forall(
            (Y,),
            Or((AtomFormula(Atom("R", (X, Y))), Equality(X, Y))),
        )
        q = Query((X,), formula)
        assert q.answers(db) == {("a",)}

    def test_value_semantics(self):
        a = Query((X,), AtomFormula(Atom("S", (X,))))
        b = Query((X,), AtomFormula(Atom("S", (X,))))
        assert a == b and hash(a) == hash(b)


class TestConjunctiveQuery:
    def test_answers_via_homomorphisms(self, db):
        cq = ConjunctiveQuery((X, Z), (Atom("R", (X, Y)), Atom("R", (Y, Z))))
        assert cq.answers(db) == {("a", "c")}

    def test_boolean_cq(self, db):
        cq = ConjunctiveQuery((), (Atom("S", (X,)),))
        assert cq.answers(db) == {()}

    def test_head_constant(self, db):
        cq = ConjunctiveQuery(("fixed", X), (Atom("S", (X,)),))
        assert cq.answers(db) == {("fixed", "b")}

    def test_holds(self, db):
        cq = ConjunctiveQuery((X, Y), (Atom("R", (X, Y)),))
        assert cq.holds(db, ("a", "b"))
        assert not cq.holds(db, ("c", "a"))

    def test_holds_with_head_constant(self, db):
        cq = ConjunctiveQuery(("k", X), (Atom("S", (X,)),))
        assert cq.holds(db, ("k", "b"))
        assert not cq.holds(db, ("other", "b"))

    def test_head_variable_must_be_in_body(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((X,), (Atom("R", (Y, Z)),))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery((X,), ())

    def test_to_query_agrees(self, db):
        cq = ConjunctiveQuery((X,), (Atom("R", (X, Y)), Atom("S", (Y,))))
        assert cq.to_query().answers(db) == cq.answers(db)

    def test_to_query_rejects_head_constants(self):
        cq = ConjunctiveQuery(("k",), (Atom("S", (X,)),))
        with pytest.raises(ValueError):
            cq.to_query()

    def test_existential_variables(self):
        cq = ConjunctiveQuery((X,), (Atom("R", (X, Y)),))
        assert cq.existential_variables == {Y}


class TestFormulaParser:
    def test_precedence_or_and(self):
        formula = parse_formula("R(x, y) | S(x) & T(x)")
        # & binds tighter than |
        assert isinstance(formula, Or)

    def test_implication_right_assoc(self):
        formula = parse_formula("S(x) -> S(x) -> S(x)")
        assert isinstance(formula, Implies)
        assert isinstance(formula.conclusion, Implies)

    def test_negation_and_neq(self):
        formula = parse_formula("!S(x) & x != y")
        assert "!" in str(formula)

    def test_quantifier_scope_max(self):
        formula = parse_formula("forall y Pref(x, y) | x = y")
        assert isinstance(formula, Forall)
        assert formula.free_variables() == {X}

    def test_multi_quantified_variables(self):
        formula = parse_formula("exists y, z (R(x, y) & R(y, z))")
        assert formula.free_variables() == {X}

    def test_constants(self):
        formula = parse_formula("R(x, 'lit') & x = 3")
        assert formula.constants() == {"lit", 3}

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("R(x, ")
        with pytest.raises(ParseError):
            parse_formula("R(x) extra")


class TestQueryParser:
    def test_named_query(self, db):
        q = parse_query("Answer(x) :- R(x, y)")
        assert q.name == "Answer"
        assert q.answers(db) == {("a",), ("b",)}

    def test_auto_existential(self, db):
        q = parse_query("Q(y) :- R(x, y)")
        assert q.answers(db) == {("b",), ("c",)}

    def test_boolean(self, db):
        q = parse_query("Q() :- S(x)")
        assert q.answers(db) == {()}

    def test_anonymous_head(self, db):
        q = parse_query("(x) := S(x)")
        assert q.answers(db) == {("b",)}

    def test_paper_example7_query(self, db):
        q = parse_query("Q(x) :- forall y (R(x, y) | x = y)")
        assert q.answers(db) == {("a",)}

    def test_conjunctive_body_lowers_to_a_cq(self):
        q = parse_query("Answer(x) :- R(x, y) & exists y S(y)")
        assert q == ConjunctiveQuery(
            (X,), (Atom("R", (X, Y)), Atom("S", (Var("y_1"),)))
        )
        assert q.name == "Answer"

    @pytest.mark.parametrize("text", FIRST_ORDER_TEXTS)
    def test_other_bodies_stay_first_order(self, text):
        q = parse_query(text)
        assert type(q) is Query
        assert q == first_order(text)

    def test_from_query_lowers_a_hand_built_query(self, db):
        q = Query((X,), Exists((Y,), AtomFormula(Atom("R", (X, Y)))))
        cq = ConjunctiveQuery.from_query(q)
        assert cq == ConjunctiveQuery((X,), (Atom("R", (X, Y)),))
        assert cq.answers(db) == q.answers(db)


class TestIdentity:
    """``repr`` is structural; ``str`` is display text."""

    def test_constants_and_variables_are_told_apart(self):
        texts = ("Q(x) :- R(x, 1)", "Q(x) :- R(x, '1')", "Q(x) :- R(x, v1)")
        queries = [parse_query(text) for text in texts]
        queries.append(parse_query("Q(x) :- R(x, 'v1')"))
        assert str(queries[2]) == str(queries[3])
        assert len({repr(q) for q in queries}) == 4
        one, quoted_one = (
            first_order(f"Q(x) :- !R(x, {c})") for c in ("1", "'1'")
        )
        assert str(one) == str(quoted_one)
        assert repr(one) != repr(quoted_one)

    def test_constraints_are_told_apart(self):
        from repro.constraints import parse_constraints

        quoted, bare = parse_constraints("R(x, 'b') -> false\nR(x, b) -> false")
        assert str(quoted) == str(bare)
        assert repr(quoted) != repr(bare)


class TestCQParser:
    def test_basic(self, db):
        cq = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
        assert cq.answers(db) == {("a", "c")}

    def test_constant_in_body(self, db):
        cq = parse_cq("Q(x) :- R(x, 'b')")
        assert cq.answers(db) == {("a",)}

    def test_boolean_cq(self, db):
        cq = parse_cq("Q() :- S(x)")
        assert cq.answers(db) == {()}
