"""Unit tests for the SQLite backend and the CQ/FO compilers."""

import pytest

from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.parser import parse_cq, parse_query
from repro.sql.backend import SQLiteBackend
from repro.sql.compiler import compile_cq, compile_fo_query
from repro.sql.dialect import check_name


@pytest.fixture
def db():
    return Database.from_tuples(
        {"R": [("a", "b"), ("b", "c"), ("a", "c")], "S": [("b",)]}
    )


@pytest.fixture
def backend(db):
    be = SQLiteBackend()
    be.load(db)
    yield be
    be.close()


class TestBackend:
    def test_roundtrip(self, backend, db):
        assert backend.fetch_database() == db

    def test_table_count(self, backend):
        assert backend.table_count("R") == 3
        assert backend.table_count("S") == 1

    def test_unsafe_identifier_rejected(self):
        with pytest.raises(ValueError):
            check_name("R; DROP TABLE x")

    def test_integer_values_roundtrip(self):
        db = Database.of(Fact("N", (1, 2)), Fact("N", (3, 4)))
        with SQLiteBackend() as be:
            be.load(db)
            assert be.fetch_database() == db

    def test_explicit_schema_creates_empty_tables(self, db):
        with SQLiteBackend() as be:
            be.load(db, Schema.of(R=2, S=1, Empty=3))
            assert be.table_count("Empty") == 0

    def test_extend_adom_idempotent(self, backend):
        backend.extend_adom(["zzz"])
        backend.extend_adom(["zzz"])
        rows = backend.execute("SELECT COUNT(*) FROM _adom WHERE v = 'zzz'")
        assert rows[0][0] == 1

    def test_context_manager_closes(self, db):
        with SQLiteBackend() as be:
            be.load(db)
        with pytest.raises(Exception):
            be.execute("SELECT 1")


class TestCQCompiler:
    def test_simple_projection(self, backend, db):
        cq = parse_cq("Q(x) :- R(x, y)")
        assert compile_cq(cq).run(backend) == cq.answers(db)

    def test_join(self, backend, db):
        cq = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
        assert compile_cq(cq).run(backend) == cq.answers(db)

    def test_constant_in_body(self, backend, db):
        cq = parse_cq("Q(x) :- R(x, 'c')")
        assert compile_cq(cq).run(backend) == cq.answers(db)

    def test_repeated_variable(self, backend):
        # facts with equal columns
        cq = parse_cq("Q(x) :- R(x, x)")
        assert compile_cq(cq).run(backend) == frozenset()

    def test_boolean_cq(self, backend, db):
        cq = parse_cq("Q() :- S(x)")
        assert compile_cq(cq).run(backend) == {()}
        missing = parse_cq("Q() :- R('never', 'never')")
        assert compile_cq(missing).run(backend) == frozenset()

    def test_head_constant(self, backend, db):
        from repro.db.atoms import Atom
        from repro.db.terms import Var
        from repro.queries.cq import ConjunctiveQuery

        cq = ConjunctiveQuery(("tag", Var("x")), (Atom("S", (Var("x"),)),))
        assert compile_cq(cq).run(backend) == {("tag", "b")}

    def test_cross_relation_join(self, backend, db):
        cq = parse_cq("Q(x) :- R(x, y), S(y)")
        assert compile_cq(cq).run(backend) == cq.answers(db)

    def test_relation_map_substitution(self, backend):
        cq = parse_cq("Q(x) :- R(x, y)")
        compiled = compile_cq(cq, {"R": "(SELECT * FROM R WHERE c0 = 'a')"})
        assert compiled.run(backend) == {("a",)}


class TestFOCompiler:
    @pytest.mark.parametrize(
        "text",
        [
            "Q(x) :- exists y R(x, y)",
            "Q(x) :- !S(x)",
            "Q(x) :- forall y (R(x, y) | x = y)",
            "Q(x, y) :- R(x, y) & !R(y, x)",
            "Q(x) :- S(x) | exists y R(y, x)",
            "Q(x) :- exists y (R(x, y) & x != y)",
            "Q() :- exists x S(x)",
            "Q() :- forall x (S(x) -> exists y R(x, y))",
            "Q(x) :- R(x, 'b') | x = 'lonely'",
        ],
    )
    def test_agrees_with_evaluator(self, backend, db, text):
        q = parse_query(text)
        # The in-memory evaluator defaults to dom(D) + formula constants;
        # mirror that domain for the SQL run (it already does by
        # construction: _adom + inline constants).
        assert compile_fo_query(q).run(backend) == q.answers(db)

    def test_forall_empty_relation(self, db):
        # forall over an empty S: vacuously true for every x.
        empty_s = Database.from_tuples({"R": [("a", "b")], "S": []})
        with SQLiteBackend() as be:
            be.load(empty_s, Schema.of(R=2, S=1))
            q = parse_query("Q(x) :- forall y (S(y) -> R(x, y))")
            assert compile_fo_query(q).run(be) == q.answers(empty_s)

    def test_repeated_head_variable(self, backend, db):
        q = parse_query("Q(x, x) :- S(x)")
        assert compile_fo_query(q).run(backend) == {("b", "b")}

    def test_parameters_are_positional_safe(self, backend, db):
        # constants that look like SQL must be passed as parameters
        q = parse_query("Q(x) :- R(x, 'b; DROP TABLE R')")
        assert compile_fo_query(q).run(backend) == frozenset()
        assert backend.table_count("R") == 3
