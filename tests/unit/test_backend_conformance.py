"""Backend-conformance suite: every backend, same protocol, same answers.

Parameterized over :class:`SQLiteBackend` and (when a server is
reachable) :class:`PostgresBackend`: identical schema/load/round-trip
behaviour and delta-table semantics, compiled-query answers equal to the
core evaluators' (``Query.answers``), every conjunctive text that
``parse_query`` lowers compiling to the same answers as its first-order
reference, violation detection equal to the core conflict hypergraph,
and identical *seeded* sampler output — the
campaign's per-group RNG streams make the draws backend-independent, so
the reports must match exactly, not just statistically.
"""

import random

import pytest

from repro.abc_repairs.conflicts import conflict_hypergraph
from repro.cli import main
from repro.constraints import ConstraintSet
from repro.db.facts import Database, Fact
from repro.db.schema import Schema, SchemaError
from repro.io import save_database
from repro.queries import ConjunctiveQuery
from repro.queries.parser import parse_cq, parse_query
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLDeltaViolationIndex,
    SQLiteBackend,
    conflict_hypergraph_sql,
    create_backend,
    violating_fact_sets,
)
from repro.sql.rewriting import DeletionRewriter
from repro.sql.compiler import compile_cq, compile_fo_query
from repro.workloads import key_conflict_workload, preference_workload

from tests.first_order import CONJUNCTIVE_TEXTS, first_order

try:
    from repro.sql.postgres import postgres_available

    HAVE_POSTGRES = postgres_available()
except Exception:  # pragma: no cover - driver import failure
    HAVE_POSTGRES = False

BACKENDS = ["sqlite"] + (["postgres"] if HAVE_POSTGRES else [])


@pytest.fixture(params=BACKENDS)
def backend(request):
    be = create_backend(request.param)
    yield be
    be.close()


DB = Database.from_tuples(
    {"R": [("a", "b"), ("b", "c"), ("a", "c"), (1, 2)], "S": [("b",)]}
)


class TestProtocolBasics:
    def test_roundtrip(self, backend):
        backend.load(DB)
        assert backend.fetch_database() == DB

    def test_table_count(self, backend):
        backend.load(DB)
        assert backend.table_count("R") == 4
        assert backend.table_count("S") == 1

    def test_insert_delete_facts(self, backend):
        backend.load(DB)
        extra = Fact("S", ("z",))
        backend.insert_facts([extra])
        assert backend.table_count("S") == 2
        backend.delete_facts([extra])
        assert backend.fetch_database() == DB

    def test_load_validates_arity(self, backend):
        bad = Database.of(Fact("R", ("a", "b", "c")))
        with pytest.raises(SchemaError):
            backend.load(bad, Schema.of(R=2))

    def test_insert_facts_validates_arity(self, backend):
        backend.load(DB)
        with pytest.raises(SchemaError):
            backend.insert_facts([Fact("R", ("only-one",))])

    def test_explicit_schema_creates_empty_tables(self, backend):
        backend.load(DB, Schema.of(R=2, S=1, Empty=3))
        assert backend.table_count("Empty") == 0

    def test_temp_delta_table(self, backend):
        backend.load(DB)
        backend.create_table("R__delta", 2, temp=True)
        backend.insert_rows("R__delta", 2, [("x", "y"), ("u", "v")])
        assert backend.table_count("R__delta") == 2
        backend.clear_table("R__delta")
        assert backend.table_count("R__delta") == 0

    def test_unsafe_identifier_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.create_table("R; DROP TABLE x", 2)


def _tagged_sqlite_backend():
    """PostgreSQL value-transport rules grafted onto SQLite syntax.

    Lets the non-transparent DBAPI code path (parameter encoding, row
    decoding, placeholder translation plumbing) run against a real
    database locally, without a PostgreSQL server.
    """
    from repro.sql.dialect import PostgresDialect

    class TaggedDialect(PostgresDialect):
        name = "tagged-sqlite"
        placeholder = "?"
        column_type = ""

    be = SQLiteBackend()
    be.dialect = TaggedDialect()
    return be


class TestTaggedTransportOverSQLite:
    def test_mixed_type_roundtrip(self):
        db = Database.of(
            Fact("N", (1, "one")), Fact("N", (2, "i:2")), Fact("N", (3, "s:x"))
        )
        with _tagged_sqlite_backend() as be:
            be.load(db)
            assert be.fetch_database() == db

    def test_compiled_query_with_constants(self):
        with _tagged_sqlite_backend() as be:
            be.load(DB)
            query = parse_cq("Q(x) :- R(x, 'b')")
            assert compile_cq(query).run(be) == {("a",)}
            numeric = parse_cq("Q(x) :- R(1, x)")
            assert compile_cq(numeric).run(be) == {(2,)}

    def test_seeded_sampler_matches_plain_sqlite(self):
        workload = key_conflict_workload(
            clean_rows=6, conflict_groups=3, group_size=2, seed=12
        )
        query = parse_cq("Q(x) :- R(x, y, z)")
        reports = {}
        for name, be in (("plain", SQLiteBackend()), ("tagged", _tagged_sqlite_backend())):
            workload.load_into(be)
            sampler = KeyRepairSampler(
                be,
                workload.schema,
                [workload.key_spec],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(9),
            )
            reports[name] = sampler.run(query, runs=40)
            be.close()
        assert reports["tagged"].frequencies == reports["plain"].frequencies


class TestBackendSelection:
    """Only SQL engines ship: ``memory`` is refused by every selector."""

    def test_create_backend_refuses_memory(self, monkeypatch):
        with pytest.raises(ValueError, match="'sqlite', 'postgres'"):
            create_backend("memory")
        monkeypatch.setenv("REPRO_SQL_BACKEND", "memory")
        with pytest.raises(ValueError, match="'sqlite', 'postgres'"):
            create_backend()

    def test_cli_refuses_memory_backend(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        save_database(DB, db_path)
        sigma_path = tmp_path / "sigma.txt"
        sigma_path.write_text("R(x, y), R(x, z) -> y = z\n")
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "sql-sample",
                    "--db", str(db_path),
                    "--constraints", str(sigma_path),
                    "--query", "Q(x) :- R(x, y)",
                    "--backend", "memory",
                ]
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'memory'" in capsys.readouterr().err


class TestQueryConformance:
    CQ = parse_cq("Q(x) :- R(x, y), S(y)")
    FO = parse_query("Q(x) :- forall y (S(y) -> R(x, y))")
    BOOL = parse_query("Q() :- exists x exists y R(x, y)")
    FO_BOOL = parse_query("Q() :- forall x (S(x) -> exists y R(y, x))")

    @pytest.mark.parametrize(
        "query", [CQ, FO, BOOL, FO_BOOL], ids=["cq", "fo", "bool", "fo_bool"]
    )
    def test_same_answers_as_sqlite(self, backend, query):
        backend.load(DB)
        if isinstance(query, ConjunctiveQuery):
            compiled = compile_cq(query)
        else:
            compiled = compile_fo_query(query, schema=backend.schema)
        assert compiled.run(backend) == query.answers(backend.fetch_database())

    @pytest.mark.parametrize("text", CONJUNCTIVE_TEXTS)
    def test_lowered_query_matches_first_order(self, backend, text):
        db = Database.from_tuples(
            {"R": [("a", "b"), ("b", "a"), ("a", 1), ("b", "1"), (1, 1), ("1", "a")]}
        )
        backend.load(db)
        lowered = parse_query(text)
        reference = first_order(text)
        assert isinstance(lowered, ConjunctiveQuery)
        answers = compile_cq(lowered).run(backend)
        assert answers == reference.answers(db)
        assert answers == compile_fo_query(reference, schema=backend.schema).run(
            backend
        )

    def test_rewritten_answers_match(self, backend):
        backend.load(DB)
        schema = Schema.of(R=2, S=1)
        rewriter = DeletionRewriter(backend, schema)
        deleted = {Fact("R", ("a", "b")), Fact("R", (1, 2))}
        rewriter.mark_deleted(deleted)
        assert rewriter.deleted_count("R") == 2
        live = rewriter.live_database()
        assert live == DB - deleted
        relation_map = rewriter.relation_map()
        cq = parse_cq("Q(x, y) :- R(x, y)")
        assert compile_cq(cq, relation_map).run(backend) == cq.answers(live)
        # Domain-dependent: 1 and 2 left the repair's domain with R(1, 2).
        fo = parse_query("Q(x) :- !S(x)")
        compiled = compile_fo_query(fo, relation_map, schema=schema)
        assert compiled.run(backend) == fo.answers(live) == {("a",), ("c",)}


class TestViolationConformance:
    def test_hypergraph_matches_sqlite(self, backend):
        db, sigma = preference_workload(products=12, edges=30, conflicts=5, seed=2)
        backend.load(db, Schema.of(Pref=2))
        assert conflict_hypergraph_sql(backend, sigma) == conflict_hypergraph(db, sigma)
        for constraint in sigma:
            assert violating_fact_sets(backend, constraint) == conflict_hypergraph(
                db, ConstraintSet([constraint])
            )

    def test_delta_index_tracks_updates(self, backend):
        db, sigma = preference_workload(products=10, edges=24, conflicts=4, seed=7)
        backend.load(db, Schema.of(Pref=2))
        index = SQLDeltaViolationIndex(backend, sigma)
        rng = random.Random(13)
        live = set(db.facts)
        for step in range(10):
            if live and rng.random() < 0.5:
                removed = set(rng.sample(sorted(live, key=str), rng.randint(1, 3)))
                live -= removed
                backend.delete_facts(removed)
                index.apply_delete(removed)
            else:
                added = {
                    Fact("Pref", (f"p{rng.randint(0, 7)}", f"p{rng.randint(0, 7)}"))
                } - live
                live |= added
                backend.insert_facts(added)
                index.apply_insert(added)
            assert index.current() == conflict_hypergraph_sql(backend, sigma), step


class TestSamplerConformance:
    """Seeded sampler campaigns are *identical* across backends."""

    def _key_report(self, be, workload, query, policy, runs=60):
        workload.load_into(be)
        sampler = KeyRepairSampler(
            be,
            workload.schema,
            [workload.key_spec],
            policy=policy,
            rng=random.Random(23),
        )
        return sampler.run(query, runs=runs)

    @pytest.mark.parametrize(
        "policy", [SamplerPolicy.KEEP_ONE_UNIFORM, SamplerPolicy.OPERATIONAL_UNIFORM]
    )
    def test_key_sampler_identical_to_sqlite(self, backend, policy):
        workload = key_conflict_workload(
            clean_rows=8, conflict_groups=3, group_size=2, seed=4
        )
        query = parse_cq("Q(x) :- R(x, y, z)")
        reference = SQLiteBackend()
        expected = self._key_report(reference, workload, query, policy)
        actual = self._key_report(backend, workload, query, policy)
        assert actual.frequencies == expected.frequencies
        assert actual.runs == expected.runs
        reference.close()

    def test_generic_sampler_identical_to_sqlite(self, backend):
        db, sigma = preference_workload(products=10, edges=20, conflicts=4, seed=3)
        schema = Schema.of(Pref=2)
        query = parse_cq("Q(x) :- Pref(x, y)")
        reports = {}
        reference = SQLiteBackend()
        for name, be in (("ref", reference), ("uut", backend)):
            be.load(db, schema)
            sampler = ConstraintRepairSampler(be, schema, sigma, rng=random.Random(5))
            reports[name] = sampler.run(query, runs=50)
        assert reports["uut"].frequencies == reports["ref"].frequencies
        reference.close()

    def test_generic_sampler_apply_update_on_any_backend(self, backend):
        db, sigma = preference_workload(products=10, edges=20, conflicts=4, seed=6)
        schema = Schema.of(Pref=2)
        backend.load(db, schema)
        sampler = ConstraintRepairSampler(backend, schema, sigma, rng=random.Random(1))
        before = len(sampler.components)
        victim = sorted(
            (f for component in sampler.components for f in component), key=str
        )[0]
        sampler.apply_update(removed=[victim])
        assert conflict_hypergraph_sql(backend, sigma) == sampler.violation_index.current()
        sampler.apply_update(added=[victim])
        assert len(sampler.components) == before
        assert conflict_hypergraph_sql(backend, sigma) == sampler.violation_index.current()
