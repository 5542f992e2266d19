"""PostgreSQL backend integration tests.

These run only when a server is reachable (``REPRO_PG_DSN`` or libpq's
``PG*`` environment variables — the CI job provides a service
container); otherwise every test skips cleanly.  Coverage beyond the
shared conformance suite (which also parameterizes over postgres):
dialect value transport, the full sampler stack, and the seeded
property that PostgresBackend campaigns reproduce SQLiteBackend
campaigns draw for draw.
"""

import random

import pytest

from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.queries.parser import parse_cq, parse_query
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.sql.sampler import KeySpec
from repro.sql.compiler import compile_cq
from repro.sql.dialect import POSTGRES_DIALECT
from repro.workloads import integration_workload, key_conflict_workload

try:
    from repro.sql.postgres import PostgresBackend, postgres_available

    HAVE_POSTGRES = postgres_available()
except Exception:  # pragma: no cover - driver import failure
    HAVE_POSTGRES = False

pytestmark = pytest.mark.skipif(
    not HAVE_POSTGRES, reason="no PostgreSQL server reachable"
)


@pytest.fixture
def backend():
    be = PostgresBackend()
    yield be
    be.close()


class TestDialectTransport:
    def test_encoding_is_bijective(self):
        for value in ("plain", "i:5", "s:x", 7, -3, 2.5, True, False, ""):
            assert POSTGRES_DIALECT.decode(POSTGRES_DIALECT.encode(value)) == value

    def test_mixed_types_roundtrip(self, backend):
        db = Database.of(
            Fact("N", (1, "one")), Fact("N", (2, "two")), Fact("N", (3, "i:3"))
        )
        backend.load(db)
        assert backend.fetch_database() == db

    def test_integer_joins_match_sqlite(self, backend):
        db = Database.from_tuples({"R": [(1, 2), (2, 3), (1, 3)]})
        query = parse_cq("Q(x, z) :- R(x, y), R(y, z)")
        reference = SQLiteBackend()
        reference.load(db)
        backend.load(db)
        assert compile_cq(query).run(backend) == compile_cq(query).run(reference)
        reference.close()


class TestCopyFastPath:
    """``COPY FROM STDIN`` bulk loads are byte-equivalent to executemany."""

    #: Deliberately hostile values for COPY's text format: tabs,
    #: newlines, backslashes, the COPY end marker, empty strings, and
    #: mixed int/float/bool types through the tagged transport.
    NASTY_ROWS = [
        ("plain", "row"),
        ("tab\there", "new\nline"),
        ("back\\slash", "\\."),
        ("", "empty-left"),
        (1, 2),
        (2.5, True),
        ("i:5", "s:tagged-lookalike"),
    ]

    def _loaded(self, monkeypatch, copy_enabled):
        import repro.sql.postgres as pg

        monkeypatch.setenv(pg.COPY_ENV_VAR, "1" if copy_enabled else "0")
        backend = PostgresBackend()
        backend.create_table("CopyConf", 2)
        backend.insert_rows("CopyConf", 2, self.NASTY_ROWS)
        backend.commit()
        rows = sorted(backend.select_all("CopyConf"), key=repr)
        backend.drop_table("CopyConf")
        backend.close()
        return rows

    def test_copy_and_executemany_load_identical_contents(self, monkeypatch):
        via_copy = self._loaded(monkeypatch, copy_enabled=True)
        via_executemany = self._loaded(monkeypatch, copy_enabled=False)
        assert via_copy == via_executemany
        assert via_copy == sorted(
            (tuple(row) for row in self.NASTY_ROWS), key=repr
        )

    def test_full_load_roundtrip_uses_copy(self, backend):
        """The sampler entry point (load) flows through insert_rows, so a
        workload loaded on psycopg3 takes the COPY path and round-trips."""
        workload = key_conflict_workload(
            clean_rows=50, conflict_groups=5, group_size=2, seed=13
        )
        workload.load_into(backend)
        assert backend.fetch_database(workload.schema) == workload.database


class TestSamplerParity:
    """Seeded campaigns are identical across PostgreSQL and SQLite."""

    @pytest.mark.parametrize("seed", [3, 17, 42])
    @pytest.mark.parametrize(
        "policy", [SamplerPolicy.KEEP_ONE_UNIFORM, SamplerPolicy.OPERATIONAL_UNIFORM]
    )
    def test_key_sampler_matches_sqlite_exactly(self, backend, policy, seed):
        workload = key_conflict_workload(
            clean_rows=12, conflict_groups=4, group_size=2, seed=seed
        )
        query = parse_cq("Q(x) :- R(x, y, z)")
        reports = {}
        reference = SQLiteBackend()
        for name, be in (("sqlite", reference), ("postgres", backend)):
            workload.load_into(be)
            sampler = KeyRepairSampler(
                be,
                workload.schema,
                [workload.key_spec],
                policy=policy,
                rng=random.Random(seed),
            )
            reports[name] = sampler.run(query, runs=60)
        assert reports["postgres"].frequencies == reports["sqlite"].frequencies
        reference.close()

    @pytest.mark.parametrize(
        "text", ["Q(x, u) :- R(x, y) & R(u, y)", "Q() :- R(1, y) & R(3, w)"]
    )
    def test_join_plans_match_sqlite_exactly(self, backend, text):
        """Joins plan from their witnesses on both backends; integer
        keys cross PostgreSQL's TEXT columns through the tagged
        transport, and the shared ``a`` links two key groups."""
        database = Database.from_tuples(
            {"R": [(1, "a"), (1, "b"), (2, "c"), (3, "a"), (3, "d"), (4, "e")]}
        )
        schema = Schema.infer(database)
        query = parse_query(text)
        planned, reports = {}, {}
        reference = SQLiteBackend()
        for name, be in (("sqlite", reference), ("postgres", backend)):
            be.load(database, schema)
            sampler = KeyRepairSampler(
                be,
                schema,
                [KeySpec("R", 2, (0,))],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(4),
            )
            planned[name] = sampler._columnar_outcomes(sampler.compile(query), 0, 8)
            reports[name] = sampler.run(query, runs=60)
        assert planned["postgres"] is not None
        assert planned["postgres"] == planned["sqlite"]
        assert reports["postgres"].frequencies == reports["sqlite"].frequencies
        reference.close()

    def test_trust_policy_with_fo_query(self, backend):
        workload = integration_workload(
            keys=10, sources=[("a", 0.9), ("b", 0.4)], conflict_rate=0.5, seed=5
        )
        schema = Schema.infer(workload.database)
        spec_positions = (0,)
        from repro.sql.sampler import KeySpec

        arity = next(iter(schema)).arity
        spec = KeySpec(workload.relation, arity, spec_positions)
        query = parse_query(f"Q(x) :- exists y {workload.relation}(x, y)")
        reports = {}
        reference = SQLiteBackend()
        for name, be in (("sqlite", reference), ("postgres", backend)):
            be.load(workload.database, schema)
            sampler = KeyRepairSampler(
                be,
                schema,
                [spec],
                policy=SamplerPolicy.TRUST,
                trust=workload.trust,
                rng=random.Random(2),
            )
            reports[name] = sampler.run(query, runs=40)
        assert reports["postgres"].frequencies == reports["sqlite"].frequencies
        reference.close()

    def test_adaptive_run_on_postgres(self, backend):
        workload = key_conflict_workload(
            clean_rows=10, conflict_groups=3, group_size=2, seed=8
        )
        workload.load_into(backend)
        sampler = KeyRepairSampler(
            backend,
            workload.schema,
            [workload.key_spec],
            policy=SamplerPolicy.KEEP_ONE_UNIFORM,
            rng=random.Random(4),
            adaptive=True,
        )
        report = sampler.run(parse_cq("Q(x) :- R(x, y, z)"), epsilon=0.05, delta=0.1)
        assert report.runs <= 600
        assert report.adaptive
