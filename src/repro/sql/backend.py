"""The SQL backend: one DB-API connection, one dialect, compiled SQL.

Relations map to tables named after the relation with columns
``c0, ..., c{n-1}``, and nothing else is stored: first-order queries
compute the domain they range over from those tables (see
:mod:`repro.sql.compiler`).

:class:`SQLBackend` is what every consumer in this package (violation
detection, the deletion rewriting, the sampler, the query compilers)
targets: table operations (``create_table``, ``insert_rows``,
``select_all``, ``table_count``, temp delta tables, fact-level deltas)
and raw parameterized SQL (``execute`` /
``executemany`` / ``query_tuples``) over one DB-API 2.0 connection.
Consumers always write qmark (``?``) placeholders and plain Python
terms — the backend's :class:`repro.sql.dialect.SQLDialect` translates
placeholders and transports values.

Two implementations ship: :class:`SQLiteBackend` (below, the only
module allowed to ``import sqlite3``) and
:class:`repro.sql.postgres.PostgresBackend` (optional psycopg).  Use
:func:`create_backend` to select one by name or via the
``REPRO_SQL_BACKEND`` environment variable.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.db.facts import Database, Fact
from repro.db.schema import Schema, SchemaError
from repro.db.terms import Term
from repro.sql.dialect import SQLITE_DIALECT, SQLDialect, check_name


class BackendUnavailableError(RuntimeError):
    """The backend's driver or server is not available in this
    environment (e.g. psycopg is not installed)."""


#: Total attempts (first try included) :func:`retry_transient` makes on
#: transient backend errors.
RETRY_ATTEMPTS = 3


def retry_transient(
    operation,
    *,
    is_transient,
    attempts: int = RETRY_ATTEMPTS,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    on_retry=None,
):
    """Run *operation* with exponential backoff on transient errors.

    The generic retry loop the network-backed backends wrap their
    primitives with: call ``operation()``; when it raises an exception
    *is_transient* accepts, sleep (``base_delay`` doubling up to
    ``max_delay``), invoke *on_retry* (typically: reconnect), and try
    again, up to *attempts* total tries.  Non-transient exceptions and
    the last attempt's failure propagate unchanged, so callers' error
    semantics are untouched on genuine failures.
    """
    import time

    total = max(1, attempts)
    delay = base_delay
    for attempt in range(1, total + 1):
        try:
            return operation()
        except Exception as exc:
            if attempt >= total or not is_transient(exc):
                raise
            time.sleep(delay)
            delay = min(delay * 2.0, max_delay)
            if on_retry is not None:
                on_retry(exc, attempt)


def _validate_row_arity(relation: str, arity: int, rows: Iterable[Sequence]) -> None:
    """Fail loudly on arity mismatches instead of surfacing a cryptic
    driver error from deep inside a bulk insert."""
    for row in rows:
        if len(row) != arity:
            raise SchemaError(
                f"relation {relation} expects arity {arity}, got a row of "
                f"length {len(row)}: {tuple(row)!r}"
            )


class SQLBackend:
    """One DB-API 2.0 connection plus the dialect that speaks to it.

    Every operation funnels through :meth:`execute`/:meth:`executemany`,
    which translate placeholders and transport values via the dialect;
    loading, fact-level deltas and round-tripping build on top.
    :class:`SQLiteBackend` and :class:`repro.sql.postgres.PostgresBackend`
    supply the connection and the dialect.
    """

    def __init__(self, connection, dialect: SQLDialect) -> None:
        self.connection = connection
        self.dialect = dialect
        self.schema: Optional[Schema] = None

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def execute(self, sql: str, parameters: Sequence = ()) -> List[Tuple]:
        """Run qmark-style SQL and fetch all rows (decoded)."""
        cursor = self.connection.cursor()
        if self.dialect.transparent:
            cursor.execute(self.dialect.translate(sql), tuple(parameters))
            if cursor.description is None:
                return []
            return cursor.fetchall()
        cursor.execute(
            self.dialect.translate(sql), self.dialect.encode_row(parameters)
        )
        if cursor.description is None:
            return []
        return [self.dialect.decode_row(row) for row in cursor.fetchall()]

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> None:
        """Run one statement for every parameter row (bulk writes)."""
        cursor = self.connection.cursor()
        if self.dialect.transparent:
            cursor.executemany(self.dialect.translate(sql), rows)
            return
        cursor.executemany(
            self.dialect.translate(sql),
            [self.dialect.encode_row(row) for row in rows],
        )

    def commit(self) -> None:
        self.connection.commit()

    def create_table(self, table: str, arity: int, temp: bool = False) -> None:
        """(Re)create *table* with ``c0..c{arity-1}`` columns."""
        self.execute(self.dialect.drop_table_sql(table, temp))
        self.execute(self.dialect.create_table_sql(table, arity, temp))
        self.commit()

    def drop_table(self, table: str, temp: bool = False) -> None:
        self.execute(self.dialect.drop_table_sql(table, temp))
        self.commit()

    def clear_table(self, table: str) -> None:
        """Delete every row of *table*."""
        self.execute(f"DELETE FROM {check_name(table)}")

    # insert_rows/delete_rows deliberately do not commit: they sit on the
    # per-draw hot path (deletion side tables, temp delta staging).  The
    # durable entry points (load, insert_facts, delete_facts) commit
    # explicitly; everything else rides the open transaction, which the
    # same connection reads back consistently on both SQLite and
    # PostgreSQL.
    def insert_rows(self, table: str, arity: int, rows: Sequence[Sequence[Term]]) -> None:
        if not rows:
            return
        _validate_row_arity(table, arity, rows)
        self.executemany(
            f"INSERT INTO {check_name(table)} VALUES "
            f"({', '.join('?' for _ in range(arity))})",
            rows,
        )

    def delete_rows(self, table: str, arity: int, rows: Sequence[Sequence[Term]]) -> None:
        """Delete all occurrences of each row from *table*."""
        if not rows:
            return
        _validate_row_arity(table, arity, rows)
        condition = " AND ".join(f"c{i} = ?" for i in range(arity))
        self.executemany(
            f"DELETE FROM {check_name(table)} WHERE {condition}", rows
        )

    def select_all(self, table: str) -> List[Tuple[Term, ...]]:
        """Every row of *table*, decoded back to Python terms."""
        return self.execute(f"SELECT * FROM {check_name(table)}")

    def table_count(self, relation: str) -> int:
        """Number of rows currently in *relation*'s table."""
        return self.execute(f"SELECT COUNT(*) FROM {check_name(relation)}")[0][0]

    def close(self) -> None:
        """Release the connection."""
        self.connection.close()

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    def create_schema(self, schema: Schema) -> None:
        """Create one table per relation (dropping existing ones)."""
        for relation in schema:
            self.create_table(relation.name, relation.arity)
        self.schema = schema

    def load(self, database: Database, schema: Optional[Schema] = None) -> None:
        """Create tables for *database* and bulk-insert its facts.

        Rows are validated against the schema's arities up front, so a
        mismatch fails with a clear :class:`repro.db.schema.SchemaError`
        instead of a driver-level operational error mid-insert.
        """
        if schema is None:
            schema = Schema.infer(database)
        self.create_schema(schema)
        for relation in schema:
            rows = database.tuples(relation.name)
            if not rows:
                continue
            # insert_rows validates row arity, raising a clear SchemaError.
            self.insert_rows(relation.name, relation.arity, rows)
        self.commit()

    def _grouped_facts(
        self, facts: Iterable[Fact]
    ) -> Dict[Tuple[str, int], List[Tuple[Term, ...]]]:
        grouped: Dict[Tuple[str, int], List[Tuple[Term, ...]]] = {}
        for fact in facts:
            if self.schema is not None:
                self.schema.validate_fact(fact)
            grouped.setdefault((fact.relation, fact.arity), []).append(fact.values)
        return grouped

    def insert_facts(self, facts: Iterable[Fact]) -> None:
        """Insert *facts* into their base tables (tables must exist)."""
        for (relation, arity), rows in self._grouped_facts(facts).items():
            self.insert_rows(relation, arity, rows)
        self.commit()

    def delete_facts(self, facts: Iterable[Fact]) -> None:
        """Delete *facts* (all duplicates of each row) from base tables."""
        for (relation, arity), rows in self._grouped_facts(facts).items():
            self.delete_rows(relation, arity, rows)
        self.commit()

    def fetch_database(self, schema: Optional[Schema] = None) -> Database:
        """Read the current table contents back into a :class:`Database`."""
        return self.live_database(None, schema)

    def live_database(
        self,
        relation_map: Optional[Mapping[str, str]] = None,
        schema: Optional[Schema] = None,
    ) -> Database:
        """The instance given by *relation_map*'s live views.

        With no map this is the base tables' contents; with the deletion
        rewriter's map it is the current repaired instance.
        """
        schema = schema or self.schema
        if schema is None:
            raise ValueError("no schema known; pass one or call load() first")
        facts = []
        for relation in schema:
            physical = (
                relation_map[relation.name]
                if relation_map and relation.name in relation_map
                else check_name(relation.name)
            )
            for row in self.execute(f"SELECT * FROM {physical} lv"):
                facts.append(Fact(relation.name, tuple(row)))
        return Database(facts)

    def query_tuples(self, sql: str, parameters: Sequence = ()) -> FrozenSet[Tuple]:
        """Run a compiled query and return its rows as a frozenset."""
        return frozenset(tuple(row) for row in self.execute(sql, parameters))

    def __enter__(self) -> "SQLBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SQLiteBackend(SQLBackend):
    """A thin, explicit wrapper around one SQLite connection.

    The only place in the codebase that imports :mod:`sqlite3`.

    *check_same_thread=False* relaxes sqlite's thread-affinity check for
    backends that are handed between threads with external
    serialization — e.g. the scratch backends of in-process shard
    executors, which the coordinator's driver threads use one at a time.
    """

    def __init__(self, path: str = ":memory:", check_same_thread: bool = True) -> None:
        import sqlite3

        super().__init__(
            sqlite3.connect(path, check_same_thread=check_same_thread),
            SQLITE_DIALECT,
        )

    def __enter__(self) -> "SQLiteBackend":
        return self


#: Names accepted by :func:`create_backend` / ``REPRO_SQL_BACKEND``.
BACKEND_NAMES = ("sqlite", "postgres")


def create_backend(name: Optional[str] = None, **kwargs) -> SQLBackend:
    """Instantiate a backend by *name* (default: ``REPRO_SQL_BACKEND``).

    ``sqlite`` accepts ``path=``; ``postgres`` accepts ``dsn=`` (or the
    ``REPRO_PG_DSN`` / standard ``PG*`` environment variables).
    """
    name = (name or os.environ.get("REPRO_SQL_BACKEND", "sqlite")).lower()
    if name == "sqlite":
        return SQLiteBackend(**kwargs)
    if name in ("postgres", "postgresql"):
        from repro.sql.postgres import PostgresBackend

        return PostgresBackend(**kwargs)
    raise ValueError(
        f"unknown SQL backend {name!r}; expected one of {BACKEND_NAMES}"
    )
