"""PostgreSQL backend (optional dependency).

Implements the :class:`repro.sql.backend.SQLBackend` protocol over a
psycopg (v3) or psycopg2 connection.  All engine differences live in
:class:`repro.sql.dialect.PostgresDialect`: ``%s`` placeholders, TEXT
columns with tagged value transport, and unqualified temp-table drops.
Everything else — loading, deltas, temp delta tables, the deletion
rewriting, compiled queries — is the shared
:class:`repro.sql.backend.DBAPIBackend` logic, byte-for-byte the same
SQL the SQLite backend runs.

The driver is imported lazily so the rest of the package works in
environments without psycopg; constructing the backend there raises
:class:`repro.sql.backend.BackendUnavailableError` (tests use
:func:`postgres_available` to skip cleanly).

Connection selection, in order: an explicit ``connection``, an explicit
``dsn``, the ``REPRO_PG_DSN`` environment variable, then libpq's own
``PG*`` environment variables.
"""

from __future__ import annotations

import logging
import os
from typing import List, Optional, Sequence, Tuple

from repro.db.terms import Term
from repro.sql.backend import (
    BackendUnavailableError,
    DBAPIBackend,
    _validate_row_arity,
    retry_transient,
)
from repro.sql.dialect import check_name
from repro.sql.dialect import POSTGRES_DIALECT

log = logging.getLogger("repro.sql.postgres")

#: Environment variable holding the default connection string.
DSN_ENV_VAR = "REPRO_PG_DSN"

#: Set to ``0``/``false`` to force the generic ``executemany`` insert
#: path (used by the conformance test to compare both paths; also an
#: escape hatch should a driver's COPY support misbehave).
COPY_ENV_VAR = "REPRO_PG_COPY"


def _copy_enabled() -> bool:
    return os.environ.get(COPY_ENV_VAR, "1").lower() not in ("0", "false", "no")


def _load_driver():
    try:
        import psycopg

        return psycopg
    except ImportError:
        pass
    try:
        import psycopg2

        return psycopg2
    except ImportError:
        raise BackendUnavailableError(
            "the PostgreSQL backend needs psycopg (or psycopg2); install "
            "one or select the sqlite/memory backend"
        ) from None


def default_dsn() -> str:
    """The connection string from ``REPRO_PG_DSN`` (possibly empty —
    libpq then falls back to its ``PG*`` environment variables)."""
    return os.environ.get(DSN_ENV_VAR, "")


#: Driver exception class names treated as *transient* (connection-level
#: failures a reconnect can fix).  Matched by name across the exception's
#: MRO, so psycopg 3, psycopg2, and their OS-level causes all classify
#: without importing either driver.
TRANSIENT_EXCEPTION_NAMES = frozenset(
    {
        "OperationalError",
        "InterfaceError",
        "AdminShutdown",
        "ConnectionException",
        "ConnectionDoesNotExist",
        "ConnectionFailure",
    }
)


def is_transient_pg_error(exc: BaseException) -> bool:
    """Whether *exc* looks like a dropped/reset connection rather than a
    SQL-level (deterministic) failure."""
    if isinstance(exc, (ConnectionError, BrokenPipeError, OSError)):
        return True
    return any(
        klass.__name__ in TRANSIENT_EXCEPTION_NAMES
        for klass in type(exc).__mro__
    )


class PostgresBackend(DBAPIBackend):
    """The SQL backend protocol over one PostgreSQL connection.

    Transient failures (connection drops, server restarts) are retried
    with exponential backoff around the primitive operations, with a
    reconnect between attempts — but only when this backend *owns* its
    connection (built from a DSN): an externally-passed connection
    cannot be safely re-established here, so its errors propagate.
    Retrying reconnects and re-runs the failing statement; work since
    the last ``commit`` on the dropped connection is gone either way,
    which matches the samplers' usage (scratch state is rebuilt, durable
    writes commit per batch).  ``REPRO_SQL_RETRIES`` tunes the attempt
    budget (``1`` disables).
    """

    def __init__(self, dsn: Optional[str] = None, connection=None) -> None:
        self._dsn: Optional[str] = None
        if connection is None:
            self._dsn = dsn if dsn is not None else default_dsn()
            driver = _load_driver()
            try:
                connection = driver.connect(self._dsn)
            except Exception as exc:  # driver-specific OperationalError
                raise BackendUnavailableError(
                    f"could not connect to PostgreSQL: {exc}"
                ) from exc
        super().__init__(connection, POSTGRES_DIALECT)

    # ------------------------------------------------------------------
    # Transient-error retry
    # ------------------------------------------------------------------
    def _reconnect(self, exc: BaseException, attempt: int) -> None:
        """Swap in a fresh connection after a transient failure."""
        from repro.diagnostics import record_fault

        record_fault("pg_transient_retries")
        log.warning(
            "PostgreSQL operation failed transiently (attempt %d: %s); "
            "reconnecting",
            attempt,
            exc,
        )
        try:
            self.connection.close()
        except Exception:
            pass
        driver = _load_driver()
        try:
            self.connection = driver.connect(self._dsn)
        except Exception as reconnect_exc:
            log.warning("PostgreSQL reconnect failed: %s", reconnect_exc)

    def _with_retry(self, operation):
        if self._dsn is None:
            # Externally-owned connection: we must not replace it.
            return operation()
        return retry_transient(
            operation,
            is_transient=is_transient_pg_error,
            on_retry=self._reconnect,
        )

    def execute(self, sql: str, parameters: Sequence = ()) -> List[Tuple]:
        return self._with_retry(
            lambda: super(PostgresBackend, self).execute(sql, parameters)
        )

    def executemany(self, sql: str, rows: Sequence[Sequence]) -> None:
        materialized = list(rows)  # re-iterable across retry attempts
        self._with_retry(
            lambda: super(PostgresBackend, self).executemany(sql, materialized)
        )

    def commit(self) -> None:
        self._with_retry(lambda: super(PostgresBackend, self).commit())

    def insert_rows(
        self, table: str, arity: int, rows: Sequence[Sequence[Term]]
    ) -> None:
        """Bulk insert, via ``COPY ... FROM STDIN`` where the driver
        supports it (psycopg 3's ``cursor.copy``).

        ``COPY`` streams the whole batch through one command instead of
        ``executemany``'s statement-per-row round trips — the bulk-load
        fast path for big instances.  Values cross in the dialect's
        tagged text transport, exactly as the ``executemany`` path sends
        them, so the loaded table contents are identical (asserted by
        the conformance test); psycopg's ``write_row`` handles COPY
        escaping, so tabs/newlines/backslashes in terms are safe.
        psycopg2 connections (no ``cursor.copy``) and
        ``REPRO_PG_COPY=0`` fall back to the generic path.
        """
        if not rows:
            return
        cursor = self.connection.cursor()
        if not _copy_enabled() or not hasattr(cursor, "copy"):
            super().insert_rows(table, arity, rows)
            return
        _validate_row_arity(table, arity, rows)
        columns = ", ".join(f"c{i}" for i in range(arity))
        statement = f"COPY {check_name(table)} ({columns}) FROM STDIN"
        with cursor.copy(statement) as copy:
            for row in rows:
                copy.write_row(self.dialect.encode_row(row))

    def close(self) -> None:
        # Abort any open transaction so close() never blocks on it.
        try:
            self.connection.rollback()
        except Exception:
            pass
        self.connection.close()

    def __enter__(self) -> "PostgresBackend":
        return self


def postgres_available(dsn: Optional[str] = None) -> bool:
    """Whether a PostgreSQL server is reachable (for test skips)."""
    try:
        backend = PostgresBackend(dsn)
    except BackendUnavailableError:
        return False
    backend.close()
    return True
