"""SQL dialect hooks shared by every backend implementation.

Every piece of SQL this package generates is assembled from validated
identifiers, ``c0..c{n-1}`` column lists, and ``?`` placeholders.  The
dialect object is the single place where engine differences live:

- **identifier validation** — one shared ``check_name`` (previously
  duplicated across ``backend.py``, ``violations.py`` and the compiler);
- **placeholder style** — SQLite's ``qmark`` vs. psycopg's ``format``
  (``%s``); consumers always write ``?`` and backends translate;
- **type affinity / value transport** — SQLite stores Python values
  natively, PostgreSQL columns are declared ``TEXT`` and every term is
  carried through a tagged, bijective text encoding so integers and
  strings round-trip and parameter comparisons stay well-typed;
- **DDL shape** — temp-table creation and qualified drops.
"""

from __future__ import annotations

import re
from typing import Sequence, Tuple

from repro.db.terms import Term

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def check_name(name: str) -> str:
    """Validate an identifier before splicing it into SQL."""
    if not _NAME_RE.match(name):
        raise ValueError(f"unsafe SQL identifier: {name!r}")
    return name


class SQLDialect:
    """Engine-specific SQL details behind one tiny surface.

    The base class is the SQLite behaviour (qmark placeholders, dynamic
    typing, ``temp.``-qualified drops); PostgreSQL overrides the pieces
    that differ.
    """

    name = "sqlite"
    placeholder = "?"
    #: Appended to each column definition ("" lets SQLite keep its
    #: dynamic affinity; PostgreSQL declares TEXT).
    column_type = ""
    #: Whether value transport is the identity (lets backends skip the
    #: per-row encode/decode entirely on the hot query path).
    transparent = True

    # ------------------------------------------------------------------
    # SQL text assembly
    # ------------------------------------------------------------------
    def placeholders(self, count: int) -> str:
        """``"?, ?, ?"`` in the dialect's placeholder style."""
        return ", ".join(self.placeholder for _ in range(count))

    def columns(self, arity: int) -> str:
        """The positional column list ``c0, ..., c{arity-1}``."""
        return ", ".join(f"c{i}" for i in range(arity))

    def column_defs(self, arity: int) -> str:
        """Column definitions for DDL, with the dialect's type affinity."""
        return ", ".join(f"c{i}{self.column_type}" for i in range(arity))

    def translate(self, sql: str) -> str:
        """Rewrite generic ``?`` placeholders into the dialect's style.

        The generated SQL never contains string literals (constants are
        always parameters), so a plain textual substitution is exact.
        """
        if self.placeholder == "?":
            return sql
        return sql.replace("?", self.placeholder)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table_sql(self, table: str, arity: int, temp: bool = False) -> str:
        keyword = "CREATE TEMP TABLE" if temp else "CREATE TABLE"
        return f"{keyword} {check_name(table)} ({self.column_defs(arity)})"

    def drop_table_sql(self, table: str, temp: bool = False) -> str:
        qualifier = "temp." if temp else ""
        return f"DROP TABLE IF EXISTS {qualifier}{check_name(table)}"

    # ------------------------------------------------------------------
    # Value transport
    # ------------------------------------------------------------------
    def encode(self, value: Term):
        """Python term -> database parameter (identity for SQLite)."""
        return value

    def decode(self, value):
        """Database cell -> Python term (identity for SQLite)."""
        return value

    def encode_row(self, row: Sequence[Term]) -> Tuple:
        return tuple(self.encode(v) for v in row)

    def decode_row(self, row: Sequence) -> Tuple:
        return tuple(self.decode(v) for v in row)


class SQLiteDialect(SQLDialect):
    """The base behaviour, named."""


class PostgresDialect(SQLDialect):
    """psycopg-style placeholders, TEXT columns, tagged value transport.

    PostgreSQL is strictly typed, so heterogeneous term columns are
    declared ``TEXT`` and every value crosses the wire in a tagged text
    form (``i:`` integers, ``s:`` strings, ``f:`` floats, ``b:``
    booleans).  The encoding is bijective — ``encode`` is applied to
    parameters and bulk loads alike, and ``decode`` inverts it on every
    fetched cell — so equality joins and round-trips behave exactly as
    under SQLite's dynamic typing.
    """

    name = "postgres"
    placeholder = "%s"
    column_type = " TEXT"
    transparent = False

    #: Known divergence: the tag makes equality *type-strict*, so int
    #: ``1`` and float ``1.0`` (equal under SQLite's dynamic typing and
    #: Python's ``==``) encode to ``i:1`` vs ``f:1.0`` and do not join.
    #: Instances mixing int and float representations of the same key
    #: value behave differently on PostgreSQL; normalise such columns to
    #: one numeric type before loading.

    def drop_table_sql(self, table: str, temp: bool = False) -> str:
        # PostgreSQL resolves temp tables first on the search path; no
        # qualifier needed (``temp.`` is a SQLite-ism).
        return f"DROP TABLE IF EXISTS {check_name(table)}"

    def encode(self, value: Term):
        if isinstance(value, bool):
            return f"b:{value}"
        if isinstance(value, int):
            return f"i:{value}"
        if isinstance(value, float):
            return f"f:{value!r}"
        if isinstance(value, str):
            return f"s:{value}"
        raise ValueError(
            f"PostgresDialect cannot transport a {type(value).__name__} "
            f"term ({value!r}); supported term types are str, int, float, bool"
        )

    def decode(self, value):
        if not isinstance(value, str) or len(value) < 2 or value[1] != ":":
            return value  # COUNT(*) results, SELECT 1 probes, ...
        tag, payload = value[0], value[2:]
        if tag == "s":
            return payload
        if tag == "i":
            return int(payload)
        if tag == "f":
            return float(payload)
        if tag == "b":
            return payload == "True"
        return value


SQLITE_DIALECT = SQLiteDialect()
POSTGRES_DIALECT = PostgresDialect()
