"""The ``R -> R EXCEPT R_del`` rewriting (Section 5).

Each sampling run collects the tuples deleted from relation ``R`` in a
side table ``R__del``; queries are then compiled against the logical
relation map ``R -> (SELECT * FROM R EXCEPT SELECT * FROM R__del)``.
The paper's informal experiment observed that such rewritten queries
perform similarly to the originals — benchmark E8 measures this.

The rewriter uses only the table operations of
:class:`repro.sql.backend.SQLBackend` (creation, clears, bulk inserts),
so it runs unchanged on SQLite and PostgreSQL.  Its relation map is a
plain ``dict`` from relation name to live-view SQL text, which the query
and violation compilers splice in place of the base table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.sql.backend import SQLBackend
from repro.sql.dialect import check_name


class DeletionRewriter:
    """Manages per-relation deletion tables and the rewritten relation map."""

    SUFFIX = "__del"

    def __init__(self, backend: SQLBackend, schema: Schema) -> None:
        self.backend = backend
        self.schema = schema
        self._create_deletion_tables()

    def _create_deletion_tables(self) -> None:
        for relation in self.schema:
            self.backend.create_table(
                self.deletion_table(relation.name), relation.arity
            )

    def deletion_table(self, relation: str) -> str:
        """Name of the side table holding deletions for *relation*."""
        return check_name(relation) + self.SUFFIX

    # ------------------------------------------------------------------
    # Per-run state
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Empty every deletion table (start of a sampling run)."""
        for relation in self.schema:
            self.backend.clear_table(self.deletion_table(relation.name))

    def mark_deleted(self, facts: Iterable[Fact]) -> None:
        """Record *facts* as deleted in this run."""
        grouped: Dict[Tuple[str, int], list] = {}
        for fact in facts:
            grouped.setdefault((fact.relation, len(fact.values)), []).append(
                fact.values
            )
        for (relation, arity), rows in grouped.items():
            self.backend.insert_rows(self.deletion_table(relation), arity, rows)

    def deleted_count(self, relation: str) -> int:
        """Rows currently marked deleted for *relation*."""
        return self.backend.table_count(self.deletion_table(relation))

    # ------------------------------------------------------------------
    # The rewriting itself
    # ------------------------------------------------------------------
    def relation_map(
        self, relations: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """``R -> (SELECT * FROM R EXCEPT SELECT * FROM R__del)`` for every
        relation (or the given subset)."""
        names = (
            [r.name for r in self.schema] if relations is None else list(relations)
        )
        return {
            name: f"(SELECT * FROM {check_name(name)} "
            f"EXCEPT SELECT * FROM {self.deletion_table(name)})"
            for name in names
        }

    def live_database(self) -> Database:
        """The current repaired instance (original minus deletions)."""
        return self.backend.live_database(self.relation_map(), self.schema)
