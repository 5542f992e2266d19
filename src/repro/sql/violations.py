"""Constraint-violation detection at SQL scale, over any backend.

The in-memory engine finds violations by homomorphism search; at SQL
scale the same search is a self-join.  For a TGD-free constraint
(EGD or DC) with body ``R1(...), ..., Rk(...)``, the violating
assignments of Definition 2 are exactly the rows of

    SELECT t1.*, ..., tk.*  FROM R1 t1, ..., Rk tk
    WHERE <join conditions>  [AND NOT <head equality>]

Each result row is sliced back into the k body facts — the violation's
body image ``h(phi)`` — which is all the deletion-only repair machinery
needs (the conflict hypergraph).

Besides the one-shot full joins, :class:`SQLDeltaViolationIndex` keeps
the per-constraint edge sets *incrementally* current under fact-level
deltas (temp delta tables + pinned joins + per-constraint
touched-relation filtering), mirroring the in-memory
:class:`repro.core.incremental.DeltaViolationIndex` at SQL scale.

Both entry points target the :class:`repro.sql.backend.SQLBackend`
protocol.  On a backend without SQL support
(:class:`repro.sql.memory.InMemoryBackend`) the same semantics route
onto the core machinery: full detection runs
``constraint.violating_assignments`` and the insert delta runs the same
pinned homomorphism search the in-memory incremental index uses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.base import Constraint, ConstraintSet
from repro.constraints.dc import DC
from repro.constraints.egd import EGD
from repro.core import columnar
from repro.db.facts import Fact
from repro.db.homomorphism import find_homomorphisms_pinned
from repro.db.terms import Term, Var, is_var
from repro.sql.backend import SQLBackend
from repro.sql.dialect import check_name


def compile_violation_query(
    constraint: Constraint,
    relation_map: Optional[Mapping[str, str]] = None,
    delta_atom: Optional[int] = None,
    delta_table: Optional[str] = None,
) -> Tuple[str, Tuple[Term, ...]]:
    """SQL returning one row per violating body homomorphism.

    Supports EGDs and DCs (TGD violations need the head check, which is
    not expressible as a single flat join without NOT EXISTS — see
    :func:`compile_tgd_violation_query`).

    With *delta_atom*/*delta_table*, the body atom at that index ranges
    over the (small) delta table instead of its live relation: the query
    then returns exactly the violations *using a delta row at that
    position* — the SQL mirror of the pinned homomorphism search the
    in-memory :class:`repro.core.incremental.DeltaViolationIndex` runs.
    """
    if not isinstance(constraint, (EGD, DC)):
        raise ValueError(
            f"flat violation queries cover EGDs and DCs, got {type(constraint).__name__}"
        )
    if (delta_atom is None) != (delta_table is None):
        raise ValueError("delta_atom and delta_table must be given together")
    select_parts: List[str] = []
    from_parts: List[str] = []
    where: List[str] = []
    params: List[Term] = []
    first_occurrence: Dict[Var, str] = {}
    for index, atom in enumerate(constraint.body):
        alias = f"t{index}"
        if index == delta_atom:
            physical = check_name(delta_table)
        else:
            physical = (
                relation_map[atom.relation]
                if relation_map and atom.relation in relation_map
                else check_name(atom.relation)
            )
        from_parts.append(f"{physical} {alias}")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.c{position}"
            select_parts.append(column)
            if is_var(term):
                if term in first_occurrence:
                    where.append(f"{column} = {first_occurrence[term]}")
                else:
                    first_occurrence[term] = column
            else:
                where.append(f"{column} = ?")
                params.append(term)
    if isinstance(constraint, EGD):
        left = (
            first_occurrence[constraint.left]
            if is_var(constraint.left)
            else "?"
        )
        if left == "?":
            params.append(constraint.left)
        right = (
            first_occurrence[constraint.right]
            if is_var(constraint.right)
            else "?"
        )
        if right == "?":
            params.append(constraint.right)
        where.append(f"NOT ({left} = {right})")
    sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
    if where:
        sql += f" WHERE {' AND '.join(where)}"
    return sql, tuple(params)


def _rows_to_edges(constraint: Constraint, rows) -> Set[FrozenSet[Fact]]:
    """Slice flat violation-query rows back into body-image fact sets.

    Extraction is batched: rows deduplicate *before* any Fact is built
    (self-join results repeat rows heavily), and each distinct fact
    slice is constructed exactly once per call — the join result is
    treated as a column block rather than re-materialized row by row.
    """
    distinct = {tuple(row) for row in rows}
    columnar.record_stat("edge_rows_fetched", len(rows) if hasattr(rows, "__len__") else len(distinct))
    columnar.record_stat("edge_rows_distinct", len(distinct))
    spans: List[Tuple[str, int, int]] = []
    offset = 0
    for atom in constraint.body:
        spans.append((atom.relation, offset, offset + atom.arity))
        offset += atom.arity
    fact_cache: Dict[Tuple[str, Tuple], Fact] = {}
    edges: Set[FrozenSet[Fact]] = set()
    for row in distinct:
        facts: List[Fact] = []
        for relation, start, end in spans:
            key = (relation, row[start:end])
            fact = fact_cache.get(key)
            if fact is None:
                fact = Fact(relation, key[1])
                fact_cache[key] = fact
            facts.append(fact)
        edges.add(frozenset(facts))
    return edges


def _memory_edges(
    constraint: Constraint, database
) -> Set[FrozenSet[Fact]]:
    """Full detection through the core machinery (no SQL)."""
    return {
        constraint.body_image(assignment)
        for assignment in constraint.violating_assignments(database)
    }


def violating_fact_sets(
    backend: SQLBackend,
    constraint: Constraint,
    relation_map: Optional[Mapping[str, str]] = None,
    database=None,
) -> FrozenSet[FrozenSet[Fact]]:
    """The body images of every violation of *constraint*.

    *database* lets multi-constraint callers on SQL-less backends build
    the live instance once and share it across constraints (ignored for
    SQL backends).
    """
    if not backend.supports_sql:
        if database is None:
            database = backend.live_database(relation_map)
        return frozenset(_memory_edges(constraint, database))
    sql, params = compile_violation_query(constraint, relation_map)
    return frozenset(_rows_to_edges(constraint, backend.execute(sql, params)))


def _shared_live_database(
    backend: SQLBackend, relation_map: Optional[Mapping[str, str]]
):
    """The one-per-pass live instance for SQL-less backends (else None)."""
    if backend.supports_sql:
        return None
    return backend.live_database(relation_map)


def conflict_hypergraph_sql(
    backend: SQLBackend,
    constraints: ConstraintSet,
    relation_map: Optional[Mapping[str, str]] = None,
) -> FrozenSet[FrozenSet[Fact]]:
    """The full conflict hypergraph of a TGD-free constraint set."""
    if not constraints.deletion_only():
        raise ValueError("SQL conflict hypergraphs require TGD-free constraints")
    shared = _shared_live_database(backend, relation_map)
    edges: Set[FrozenSet[Fact]] = set()
    for constraint in constraints:
        edges.update(
            violating_fact_sets(backend, constraint, relation_map, database=shared)
        )
    return frozenset(edges)


def components_from_edges(
    edges: Iterable[FrozenSet[Fact]],
) -> Tuple[FrozenSet[Fact], ...]:
    """Connected components of a conflict hypergraph given as edge sets.

    Pure in-memory union-find, shared by the full SQL detection path and
    the incremental one (recomputing components after a delta touches no
    SQL at all — only the maintained edge sets).
    """
    parent: Dict[Fact, Fact] = {}

    def find(fact: Fact) -> Fact:
        while parent[fact] is not fact:
            parent[fact] = parent[parent[fact]]
            fact = parent[fact]
        return fact

    for edge in sorted(edges, key=lambda e: sorted(map(str, e))):
        members = sorted(edge, key=str)
        for fact in members:
            parent.setdefault(fact, fact)
        root = find(members[0])
        for fact in members[1:]:
            parent[find(fact)] = root
    groups: Dict[Fact, Set[Fact]] = {}
    for fact in parent:
        groups.setdefault(find(fact), set()).add(fact)
    return tuple(
        sorted(
            (frozenset(group) for group in groups.values()),
            key=lambda g: sorted(map(str, g)),
        )
    )


def conflict_components_sql(
    backend: SQLBackend,
    constraints: ConstraintSet,
    relation_map: Optional[Mapping[str, str]] = None,
) -> Tuple[FrozenSet[Fact], ...]:
    """Connected components of the detected conflict hypergraph."""
    return components_from_edges(
        conflict_hypergraph_sql(backend, constraints, relation_map)
    )


class SQLDeltaViolationIndex:
    """Incremental violation maintenance over any backend.

    The SQL mirror of :class:`repro.core.incremental.DeltaViolationIndex`
    for TGD-free constraint sets: the per-constraint violation edge sets
    (body images) are materialized once by full self-joins, then kept
    current under fact-level deltas:

    - a **deletion** kills exactly the edges meeting the removed facts —
      resolved in memory, no SQL at all;
    - an **insertion** can only create violations *using* an inserted
      fact, so the new rows are staged into a per-relation ``TEMP`` delta
      table and, for each constraint whose body mentions a touched
      relation, one pinned join per matching body atom runs with that
      atom ranging over the delta table (everything else over the live
      view given by *relation_map*);
    - constraints mentioning none of the touched relations are skipped
      entirely (the per-constraint touched-relation filter).

    On a backend without SQL support the insert delta runs the same
    pinned strategy through :func:`find_homomorphisms_pinned` over the
    live in-memory view — one pinned search per (constraint, body atom,
    inserted fact) instead of one pinned join per (constraint, atom).

    The caller is responsible for ordering: apply the delta to the live
    view (base tables / deletion side-tables) *before* calling
    :meth:`apply_insert`, and call :meth:`apply_delete` for facts that
    just left the live view.
    """

    DELTA_SUFFIX = "__delta"

    def __init__(
        self,
        backend: SQLBackend,
        constraints: ConstraintSet,
        relation_map: Optional[Mapping[str, str]] = None,
    ) -> None:
        if not constraints.deletion_only():
            raise ValueError(
                "SQL-incremental violation maintenance requires TGD-free "
                "constraints (flat self-joins)"
            )
        self.backend = backend
        self.constraints = constraints
        if relation_map is None or not relation_map:
            self.relation_map: Optional[Mapping[str, str]] = None
        elif hasattr(relation_map, "pairs"):
            # Keep the structured live-view pairs for SQL-less backends.
            self.relation_map = relation_map
        else:
            self.relation_map = dict(relation_map)
        shared = _shared_live_database(backend, self.relation_map)
        self._edges: Dict[Constraint, Set[FrozenSet[Fact]]] = {
            c: set(violating_fact_sets(backend, c, self.relation_map, database=shared))
            for c in constraints
        }
        self._delta_tables: Dict[Tuple[str, int], str] = {}
        #: Columnar edge-membership indexes, built lazily per constraint
        #: on the delete path and invalidated whenever the edge set can
        #: grow (inserts, refresh).
        self._edge_indexes: Dict[Constraint, "columnar.EdgeMembershipIndex"] = {}
        #: Diagnostics: full joins run, pinned delta joins/searches run,
        #: and constraints skipped by the touched-relation filter.
        self.full_queries = len(self._edges)
        self.delta_queries = 0
        self.skipped_constraints = 0

    #: Edge sets below this stay on the per-edge ``isdisjoint`` loop.
    EDGE_INDEX_THRESHOLD = 64

    # ------------------------------------------------------------------
    # Current state
    # ------------------------------------------------------------------
    def current(self) -> FrozenSet[FrozenSet[Fact]]:
        """The maintained conflict hypergraph (all constraints)."""
        out: Set[FrozenSet[Fact]] = set()
        for edges in self._edges.values():
            out.update(edges)
        return frozenset(out)

    def edges_of(self, constraint: Constraint) -> FrozenSet[FrozenSet[Fact]]:
        """The maintained edge set of one constraint."""
        return frozenset(self._edges[constraint])

    def components(self) -> Tuple[FrozenSet[Fact], ...]:
        """Connected components of the maintained hypergraph."""
        return components_from_edges(self.current())

    def refresh(self) -> None:
        """Rebuild every edge set by full detection (resync point)."""
        shared = _shared_live_database(self.backend, self.relation_map)
        self._edge_indexes.clear()
        for constraint in self._edges:
            self._edges[constraint] = set(
                violating_fact_sets(
                    self.backend, constraint, self.relation_map, database=shared
                )
            )
            self.full_queries += 1

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def apply_delete(self, facts: Iterable[Fact]) -> None:
        """Facts just removed from the live view: drop dead edges."""
        removed = frozenset(facts)
        if not removed:
            return
        touched = frozenset(f.relation for f in removed)
        for constraint, edges in self._edges.items():
            if not (touched & constraint.body_relations):
                self.skipped_constraints += 1
                continue
            if (
                len(edges) >= self.EDGE_INDEX_THRESHOLD
                and columnar.available()
            ):
                index = self._edge_indexes.get(constraint)
                if index is None:
                    index = columnar.EdgeMembershipIndex(edges)
                    self._edge_indexes[constraint] = index
                if index.remove_facts(removed):
                    self._edges[constraint] = set(index.surviving())
                # Compaction: once most of the index is dead weight, the
                # joins scan mostly-tombstone arrays — rebuild small.
                if index.live_count * 4 < len(index):
                    self._edge_indexes.pop(constraint, None)
            else:
                self._edges[constraint] = {
                    edge for edge in edges if edge.isdisjoint(removed)
                }

    def apply_insert(self, facts: Iterable[Fact]) -> None:
        """Facts just added to the live view: find the edges they create."""
        added = frozenset(facts)
        if not added:
            return
        by_relation: Dict[str, List[Fact]] = {}
        for fact in added:
            by_relation.setdefault(fact.relation, []).append(fact)
        if not self.backend.supports_sql:
            self._apply_insert_memory(by_relation)
            return
        staged: Set[Tuple[str, int]] = set()
        for constraint, edges in self._edges.items():
            if not (set(by_relation) & constraint.body_relations):
                self.skipped_constraints += 1
                continue
            self._edge_indexes.pop(constraint, None)
            for index, atom in enumerate(constraint.body):
                rows = by_relation.get(atom.relation)
                if not rows:
                    continue
                key = (atom.relation, atom.arity)
                table = self._delta_table(*key)
                if key not in staged:
                    self._stage(table, atom.arity, rows)
                    staged.add(key)
                sql, params = compile_violation_query(
                    constraint,
                    self.relation_map,
                    delta_atom=index,
                    delta_table=table,
                )
                edges.update(
                    _rows_to_edges(constraint, self.backend.execute(sql, params))
                )
                self.delta_queries += 1

    def _apply_insert_memory(self, by_relation: Dict[str, List[Fact]]) -> None:
        """The pinned-search insert delta for backends without SQL."""
        database = self.backend.live_database(self.relation_map)
        for constraint, edges in self._edges.items():
            if not (set(by_relation) & constraint.body_relations):
                self.skipped_constraints += 1
                continue
            self._edge_indexes.pop(constraint, None)
            for index, atom in enumerate(constraint.body):
                rows = by_relation.get(atom.relation)
                if not rows:
                    continue
                for fact in rows:
                    for assignment in find_homomorphisms_pinned(
                        constraint.body, database, index, fact
                    ):
                        if not constraint.head_holds(assignment, database):
                            edges.add(constraint.body_image(assignment))
                self.delta_queries += 1

    # ------------------------------------------------------------------
    # Temp delta tables
    # ------------------------------------------------------------------
    def _delta_table(self, relation: str, arity: int) -> str:
        key = (relation, arity)
        table = self._delta_tables.get(key)
        if table is None:
            table = f"{check_name(relation)}{self.DELTA_SUFFIX}"
            self.backend.create_table(table, arity, temp=True)
            self._delta_tables[key] = table
        return table

    def _stage(self, table: str, arity: int, facts: Sequence[Fact]) -> None:
        self.backend.clear_table(table)
        self.backend.insert_rows(table, arity, [fact.values for fact in facts])
