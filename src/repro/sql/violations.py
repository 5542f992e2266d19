"""Constraint-violation detection at SQL scale.

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

Both entry points run compiled SQL on a
:class:`repro.sql.backend.SQLBackend`; the core
:func:`repro.abc_repairs.conflicts.conflict_hypergraph` is their test
oracle.
"""

from __future__ import annotations

import bisect
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.base import Constraint, ConstraintSet
from repro.constraints.dc import DC
from repro.constraints.egd import EGD
from repro.core import columnar
from repro.db.facts import Fact
from repro.db.terms import Term, is_var
from repro.sql.backend import SQLBackend
from repro.sql.compiler import flat_join, physical_table
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
    tables = [physical_table(atom.relation, relation_map) for atom in constraint.body]
    if delta_atom is not None:
        tables[delta_atom] = check_name(delta_table)
    join = flat_join(constraint.body, tables)
    if isinstance(constraint, EGD):
        sides = []
        for side in (constraint.left, constraint.right):
            if is_var(side):
                sides.append(join.first[side])
            else:
                sides.append("?")
                join.parameters.append(side)
        join.where.append(f"NOT ({sides[0]} = {sides[1]})")
    return join.select(join.columns), tuple(join.parameters)


def _rows_to_edges(constraint: Constraint, rows) -> Set[FrozenSet[Fact]]:
    """Slice flat violation-query rows back into body-image fact sets.

    Extraction is batched: rows deduplicate *before* any Fact is built
    (self-join results repeat rows heavily), and each distinct fact
    slice is constructed exactly once per call — the join result is
    treated as a column block rather than re-materialized row by row.
    """
    distinct = {tuple(row) for row in rows}
    columnar.EVENTS.inc(
        len(rows) if hasattr(rows, "__len__") else len(distinct),
        stat="edge_rows_fetched",
    )
    columnar.EVENTS.inc(len(distinct), stat="edge_rows_distinct")
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


def violating_fact_sets(
    backend: SQLBackend,
    constraint: Constraint,
    relation_map: Optional[Mapping[str, str]] = None,
) -> FrozenSet[FrozenSet[Fact]]:
    """The body images of every violation of *constraint*."""
    sql, params = compile_violation_query(constraint, relation_map)
    return frozenset(_rows_to_edges(constraint, backend.execute(sql, params)))


def conflict_hypergraph_sql(
    backend: SQLBackend,
    constraints: ConstraintSet,
    relation_map: Optional[Mapping[str, str]] = None,
) -> FrozenSet[FrozenSet[Fact]]:
    """The full conflict hypergraph of a TGD-free constraint set."""
    if not constraints.deletion_only():
        raise ValueError("SQL conflict hypergraphs require TGD-free constraints")
    edges: Set[FrozenSet[Fact]] = set()
    for constraint in constraints:
        edges.update(violating_fact_sets(backend, constraint, relation_map))
    return frozenset(edges)


def components_from_edges(
    edges: Iterable[FrozenSet[Fact]],
) -> Tuple[FrozenSet[Fact], ...]:
    """Connected components of a conflict hypergraph given as edge sets.

    Pure in-memory union-find, shared by the full SQL detection path and
    the incremental one (recomputing components after a delta touches no
    SQL at all — only the maintained edge sets).  Edge order only shapes
    the union-find's internal pointers; the components come back sorted
    by their members' ``str`` forms.
    """
    return tuple(component for _, component in _ordered_components(edges))


def _ordered_components(
    edges: Iterable[FrozenSet[Fact]],
) -> List[Tuple[List[str], FrozenSet[Fact]]]:
    """:func:`components_from_edges` with each component's sort key: its
    members' ``str`` forms, sorted."""
    parent: Dict[Fact, Fact] = {}

    def find(fact: Fact) -> Fact:
        while parent[fact] is not fact:
            parent[fact] = parent[parent[fact]]
            fact = parent[fact]
        return fact

    for edge in edges:
        members = list(edge)
        for fact in members:
            parent.setdefault(fact, fact)
        root = find(members[0])
        for fact in members[1:]:
            parent[find(fact)] = root
    groups: Dict[Fact, Set[Fact]] = {}
    for fact in parent:
        groups.setdefault(find(fact), set()).add(fact)
    names = {fact: str(fact) for fact in parent}
    return sorted(
        (
            (sorted(names[fact] for fact in group), frozenset(group))
            for group in groups.values()
        ),
        key=lambda pair: pair[0],
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
    """Incremental violation maintenance in SQL.

    The SQL mirror of :class:`repro.core.incremental.DeltaViolationIndex`
    for TGD-free constraint sets: the per-constraint violation edge sets
    (body images) are materialized once by full self-joins, then kept
    current under fact-level deltas:

    - a **deletion** kills exactly the edges meeting the removed facts,
      found through the fact-to-edges map :attr:`fact_edges` — no SQL
      and no scan of the other edges;
    - an **insertion** can only create violations *using* an inserted
      fact, so the new rows are staged into a per-relation ``TEMP`` delta
      table and, for each constraint whose body mentions a touched
      relation, one pinned join per matching body atom runs with that
      atom ranging over the delta table (everything else over the live
      view given by *relation_map*);
    - constraints mentioning none of the touched relations are skipped
      entirely (the per-constraint touched-relation filter).

    The conflict components are maintained too: a delta marks the facts
    of the edges it killed or created, and :meth:`regroup` re-derives
    only the components holding a marked fact, so a delta costs Python
    time in the size of the components it touched, not of the instance.

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
        self.relation_map: Optional[Mapping[str, str]] = (
            dict(relation_map) if relation_map else None
        )
        self._edges: Dict[Constraint, Set[FrozenSet[Fact]]] = {}
        self._delta_tables: Dict[Tuple[str, int], str] = {}
        #: Diagnostics: full joins run, pinned delta joins run,
        #: and constraints skipped by the touched-relation filter.
        self.full_queries = 0
        self.delta_queries = 0
        self.skipped_constraints = 0
        self.refresh()

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
        """Connected components of the maintained hypergraph, ordered as
        :func:`components_from_edges` orders them."""
        self.regroup()
        if self._snapshot is None:
            self._snapshot = tuple(self._ordered)
        return self._snapshot

    def regroup(
        self,
    ) -> Tuple[Tuple[FrozenSet[Fact], ...], Tuple[FrozenSet[Fact], ...]]:
        """Re-derive the components the deltas since the last call
        touched; returns the components that vanished and those that
        appeared.

        The region re-derived is every old component holding a fact of
        a killed or created edge, plus the created edges' facts: any
        edge meeting that region lies inside it, so union-find over the
        region's edges gives its new components.
        """
        dirty = self._dirty
        if not dirty:
            return (), ()
        self._dirty = set()
        component_of = self._component_of
        touched = {component_of[fact] for fact in dirty if fact in component_of}
        region = set(dirty)
        region.update(*touched)
        fact_edges = self.fact_edges
        regrouped = _ordered_components(
            {
                edge
                for fact in region
                if fact in fact_edges
                for edge in fact_edges[fact]
            }
        )
        fresh = {component for _, component in regrouped}
        gone = tuple(component for component in touched if component not in fresh)
        for component in gone:
            self._unlist(component)
            for fact in component:
                if component_of.get(fact) is component:
                    del component_of[fact]
        born = []
        for order, component in regrouped:
            if component in touched:
                continue
            self._order[component] = order
            bisect.insort(self._ordered, component, key=self._order.__getitem__)
            for fact in component:
                component_of[fact] = component
            born.append(component)
        if gone or born:
            self._snapshot = None
        return gone, tuple(born)

    def _unlist(self, component: FrozenSet[Fact]) -> None:
        """Remove *component* from the ordered list (equal keys are
        scanned past to find it)."""
        order = self._order
        index = bisect.bisect_left(
            self._ordered, order[component], key=order.__getitem__
        )
        while self._ordered[index] != component:
            index += 1
        del self._ordered[index]
        del order[component]

    def refresh(self) -> None:
        """Rebuild every edge set and component by full detection (resync
        point)."""
        for constraint in self.constraints:
            self._edges[constraint] = set(
                violating_fact_sets(self.backend, constraint, self.relation_map)
            )
            self.full_queries += 1
        #: Each conflict fact's live edges (every constraint's), for
        #: deletions and chain shapes to read; do not mutate.
        self.fact_edges: Dict[Fact, Set[FrozenSet[Fact]]] = {}
        for edges in self._edges.values():
            for edge in edges:
                for fact in edge:
                    self.fact_edges.setdefault(fact, set()).add(edge)
        ordered = _ordered_components(self.current())
        self._ordered: List[FrozenSet[Fact]] = [c for _, c in ordered]
        self._order: Dict[FrozenSet[Fact], List[str]] = {c: o for o, c in ordered}
        self._component_of: Dict[Fact, FrozenSet[Fact]] = {
            fact: component for component in self._ordered for fact in component
        }
        self._snapshot: Optional[Tuple[FrozenSet[Fact], ...]] = None
        #: Facts of the edges killed or created since the last regroup.
        self._dirty: Set[Fact] = set()

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------
    def apply_delete(self, facts: Iterable[Fact]) -> None:
        """Facts just removed from the live view: drop dead edges."""
        removed = frozenset(facts)
        if not removed:
            return
        fact_edges = self.fact_edges
        dead: Set[FrozenSet[Fact]] = set()
        for fact in removed:
            dead.update(fact_edges.pop(fact, ()))
        touched = frozenset(f.relation for f in removed)
        for constraint, edges in self._edges.items():
            if not (touched & constraint.body_relations):
                self.skipped_constraints += 1
                continue
            edges.difference_update(dead)
        for edge in dead:
            for fact in edge:
                live = fact_edges.get(fact)
                if live is not None:
                    live.discard(edge)
                    if not live:
                        del fact_edges[fact]
            self._dirty.update(edge)

    def apply_insert(self, facts: Iterable[Fact]) -> None:
        """Facts just added to the live view: find the edges they create."""
        added = frozenset(facts)
        if not added:
            return
        by_relation: Dict[str, List[Fact]] = {}
        for fact in added:
            by_relation.setdefault(fact.relation, []).append(fact)
        staged: Set[Tuple[str, int]] = set()
        for constraint, edges in self._edges.items():
            if not (set(by_relation) & constraint.body_relations):
                self.skipped_constraints += 1
                continue
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
                found = _rows_to_edges(constraint, self.backend.execute(sql, params))
                for edge in found - edges:
                    edges.add(edge)
                    for fact in edge:
                        self.fact_edges.setdefault(fact, set()).add(edge)
                    self._dirty.update(edge)
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
