"""Compilation of conjunctive and first-order queries to SQL.

Conjunctive queries become flat ``SELECT DISTINCT ... FROM ... WHERE``
joins; ``parse_query`` hands every conjunctive body over as a
:class:`repro.queries.ConjunctiveQuery`.  First-order queries use the
classical active-domain translation: head and quantified variables
range over a domain table, atoms become ``EXISTS`` subqueries, and
``forall`` becomes ``NOT EXISTS NOT``.

The paper's ``Q(D) = {c in dom(D)^|x| : D |= phi(c)}`` ranges over the
domain of the instance the query runs on — under the rewriting, each
sampled repair's own.  So the domain table is the live domain: every
column of every schema relation under the relation map, plus the
query's constants, computed once per statement as a ``WITH`` table.

Both compilers accept a *relation_map* that substitutes the physical
table (or a parenthesised subquery) used for each logical relation —
this is the hook the ``R -> R EXCEPT R_del`` rewriting of Section 5
plugs into.

The emitted SQL is dialect-neutral (validated bare identifiers, ``?``
placeholders, aliased subqueries): each backend's dialect translates
placeholders and transports parameter values, so the same
:class:`CompiledQuery` runs on SQLite and PostgreSQL unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.db.atoms import Atom
from repro.db.schema import Schema
from repro.db.terms import Term, Var, is_var
from repro.queries.ast import (
    And,
    AtomFormula,
    Equality,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.query import Query
from repro.sql.backend import SQLBackend
from repro.sql.dialect import check_name

#: The ``WITH`` table a first-order query's variables range over.
LIVE_DOMAIN = "_live_dom"


@dataclass
class CompiledQuery:
    """A SQL string plus its positional parameters and its provenance."""

    sql: str
    parameters: Tuple[Term, ...]
    arity: int
    #: The query this SQL was compiled from (the columnar draw plan
    #: reads its shape).
    source: Optional[Union[Query, ConjunctiveQuery]] = None
    #: The relation map the compilation targeted (e.g. the deletion
    #: rewriter's live views).
    relation_map: Optional[Mapping[str, str]] = None

    def run(self, backend: SQLBackend) -> FrozenSet[Tuple[Term, ...]]:
        """Execute on *backend*, mapping rows back to answer tuples.

        Boolean queries (arity 0) return ``{()}`` or the empty set,
        matching the in-memory evaluator.
        """
        rows = backend.query_tuples(self.sql, self.parameters)
        if self.arity == 0:
            return frozenset([()]) if rows else frozenset()
        return rows


def physical_table(relation: str, relation_map: Optional[Mapping[str, str]]) -> str:
    """The table (or live-view subquery) *relation* reads under *relation_map*."""
    if relation_map and relation in relation_map:
        return relation_map[relation]
    return check_name(relation)


# ----------------------------------------------------------------------
# Conjunctive queries
# ----------------------------------------------------------------------
@dataclass
class FlatJoin:
    """One flat join over a list of atoms, atom ``i`` aliased ``t{i}``.

    The join builder behind conjunctive queries, their witness queries
    and the violation self-joins (:mod:`repro.sql.violations`).
    """

    tables: str
    #: A repeated variable equates its columns; a constant binds a ``?``.
    where: List[str] = field(default_factory=list)
    #: The constants, in the order of their ``?`` in :attr:`where`.
    parameters: List[Term] = field(default_factory=list)
    #: Every atom column, atom by atom.
    columns: List[str] = field(default_factory=list)
    #: Each variable's first column.
    first: Dict[Var, str] = field(default_factory=dict)

    def select(self, parts: Sequence[str], distinct: bool = False) -> str:
        sql = (
            f"SELECT {'DISTINCT ' if distinct else ''}"
            f"{', '.join(parts) if parts else '1'} FROM {self.tables}"
        )
        if self.where:
            sql += f" WHERE {' AND '.join(self.where)}"
        return sql


def flat_join(atoms: Sequence[Atom], tables: Sequence[str]) -> FlatJoin:
    """The join of *atoms*, atom ``i`` ranging over ``tables[i]``."""
    join = FlatJoin(
        ", ".join(f"{table} t{index}" for index, table in enumerate(tables))
    )
    for index, atom in enumerate(atoms):
        for position, term in enumerate(atom.terms):
            column = f"t{index}.c{position}"
            join.columns.append(column)
            if not is_var(term):
                join.where.append(f"{column} = ?")
                join.parameters.append(term)
            elif term in join.first:
                join.where.append(f"{column} = {join.first[term]}")
            else:
                join.first[term] = column
    return join


def _head(cq: ConjunctiveQuery, join: FlatJoin) -> Tuple[List[str], List[Term]]:
    """*cq*'s head columns and, for its ``?`` placeholders, its head
    constants (the ``SELECT`` list precedes the ``WHERE`` clause)."""
    return (
        [join.first[term] if is_var(term) else "?" for term in cq.head],
        [term for term in cq.head if not is_var(term)],
    )


def compile_cq(
    cq: ConjunctiveQuery,
    relation_map: Optional[Mapping[str, str]] = None,
) -> CompiledQuery:
    """Compile a conjunctive query into one flat join."""
    join = flat_join(
        cq.body, [physical_table(atom.relation, relation_map) for atom in cq.body]
    )
    select, constants = _head(cq, join)
    return CompiledQuery(
        sql=join.select(select, distinct=True),
        parameters=tuple(constants + join.parameters),
        arity=cq.arity,
        source=cq,
        relation_map=relation_map,
    )


def compile_witnesses(
    cq: ConjunctiveQuery, limit: int
) -> Tuple[str, Tuple[Term, ...]]:
    """SQL listing at most *limit* of *cq*'s witnesses over the base
    tables.

    Each row is one witness: the answer's head values, then every body
    atom's columns, atom by atom — the facts the body maps onto.  Rows
    are not made distinct; the draw plan deduplicates witnesses itself.
    The limit is an integer literal: PostgreSQL's tagged parameters
    would not cast to one.
    """
    join = flat_join(cq.body, [check_name(atom.relation) for atom in cq.body])
    select, constants = _head(cq, join)
    return (
        f"{join.select(select + join.columns)} LIMIT {int(limit)}",
        tuple(constants + join.parameters),
    )


# ----------------------------------------------------------------------
# First-order queries
# ----------------------------------------------------------------------
@dataclass
class _FOContext:
    """State threaded through the recursive FO compilation."""

    relation_map: Optional[Mapping[str, str]]
    params: List[Term] = field(default_factory=list)
    alias_counter: int = 0

    def fresh_alias(self) -> str:
        self.alias_counter += 1
        return f"a{self.alias_counter}"

    def live_domain_sql(self, schema: Schema, constants: Tuple[Term, ...]) -> str:
        """``WITH`` the values of every live column plus *constants*."""
        parts = [
            f"SELECT d.c{position} FROM "
            f"{physical_table(relation.name, self.relation_map)} d"
            for relation in schema
            for position in range(relation.arity)
        ]
        for constant in constants:
            parts.append("SELECT ?")
            self.params.append(constant)
        if not parts:
            parts.append("SELECT NULL WHERE 1 = 0")
        return f"WITH {LIVE_DOMAIN}(v) AS ({' UNION '.join(parts)}) "


def compile_fo_query(
    query: Query,
    relation_map: Optional[Mapping[str, str]] = None,
    *,
    schema: Schema,
) -> CompiledQuery:
    """Compile a first-order query via the active-domain translation.

    Its variables range over the live domain of *schema*'s relations
    under *relation_map*.
    """
    constants = tuple(
        sorted(query.formula.constants(), key=lambda c: (type(c).__name__, str(c)))
    )
    ctx = _FOContext(relation_map=relation_map)
    prefix = ctx.live_domain_sql(schema, constants)
    env: Dict[Var, str] = {}
    from_parts: List[str] = []
    distinct_head = tuple(dict.fromkeys(query.head))
    for var in distinct_head:
        alias = ctx.fresh_alias()
        from_parts.append(f"{LIVE_DOMAIN} {alias}")
        env[var] = f"{alias}.v"
    condition = _compile_formula(query.formula, env, ctx)
    select = ", ".join(env[v] for v in query.head) if query.head else "1"
    if from_parts:
        sql = (
            f"{prefix}SELECT DISTINCT {select} FROM {', '.join(from_parts)} "
            f"WHERE {condition}"
        )
    else:
        sql = f"{prefix}SELECT DISTINCT {select} WHERE {condition}"
    return CompiledQuery(
        sql=sql,
        parameters=tuple(ctx.params),
        arity=query.arity,
        source=query,
        relation_map=relation_map,
    )


def _term_sql(term: Term, env: Mapping[Var, str], ctx: _FOContext) -> str:
    if is_var(term):
        try:
            return env[term]
        except KeyError:
            raise ValueError(f"unbound variable {term} in formula") from None
    ctx.params.append(term)
    return "?"


def _compile_formula(
    formula: Formula, env: Dict[Var, str], ctx: _FOContext
) -> str:
    if isinstance(formula, TrueFormula):
        return "1 = 1"
    if isinstance(formula, FalseFormula):
        return "1 = 0"
    if isinstance(formula, AtomFormula):
        alias = ctx.fresh_alias()
        table = physical_table(formula.atom.relation, ctx.relation_map)
        conditions = []
        for position, term in enumerate(formula.atom.terms):
            conditions.append(f"{alias}.c{position} = {_term_sql(term, env, ctx)}")
        return (
            f"EXISTS (SELECT 1 FROM {table} {alias} "
            f"WHERE {' AND '.join(conditions)})"
        )
    if isinstance(formula, Equality):
        left = _term_sql(formula.left, env, ctx)
        right = _term_sql(formula.right, env, ctx)
        return f"{left} = {right}"
    if isinstance(formula, Not):
        return f"NOT ({_compile_formula(formula.operand, env, ctx)})"
    if isinstance(formula, And):
        inner = " AND ".join(
            f"({_compile_formula(op, env, ctx)})" for op in formula.operands
        )
        return f"({inner})"
    if isinstance(formula, Or):
        inner = " OR ".join(
            f"({_compile_formula(op, env, ctx)})" for op in formula.operands
        )
        return f"({inner})"
    if isinstance(formula, Implies):
        premise = _compile_formula(formula.premise, env, ctx)
        conclusion = _compile_formula(formula.conclusion, env, ctx)
        return f"(NOT ({premise}) OR ({conclusion}))"
    if isinstance(formula, Exists):
        return _compile_quantifier(formula.variables, formula.operand, env, ctx, negate=False)
    if isinstance(formula, Forall):
        return _compile_quantifier(formula.variables, formula.operand, env, ctx, negate=True)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def _compile_quantifier(
    variables: Tuple[Var, ...],
    operand: Formula,
    env: Dict[Var, str],
    ctx: _FOContext,
    negate: bool,
) -> str:
    """``exists`` -> EXISTS(...); ``forall`` -> NOT EXISTS(... NOT ...)."""
    inner_env = dict(env)
    from_parts = []
    for var in variables:
        alias = ctx.fresh_alias()
        from_parts.append(f"{LIVE_DOMAIN} {alias}")
        inner_env[var] = f"{alias}.v"
    body = _compile_formula(operand, inner_env, ctx)
    if negate:
        body = f"NOT ({body})"
    return (
        f"{'NOT ' if negate else ''}EXISTS "
        f"(SELECT 1 FROM {', '.join(from_parts)} WHERE {body})"
    )
