"""Plain key-violation workloads (Section 5 scale experiments).

A relation ``R(key, attr1, ..., attrk)`` with a primary key on the first
position and a tunable number/size of duplicate-key groups.  Used by the
SQL sampler and scaling benchmarks, where tables reach tens of thousands
of rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.constraints.base import ConstraintSet
from repro.constraints.shortcuts import key
from repro.db.facts import Database, Fact
from repro.db.schema import Relation, Schema
from repro.sql.sampler import KeySpec


@dataclass
class KeyConflictWorkload:
    """A key-violation workload plus everything needed to repair it."""

    database: Database
    constraints: ConstraintSet
    schema: Schema
    key_spec: KeySpec
    clean_rows: int
    conflict_groups: int
    group_size: int

    @property
    def total_rows(self) -> int:
        """Total number of facts in the generated database."""
        return len(self.database)

    def load_into(self, backend):
        """Load the workload into a :class:`repro.sql.SQLBackend`.

        Returns the backend, so call sites can chain:
        ``workload.load_into(create_backend("sqlite"))``.
        """
        backend.load(self.database, self.schema)
        return backend


def key_conflict_workload(
    clean_rows: int,
    conflict_groups: int,
    group_size: int = 2,
    arity: int = 3,
    seed: Optional[int] = None,
    relation: str = "R",
) -> KeyConflictWorkload:
    """Generate ``clean_rows`` unique-key rows plus conflicting groups.

    Each of the *conflict_groups* key values receives *group_size*
    distinct rows (so each group induces ``group_size choose 2`` key
    violations).  Values are strings; non-key attributes are random.
    """
    if arity < 2:
        raise ValueError("arity must be at least 2 (key plus one attribute)")
    if group_size < 2:
        raise ValueError("conflict groups need at least two rows")
    rng = random.Random(seed)
    facts: List[Fact] = []

    def row(key_value: str, tag: str) -> Fact:
        attrs = tuple(
            f"{tag}_{rng.randrange(10_000)}" for _ in range(arity - 1)
        )
        return Fact(relation, (key_value,) + attrs)

    for i in range(clean_rows):
        facts.append(row(f"c{i}", f"r{i}"))
    for g in range(conflict_groups):
        key_value = f"dup{g}"
        members = set()
        while len(members) < group_size:
            members.add(row(key_value, f"g{g}_{len(members)}"))
        facts.extend(sorted(members, key=str))
    schema = Schema([Relation(relation, arity)])
    return KeyConflictWorkload(
        database=Database(facts),
        constraints=ConstraintSet(key(relation, arity, [0])),
        schema=schema,
        key_spec=KeySpec(relation, arity, (0,)),
        clean_rows=clean_rows,
        conflict_groups=conflict_groups,
        group_size=group_size,
    )
