"""Serialization: JSON and CSV round-trips for databases and constraints.

JSON layout::

    {"R": [["a", "b"], ["a", "c"]], "S": [["b"]]}

CSV layout: one ``<relation>.csv`` file per relation inside a directory,
no header, one fact per row.  Constraint files use the textual syntax of
:mod:`repro.constraints.parser`, one constraint per line.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.constraints.base import ConstraintSet
from repro.constraints.parser import parse_constraints
from repro.db.facts import Database, Fact

PathLike = Union[str, Path]


def database_to_json(database: Database) -> str:
    """Serialize a database to a JSON string."""
    grouped: Dict[str, List[List]] = {}
    for fact in database.sorted_facts:
        grouped.setdefault(fact.relation, []).append(list(fact.values))
    return json.dumps(grouped, indent=2, sort_keys=True, default=str)


def _cell_ok(cell: Any) -> bool:
    """Whether *cell* can be a fact's value: a string, a 64-bit integer
    (a SQL column holds no more), a finite number or a boolean."""
    if isinstance(cell, (str, bool)):
        return True
    if isinstance(cell, int):
        return -(1 << 63) <= cell < 1 << 63
    return isinstance(cell, float) and math.isfinite(cell)


def decode_facts(spec: Any, field: str) -> List[Fact]:
    """The facts of a decoded ``{relation: [rows]}`` JSON value; *field*
    names it in errors.

    Both front doors read databases through it: the CLI's ``--db`` file
    and the service's ``/query`` ``database`` and ``/update`` ``add`` and
    ``remove``.  ``null`` cells are refused: SQL's ``NULL = NULL`` is not
    true, so the SQL and chain engines would disagree about which facts
    conflict.  So are arrays, objects, non-finite numbers and integers
    wider than 64 bits.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"'{field}' must be a {{relation: [rows]}} object")
    facts = []
    for relation, rows in spec.items():
        if not isinstance(rows, list):
            raise ValueError(f"'{field}.{relation}' must be a list of rows")
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"'{field}.{relation}' rows must be arrays")
            for cell in row:
                if not _cell_ok(cell):
                    raise ValueError(
                        f"'{field}.{relation}' cell {cell!r} is not a string, "
                        "64-bit integer, finite number or boolean"
                    )
            facts.append(Fact(str(relation), tuple(row)))
    return facts


def database_from_json(text: str) -> Database:
    """Parse a database from its JSON representation (cells as
    :func:`decode_facts` accepts them)."""
    return Database(decode_facts(json.loads(text), "database"))


def save_database(database: Database, path: PathLike) -> None:
    """Write a database to a ``.json`` file."""
    Path(path).write_text(database_to_json(database), encoding="utf-8")


def load_database(path: PathLike) -> Database:
    """Read a database from a ``.json`` file."""
    return database_from_json(Path(path).read_text(encoding="utf-8"))


def save_database_csv(database: Database, directory: PathLike) -> None:
    """Write one headerless ``<relation>.csv`` per relation."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for relation, facts in database.by_relation.items():
        with open(directory / f"{relation}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for fact in facts:
                writer.writerow(fact.values)


def load_database_csv(directory: PathLike) -> Database:
    """Read every ``*.csv`` in *directory* as a relation."""
    directory = Path(directory)
    facts = []
    for csv_path in sorted(directory.glob("*.csv")):
        relation = csv_path.stem
        with open(csv_path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if row:
                    facts.append(Fact(relation, tuple(row)))
    return Database(facts)


def load_constraints(path: PathLike) -> ConstraintSet:
    """Read a constraint file (textual syntax, ``#`` comments allowed)."""
    return ConstraintSet(parse_constraints(Path(path).read_text(encoding="utf-8")))


def save_constraints(constraints: ConstraintSet, path: PathLike) -> None:
    """Write constraints in their textual syntax, one per line."""
    lines = [str(constraint) for constraint in constraints]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
