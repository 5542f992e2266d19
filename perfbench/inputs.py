"""Seeded inputs: every instance and request schedule comes from ``--seed``.

The structure of each input — row counts, conflict groups, active-domain
size, the mix of query shapes, the update share — is fixed, and the seed
only permutes which keys conflict, which values rows carry and in which
order requests arrive.  So two seeds cost the same work, and the spread
between runs measures the system, not the inputs.  The program under
test receives only what these functions return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

CONSTRAINTS = "R(x, y), R(x, z) -> y = z"
INSTANCE = "bench"

#: Served instance: ``R(key, value)`` under the key EGD, ``S(value)``.
KEYS = 24
VALUES = 12
CONFLICTS = 8
S_VALUES = 6

#: Every served query asks for this level; fixed-Hoeffding requests draw
#: ``ceil(ln(2/delta) / (2 eps^2))`` = 38 repairs, adaptive ones at most that.
EPSILON = 0.2
DELTA = 0.1

#: ``serve_cold`` query texts: single-atom and ``&``-join CQs.
COLD_QUERIES = (
    "Q(x) :- R(x, y)",
    "Q(y) :- R(x, y)",
    "Q(x, y) :- R(x, y)",
    "Q(x) :- S(x)",
    "Q(x) :- R(x, y) & S(y)",
    "Q(x, y) :- R(x, y) & S(y)",
)
COLD_SEEDS = 4

#: ``serve_hot_update`` standing queries ``(text, adaptive)``: two read R
#: only, two S only, two join both, so a delta on either relation
#: invalidates four entries and migrates two.
STANDING = (
    ("Q(x) :- R(x, y)", False),
    ("Q(x, y) :- R(x, y)", True),
    ("Q(x) :- S(x)", False),
    ("Q(x) :- S(x)", True),
    ("Q(x) :- R(x, y) & S(y)", False),
    ("Q(x, y) :- R(x, y) & S(y)", True),
)
#: Each block of the hot schedule asks every standing query this often,
#: plus one update: 4 misses in 24 queries, a miss share of 1/6.
ASKS_PER_BLOCK = 4

#: ``campaign_pool`` instance and request size.
CAMPAIGN_CLEAN_ROWS = 2000
CAMPAIGN_GROUPS = 400
CAMPAIGN_GROUP_SIZE = 3
CAMPAIGN_RUNS = 64
CAMPAIGN_QUERY = "Q(x) :- R(x, y, z)"


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def served_instance(seed: int) -> Dict[str, List[List[str]]]:
    """The named instance both ``serve_*`` workloads register.

    Every value sits on two keys; half the values are in ``S``; half the
    conflicting keys hold an ``S`` value and each conflict pairs an ``S``
    value with a non-``S`` one.  So the join selectivity and the conflict
    structure are the same on every seed.
    """
    rng = _rng(seed, "instance")
    values = [f"v{i}" for i in range(VALUES)]
    in_s = set(rng.sample(values, S_VALUES))
    assigned = [values[i % VALUES] for i in range(KEYS)]
    rng.shuffle(assigned)
    rows = [[f"k{i}", assigned[i]] for i in range(KEYS)]
    s_keys = [i for i in range(KEYS) if assigned[i] in in_s]
    other_keys = [i for i in range(KEYS) if assigned[i] not in in_s]
    half = CONFLICTS // 2
    for key in rng.sample(s_keys, half) + rng.sample(other_keys, CONFLICTS - half):
        opposite = [v for v in values if (v in in_s) != (assigned[key] in in_s)]
        rows.append([f"k{key}", rng.choice(opposite)])
    rng.shuffle(rows)
    return {"R": rows, "S": [[v] for v in sorted(in_s)]}


def query_seeds(seed: int, count: int) -> List[int]:
    rng = _rng(seed, "query-seeds")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def query_payload(
    text: str, seed: int, adaptive: bool, cache: Optional[str] = None
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "instance": INSTANCE,
        "query": text,
        "seed": seed,
        "epsilon": EPSILON,
        "delta": DELTA,
        "adaptive": adaptive,
    }
    if cache is not None:
        payload["cache"] = cache
    return payload


def registration_payload(seed: int) -> Dict[str, object]:
    """The ``/query`` that registers the instance (a bypassed first query)."""
    payload = query_payload(COLD_QUERIES[0], 1, False, cache="bypass")
    payload["database"] = served_instance(seed)
    payload["constraints"] = CONSTRAINTS
    return payload


def cold_schedule(seed: int) -> Iterator[Dict[str, object]]:
    """Endless ``serve_cold`` requests, all ``cache: "bypass"``.

    Requests cycle through the query texts in a fixed order and alternate
    fixed-Hoeffding and adaptive requests, so any window holds each shape
    and each mode within one request of its share.  Over eight rounds each
    text is asked once per (seed, mode); the seed order is seeded.
    """
    rng = _rng(seed, "cold-schedule")
    seeds = query_seeds(seed, COLD_SEEDS)
    while True:
        orders = {
            (text, adaptive): rng.sample(seeds, len(seeds))
            for text in COLD_QUERIES
            for adaptive in (False, True)
        }
        for round_ in range(2 * COLD_SEEDS):
            for position, text in enumerate(COLD_QUERIES):
                adaptive = (position + round_) % 2 == 1
                query_seed = orders[(text, adaptive)][round_ // 2]
                yield query_payload(text, query_seed, adaptive, cache="bypass")


@dataclass
class Delta:
    """One ``/update``: the facts it adds and removes, by relation."""

    relation: str
    add: List[List[str]]
    remove: List[List[str]]

    def payload(self) -> Dict[str, object]:
        body: Dict[str, object] = {"instance": INSTANCE, "add": {self.relation: self.add}}
        if self.remove:
            body["remove"] = {self.relation: self.remove}
        return body


def standing_queries(seed: int) -> List[Dict[str, object]]:
    seeds = query_seeds(seed, len(STANDING))
    return [
        query_payload(text, s, adaptive)
        for (text, adaptive), s in zip(STANDING, seeds)
    ]


def hot_schedule(seed: int) -> Iterator[Tuple[str, object]]:
    """Endless ``serve_hot_update`` operations: ``("query", i)`` / ``("update", Delta)``.

    Each block asks every standing query :data:`ASKS_PER_BLOCK` times in
    a seeded order and applies one delta at a seeded position.  Deltas
    alternate between ``R`` and ``S``; each adds one fresh fact (a new
    conflict on a seeded key, or a value new to ``S``) and removes the
    fact its relation's previous delta added, so the instance stays the
    same size.
    """
    rng = _rng(seed, "hot-schedule")
    s_values = {row[0] for row in served_instance(seed)["S"]}
    values = [f"v{i}" for i in range(VALUES)]
    previous: Dict[str, Optional[List[str]]] = {"R": None, "S": None}
    block = [("query", i) for i in range(len(STANDING)) for _ in range(ASKS_PER_BLOCK)]
    serial = 0
    while True:
        relation = "R" if serial % 2 == 0 else "S"
        if relation == "R":
            fresh = [f"k{rng.randrange(KEYS)}", f"u{serial}"]
        else:
            fresh = [rng.choice(sorted(set(values) - s_values))]
        removed = [previous[relation]] if previous[relation] is not None else []
        if relation == "S":
            s_values.add(fresh[0])
            for row in removed:
                s_values.discard(row[0])
        previous[relation] = fresh
        serial += 1
        order = rng.sample(block, len(block))
        order.insert(rng.randrange(len(order) + 1), ("update", Delta(relation, [fresh], removed)))
        yield from order


def apply_delta(instance: Dict[str, List[List[str]]], delta: Delta) -> Dict[str, List[List[str]]]:
    """The instance after *delta* (the client's model of the server state)."""
    rows = [row for row in instance[delta.relation] if row not in delta.remove]
    rows.extend(row for row in delta.add if row not in rows)
    updated = dict(instance)
    updated[delta.relation] = rows
    return updated


def campaign_seed(seed: int) -> int:
    return _rng(seed, "campaign").randrange(1, 2**31)
