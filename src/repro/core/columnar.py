"""Columnar fact core: vectorized edge survival and compiled walks.

The object path represents everything as per-:class:`~repro.db.facts.Fact`
Python objects — flexible, but every hot loop (violation-edge survival,
repair walks) pays a Python-level iteration per fact.  This module
provides the columnar counterparts:

- :class:`EdgeMembershipIndex` — violation/conflict edges as sorted
  fact-code arrays with an alive bitmap, so monotone deletions kill
  edges via one vectorized membership join instead of a per-edge
  ``isdisjoint``;
- :func:`compile_walk_table` / :class:`WalkArena` — a repairing chain's
  reachable states flattened into successor tables.  Every draw of the
  SQL samplers (:mod:`repro.sql.sampler`) reads its component's table,
  which a sampler compiles once per chain shape and shares among the
  components of that shape: a range of at least ``MIN_VECTOR_SEEDS``
  seeds is stepped at once over pre-seeded MT19937 word columns
  (:mod:`repro.core.mt19937`, whose batch seeding costs a fixed
  ~10 ms), a smaller one replays each draw with its own seeded
  ``random.Random`` (:func:`replay_walk`).

Everything here is an *accelerator*, never a semantic fork: each
consumer keeps the object path as the reference implementation, reached
via ``REPRO_COLUMNAR=0`` (checked dynamically, so workers honor it too)
or automatically whenever a precondition fails.  The conformance suite
(``tests/property/test_columnar_props.py``) pins the two paths to
identical — for sampling, byte-identical — results.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the availability gate
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

from repro.core import mt19937
from repro.obs import metrics as obs_metrics

__all__ = [
    "available",
    "enabled",
    "numpy_available",
    "EdgeMembershipIndex",
    "WalkTable",
    "WalkArena",
    "compile_walk_table",
    "replay_walk",
    "EVENTS",
]


def numpy_available() -> bool:
    """Whether numpy importable (hard dependency, but stay honest)."""
    return _np is not None


def enabled() -> bool:
    """The ``REPRO_COLUMNAR`` escape hatch, read per call.

    Dynamic so a worker process spawned with ``REPRO_COLUMNAR=0`` (or a
    test flipping the variable) changes path without restarts.
    """
    return os.environ.get("REPRO_COLUMNAR", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def available() -> bool:
    """Whether columnar fast paths may run right now."""
    return _np is not None and enabled()


#: How much work ran on the columnar paths, by stat (plans compiled;
#: walk tables compiled, or shared by a component of a shape already
#: compiled (``walk_tables_shared``); draws ``draws_vectorized``, seeded one at a time because their range
#: was under ``MIN_VECTOR_SEEDS`` (``draws_small_range``), replayed after
#: an exhausted word budget or on a weighted table or over-long seed
#: (``draws_replayed``), or walked on an overflowed chain
#: (``draws_walked``); vector joins, edge indexes, ...) —
#: ``diagnostics.cache_report().columnar``.  In the default registry,
#: not the worker one, so serial runs count too; ``always=True`` keeps it
#: counting under ``REPRO_METRICS=0``.
EVENTS = obs_metrics.REGISTRY.counter(
    "ocqa_columnar_events_total",
    "Columnar-core events by stat (plans compiled, walk tables compiled "
    "or shared, draws vectorized, in small ranges, replayed or walked, "
    "vector joins, edge indexes, ...).",
    ("stat",),
    always=True,
)


# --------------------------------------------------------------------------
# Vectorized edge survival (violation / conflict hyperedges)
# --------------------------------------------------------------------------


class EdgeMembershipIndex:
    """Hyperedges over facts, with vectorized monotone deletion.

    Built once from a set of edges; each edge carries a *payload* (by
    default the member set itself — violation indexes pass the
    :class:`~repro.core.violations.Violation` whose body image the edge
    is).  :meth:`remove_facts` kills every edge touching a removed fact
    via one sorted-array membership join; :meth:`payloads_disjoint_from`
    answers the same question *purely*, so one index serves many
    "what survives deleting X?" probes against the same edge set.
    Insertion invalidates the index — callers rebuild (edges only
    shrink between inserts on the delta paths this serves).
    """

    __slots__ = (
        "payloads",
        "alive",
        "live_count",
        "_codes",
        "_fact_codes",
        "_edge_ids",
    )

    def __init__(
        self,
        edges: Iterable[Any],
        members: Optional[Any] = None,
    ) -> None:
        """Index *edges*; ``members(edge)`` yields its facts (default:
        the edge itself is the fact collection)."""
        self.payloads: List[Any] = list(edges)
        self.alive = _np.ones(len(self.payloads), dtype=bool)
        self.live_count = len(self.payloads)
        self._codes: Dict[Any, int] = {}
        codes = self._codes
        pair_codes: List[int] = []
        pair_edges: List[int] = []
        for edge_id, edge in enumerate(self.payloads):
            for fact in members(edge) if members is not None else edge:
                code = codes.get(fact)
                if code is None:
                    code = len(codes)
                    codes[fact] = code
                pair_codes.append(code)
                pair_edges.append(edge_id)
        fact_codes = _np.asarray(pair_codes, dtype=_np.int64)
        edge_ids = _np.asarray(pair_edges, dtype=_np.int64)
        order = _np.argsort(fact_codes, kind="stable")
        self._fact_codes = fact_codes[order]
        self._edge_ids = edge_ids[order]
        EVENTS.inc(stat="edge_index_builds")
        EVENTS.inc(len(self.payloads), stat="edge_index_edges")

    def __len__(self) -> int:
        return len(self.payloads)

    def _touched_edges(self, removed: Iterable[Any]) -> Optional["_np.ndarray"]:
        """Edge ids containing any removed fact (``None``: no overlap)."""
        codes = [
            code
            for code in (self._codes.get(fact) for fact in removed)
            if code is not None
        ]
        if not codes:
            return None
        probes = _np.asarray(sorted(codes), dtype=_np.int64)
        positions = _np.searchsorted(probes, self._fact_codes)
        positions[positions == len(probes)] = 0
        hit = probes[positions] == self._fact_codes
        EVENTS.inc(stat="vector_joins")
        if not hit.any():
            return None
        return self._edge_ids[hit]

    def remove_facts(self, removed: Iterable[Any]) -> bool:
        """Kill every live edge containing a removed fact.

        Returns whether any edge died (i.e. the surviving set changed).
        """
        touched = self._touched_edges(removed)
        if touched is None:
            return False
        alive = self.alive
        live = touched[alive[touched]]
        if live.size == 0:
            return False
        alive[live] = False
        self.live_count -= int(_np.unique(live).size)
        return True

    def surviving(self) -> List[Any]:
        """The live edges' payloads, in construction order."""
        if self.live_count == len(self.payloads):
            return list(self.payloads)
        alive = self.alive
        return [
            payload
            for edge_id, payload in enumerate(self.payloads)
            if alive[edge_id]
        ]

    def payloads_disjoint_from(self, removed: Iterable[Any]) -> List[Any]:
        """Payloads of edges disjoint from *removed* — without mutating
        the index (every edge counts, dead or alive)."""
        touched = self._touched_edges(removed)
        if touched is None:
            return list(self.payloads)
        dead = _np.zeros(len(self.payloads), dtype=bool)
        dead[touched] = True
        return [
            payload
            for edge_id, payload in enumerate(self.payloads)
            if not dead[edge_id]
        ]


# --------------------------------------------------------------------------
# Compiled walk tables
# --------------------------------------------------------------------------


class WalkTable:
    """A repairing chain's reachable states as flat successor tables.

    Per state: either a uniform draw over ``counts[s]`` successors (the
    shared-``1/n`` fast path of
    :func:`repro.core.sampling.choose_transition`) or a prepared
    common-denominator draw (``denominators[s]`` + ``cumulative[s]``);
    ``successors[s][r]`` is the next state.  Absorbing states carry the
    reached :class:`~repro.core.state.RepairState` in ``payload`` so
    callers can project survivors/deletions once per *state* instead of
    once per walk.  Replaying the table with the draw's own
    ``random.Random`` consumes exactly the words the object path would —
    that is the byte-identity invariant everything above relies on.
    """

    __slots__ = (
        "absorbing",
        "uniform",
        "counts",
        "denominators",
        "cumulative",
        "successors",
        "payload",
        "vectorizable",
    )

    def __init__(self) -> None:
        self.absorbing: List[bool] = []
        self.uniform: List[bool] = []
        self.counts: List[int] = []
        self.denominators: List[int] = []
        self.cumulative: List[Tuple[int, ...]] = []
        self.successors: List[Tuple[int, ...]] = []
        self.payload: List[Any] = []
        self.vectorizable = True

    def __len__(self) -> int:
        return len(self.absorbing)


def compile_walk_table(
    chain: Any, state_limit: int = 512
) -> Optional[WalkTable]:
    """Flatten *chain*'s reachable states into a :class:`WalkTable`.

    Returns ``None`` when the chain is too large to enumerate within
    *state_limit* states.  Enumeration goes through the chain's own
    memoized ``transitions``, so compiling warms exactly the caches the
    object path would.  States deduplicate by database when the chain is
    database-keyed (the same key its transition memo uses), which keeps
    the replay faithful: word consumption at a state is a function of
    its transition tuple alone.
    """
    from repro.core.sampling import _prepared_draw

    db_keyed = bool(getattr(chain, "_db_keyed", False))
    table = WalkTable()
    initial = chain.initial_state()
    states = [initial]
    index: Dict[Any, int] = {initial.db if db_keyed else id(initial): 0}
    position = 0
    while position < len(states):
        state = states[position]
        transitions = chain.transitions(state)
        if not transitions:
            table.absorbing.append(True)
            table.uniform.append(True)
            table.counts.append(0)
            table.denominators.append(0)
            table.cumulative.append(())
            table.successors.append(())
            table.payload.append(state)
            position += 1
            continue
        first_probability = transitions[0][1]
        is_uniform = all(
            probability is first_probability for _, probability in transitions
        )
        if is_uniform:
            table.denominators.append(0)
            table.cumulative.append(())
        else:
            denominator, cumulative = _prepared_draw(transitions)
            table.denominators.append(denominator)
            table.cumulative.append(cumulative)
            table.vectorizable = False
        row: List[int] = []
        for op, _ in transitions:
            successor = chain.step(state, op)
            key = successor.db if db_keyed else id(successor)
            state_id = index.get(key)
            if state_id is None:
                if len(states) >= state_limit:
                    EVENTS.inc(stat="walk_table_overflow")
                    return None
                state_id = len(states)
                index[key] = state_id
                states.append(successor)
            row.append(state_id)
        table.absorbing.append(False)
        table.uniform.append(is_uniform)
        table.counts.append(len(transitions))
        table.successors.append(tuple(row))
        table.payload.append(None)
        position += 1
    EVENTS.inc(stat="walk_tables_compiled")
    return table


def replay_walk(table: WalkTable, rng: Any) -> int:
    """Walk *table* with *rng*, returning the absorbing state id.

    *rng* is either a real ``random.Random`` (seeded exactly as the
    object path would seed it) or a :class:`~repro.core.mt19937.WordStream`
    — both expose ``randrange``; the stream raises :class:`IndexError`
    on word exhaustion, which callers turn into a real-RNG retry.
    """
    state = 0
    while not table.absorbing[state]:
        if table.uniform[state]:
            choice = rng.randrange(table.counts[state])
        else:
            draw = rng.randrange(table.denominators[state])
            choice = bisect_right(table.cumulative[state], draw)
        state = table.successors[state][choice]
    return state


class WalkArena:
    """Uniform walk tables concatenated for vectorized batch stepping.

    Instances (one per pending draw) start at their table's initial
    state; each iteration consumes one pre-seeded MT19937 word per
    active instance, applies CPython's ``_randbelow`` rejection rule as
    a mask, and steps accepted instances through the shared successor
    matrix.  Instances that exhaust their word column are flagged for
    per-instance replay rather than ever producing a different draw.
    """

    __slots__ = ("initial", "_absorbing", "_counts", "_shifts", "_successors")

    def __init__(self, tables: Sequence[WalkTable]) -> None:
        if any(not table.vectorizable for table in tables):
            raise ValueError("arena requires uniform-only walk tables")
        offsets: List[int] = []
        total = 0
        for table in tables:
            offsets.append(total)
            total += len(table)
        self.initial = _np.asarray(offsets, dtype=_np.int64)
        absorbing = _np.empty(total, dtype=bool)
        counts = _np.ones(total, dtype=_np.int64)
        shifts = _np.zeros(total, dtype=_np.int64)
        fanout = max(
            (table.counts[s] for table in tables for s in range(len(table))),
            default=1,
        )
        successors = _np.zeros((total, max(fanout, 1)), dtype=_np.int64)
        for table, offset in zip(tables, offsets):
            for state in range(len(table)):
                row = offset + state
                absorbing[row] = table.absorbing[state]
                if table.absorbing[state]:
                    continue
                count = table.counts[state]
                counts[row] = count
                shifts[row] = 32 - count.bit_length()
                for choice, successor in enumerate(table.successors[state]):
                    successors[row, choice] = offset + successor
        self._absorbing = absorbing
        self._counts = counts
        self._shifts = shifts
        self._successors = successors

    def run_grid(
        self, repeats: int, words: "_np.ndarray"
    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Walk *repeats* instances per table, tables in arena order.

        Instance layout is table-major — instance ``t * repeats + r`` is
        repeat ``r`` of table ``t`` — matching a word matrix built from
        seeds enumerated the same way.
        """
        table_of = _np.repeat(
            _np.arange(len(self.initial), dtype=_np.int64), repeats
        )
        return self.run(table_of, words)

    def run(
        self, table_of: "_np.ndarray", words: "_np.ndarray"
    ) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """Walk every instance; returns ``(final_state, completed)``.

        *table_of* maps instance → table index (into the construction
        order); *words* is the ``(W, n)`` uint32 word matrix, column per
        instance.  ``final_state[i]`` is meaningful only where
        ``completed[i]`` — exhausted instances must be replayed.
        """
        word_matrix = words.astype(_np.int64)
        budget = word_matrix.shape[0]
        count = word_matrix.shape[1]
        state = self.initial[table_of]
        cursor = _np.zeros(count, dtype=_np.int64)
        completed = _np.ones(count, dtype=bool)
        active = ~self._absorbing[state]
        while True:
            indices = _np.flatnonzero(active)
            if indices.size == 0:
                break
            exhausted = cursor[indices] >= budget
            if exhausted.any():
                dead = indices[exhausted]
                completed[dead] = False
                active[dead] = False
                indices = indices[~exhausted]
                if indices.size == 0:
                    break
            rows = state[indices]
            draws = word_matrix[cursor[indices], indices] >> self._shifts[rows]
            cursor[indices] += 1
            accepted = draws < self._counts[rows]
            stepped = indices[accepted]
            if stepped.size:
                state[stepped] = self._successors[rows[accepted], draws[accepted]]
                active[stepped] = ~self._absorbing[state[stepped]]
        return state, completed
