"""Columnar fact core: compiled walk tables.

The object path represents everything as per-:class:`~repro.db.facts.Fact`
Python objects and walks each repairing chain step by step.  This module
provides the columnar counterpart, in pure Python:
:func:`compile_walk_table` flattens a repairing chain's reachable states
into successor tables.  Every draw of the SQL samplers
(:mod:`repro.sql.sampler`) reads its component's table, which a sampler
compiles once per chain shape and shares among the components of that
shape.  A draw on a table with :attr:`WalkTable.shifts` reads each
choice off the top byte of a word of the first 64-byte block of its
counter-based stream (:func:`repro.campaign.block_words`), straight off
the keyed digest; any other draw replays the table with its own
:class:`~repro.campaign.DrawStream` (:func:`replay_walk`).

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
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "enabled",
    "WalkTable",
    "compile_walk_table",
    "replay_walk",
    "EVENTS",
]


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


#: How much work ran on the columnar paths, by stat (plans compiled;
#: walk tables compiled, or shared by a component of a shape already
#: compiled (``walk_tables_shared``); draws read off a walk table
#: (``draws_table``) or walked on an overflowed chain
#: (``draws_walked``); plan gates, violation rows fetched, ...) —
#: ``diagnostics.cache_report().columnar``.  In the default registry,
#: not the worker one, so serial runs count too; ``always=True`` keeps it
#: counting under ``REPRO_METRICS=0``.
EVENTS = obs_metrics.REGISTRY.counter(
    "ocqa_columnar_events_total",
    "Columnar-core events by stat (plans compiled, walk tables compiled "
    "or shared, draws read off tables or walked, plan gates, ...).",
    ("stat",),
    always=True,
)


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
    :class:`~repro.campaign.DrawStream` consumes exactly the words the
    object path would — that is the byte-identity invariant everything
    above relies on.  A complete table (:meth:`finish`) whose states are
    all uniform, each over fewer than 256 successors, also carries
    ``shifts``, so a draw can apply ``randrange``'s rejection rule to
    the top bytes of raw 32-bit words.
    """

    __slots__ = (
        "absorbing",
        "uniform",
        "counts",
        "denominators",
        "cumulative",
        "successors",
        "payload",
        "shifts",
    )

    def __init__(self) -> None:
        self.absorbing: List[bool] = []
        self.uniform: List[bool] = []
        self.counts: List[int] = []
        self.denominators: List[int] = []
        self.cumulative: List[Tuple[int, ...]] = []
        self.successors: List[Tuple[int, ...]] = []
        self.payload: List[Any] = []
        #: Per state, the shift that turns a word's top byte into
        #: ``randrange(counts[s])``'s candidate ``word >> (32 - k)``,
        #: ``k = counts[s].bit_length() <= 8``: one byte read and one
        #: shift per word, ~0.7 us a walk with its blake2b block (~0.46
        #: us).  ``None`` when a state is weighted or 256-way or wider,
        #: or the table is not finished.
        self.shifts: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.absorbing)

    def finish(self) -> "WalkTable":
        """Set :attr:`shifts` once every state is appended."""
        self.shifts = (
            [8 - count.bit_length() for count in self.counts]
            if all(self.uniform) and max(self.counts, default=0) < 256
            else None
        )
        return self


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
    return table.finish()


def replay_walk(table: WalkTable, rng: Any) -> int:
    """Walk *table* with *rng*, returning the absorbing state id.

    *rng* is the draw's :class:`~repro.campaign.DrawStream`, keyed
    exactly as the object path keys it, so both consume the same words.
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
