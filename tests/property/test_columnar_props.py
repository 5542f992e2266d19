"""Columnar core == object path, property-tested.

The columnar accelerators (:mod:`repro.core.columnar` and the sampler
draw plans built on them) are never allowed to be a semantic fork: every
columnar answer must equal what the object path computes, on *every*
input, not just the benchmark shapes.  Hypothesis drives random
deletion deltas and full sampler workloads through both
implementations and asserts exact agreement.  A draw range returns a
tally, so the sampler tests compare one-draw ranges: each draw's answers
still meet the ``REPRO_COLUMNAR=0`` reference on their own, and
:class:`TestRangeTallies` checks that a longer range's tally is the sum
of its draws'.
"""

import collections
import contextlib
import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.campaign import add_tallies, draw_rng, tally_outcomes
from repro.constraints import ConstraintSet, key, parse_constraints
from repro.core import columnar
from repro.core.generators import TrustGenerator, UniformGenerator
from repro.core.incremental import DeltaViolationIndex
from repro.core.sampling import chain_outcomes_for_range, sample_walk
from repro.core.operations import Operation
from repro.core.violations import violations
from repro.db.atoms import Atom
from repro.db.facts import Database, Fact
from repro.db.schema import Schema
from repro.db.terms import Var
from repro.queries import ConjunctiveQuery, parse_cq, parse_query
from repro.sql import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    SamplerPolicy,
    SQLiteBackend,
)
from repro.sql.sampler import MAX_WITNESSES
from repro.workloads import key_conflict_workload

from tests.property.strategies import key_sigma, key_violation_databases

pytestmark = pytest.mark.skipif(
    not columnar.enabled(), reason="REPRO_COLUMNAR=0 turns the columnar core off"
)

# ----------------------------------------------------------------------
# DeltaViolationIndex: monotone deletion == detection from scratch
# ----------------------------------------------------------------------


class TestMonotoneDeletionParity:
    @given(db=key_violation_databases(), removed=st.data())
    @settings(max_examples=100, deadline=None)
    def test_indexed_survivors_equal_the_object_filter(self, db, removed):
        sigma = key_sigma()
        old = violations(db, sigma)
        victims = removed.draw(
            st.frozensets(st.sampled_from(sorted(db.facts, key=str)), max_size=3)
            if db.facts
            else st.just(frozenset())
        )
        if not victims:
            return
        op = Operation.delete(victims)
        new_db = op.apply(db)
        survivors = DeltaViolationIndex(sigma).violations_after(
            db, old, op, new_db
        )
        # Pin the monotone filter to both the genexpr semantics and a
        # fresh from-scratch detection on the mutated database.
        expected = frozenset(
            v for v in old if v.facts.isdisjoint(victims & db.facts)
        )
        assert survivors == expected
        assert survivors == violations(new_db, sigma)


# ----------------------------------------------------------------------
# Sampler draw plans: columnar outcome streams == the reference loop
# ----------------------------------------------------------------------


#: The sampler inputs the draw plan must agree with the object path on:
#: the three key policies (TRUST's weighted tables replay each draw
#: with its ``DrawStream``), the generic sampler on the same keys, and
#: the generic sampler with a cross-relation constraint, whose
#: components span R and S while the query reads R alone.
PARITY_INPUTS = (
    SamplerPolicy.OPERATIONAL_UNIFORM,
    SamplerPolicy.KEEP_ONE_UNIFORM,
    SamplerPolicy.TRUST,
    "constraint",
    "cross_relation",
)

#: Single-atom queries, which every input plans.
PLAN_QUERIES = ("Q(x) :- R(x, y, z)", "Q(x, z) :- R(x, y, z)")

#: A self-join, which plans from its witnesses, and (``cross_relation``
#: only, the input with an ``S``) a first-order query with negation,
#: whose table draws are evaluated by per-draw SQL.
JOIN_QUERY = "Q(x, u) :- R(x, y, z) & R(u, y, w)"
NEGATION_QUERY = "Q(x) :- R(x, y, z) & !S(y)"


@contextlib.contextmanager
def _setting(name, value):
    """Set a ``REPRO_*`` variable for a block (hypothesis cannot share
    the function-scoped ``monkeypatch``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(name, value)
        yield


def _parity_sampler(kind, clean_rows, groups, group_size, seed, extra=()):
    workload = key_conflict_workload(
        clean_rows=clean_rows,
        conflict_groups=groups,
        group_size=group_size,
        arity=3,
        seed=seed,
    )
    database = Database([*workload.database, *extra])
    schema = workload.schema
    if kind == "cross_relation":
        # S(y) conflicts with every R row carrying y: one member of each
        # of the first two groups, and one otherwise clean row.
        rows = sorted(database, key=str)
        dups = [row for row in rows if row.values[0].startswith("dup")]
        clean = [row for row in rows if row.values[0].startswith("c")]
        picks = dups[::group_size][:2] + clean[:1]
        database = Database(
            [*database, *(Fact("S", (row.values[1],)) for row in picks)]
        )
        schema = Schema.infer(database)
    backend = SQLiteBackend()
    backend.load(database, schema)
    if kind in ("constraint", "cross_relation"):
        constraints = workload.constraints
        if kind == "cross_relation":
            constraints = ConstraintSet(
                [*constraints, *parse_constraints("R(x, y, z), S(y) -> false")]
            )
        sampler = ConstraintRepairSampler(
            backend, schema, constraints, rng=random.Random(seed)
        )
    else:
        rng = random.Random(seed)
        trust = {
            fact: Fraction(rng.randint(0, 4), 4)
            for fact in sorted(database, key=str)
        }
        sampler = KeyRepairSampler(
            backend,
            schema,
            [workload.key_spec],
            policy=kind,
            trust=trust if kind is SamplerPolicy.TRUST else None,
            rng=random.Random(seed),
        )
    return backend, sampler


def _per_draw(range_tally, start, count):
    """*range_tally*'s one-draw ranges over ``[start, start + count)``:
    each draw's answers, counted on their own."""
    return [range_tally(index, 1) for index in range(start, start + count)]


def _reference(kind, clean_rows, groups, group_size, seed, query, start, count, extra=()):
    """A twin sampler's ``REPRO_COLUMNAR=0`` one-draw tallies and
    deletions: the reference walk."""
    with _setting("REPRO_COLUMNAR", "0"):
        backend, twin = _parity_sampler(
            kind, clean_rows, groups, group_size, seed, extra
        )
        try:
            compiled = twin.compile(query)
            return (
                _per_draw(
                    functools.partial(twin.outcomes_for_range, compiled),
                    start,
                    count,
                ),
                twin.deletions_for_range(start, count),
            )
        finally:
            backend.close()


def _planned(sampler, compiled, start, count):
    """The columnar plan's one-draw tallies, or ``None`` when no plan
    serves *compiled*."""
    tallies = _per_draw(
        functools.partial(sampler._columnar_outcomes, compiled), start, count
    )
    if all(tally is None for tally in tallies):
        return None
    assert None not in tallies
    return tallies


def _outcomes(sampler, compiled, start, count):
    """``outcomes_for_range``'s one-draw tallies."""
    return _per_draw(
        functools.partial(sampler.outcomes_for_range, compiled), start, count
    )


class TestSamplerOutcomeParity:
    @given(
        kind=st.sampled_from(PARITY_INPUTS),
        # The non-key projection tells a group's members apart.
        query=st.sampled_from(PLAN_QUERIES),
        clean_rows=st.integers(min_value=0, max_value=6),
        groups=st.integers(min_value=1, max_value=4),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_columnar_outcomes_equal_object_outcomes(
        self, kind, query, clean_rows, groups, group_size, seed, start, count
    ):
        backend, sampler = _parity_sampler(
            kind, clean_rows, groups, group_size, seed
        )
        try:
            if kind == "cross_relation":
                spans = [{fact.relation for fact in c} for c in sampler.components]
                assert {"R", "S"} in spans
            compiled = sampler.compile(parse_cq(query))
            fast = _planned(sampler, compiled, start, count)
            reference, _ = _reference(
                kind, clean_rows, groups, group_size, seed, parse_cq(query),
                start, count,
            )
            assert fast is not None, "the standard workload must not gate off"
            assert fast == reference
        finally:
            backend.close()

    @given(
        kind=st.sampled_from(PARITY_INPUTS),
        negated=st.booleans(),
        clean_rows=st.integers(min_value=0, max_value=6),
        groups=st.integers(min_value=1, max_value=4),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_table_draws_equal_the_reference_walk(
        self, kind, negated, clean_rows, groups, group_size, seed, start, count
    ):
        """A join plans from its witnesses; a first-order query evaluates
        its table draws in SQL."""
        first_order = negated and kind == "cross_relation"
        query = parse_query(NEGATION_QUERY if first_order else JOIN_QUERY)
        backend, sampler = _parity_sampler(
            kind, clean_rows, groups, group_size, seed
        )
        try:
            compiled = sampler.compile(query)
            planned = _planned(sampler, compiled, start, count)
            assert (planned is None) == first_order
            outcomes = _outcomes(sampler, compiled, start, count)
            deletions = sampler.deletions_for_range(start, count)
            reference = _reference(
                kind, clean_rows, groups, group_size, seed, query, start, count
            )
            assert (outcomes, deletions) == reference
            if planned is not None:
                assert planned == reference[0]
        finally:
            backend.close()

    def test_plan_survives_apply_update_with_identical_results(self):
        backend, sampler = _parity_sampler(
            SamplerPolicy.OPERATIONAL_UNIFORM, 6, 3, 2, seed=9
        )
        try:
            compiled = sampler.compile(parse_cq("Q(x) :- R(x, y, z)"))
            assert sampler._columnar_outcomes(compiled, 0, 6) is not None
            victim = min(sampler.components[0], key=str)
            sampler.apply_update(removed=[victim])
            # The delta invalidated the plan cache; the rebuilt plan must
            # agree with the reference loop on the mutated instance.
            compiled = sampler.compile(parse_cq("Q(x) :- R(x, y, z)"))
            fast = _planned(sampler, compiled, 0, 6)
            with _setting("REPRO_COLUMNAR", "0"):
                reference = _outcomes(sampler, compiled, 0, 6)
            assert fast == reference
        finally:
            backend.close()


#: Rows that share values across key groups (and with a clean row), so
#: self-joins have witnesses spanning components.
_SHARED = [
    Fact("R", ("dup0", "s1", "s2")),
    Fact("R", ("dup1", "s1", "s3")),
    Fact("R", ("c0", "s2", "s1")),
]

#: A ten-fact key group, past ``compile_walk_table``'s 512 states under
#: the chain policies, one of whose rows shares ``s1``.
_WIDE = [
    Fact("R", ("wide", "s1" if i == 0 else f"v{i}", f"w{i}")) for i in range(10)
]


@st.composite
def _random_cqs(draw, facts):
    """A CQ that 1-3 of *facts* satisfy: equal values become one shared
    variable (a join) or, position by position, fresh variables (so
    the atoms may not join at all), at most one value stays a body
    constant, and the head holds 0-2 of the variables."""
    chosen = draw(st.lists(st.sampled_from(facts), min_size=1, max_size=3))
    constant_at = draw(st.none() | st.integers(0, sum(f.arity for f in chosen) - 1))
    positions = itertools.count()
    shared = {}
    variables = []
    body = []
    for fact in chosen:
        terms = []
        for value in fact.values:
            if next(positions) == constant_at:
                terms.append(value)
                continue
            if draw(st.booleans()):
                var = shared.setdefault(value, Var(f"v{len(shared)}"))
            else:
                var = Var(f"f{len(variables)}")
            variables.append(var)
            terms.append(var)
        body.append(Atom(fact.relation, tuple(terms)))
    names = sorted(set(variables), key=str)
    head = (
        draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
        if names
        else []
    )
    return ConjunctiveQuery(head, body)


def _plan(sampler, compiled):
    """The draw plan *sampler* built for *compiled* (``False``: gated)."""
    return sampler._columnar_plans[(compiled.sql, tuple(compiled.parameters))]


_GATE_STATS = (
    "plan_gated_first_order",
    "plan_gated_relation_map",
    "plan_gated_unresolved_fact",
    "plan_gated_shared_row",
    "plan_gated_witness_budget",
    "plan_build_errors",
)


def _gate_counts():
    """The count of each plan gate and of ``plan_build_errors``."""
    return collections.Counter(
        {stat: columnar.EVENTS.value(stat=stat) for stat in _GATE_STATS}
    )


class TestWitnessPlans:
    """A conjunctive query plans from its witnesses unless a gate refuses
    it, and either way its outcomes equal the reference walk evaluated
    by per-draw SQL."""

    @given(
        kind=st.sampled_from(PARITY_INPUTS),
        clean_rows=st.integers(min_value=0, max_value=4),
        groups=st.integers(min_value=1, max_value=3),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=1, max_value=8),
        wide=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_cqs_equal_the_reference(
        self, kind, clean_rows, groups, group_size, seed, start, count, wide, data
    ):
        extra = _SHARED + (_WIDE if wide else [])
        args = (kind, clean_rows, groups, group_size, seed)
        backend, sampler = _parity_sampler(*args, extra=extra)
        try:
            facts = sorted(backend.fetch_database(sampler.schema), key=str)
            query = data.draw(_random_cqs(facts))
            compiled = sampler.compile(query)
            before = _gate_counts()
            planned = _planned(sampler, compiled, start, count)
            counted = _gate_counts() - before
            # A plan is built or refused by a gate; none fails to build.
            assert not counted["plan_build_errors"]
            plan = _plan(sampler, compiled)
            if plan is False:
                assert sum(counted.values()) == 1, counted
                event(f"gated: {next(iter(counted))}")
            else:
                assert not counted
                event("spanning" if plan.spanning else "planned")
            reference, _ = _reference(
                *args, query, start, count, extra=extra
            )
            if planned is not None:
                assert planned == reference
                # A certain answer counts once per draw: never again
                # among the answers a draw's states or spanning
                # witnesses add.
                whole = sampler.outcomes_for_range(compiled, start, count)
                for answer in plan.certain:
                    assert whole.counts[answer] == count
                drawn = {answer for answer, _ in plan.spanning}
                for answers in plan._answers:
                    drawn.update(*answers)
                assert drawn.isdisjoint(plan.certain)
            assert _outcomes(sampler, compiled, start, count) == reference
        finally:
            backend.close()

    @pytest.mark.parametrize("kind", PARITY_INPUTS)
    @pytest.mark.parametrize(
        "text",
        [
            "Q() :- R('dup0', y, z) & R('dup1', u, w)",
            "Q(x, u) :- R(x, y, z) & R(u, y, w)",
            "Q(x) :- R(x, y, z) & R(u, y, w) & R(u, v, s)",
        ],
    )
    def test_spanning_witnesses_plan(self, kind, text):
        """Witnesses spanning components (one of them walked past the
        table limit under the chain policies) are checked per draw."""
        extra = _SHARED + _WIDE
        args = (kind, 2, 2, 2, 5)
        query = parse_query(text)
        backend, sampler = _parity_sampler(*args, extra=extra)
        try:
            compiled = sampler.compile(query)
            planned = _planned(sampler, compiled, 3, 24)
            assert planned is not None
            # cross_relation's S(s1) puts every row sharing s1 in one
            # component.
            assert bool(_plan(sampler, compiled).spanning) == (
                kind != "cross_relation"
            )
            reference, _ = _reference(*args, query, 3, 24, extra=extra)
            assert planned == reference
        finally:
            backend.close()

    def test_cross_product_over_the_budget_keeps_per_draw_sql(self):
        """Witness rows past the budget gate, clean ones included, and a
        plan build fetches at most one row past it."""
        query = parse_query("Q(x, u) :- R(x, y, z) & R(u, v, w)")
        gated = columnar.EVENTS.value(stat="plan_gated_witness_budget")
        # 140 rows join into 140^2 witness rows; 132 rows into 132^2, of
        # which only 132^2 - 130^2 touch a conflict fact; 8 rows into 8^2.
        assert 132**2 > MAX_WITNESSES > max(132**2 - 130**2, 8**2)
        cases = ((40, 50, False), (130, 1, False), (4, 2, True))
        for clean_rows, groups, planned in cases:
            args = (SamplerPolicy.OPERATIONAL_UNIFORM, clean_rows, groups, 2, 3)
            backend, sampler = _parity_sampler(*args)
            fetched = []

            def record(sql, *rest, _execute=backend.execute):
                rows = _execute(sql, *rest)
                fetched.append(len(rows))
                return rows

            backend.execute = record
            try:
                compiled = sampler.compile(query)
                fast = _planned(sampler, compiled, 0, 6)
                assert (fast is not None) == planned
                assert 0 < max(fetched) <= MAX_WITNESSES + 1
                reference, _ = _reference(*args, query, 0, 6)
                assert _outcomes(sampler, compiled, 0, 6) == reference
            finally:
                backend.close()
        assert columnar.EVENTS.value(stat="plan_gated_witness_budget") == gated + 2


class TestPerComponentFallback:
    """A component the walk table cannot take falls back alone; the rest
    of the range keeps its route."""

    QUERY = "Q(x, z) :- R(x, y, z)"

    def _check(self, extra, start=3, count=10):
        args = (SamplerPolicy.OPERATIONAL_UNIFORM, 4, 3, 3, 21)
        query = parse_cq(self.QUERY)
        reference, reference_deletions = _reference(
            *args, query, start, count, extra=extra
        )
        backend, sampler = _parity_sampler(*args, extra=extra)
        try:
            compiled = sampler.compile(query)
            fast = _planned(sampler, compiled, start, count)
            deletions = sampler.deletions_for_range(start, count)
            assert fast is not None
            assert fast == reference
            assert deletions == reference_deletions
        finally:
            backend.close()

    def test_long_seed_prefix_seeds_one_at_a_time(self):
        # A key group whose members' reprs run past 2,600 bytes: its
        # stream key digests them like any other.
        extra = [
            Fact("R", ("long", "a" * 1300, "p")),
            Fact("R", ("long", "b" * 1300, "q")),
        ]
        self._check(extra)

    def test_overflowing_walk_table_walks_its_chain(self):
        # A ten-fact key group reaches more than compile_walk_table's
        # 512 states.
        extra = [Fact("R", ("wide", f"v{i}", f"w{i}")) for i in range(10)]
        self._check(extra)


# ----------------------------------------------------------------------
# Range tallies: a range counts its draws, however it is cut
# ----------------------------------------------------------------------


def _split(range_tally, start, count, cuts):
    """*range_tally* over ``[start, start + count)`` cut after each of
    *cuts* draws, the pieces summed in draw order."""
    bounds = sorted({0, count, *(cut for cut in cuts if cut < count)})
    return add_tallies(
        range_tally(start + low, high - low)
        for low, high in zip(bounds, bounds[1:])
    )


def _keyed(tally):
    """*tally* with its answers' representations as keys, so answers
    that are equal but typed differently stay apart."""
    return (
        tally.draws,
        tally.valid,
        {repr(answer): count for answer, count in tally.counts.items()},
    )


class TestRangeTallies:
    @given(
        kind=st.sampled_from(PARITY_INPUTS),
        text=st.sampled_from(PLAN_QUERIES + (JOIN_QUERY,)),
        negated=st.booleans(),
        clean_rows=st.integers(min_value=0, max_value=6),
        groups=st.integers(min_value=1, max_value=4),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=1, max_value=12),
        cuts=st.lists(st.integers(min_value=1, max_value=11), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_tally_counts_the_reference_draws_and_splits(
        self, kind, text, negated, clean_rows, groups, group_size, seed,
        start, count, cuts,
    ):
        """A range's tally counts each answer once per reference draw it
        holds on, and the range cut into shards anywhere sums back to
        it: counts and key representations."""
        if negated and kind == "cross_relation":
            text = NEGATION_QUERY
        query = parse_query(text)
        args = (kind, clean_rows, groups, group_size, seed)
        backend, sampler = _parity_sampler(*args)
        try:
            compiled = sampler.compile(query)
            whole = sampler.outcomes_for_range(compiled, start, count)
            split = _split(
                functools.partial(sampler.outcomes_for_range, compiled),
                start,
                count,
                cuts,
            )
        finally:
            backend.close()
        with _setting("REPRO_COLUMNAR", "0"):
            backend, twin = _parity_sampler(*args)
            try:
                reference = tally_outcomes(
                    twin._sql_outcomes(twin.compile(query), start, count)
                )
            finally:
                backend.close()
        assert _keyed(whole) == _keyed(reference)
        assert _keyed(split) == _keyed(whole)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=64),
        count=st.integers(min_value=1, max_value=16),
        cuts=st.lists(st.integers(min_value=1, max_value=15), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_chain_range_tally_keeps_discarded_draws(
        self, seed, start, count, cuts
    ):
        """Under ``allow_failing`` about half of these walks fail: a
        chain range counts them as drawn but not valid, its tally counts
        the answers of the walks that succeed, and any cut of the range
        sums back to it."""
        constraints = ConstraintSet(
            parse_constraints(
                "R(x) -> T(x)\nT(x) -> false\nS(x, y), S(x, z) -> y = z"
            )
        )
        database = Database.of(
            Fact("R", ("a",)),
            Fact("S", ("k", 1)),
            Fact("S", ("k", 1.5)),
            Fact("S", ("j", "v")),
            Fact("S", ("j", "w")),
        )
        chain = UniformGenerator(constraints).chain(database)
        query = parse_query("Q(y) :- S(x, y)")
        range_tally = functools.partial(
            chain_outcomes_for_range, chain, query, None, True, seed, "root"
        )
        walks = [
            sample_walk(chain, draw_rng(seed, "root", index))
            for index in range(start, start + count)
        ]
        reference = tally_outcomes(
            query.answers(walk.result) if walk.successful else None
            for walk in walks
        )
        whole = range_tally(start, count)
        assert _keyed(whole) == _keyed(reference)
        assert _keyed(_split(range_tally, start, count, cuts)) == _keyed(whole)


# ----------------------------------------------------------------------
# Chain shapes: a shared walk table == the component's own compile
# ----------------------------------------------------------------------

#: Constraint families over ``R(k, a, b)`` and ``S(b)``.
SHAPE_CONSTRAINTS = {
    "key": "R(x, y, z), R(x, u, w) -> y = u\nR(x, y, z), R(x, u, w) -> z = w",
    "fd": "R(x, y, z), R(u, y, w) -> z = w",
    "dc": "R(x, y, z), R(x, u, w) -> y = u\nR(x, y, z), S(z) -> false",
}

#: Relabellings of a base instance over the values 0-2.  ``int`` and
#: ``str`` print alike, ``prefix`` keeps the ``str`` order, and
#: ``shuffled`` (a drawn permutation) usually does not.
_COPIES = ("int", "str", "prefix", "shuffled")

_base_facts = st.lists(
    st.one_of(
        st.tuples(st.just("R"), st.tuples(*[st.integers(0, 2)] * 3)),
        st.tuples(st.just("S"), st.tuples(st.integers(0, 2))),
    ),
    min_size=2,
    max_size=7,
    unique=True,
)


def _relabel(copy, permutation):
    if copy == "int":
        return lambda value: value
    if copy == "str":
        return str
    if copy == "prefix":
        return lambda value: f"p{value}"
    return lambda value: f"q{permutation[value]}"


def _assert_same_entry(shared, direct):
    if direct is None:
        assert shared is None
        return
    table, survivors, deletions = shared
    twin, twin_survivors, twin_deletions = direct
    for field in (
        "absorbing", "uniform", "counts", "denominators", "cumulative", "successors",
    ):
        assert getattr(table, field) == getattr(twin, field), field
    assert [set(kept) for kept in survivors] == [set(kept) for kept in twin_survivors]
    assert deletions == twin_deletions


def _shape_sampler(facts, constraints, generator_factory=UniformGenerator):
    database = Database(facts)
    schema = Schema.infer(database).extend(constraints.schema())
    backend = SQLiteBackend()
    backend.load(database, schema)
    sampler = ConstraintRepairSampler(
        backend,
        schema,
        constraints,
        generator_factory=generator_factory,
        rng=random.Random(1),
    )
    return backend, sampler


def _check_shared_entries(sampler):
    """Every component's (possibly shared) entry against its own
    compile; returns how many entries were shared."""
    before = columnar.EVENTS.value(stat="walk_tables_shared")
    entries = [sampler._chain_table(c) for c in sampler.components]
    shared = columnar.EVENTS.value(stat="walk_tables_shared") - before
    for component, entry in zip(sampler.components, entries):
        _assert_same_entry(entry, sampler._compiled_table(component))
    return shared


class TestChainShapes:
    """Components of one chain shape share the first one's walk table
    and per-state fact positions; relabelled into each component's own
    facts, the entry must equal that component's own compile."""

    @given(
        family=st.sampled_from(sorted(SHAPE_CONSTRAINTS)),
        base=_base_facts,
        permutation=st.permutations(range(3)),
        trusted=st.booleans(),
        trust_levels=st.lists(st.integers(0, 4), min_size=7, max_size=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_entry_equals_the_direct_compile(
        self, family, base, permutation, trusted, trust_levels
    ):
        facts, trust = [], {}
        for copy in _COPIES:
            label = _relabel(copy, permutation)
            for index, (relation, values) in enumerate(base):
                fact = Fact(relation, tuple(label(value) for value in values))
                facts.append(fact)
                # Unequal trust within a component; ``shuffled`` draws
                # its own, so its shapes rarely match the others'.
                level = trust_levels[(index + (copy == "shuffled")) % 7]
                trust[fact] = Fraction(level, 4)
        backend, sampler = _shape_sampler(
            facts,
            ConstraintSet(parse_constraints(SHAPE_CONSTRAINTS[family])),
            (
                functools.partial(TrustGenerator, trust=trust)
                if trusted
                else UniformGenerator
            ),
        )
        try:
            shared = _check_shared_entries(sampler)
        finally:
            backend.close()
        # The int, str and prefix copies are one shape, component by
        # component: two of every three share.
        assert shared >= 2 * len(sampler.components) // len(_COPIES)

    def test_overflowed_shape_is_remembered(self):
        # Two ten-fact key groups: past compile_walk_table's 512 states.
        facts = [
            Fact("R", (group, f"v{i}", f"w{i}"))
            for group in ("wide", "broad")
            for i in range(10)
        ]
        backend, sampler = _shape_sampler(
            facts, ConstraintSet(parse_constraints(SHAPE_CONSTRAINTS["key"]))
        )
        overflows = columnar.EVENTS.value(stat="walk_table_overflow")
        try:
            assert _check_shared_entries(sampler) == 0
        finally:
            backend.close()
        # Shared entries: one overflow, remembered for the second
        # component.  Direct compiles: one overflow each.
        assert columnar.EVENTS.value(stat="walk_table_overflow") - overflows == 3

    def test_edges_are_part_of_the_key(self):
        # Both components' operations are the subsets of {R, S(y), S(z)},
        # in the same order; only the first also has the edge {R, S(y)}
        # (x != y), so deleting S(z) alone does not end its walk.
        constraints = ConstraintSet(
            parse_constraints(
                "R(x, y, z), S(y), S(z) -> false\nR(x, y, z), S(y) -> x = y"
            )
        )
        facts = [
            Fact("R", ("a", "b", "c")), Fact("S", ("b",)), Fact("S", ("c",)),
            Fact("R", ("e", "e", "f")), Fact("S", ("e",)), Fact("S", ("f",)),
        ]
        backend, sampler = _shape_sampler(facts, constraints)
        try:
            first, second = (
                sampler._shape_key(sorted(c, key=str)) for c in sampler.components
            )
            assert first[2] == second[2] and first[1] != second[1]
            assert _check_shared_entries(sampler) == 0
        finally:
            backend.close()

    def test_operation_order_is_part_of_the_key(self):
        # ``R(j, b)`` is a prefix of ``R(j, b)!)``, so the second group's
        # pair deletions sort out of position order: same edges, another
        # order of extensions, another table.
        facts = [
            Fact("R", (group, value))
            for group, values in (("k", ("b", "c", "d")), ("j", ("b", "b)!", "d")))
            for value in values
        ]
        backend, sampler = _shape_sampler(facts, ConstraintSet(key("R", 2, [0])))
        try:
            first, second = (
                sampler._shape_key(sorted(c, key=str)) for c in sampler.components
            )
            assert first[1] == second[1] and first[2] != second[2]
            assert _check_shared_entries(sampler) == 0
        finally:
            backend.close()

    def test_facts_that_print_alike_compile_alone(self):
        facts = [
            Fact("R", (group, value))
            for group in ("k", "j")
            for value in (1, "1", "x")
        ]
        backend, sampler = _shape_sampler(facts, ConstraintSet(key("R", 2, [0])))
        try:
            for component in sampler.components:
                assert sampler._shape_key(sorted(component, key=str)) is None
            assert _check_shared_entries(sampler) == 0
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Walk tables: compiled replay == the live chain walk
# ----------------------------------------------------------------------


class TestWalkTableReplay:
    @given(
        groups=st.integers(min_value=1, max_value=3),
        group_size=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
        draws=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_walk_reaches_the_same_absorbing_state(
        self, groups, group_size, seed, draws
    ):
        backend, sampler = _parity_sampler(
            SamplerPolicy.OPERATIONAL_UNIFORM, 2, groups, group_size, seed
        )
        try:
            for component in sampler.components:
                chain = sampler._component_chain(component)
                table = columnar.compile_walk_table(chain)
                assert table is not None
                for index in range(draws):
                    rng = sampler.campaign.rng_at(component, index)
                    state = columnar.replay_walk(table, rng)
                    survivors = table.payload[state].db.facts
                    walk = sample_walk(
                        chain, sampler.campaign.rng_at(component, index)
                    )
                    assert survivors == walk.result.facts
        finally:
            backend.close()
