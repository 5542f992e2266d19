"""The counter-based draw streams are unbiased and walk like the reference.

Every SQL-sampled draw reads its component's walk table through
:class:`repro.sql.sampler._ComponentDraws`: a uniform table whose counts
are all below 256 reads each choice off the top byte of a word of the
draw's first keyed-blake2b block, anything else replays the table with
the draw's :class:`repro.campaign.DrawStream`.  At a fixed seed, 10^5
draws of each kind of table must fit the exact absorbing distribution
that :func:`repro.core.repair_distribution` computes (a chi-square test
whose tail is computed with :mod:`math`); a direct read must land where
the reference replay lands, at every count from 1 to 255, at any start
and on walks that read the block's last word or run past it; and
``draws_table_replayed`` must count exactly the draws that replay.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.campaign import draw_rng, stream_hasher
from repro.constraints import ConstraintSet, key
from repro.core import columnar, repair_distribution
from repro.core.generators import FunctionGenerator, TrustGenerator, UniformGenerator
from repro.db.facts import Database, Fact
from repro.diagnostics import cache_report
from repro.queries import parse_query
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.sql.sampler import _ComponentDraws, _draw_states, _keep_one_table
from repro.workloads import key_conflict_workload

pytestmark = pytest.mark.skipif(
    not columnar.enabled(), reason="REPRO_COLUMNAR=0 turns walk tables off"
)

DRAWS = 100_000
SEED = 20_181_106
#: Smallest p-value a fit may have.  The seed is fixed, so each test
#: either always passes or always fails.
ALPHA = 1e-3

KEY = ConstraintSet(key("R", 2, [0]))
GROUP = frozenset(Fact("R", ("k", value)) for value in ("a", "b", "c"))


def chi_square_tail(statistic, df):
    """``P(X >= statistic)`` for ``X ~ chi-square(df)``.

    The regularized upper incomplete gamma ``Q(df / 2, statistic / 2)``,
    from ``Q(1/2, x) = erfc(sqrt(x))`` or ``Q(1, x) = exp(-x)`` and the
    recurrence ``Q(a + 1, x) = Q(a, x) + x^a exp(-x) / Gamma(a + 1)``.
    """
    if statistic <= 0:
        return 1.0
    x = statistic / 2
    a, tail = (0.5, math.erfc(math.sqrt(x))) if df % 2 else (1.0, math.exp(-x))
    while a < df / 2:
        tail += math.exp(a * math.log(x) - x - math.lgamma(a + 1))
        a += 1
    return tail


def _fit(entry, exact, draws=DRAWS):
    """The p-value of *draws* absorbing states of *entry* against the
    *exact* ``{survivors: probability}`` distribution."""
    counts = Counter(
        frozenset(entry.survivors[state]) for state in entry.states(0, draws)
    )
    assert set(counts) <= set(exact), "a draw reached an impossible state"
    statistic = sum(
        (counts[kept] - draws * float(p)) ** 2 / (draws * float(p))
        for kept, p in exact.items()
    )
    return chi_square_tail(statistic, len(exact) - 1)


def _exact(database, generator):
    distribution = repair_distribution(database, generator)
    assert distribution.failure_probability == 0
    return {frozenset(repair.facts): p for repair, p in distribution.items()}


def _chain_entry(component, generator):
    """``component``'s draw source over its compiled chain."""
    chain = generator.chain(Database(component))
    table = columnar.compile_walk_table(chain)
    survivors = [() if state is None else state.db.facts for state in table.payload]
    return _ComponentDraws(stream_hasher(SEED, component), None, table, survivors)


class TestChiSquareTail:
    @pytest.mark.parametrize(
        "df, critical", [(1, 3.841459), (2, 5.991465), (3, 7.814728), (4, 9.487729)]
    )
    def test_five_percent_critical_values(self, df, critical):
        assert chi_square_tail(critical, df) == pytest.approx(0.05, abs=1e-6)


class TestUnbiasedStreams:
    def test_uniform_key_group_of_three(self):
        generator = UniformGenerator(KEY)
        entry = _chain_entry(GROUP, generator)
        assert entry.table.shifts is not None, "must take the direct block read"
        assert _fit(entry, _exact(Database(GROUP), generator)) > ALPHA

    def test_trust_group_spanning_two_words(self):
        # Relative trusts 1000/2021 and 1021/2021: the weights' common
        # denominator is 2021^3 > 2^32, so each randrange reads two words.
        alpha, beta = (Fact("R", ("k", value)) for value in ("a", "b"))
        generator = TrustGenerator(
            KEY, {alpha: Fraction(1000, 1021), beta: Fraction(1021, 1021)}
        )
        group = frozenset({alpha, beta})
        entry = _chain_entry(group, generator)
        assert max(entry.table.denominators) > 2**32
        assert _fit(entry, _exact(Database(group), generator)) > ALPHA

    def test_keep_one_uniform_table(self):
        table, survivors, deletions = _keep_one_table(GROUP)
        assert table.shifts is not None, "must take the direct block read"
        entry = _ComponentDraws(
            stream_hasher(SEED, GROUP), None, table, survivors, deletions
        )
        # Deleting one fact at a time, uniformly, keeps each fact with
        # probability 1/3: the distribution KEEP_ONE_UNIFORM samples.
        single_deletions = FunctionGenerator(
            KEY,
            lambda state, extensions: {
                op: 1 for op in extensions if len(op.facts) == 1
            },
            only_deletions=True,
        )
        exact = _exact(Database(GROUP), single_deletions)
        assert set(exact.values()) == {Fraction(1, 3)}
        assert _fit(entry, exact) > ALPHA


def _accumulator_table(widths, modulus):
    """A uniform table whose walks take ``len(widths)`` steps, step ``i``
    over ``widths[i]`` successors, ending in one of *modulus* absorbing
    states that depends on every step: about ``2^k / width`` words a
    step of a width of ``k`` bits."""
    table = columnar.WalkTable()
    depth = len(widths)
    absorbing_base = depth * modulus
    for level, width in enumerate(widths):
        for value in range(modulus):
            table.absorbing.append(False)
            table.uniform.append(True)
            table.counts.append(width)
            table.denominators.append(0)
            table.cumulative.append(())
            table.payload.append(None)
            base = absorbing_base if level == depth - 1 else (level + 1) * modulus
            table.successors.append(
                tuple(base + (value * width + r) % modulus for r in range(width))
            )
    for _ in range(modulus):
        table.absorbing.append(True)
        table.uniform.append(True)
        table.counts.append(0)
        table.denominators.append(0)
        table.cumulative.append(())
        table.successors.append(())
        table.payload.append(None)
    return table.finish()


def _reference(table, key, start, count):
    """Each draw's :func:`replay_walk` state and the words it read."""
    states, words = [], []
    for index in range(start, start + count):
        rng = draw_rng(SEED, key, index)
        states.append(columnar.replay_walk(table, rng))
        words.append(16 * rng._blocks - len(rng._words))
    return states, words


def _replayed():
    return columnar.EVENTS.value(stat="draws_table_replayed")


class TestLongWalks:
    def test_walk_past_sixteen_words_replays_its_stream(self):
        # 12 steps over 3 successors read 16 words on average, so about
        # half of the walks need the draw's second block.
        table = _accumulator_table([3] * 12, modulus=7)
        assert table.shifts is not None, "must take the direct block read"
        key = ("long", "walks")
        entry = _ComponentDraws(stream_hasher(SEED, key), None, table)
        start, count = 5, 400
        expected, words = _reference(table, key, start, count)
        assert entry.states(start, count) == expected
        long_walks = sum(used > 16 for used in words)
        assert 0.25 * count < long_walks < 0.75 * count


#: Per largest count, a walk's widths: 16 to 22 words a walk on
#: average, so some walks read exactly the block's 16 words and some
#: need a 17th.
DIRECT_WIDTHS = {
    1: [1] * 8,
    2: [2, 1] * 4,
    3: [3, 2, 1] * 4,
    6: [6, 5, 3, 1] * 3,
    255: [255, 200, 129, 3] * 4,
}


class TestDirectRead:
    """A uniform table whose every count is below 256 reads each choice
    off the top byte of a block word; any other table replays."""

    @pytest.mark.parametrize("largest", sorted(DIRECT_WIDTHS))
    def test_direct_read_equals_the_replay(self, largest):
        widths = DIRECT_WIDTHS[largest]
        table = _accumulator_table(widths, modulus=11)
        assert max(table.counts) == largest
        assert table.shifts == [8 - count.bit_length() for count in table.counts]
        key = ("direct", largest)
        entry = _ComponentDraws(stream_hasher(SEED, key), None, table)
        for start, count in ((0, 64), (37, 300), (1001, 7)):
            expected, words = _reference(table, key, start, count)
            before = _replayed()
            assert entry.states(start, count) == expected
            # Exactly the walks past the block's 16th word replay.
            assert _replayed() - before == sum(used > 16 for used in words)
        _, words = _reference(table, key, 0, 400)
        assert 16 in words, "no walk read the block's last word"
        assert max(words) > 16, "no walk needed a 17th word"

    def test_a_256_way_state_replays_every_draw(self):
        table = _accumulator_table([256, 3, 2], modulus=11)
        assert table.counts[0].bit_length() == 9
        assert table.shifts is None
        key = ("wide", 256)
        entry = _ComponentDraws(stream_hasher(SEED, key), None, table)
        start, count = 13, 200
        before = _replayed()
        assert entry.states(start, count) == _reference(table, key, start, count)[0]
        assert _replayed() - before == count

    def test_drawn_together_equals_drawn_alone(self):
        alpha, beta = (Fact("R", ("k", value)) for value in ("a", "b"))
        trust = TrustGenerator(
            KEY, {alpha: Fraction(1000, 1021), beta: Fraction(1021, 1021)}
        )
        entries = [
            _ComponentDraws(
                stream_hasher(SEED, ("together", largest)),
                None,
                _accumulator_table(widths, modulus=11),
            )
            for largest, widths in DIRECT_WIDTHS.items()
        ]
        entries.append(
            _ComponentDraws(
                stream_hasher(SEED, "wide"),
                None,
                _accumulator_table([256, 3], modulus=11),
            )
        )
        entries.append(_chain_entry(frozenset({alpha, beta}), trust))
        entries.append(_chain_entry(GROUP, UniformGenerator(KEY)))
        for start, count in ((0, 64), (29, 100)):
            together = _draw_states(entries, start, count)
            assert together == [entry.states(start, count) for entry in entries]


class TestReplayCount:
    """``draws_table_replayed`` counts the table draws that leave the
    direct read."""

    def _sampler(self, policy, groups, clean_rows):
        workload = key_conflict_workload(
            clean_rows, groups, group_size=3, arity=3, seed=21
        )
        backend = SQLiteBackend()
        workload.load_into(backend)
        facts = sorted(workload.database.facts, key=str)
        trust = {fact: (position % 4 + 1) / 4 for position, fact in enumerate(facts)}
        sampler = KeyRepairSampler(
            backend,
            workload.schema,
            [workload.key_spec],
            policy=policy,
            trust=trust if policy is SamplerPolicy.TRUST else None,
            rng=random.Random(3),
        )
        return backend, sampler

    def _count(self, sampler, draws):
        tabled = columnar.EVENTS.value(stat="draws_table")
        replayed = _replayed()
        sampler.run(parse_query("Q(x) :- R(x, y, z)"), runs=draws)
        return (
            columnar.EVENTS.value(stat="draws_table") - tabled,
            _replayed() - replayed,
        )

    def test_campaign_pool_shape_reads_every_draw_directly(self):
        backend, sampler = self._sampler(
            SamplerPolicy.OPERATIONAL_UNIFORM, groups=400, clean_rows=2000
        )
        try:
            assert self._count(sampler, 64) == (400 * 64, 0)
        finally:
            backend.close()

    def test_trust_tables_replay_every_draw(self):
        backend, sampler = self._sampler(SamplerPolicy.TRUST, groups=6, clean_rows=4)
        try:
            assert self._count(sampler, 64) == (6 * 64, 6 * 64)
        finally:
            backend.close()
        replayed = cache_report().columnar["draws_table_replayed"]
        assert f"({replayed} replayed)" in cache_report().format()
