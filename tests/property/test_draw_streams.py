"""The counter-based draw streams are unbiased and walk like the reference.

Every SQL-sampled draw reads its component's walk table through
:class:`repro.sql.sampler._ComponentDraws`: an all-uniform table takes
the draw's first keyed-blake2b block directly, anything else replays the
table with the draw's :class:`repro.campaign.DrawStream`.  At a fixed
seed, 10^5 draws of each kind of table must fit the exact absorbing
distribution that :func:`repro.core.repair_distribution` computes
(a chi-square test whose tail is computed with :mod:`math`), and a walk
that runs past the first block's 16 words must land where the
reference replay lands.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

from repro.campaign import draw_rng, stream_hasher
from repro.constraints import ConstraintSet, key
from repro.core import columnar, repair_distribution
from repro.core.generators import FunctionGenerator, TrustGenerator, UniformGenerator
from repro.db.facts import Database, Fact
from repro.sql.sampler import _ComponentDraws, _keep_one_table

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


def _accumulator_table(depth, width, modulus):
    """A uniform table whose walks take *depth* steps over *width*
    successors each, ending in one of *modulus* absorbing states that
    depends on every step: about ``depth * 2^k / width`` words a walk."""
    table = columnar.WalkTable()
    absorbing_base = depth * modulus
    for level in range(depth):
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


class TestLongWalks:
    def test_walk_past_sixteen_words_replays_its_stream(self):
        # 12 steps over 3 successors read 16 words on average, so about
        # half of the walks need the draw's second block.
        table = _accumulator_table(depth=12, width=3, modulus=7)
        assert table.shifts is not None, "must take the direct block read"
        key = ("long", "walks")
        entry = _ComponentDraws(stream_hasher(SEED, key), None, table)
        start, count = 5, 400
        long_walks = 0
        expected = []
        for index in range(start, start + count):
            rng = draw_rng(SEED, key, index)
            expected.append(columnar.replay_walk(table, rng))
            long_walks += rng._blocks > 1
        assert entry.states(start, count) == expected
        assert 0.25 * count < long_walks < 0.75 * count
