"""Known answers of the counter-based draw streams and of seeded runs.

Every other byte-identity suite compares two paths of one build (the
columnar tables with the ``REPRO_COLUMNAR=0`` object walk, a pool or a
remote worker with the serial run), so a change that moves both paths
alike passes them all.  These values were computed once and written
down: a stream word or a seeded estimate that moves fails here, under
``REPRO_COLUMNAR=1`` and ``REPRO_COLUMNAR=0`` alike.
"""

import hashlib
import random

import pytest

from repro.campaign import block_words, stream_hasher
from repro.db.facts import Fact
from repro.queries import parse_query
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

#: Three facts, two of which print alike.
COMPONENT = frozenset(
    {Fact("R", ("k", "a")), Fact("R", ("k", 1)), Fact("R", ("k", "1"))}
)

STR_KEY_WORDS = (
    1630979399, 1683643693, 410841843, 111831471,
    2115215136, 3034478977, 885374300, 1863661769,
    1113096445, 3118982088, 2567939794, 1011810920,
    719547967, 1905048955, 2612516199, 1991472886,
)  # fmt: skip
COMPONENT_WORDS = (
    2618028492, 1481789376, 2326831468, 1118891379,
    2081884228, 2314820772, 1196697076, 1883239556,
    1063315611, 531570276, 1097258514, 3688627361,
    3240745437, 1386940981, 4086033180, 247049283,
)  # fmt: skip
BLOCK_3_WORDS = (
    2524065464, 97299505, 1203383916, 4036573025,
    3970087252, 3690281197, 310157681, 2000870330,
    1956096739, 1575228615, 1240726964, 3978260820,
    86991238, 3506970514, 2058530079, 947103603,
)  # fmt: skip


@pytest.mark.parametrize(
    "seed, key, index, block, words",
    [
        ("STR", "group", 0, 0, STR_KEY_WORDS),
        ("COMPONENT", COMPONENT, 41, 0, COMPONENT_WORDS),
        ("BLOCK", COMPONENT, 7, 3, BLOCK_3_WORDS),
    ],
    ids=["str_key", "frozenset_key", "block_3"],
)
def test_block_words(seed, key, index, block, words):
    assert block_words(stream_hasher(seed, key), index, block) == words


WORKLOAD = key_conflict_workload(
    clean_rows=6, conflict_groups=5, group_size=3, arity=3, seed=30
)


def _trust():
    """A trust in ``(0, 1]`` per fact, fixed by the facts' ``str`` order."""
    facts = sorted(WORKLOAD.database.facts, key=str)
    return {fact: (position % 4 + 1) / 4 for position, fact in enumerate(facts)}


#: Each digest is the sha256 of ``repr(report.items())`` over 300 draws.
@pytest.mark.parametrize(
    "policy, query, digest",
    [
        (
            SamplerPolicy.OPERATIONAL_UNIFORM,
            "Q(x) :- R(x, y, z)",
            "1d0970b7e8c8e95cae366b37f3f00f58882e65017b5300ffbcf82112b48b6f26",
        ),
        (
            SamplerPolicy.OPERATIONAL_UNIFORM,
            "Q(x, u) :- R(x, y, z) & R(u, y, w)",
            "622c93786db1a593313ff8b111efae3f14b7bf47eb63304efcd45f02442ebc75",
        ),
        (
            SamplerPolicy.TRUST,
            "Q(x) :- R(x, y, z)",
            "800939dcb26800ecbdbab7af11bc4e81ab570511ae3fc0da2860fda217792bb4",
        ),
        (
            SamplerPolicy.KEEP_ONE_UNIFORM,
            "Q(x, y) :- R(x, y, z)",
            "68ff811d0822ac35bd3ad64c1d14e4b3bc5c101ce2536bca5ee1f7f8c25862e4",
        ),
    ],
    ids=["operational_uniform", "operational_uniform_join", "trust", "keep_one"],
)
def test_seeded_run(policy, query, digest):
    backend = SQLiteBackend()
    try:
        WORKLOAD.load_into(backend)
        sampler = KeyRepairSampler(
            backend,
            WORKLOAD.schema,
            [WORKLOAD.key_spec],
            policy=policy,
            trust=_trust() if policy is SamplerPolicy.TRUST else None,
            rng=random.Random(2018),
        )
        report = sampler.run(parse_query(query), runs=300)
    finally:
        backend.close()
    assert hashlib.sha256(repr(report.items()).encode()).hexdigest() == digest
