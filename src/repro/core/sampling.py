"""Randomized approximation of OCQA (Section 5, Theorem 9).

The ``Sample`` algorithm walks the repairing Markov chain from ``ε`` by
drawing each step from the transition distribution until an absorbing
state is reached, then reports whether the candidate tuple is in the
query answer on the produced repair (Proposition 10: the walk terminates
in polynomially many steps and returns 1 with probability exactly
``CP(t)`` when the generator is non-failing).

Averaging ``n = ln(2/delta) / (2 * eps^2)`` walks gives, by Hoeffding's
inequality, an *additive* ``(eps, delta)`` guarantee:
``Pr(|estimate - CP(t)| <= eps) >= 1 - delta``.

No FPRAS exists for this problem unless RP = NP (Theorem 6), so the
additive guarantee is the best efficiently attainable kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.core.chain import ChainGenerator, RepairingChain
from repro.core.errors import FailingSequenceError, InvalidGeneratorError
from repro.core.oca import AnyQuery
from repro.core.operations import Operation
from repro.core.state import RepairState
from repro.db.facts import Database
from repro.db.terms import Term

if TYPE_CHECKING:
    from repro.campaign import Tally


@dataclass
class Walk:
    """The outcome of one ``Sample`` walk."""

    state: RepairState
    successful: bool

    @property
    def result(self) -> Database:
        """The database produced by the walk (a repair if successful)."""
        return self.state.db

    @property
    def length(self) -> int:
        """Number of operations applied."""
        return self.state.depth


@lru_cache(maxsize=1 << 14)
def _prepared_draw(
    transitions: Tuple[Tuple[Operation, Fraction], ...]
) -> Tuple[int, Tuple[int, ...]]:
    """``(denominator, cumulative integer weights)`` for a distribution.

    Memoized on the transitions tuple: the chain hands out the same
    cached tuple for a revisited state, so hot prefix states prepare
    their integer weights once across all walks.
    """
    denominator = 1
    for _, probability in transitions:
        denominator = lcm(denominator, probability.denominator)
    cumulative: List[int] = []
    running = 0
    for _, probability in transitions:
        running += probability.numerator * (denominator // probability.denominator)
        cumulative.append(running)
    if running != denominator:
        raise InvalidGeneratorError(
            f"transition probabilities sum to {Fraction(running, denominator)}, "
            "not 1; the chain is not stochastic (Definition 5)"
        )
    return denominator, tuple(cumulative)


def choose_transition(
    transitions: Sequence[Tuple[Operation, Fraction]],
    rng: random.Random,
) -> Operation:
    """Draw one operation from an exact transition distribution.

    The chain's probabilities are exact :class:`fractions.Fraction`
    values, so the draw is performed over their common denominator with
    integer arithmetic — no float conversion, hence no rounding drift
    for tiny probabilities and no silent fallback when weights fail to
    sum to 1 (that case now raises :class:`InvalidGeneratorError`
    instead of quietly over-selecting the last operation).
    """
    transitions = tuple(transitions)
    first_probability = transitions[0][1]
    if all(probability is first_probability for _, probability in transitions):
        # The chain hands equal-weight states one shared ``1/n`` Fraction
        # object, so a plain uniform draw is exact — no common-denominator
        # preparation (and no hashing of the transitions tuple) needed.
        return transitions[rng.randrange(len(transitions))][0]
    denominator, cumulative = _prepared_draw(transitions)
    draw = rng.randrange(denominator)
    for (op, _), bound in zip(transitions, cumulative):
        if draw < bound:
            return op
    raise AssertionError("unreachable: the weights sum to the denominator")


def sample_walk(
    chain: RepairingChain,
    rng: Optional[random.Random] = None,
) -> Walk:
    """Run one random walk of the chain to an absorbing state.

    This is the while-loop of the ``Sample`` algorithm; transition
    probabilities come from the chain (hence the generator), and the walk
    ends exactly at a complete sequence.
    """
    rng = rng or random.Random()
    state = chain.initial_state()
    while True:
        transitions = chain.transitions(state)
        if not transitions:
            return Walk(state=state, successful=state.is_consistent)
        state = chain.step(state, choose_transition(transitions, rng))


def sample_many(
    chain: RepairingChain,
    walks: int,
    rng: Optional[random.Random] = None,
) -> List[Walk]:
    """Run *walks* independent ``Sample`` walks over one shared chain.

    This is the batched driver behind :func:`estimate_sequence_lengths`.
    Sharing one chain (hence one engine) amortizes the expensive parts
    across walks: transition distributions are memoized per state, and
    violation deltas per ``(database, op)``, so the states near the root
    that every walk traverses are computed once.  Parallel draws go
    through :mod:`repro.distributed` (``coordinator=`` on the estimators).
    """
    rng = rng or random.Random()
    return [sample_walk(chain, rng) for _ in range(walks)]


def sample_once(
    chain: RepairingChain,
    query: AnyQuery,
    candidate: Tuple[Term, ...],
    rng: Optional[random.Random] = None,
    allow_failing: bool = False,
) -> Optional[int]:
    """One Bernoulli sample of the event ``t in Q(repair)``.

    Returns 1 or 0 for a successful walk.  A failing walk raises
    :class:`FailingSequenceError` unless *allow_failing* is set, in which
    case ``None`` is returned (callers implementing the conditional
    estimate discard these samples).
    """
    walk = sample_walk(chain, rng)
    if not _accept_walk(walk, allow_failing):
        return None
    return 1 if query.holds(walk.result, tuple(candidate)) else 0


def _accept_walk(walk: Walk, allow_failing: bool) -> bool:
    """Shared failing-walk policy for the estimators.

    ``True`` for a successful walk, ``False`` for a failing walk being
    discarded under *allow_failing*; otherwise raises
    :class:`FailingSequenceError`.
    """
    if walk.successful:
        return True
    if allow_failing:
        return False
    raise FailingSequenceError(
        f"the walk {walk.state.label()!r} is failing; Theorem 9 requires "
        "a non-failing generator (Definition 8) — use allow_failing=True "
        "for the heuristic conditional estimate"
    )


@dataclass
class ApproximationResult:
    """An additive-error estimate with its parameters and sample counts."""

    estimate: float
    epsilon: float
    delta: float
    samples: int
    successes: int
    failing_walks: int = 0

    def __float__(self) -> float:
        return self.estimate


def _chain_key(
    generator: ChainGenerator, database: Database, private: bool
) -> str:
    """The RNG stream key of an estimator call, and its warm chain's key.

    For a *private* (per-call) campaign a constant key avoids rendering
    the whole instance.  A shared campaign keys on the generator's
    structural identity (:func:`repro.campaign.generator_identity`) and
    the instance's facts, both in ``repr`` forms, so instances or
    generator configurations that print alike (``1`` and ``'1'``) draw
    different streams and walk different chains.
    """
    if private:
        return "root"
    from repro.campaign import campaign_fingerprint, generator_identity

    return campaign_fingerprint(
        generator_identity(generator),
        tuple(sorted(repr(fact) for fact in database)),
    )


def chain_outcomes_for_range(
    chain: RepairingChain,
    query: AnyQuery,
    candidate: Optional[Tuple[Term, ...]],
    allow_failing: bool,
    seed: Any,
    stream_key: str,
    start: int,
    count: int,
) -> Tally:
    """The :class:`~repro.campaign.Tally` of the estimators' walks
    ``[start, start + count)``.

    Walk ``i`` draws from the ``(seed, stream_key, i)`` substream
    (:func:`repro.campaign.draw_rng`) and nothing else, so any range can
    be computed by any process.  The serial estimators and a worker's
    chain runtime (:mod:`repro.distributed.worker`) both run exactly
    this function, which is why serial and distributed runs are
    byte-identical.  A walk counts its answer set — with a *candidate*,
    the answer ``()`` when the candidate is an answer — and a failing
    walk discarded under *allow_failing* counts as drawn, not valid.
    """
    from repro.campaign import DrawStream, stream_hasher, tally_outcomes

    hasher = stream_hasher(seed, stream_key)

    def outcomes():
        for index in range(start, start + count):
            walk = sample_walk(chain, DrawStream(hasher, index))
            if not _accept_walk(walk, allow_failing):
                yield None
            elif candidate is None:
                yield query.answers(walk.result)
            else:
                yield ((),) if query.holds(walk.result, candidate) else ()

    return tally_outcomes(outcomes())


def _run_chain_campaign(
    database: Database,
    generator: ChainGenerator,
    query: AnyQuery,
    candidate: Optional[Tuple[Term, ...]],
    epsilon: float,
    delta: float,
    rng: Optional[random.Random],
    allow_failing: bool,
    adaptive: Optional[bool],
    campaign,
    coordinator,
    deadline,
    stop_target: Optional[Tuple],
):
    """The campaign driver behind :func:`approximate_cp` and
    :func:`approximate_oca`.

    Without a *campaign*, a private one seeds from the caller's *rng*,
    so a seeded call is deterministic end to end.  Without a
    *coordinator* the draws run serially; with one they are sharded
    across its workers (the caller closes it).  Either way the draws
    are :func:`chain_outcomes_for_range` over the campaign's substreams.
    """
    from repro.campaign import SamplingCampaign
    from repro.distributed import ShardContext

    private = campaign is None
    if private:
        campaign = SamplingCampaign(rng=rng, adaptive=bool(adaptive))
    # A shared campaign reuses a chain only for the same repair
    # distribution: the same generator configuration and instance.
    stream_key = _chain_key(generator, database, private)
    chain = campaign.chain(stream_key, lambda: generator.chain(database))
    if coordinator is None:

        def draw(batch: int):
            return chain_outcomes_for_range(
                chain, query, candidate, allow_failing,
                campaign.seed, stream_key, campaign.claim_draws(batch), batch,
            )

    else:
        context = ShardContext.create(
            "chain",
            {
                "facts": tuple(database),
                "generator": generator,
                "query": query,
                "candidate": candidate,
                "allow_failing": allow_failing,
                "seed": campaign.seed,
                "stream_key": stream_key,
            },
        )

        def draw(batch: int):
            return coordinator.run_range(
                context, campaign.claim_draws(batch), batch,
                deadline=deadline,
            )

    return campaign.estimate(
        draw, epsilon=epsilon, delta=delta, adaptive=adaptive,
        stop_target=stop_target, deadline=deadline,
    )


def approximate_cp(
    database: Database,
    generator: ChainGenerator,
    query: AnyQuery,
    candidate: Tuple[Term, ...],
    epsilon: float = 0.1,
    delta: float = 0.1,
    rng: Optional[random.Random] = None,
    allow_failing: bool = False,
    adaptive: Optional[bool] = None,
    campaign=None,
    coordinator=None,
    deadline=None,
) -> ApproximationResult:
    """Additive ``(epsilon, delta)`` approximation of ``CP(t)`` (Theorem 9).

    Runs ``n = ln(2/delta) / (2 epsilon^2)`` independent ``Sample`` walks
    and returns the fraction that answered 1.  With a non-failing
    generator the estimate satisfies
    ``Pr(|estimate - CP(t)| <= epsilon) >= 1 - delta``.

    With *allow_failing*, failing walks are discarded and the estimate is
    the conditional frequency among successful walks — a consistent (but
    no longer Hoeffding-guaranteed) estimator of the conditional
    probability; the paper leaves guarantees for the insertion+deletion
    case open (Section 6).

    The estimation loop runs through a
    :class:`repro.campaign.SamplingCampaign` (pass *campaign* to share
    its warm chain and tallies across calls).  With *adaptive*, draws
    arrive in geometric batches and stop early once the
    empirical-Bernstein rule (:mod:`repro.analysis.bernstein`) certifies
    the same ``(epsilon, delta)`` guarantee — never using more than the
    Hoeffding count; ``samples`` then reports the draws actually taken.
    Adaptive stopping is *per-tuple* here: being a targeted ``CP(t)``
    query, the rule tests only the candidate's own stream.

    Every walk draws from the campaign's draw-indexed RNG substreams, so
    a seeded call is deterministic and shardable: pass a *coordinator*
    (:meth:`repro.distributed.Coordinator.from_options` builds one over
    a local pool and/or remote ``ocqa worker`` processes; the caller
    closes it) — the estimate is byte-identical in every configuration,
    including after mid-shard worker deaths.
    """
    result = _run_chain_campaign(
        database, generator, query, tuple(candidate), epsilon, delta, rng,
        allow_failing, adaptive, campaign, coordinator, deadline,
        stop_target=(),
    )
    return ApproximationResult(
        estimate=result.frequencies.get((), 0.0),
        epsilon=epsilon,
        delta=delta,
        samples=result.draws,
        successes=result.counts.get((), 0),
        failing_walks=result.discarded,
    )


def approximate_oca(
    database: Database,
    generator: ChainGenerator,
    query: AnyQuery,
    epsilon: float = 0.1,
    delta: float = 0.1,
    rng: Optional[random.Random] = None,
    allow_failing: bool = False,
    adaptive: Optional[bool] = None,
    campaign=None,
    coordinator=None,
    deadline=None,
) -> Dict[Tuple[Term, ...], float]:
    """Estimate ``CP`` for every tuple observed in any sampled repair.

    One batch of walks serves all tuples simultaneously: for each walk,
    every answer of ``Q`` on the produced repair is tallied.  Each
    individual tuple's estimate carries the additive ``(epsilon, delta)``
    guarantee; tuples never observed have true ``CP <= epsilon`` with
    probability ``1 - delta``.

    Like :func:`approximate_cp`, runs through a
    :class:`repro.campaign.SamplingCampaign`; *adaptive* enables
    empirical-Bernstein early stopping over every tracked tuple's
    stream (including the implicit all-zeros stream, preserving the
    unseen-tuple reading above).  Walks draw from the campaign's
    draw-indexed substreams, so a *coordinator* shards them with
    byte-identical results (see :mod:`repro.distributed`).
    """
    result = _run_chain_campaign(
        database, generator, query, None, epsilon, delta, rng,
        allow_failing, adaptive, campaign, coordinator, deadline,
        stop_target=None,
    )
    if not result.valid:
        return {}
    return dict(result.frequencies)


def estimate_sequence_lengths(
    database: Database,
    generator: ChainGenerator,
    walks: int = 50,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Lengths of sampled repairing sequences (Proposition 2 experiments)."""
    chain = generator.chain(database)
    return [walk.length for walk in sample_many(chain, walks, rng)]
