"""Sampling campaigns: warm chains, persistence, adaptive stopping.

A *campaign* is the unit of amortization for the Section 5 sampling
scheme.  PR 1 batched walks over one shared chain; PR 2 kept one chain
per conflict group alive for a whole ``run()``; this module unifies
those mechanisms — plus the Hoeffding budgeting — into one subsystem
shared by :func:`repro.core.sampling.approximate_cp` /
:func:`~repro.core.sampling.approximate_oca` and the SQL sampler
(:class:`repro.sql.sampler.ConstraintRepairSampler`, which
:class:`~repro.sql.sampler.KeyRepairSampler` constructs from keys).

A :class:`SamplingCampaign`

- **owns the warm chains**: one repairing chain per conflict group /
  component, cached across draws *and* across ``run()`` calls;
- **owns draw-indexed substreams**: draw *i* of group *g* has its own
  RNG (:meth:`SamplingCampaign.rng_at`), a counter-based stream
  (:class:`DrawStream`) whose words are keyed blake2b blocks of
  ``(i, block)`` under a key digested from the campaign seed and the
  group's structural key — the campaign's only source of randomness.
  Because a draw depends on nothing but
  ``(seed, group, index)``, draw sequences are independent of batch
  boundaries (so checkpoint/resume reproduces uninterrupted runs bit
  for bit), and any draw range can be computed anywhere — a remote
  worker, a local pool process, or the parent — with byte-identical
  results; this is the determinism contract behind
  :mod:`repro.distributed` (and what lets a shard be re-leased from a
  dead worker without skewing a single draw).  The campaign's
  :attr:`~SamplingCampaign.draw_cursor` assigns the global draw indices
  and is checkpointed with the tallies;
- **checkpoints to disk** (pickle, atomic replace): chains, the draw
  cursor, and partial tallies, guarded by a schema/constraint
  *fingerprint* so stale or mismatched checkpoints are rejected loudly
  (:class:`CheckpointMismatchError`) instead of silently skewing CP
  estimates;
- **shards draws across workers** through :mod:`repro.distributed`: the
  samplers and estimators accept a caller-owned ``coordinator``
  (:meth:`repro.distributed.Coordinator.from_options` builds one over a
  persistent local worker pool and/or remote ``ocqa worker``
  processes).  Because draws are substream-indexed, sharded campaigns
  are draw-for-draw identical to serial ones, whatever the worker
  count or failures;
- **supports adaptive stopping**: with ``adaptive=True`` the estimation
  loop draws in geometric batches and stops as soon as the
  empirical-Bernstein rule (:mod:`repro.analysis.bernstein`) certifies
  the additive ``(epsilon, delta)`` guarantee — never exceeding the
  fixed Hoeffding count.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import random
import struct
from dataclasses import dataclass

try:
    from collections import _count_elements  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - CPython always has the C helper

    def _count_elements(counts: Dict, iterable: Iterable) -> None:
        get = counts.get
        for element in iterable:
            counts[element] = get(element, 0) + 1

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.analysis.bernstein import BernsteinStopper
from repro.analysis.hoeffding import sample_size
from repro.core.chain import RepairingChain
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.deadline import Deadline, DeadlineExpired

#: Bumped whenever the checkpoint payload layout changes.
CHECKPOINT_VERSION = 3

_DRAWS = obs_metrics.REGISTRY.counter(
    "ocqa_draws_total",
    "Campaign draws tallied, by requesting tenant.",
    ("tenant",),
)
_DRAW_BATCHES = obs_metrics.REGISTRY.counter(
    "ocqa_draw_batches_total", "Draw batches consumed by estimation loops."
)
_CHECKPOINT_SAVES = obs_metrics.REGISTRY.counter(
    "ocqa_checkpoint_saves_total", "Campaign checkpoints durably written."
)


#: One block's counter: the draw index and the block number.
_COUNTER = struct.Struct("<QQ")
#: A 64-byte blake2b block read as sixteen little-endian 32-bit words.
#: A walk on a table with byte shifts skips this unpack (~0.3 us of
#: ``block_words``' ~0.85 us) and reads word w's top byte, byte 4w + 3.
_BLOCK = struct.Struct("<16I")


def stream_hasher(seed: Any, key: Any) -> hashlib.blake2b:
    """The keyed blake2b hasher of every draw of group *key* under *seed*.

    Its 32-byte key digests ``repr(seed)`` and the group's structural
    key, each part length-prefixed: a component (a ``frozenset`` of
    facts) contributes its members' ``repr`` sorted by ``repr``, any
    other key its own ``repr``.  So ``R(1, x)`` and ``R('1', x)``,
    which print alike, key different streams.  Callers that draw a
    group many times keep the hasher and read blocks with
    :func:`block_words`.
    """
    if isinstance(key, frozenset):
        parts = sorted(repr(item) for item in key)
    else:
        parts = [repr(key)]
    material = hashlib.blake2b(digest_size=32)
    for part in (repr(seed), *parts):
        data = part.encode("utf-8")
        material.update(len(data).to_bytes(8, "little"))
        material.update(data)
    return hashlib.blake2b(key=material.digest(), digest_size=64)


def block_words(
    hasher: hashlib.blake2b, index: int, block: int = 0
) -> Tuple[int, ...]:
    """Words ``16 * block`` to ``16 * block + 15`` of draw *index*."""
    digest = hasher.copy()
    digest.update(_COUNTER.pack(index, block))
    return _BLOCK.unpack(digest.digest())


class DrawStream(random.Random):
    """The RNG of one draw: a counter-based stream in the sense of
    Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
    (SC 2011).

    Word ``w`` of draw *index* is word ``w % 16`` of the keyed blake2b
    block of ``(index, w // 16)`` (:func:`block_words`).
    ``getrandbits(k)`` consumes ``ceil(k / 32)`` words (``word >> (32 -
    k)`` for ``k <= 32``; wider requests fill least significant word
    first, as CPython's Mersenne Twister does) and :meth:`random`
    consumes two, so ``randrange``, ``choice`` and every other
    ``random.Random`` method run their own code over these words.
    """

    def __new__(cls, *args: Any) -> "DrawStream":
        # Before CPython 3.11 the base type seeds its Mersenne Twister
        # from the constructor's arguments and takes at most one; a
        # constant seed keeps that cheap and the arguments ours.
        return super().__new__(cls, 0)

    def __init__(self, hasher: hashlib.blake2b, index: int) -> None:
        # random.Random.__init__ would seed the unused Mersenne Twister.
        self._hasher = hasher
        self._index = index
        self._blocks = 0
        self._words: List[int] = []
        self.gauss_next = None

    def seed(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError(
            "a draw stream is fixed by (seed, key, index); build another "
            "with draw_rng"
        )

    def _word(self) -> int:
        words = self._words
        if not words:
            words = self._words = list(
                block_words(self._hasher, self._index, self._blocks)
            )
            words.reverse()
            self._blocks += 1
        return words.pop()

    def getrandbits(self, k: int) -> int:
        if k <= 32:
            if k < 0:
                raise ValueError("number of bits must be non-negative")
            return self._word() >> (32 - k) if k else 0
        value = 0
        shift = 0
        while k > 0:
            word = self._word()
            if k < 32:
                word >>= 32 - k
            value |= word << shift
            shift += 32
            k -= 32
        return value

    def random(self) -> float:
        high = self._word() >> 5
        low = self._word() >> 6
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def draw_rng(seed: Any, key: Any, index: int) -> DrawStream:
    """The RNG substream of draw *index* for group *key* under *seed*.

    The module-level form of :meth:`SamplingCampaign.rng_at`: workers in
    :mod:`repro.distributed` reproduce a coordinator's draws from just
    ``(seed, key, index)``, without holding the campaign object.
    """
    return DrawStream(stream_hasher(seed, key), index)


class CheckpointMismatchError(RuntimeError):
    """A checkpoint does not belong to this campaign (wrong fingerprint,
    incompatible version, or corrupt payload)."""


class CheckpointCorruptError(CheckpointMismatchError):
    """A checkpoint file failed its digest or could not be decoded (torn
    write, bit rot, truncation).  By the time this is raised the file has
    been quarantined to ``<path>.corrupt`` — :meth:`SamplingCampaign.attach`
    then restarts cleanly instead of crashing on a pickle traceback."""


#: Suffix of the checkpoint's sidecar content digest (SHA-256 hex of the
#: exact bytes of the checkpoint file).
CHECKPOINT_DIGEST_SUFFIX = ".sha256"

#: Suffix a corrupt/torn checkpoint is renamed to (kept for forensics,
#: out of the resume path).
CHECKPOINT_QUARANTINE_SUFFIX = ".corrupt"


def _quarantine_checkpoint(path: str) -> Optional[str]:
    """Move a corrupt checkpoint (and its sidecar) out of the resume
    path; returns the quarantine location (best-effort: ``None`` if the
    rename itself failed)."""
    target = path + CHECKPOINT_QUARANTINE_SUFFIX
    try:
        os.replace(path, target)
    except OSError:
        return None
    for stale in (path + CHECKPOINT_DIGEST_SUFFIX,):
        try:
            os.remove(stale)
        except OSError:
            pass
    return target


def campaign_fingerprint(*parts: Any) -> str:
    """A stable digest identifying a campaign's semantic inputs.

    Samplers feed it the schema fingerprint, the constraint set, the
    policy/generator, and any trust assignment; resuming a checkpoint
    whose fingerprint differs raises :class:`CheckpointMismatchError`.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def generator_identity(generator: Any) -> Tuple:
    """Best-effort semantic identity of a chain generator, in ``repr`` forms.

    Covers the class plus the configuration the in-repo generators
    carry (constraint set, trust mapping, preference relation).  A
    generator with an opaque payload (e.g. ``FunctionGenerator``'s
    closure) additionally contributes its object identity, so two
    distinct opaque generators never share a checkpoint — at the cost
    of cross-process reuse for that class.  It feeds checkpoint
    fingerprints and a shared estimator campaign's stream key; ``repr``
    tells ``1`` from ``'1'``, which ``str`` prints alike.
    """
    parts: List[Any] = [type(generator).__qualname__]
    constraints = getattr(generator, "constraints", None)
    if constraints is not None:
        parts.append(tuple(sorted(repr(c) for c in constraints)))
    trust = getattr(generator, "trust", None)
    if trust is not None:
        try:
            parts.append(
                tuple(sorted((repr(k), repr(v)) for k, v in trust.items()))
            )
        except AttributeError:
            parts.append(("trust", repr(trust)))
    for attr in ("default_trust", "relation"):
        value = getattr(generator, attr, None)
        if value is not None:
            parts.append((attr, repr(value)))
    if hasattr(generator, "_fn"):
        parts.append(("identity", id(generator)))
    return tuple(parts)


def group_key(facts: Iterable[Any]) -> str:
    """The printable name of one conflict group/component.

    Its members' ``str`` forms, sorted and length-prefixed so member
    strings containing the separator cannot collide.  ``str`` prints
    ``1`` and ``'1'`` alike, so groups that print alike share a name:
    identity checks compare the fact sets themselves, and RNG streams
    key on the members' ``repr`` (:func:`stream_hasher`).  An
    :class:`UpdateReport` only names its touched groups with it.
    """
    parts = sorted(str(item) for item in frozenset(facts))
    return "|".join(f"{len(part)}#{part}" for part in parts)


@dataclass(frozen=True)
class UpdateReport:
    """What one ``apply_update`` delta touched — the invalidation feed.

    Returned by the samplers' ``apply_update`` so downstream consumers
    (the service result cache, tests) can reason about which cached
    answers the base-table delta could have changed:

    - :attr:`touched_relations` — relations of the delta facts
      themselves (their clean rows changed);
    - :attr:`touched_groups` / :attr:`touched_group_relations` — the
      conflict groups whose fact sets changed (the symmetric difference
      of the old and new fact sets, named by :func:`group_key`), and
      every relation appearing in those groups: a delta in one relation
      can merge or split a component that spans others, shifting the
      repair distribution of facts the delta never named.
    - :attr:`old_digest` / :attr:`new_digest` — the instance digests
      before/after the delta, filled in by whoever keeps the instance's
      rolling digest (the query service); ``None`` from a bare sampler
      (consumers must then fall back to a conservative full flush).

    An answer whose relations avoid ``touched_relations |
    touched_group_relations`` is provably unaffected for conjunctive
    queries (:func:`repro.queries.relations.dependency_relations`): its
    clean rows, its conflict groups, and the per-group RNG substreams
    (keyed by fact set) are all byte-identical.
    """

    added: Tuple[Any, ...]
    removed: Tuple[Any, ...]
    touched_relations: FrozenSet[str]
    touched_groups: Tuple[str, ...]
    touched_group_relations: FrozenSet[str]
    old_digest: Optional[str] = None
    new_digest: Optional[str] = None

    @property
    def unsafe_relations(self) -> FrozenSet[str]:
        """Relations a cached answer may not mention and survive."""
        return self.touched_relations | self.touched_group_relations

    @classmethod
    def from_groups(
        cls,
        added: Iterable[Any],
        removed: Iterable[Any],
        old_groups: Iterable[Iterable[Any]],
        new_groups: Iterable[Iterable[Any]],
        old_digest: Optional[str] = None,
        new_digest: Optional[str] = None,
    ) -> "UpdateReport":
        """Diff two group snapshots into the touched-group report."""
        added = tuple(added)
        removed = tuple(removed)
        touched = {frozenset(g) for g in old_groups} ^ {
            frozenset(g) for g in new_groups
        }
        group_relations = frozenset(
            fact.relation for group in touched for fact in group
        )
        return cls(
            added=added,
            removed=removed,
            touched_relations=frozenset(
                fact.relation for fact in added + removed
            ),
            touched_groups=tuple(sorted(group_key(g) for g in touched)),
            touched_group_relations=group_relations,
            old_digest=old_digest,
            new_digest=new_digest,
        )


class Tally(NamedTuple):
    """What a draw range contributes to Theorem 9's estimate.

    ``draws`` draws, of which ``valid`` were kept (a failing walk under
    ``allow_failing`` is discarded), and ``counts[t]``: how many kept
    draws answered ``t``.  Equal answers (``1``, ``1.0``, ``True``)
    share one key, whose representation is the first occurrence in
    draw order; summing ranges with :func:`add_tallies` in draw order
    keeps it.
    """

    draws: int
    valid: int
    counts: Dict[Tuple, int]


def tally_outcomes(outcomes: Iterable[Optional[Iterable[Tuple]]]) -> Tally:
    """The tally of per-draw outcomes: each draw's answer set, or
    ``None`` for a discarded draw."""
    counts: Dict[Tuple, int] = {}
    draws = valid = 0
    for outcome in outcomes:
        draws += 1
        if outcome is not None:
            valid += 1
            _count_elements(counts, outcome)
    return Tally(draws, valid, counts)


def add_counts(total: Dict[Tuple, int], counts: Dict[Tuple, int]) -> None:
    """Add *counts* into *total*; a key already in *total* keeps its
    representation there."""
    if not total:
        total.update(counts)
        return
    get = total.get
    for answer, count in counts.items():
        total[answer] = get(answer, 0) + count


def add_tallies(tallies: Iterable[Tally]) -> Tally:
    """The sum of consecutive ranges' tallies, given in draw order."""
    draws = valid = 0
    counts: Dict[Tuple, int] = {}
    for tally in tallies:
        draws += tally.draws
        valid += tally.valid
        add_counts(counts, tally.counts)
    return Tally(draws, valid, counts)


#: ``draw(batch)`` returns the :class:`Tally` of the batch's draws.
DrawFn = Callable[[int], Tally]


@dataclass
class CampaignResult:
    """The cumulative outcome of a campaign's estimation loop."""

    frequencies: Dict[Tuple, float]
    counts: Dict[Tuple, int]
    draws: int
    valid: int
    discarded: int
    target: int
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    adaptive: bool = False
    stopped_early: bool = False
    #: False when the loop paused early (``max_draws``) before reaching
    #: the target or an adaptive stop — resume by calling again.
    complete: bool = True
    #: The estimation loop's wall-clock deadline expired before the
    #: target was reached: the result is *best-effort*, certifying
    #: :attr:`achieved_epsilon` (not the requested ``epsilon``) at the
    #: same ``delta``.
    deadline_expired: bool = False
    #: The additive accuracy actually certified by the draws taken (the
    #: Hoeffding inversion over ``valid`` draws; see
    #: :func:`repro.analysis.bernstein.widened_epsilon`).  Only set on a
    #: deadline-expired result.
    achieved_epsilon: Optional[float] = None


class SamplingCampaign:
    """Persistent state for one sampling campaign (see module docs)."""

    def __init__(
        self,
        fingerprint: str = "",
        seed: Optional[int] = None,
        rng: Optional[random.Random] = None,
        checkpoint_path: Optional[str] = None,
        adaptive: bool = False,
    ) -> None:
        if seed is None:
            seed = (rng or random.Random()).getrandbits(64)
        self.fingerprint = fingerprint
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.adaptive = adaptive
        self._chains: Dict[Any, RepairingChain] = {}
        #: Next global draw index to hand out (see :meth:`claim_draws`).
        #: The cursor only ever advances — a fresh estimation on a warm
        #: campaign continues the substreams rather than replaying them.
        self.draw_cursor = 0
        self.counts: Dict[Tuple, int] = {}
        self.draws_done = 0
        self.valid_draws = 0
        self.discarded = 0
        #: The latest report's answers, and whether every member of
        #: every one is a ``str`` (see :meth:`_frequencies`).
        self._answers: Dict[Tuple, Tuple] = {}
        self._plain_answers = True
        #: Identity of the estimand the current tallies belong to (e.g. a
        #: digest of the compiled query).  Guards against resuming an
        #: in-progress estimation with a *different* query: merged
        #: tallies would estimate neither.
        self._estimation_key: Optional[str] = None
        #: Whether the last estimation finished (reached its target or an
        #: adaptive stop).  A finished campaign's next :meth:`estimate`
        #: starts fresh tallies — while keeping the warm chains and the
        #: advanced draw cursor, which is what "sharing warm chains
        #: across campaigns" means.  An unfinished one (interrupted via
        #: ``max_draws`` or restored mid-run from a checkpoint) resumes.
        self.estimation_complete = True

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def bind_fingerprint(self, fingerprint: str) -> None:
        """Claim this campaign for a sampler's semantic inputs.

        A fresh campaign adopts the fingerprint; a campaign restored from
        a checkpoint (or previously bound) must match it exactly.
        """
        if not self.fingerprint:
            self.fingerprint = fingerprint
            return
        if fingerprint != self.fingerprint:
            raise CheckpointMismatchError(
                "campaign fingerprint mismatch: the campaign (or its "
                "checkpoint) was built for a different schema/constraint/"
                "policy configuration; its warm chains and tallies would "
                "silently skew the CP estimates"
            )

    # ------------------------------------------------------------------
    # Warm chains + draw-indexed substreams
    # ------------------------------------------------------------------
    def rng_at(self, key: Any, index: int) -> random.Random:
        """The independent RNG substream of draw *index* for group *key*.

        A substream is a pure function of ``(seed, key, index)``:
        computing draw 40 does not require having computed draws 0–39
        first.  The samplers draw every repair from substreams, which is
        what makes a draw range shippable to any worker
        (:mod:`repro.distributed`) — or re-shippable after a worker
        death — with byte-identical results.
        """
        return draw_rng(self.seed, key, index)

    def claim_draws(self, count: int) -> int:
        """Reserve *count* consecutive global draw indices.

        Returns the first reserved index and advances
        :attr:`draw_cursor`.  The cursor is checkpointed, so a resumed
        campaign continues exactly where the interrupted one stopped.
        """
        start = self.draw_cursor
        self.draw_cursor += count
        return start

    def chain(
        self, key: Any, factory: Callable[[], RepairingChain]
    ) -> RepairingChain:
        """The warm chain for group *key*, built on first use.

        *key* is structural and hashable (a component's fact set, or an
        estimator's stream key): never a :func:`group_key` name, which
        prints ``1`` and ``'1'`` alike and would hand one group
        another's chain.
        """
        chain = self._chains.get(key)
        if chain is None:
            chain = factory()
            self._chains[key] = chain
        return chain

    def prune_chains(self, live_keys: Iterable[Any]) -> None:
        """Drop chains whose groups no longer exist (a regenerated group
        rebuilds its chain; its draws stay the same pure function of
        ``(seed, group, index)``)."""
        if not self._chains:
            return
        keep = set(live_keys)
        for stale in [key for key in self._chains if key not in keep]:
            del self._chains[stale]

    # ------------------------------------------------------------------
    # The estimation loop
    # ------------------------------------------------------------------
    def estimate(
        self,
        draw: DrawFn,
        runs: Optional[int] = None,
        epsilon: float = 0.1,
        delta: float = 0.1,
        adaptive: Optional[bool] = None,
        max_draws: Optional[int] = None,
        estimation_key: Optional[str] = None,
        stop_target: Optional[Tuple] = None,
        deadline: Optional[Deadline] = None,
    ) -> CampaignResult:
        """Accumulate draws until the target (or an adaptive stop).

        Continues from the campaign's current tallies, so calling again
        after an interruption (or after :meth:`resume`) finishes the
        remaining draws.  *max_draws* caps this call's consumption (the
        result then has ``complete=False``); with *adaptive*, draws
        arrive in geometric batches and stop early when the
        empirical-Bernstein rule allows.

        *estimation_key* names the estimand (e.g. a digest of the
        compiled query): resuming *unfinished* tallies under a different
        key raises :class:`CheckpointMismatchError` instead of silently
        merging two queries' counts; call :meth:`reset_tallies` first to
        abandon the in-progress estimation deliberately.

        *stop_target* restricts the adaptive rule to one answer tuple's
        stream (per-tuple early termination for targeted ``CP(t)``
        queries): the campaign stops as soon as *that* tuple's
        empirical-Bernstein interval is within epsilon, instead of
        waiting for the max over every observed tuple.  The early stop
        then certifies only the target's estimate.

        A *deadline* makes the loop best-effort: it stops drawing the
        moment the budget expires (including a
        :class:`~repro.service.deadline.DeadlineExpired` escaping the
        draw function mid-batch — the lost batch's claimed indices are
        harmless, substreams being index-pure) and returns the tallies
        accumulated so far with ``deadline_expired=True`` and the
        *achieved* accuracy under ``achieved_epsilon`` — the widened
        ``(eps, delta)`` the draws actually taken certify.  The
        estimation stays resumable: call again with a fresh budget to
        finish it.
        """
        adaptive = self.adaptive if adaptive is None else adaptive
        target = runs if runs is not None else sample_size(epsilon, delta)
        if self.estimation_complete and self.draws_done:
            self.reset_tallies()
        if self.draws_done and estimation_key != self._estimation_key:
            # A keyless in-progress estimation vs. a keyed caller (or
            # vice versa) is also a mismatch — None is an identity here,
            # not a wildcard.
            raise CheckpointMismatchError(
                "the campaign holds unfinished tallies for a different "
                "estimand (query); resuming would merge incompatible "
                "counts — reset_tallies() first to discard them"
            )
        self._estimation_key = estimation_key
        # In progress from here: per-batch checkpoints written inside the
        # loop must record an *unfinished* estimation, so a crash-resume
        # continues from the checkpointed draws instead of resetting.
        self.estimation_complete = False
        stopper = (
            BernsteinStopper(epsilon, delta, limit=target) if adaptive else None
        )
        consumed = 0
        stopped_early = False
        deadline_expired = False
        while True:
            if stopper is not None:
                batch = stopper.next_batch(self.draws_done)
            else:
                batch = target - self.draws_done
            if batch <= 0:
                break
            if max_draws is not None:
                batch = min(batch, max_draws - consumed)
                if batch <= 0:
                    break
            if deadline is not None and deadline.expired:
                deadline_expired = True
                break
            try:
                tally = draw(batch)
            except DeadlineExpired:
                # The batch expired mid-flight (a worker or the
                # coordinator abandoned it).  The claimed draw indices
                # are simply skipped: substreams are index-pure, so the
                # tallies already taken stay exact.
                deadline_expired = True
                break
            _DRAW_BATCHES.inc()
            _DRAWS.inc(tally.draws, tenant=obs_metrics.current_tenant())
            obs_trace.span(
                "draw_batch",
                fingerprint=self.fingerprint[:12],
                tenant=obs_metrics.current_tenant(),
                batch=batch,
                drawn=tally.draws,
                done=self.draws_done + tally.draws,
            )
            self.draws_done += tally.draws
            consumed += tally.draws
            self.valid_draws += tally.valid
            self.discarded += tally.draws - tally.valid
            add_counts(self.counts, tally.counts)
            if self.checkpoint_path:
                self.save_checkpoint()
            if (
                stopper is not None
                and self.draws_done < target
                and stopper.due(self.draws_done)
                and self.valid_draws >= 2
                and stopper.should_stop(
                    self.valid_draws, self.counts, target=stop_target
                )
            ):
                stopped_early = True
                break
        self.estimation_complete = not deadline_expired and (
            stopped_early or self.draws_done >= target
        )
        if self.checkpoint_path:
            self.save_checkpoint()
        frequencies = self._frequencies()
        achieved: Optional[float] = None
        if deadline_expired:
            from repro.analysis.bernstein import widened_epsilon

            achieved = widened_epsilon(self.valid_draws, delta)
        return CampaignResult(
            frequencies=frequencies,
            counts=dict(self.counts),
            draws=self.draws_done,
            valid=self.valid_draws,
            discarded=self.discarded,
            target=target,
            epsilon=epsilon,
            delta=delta,
            adaptive=adaptive,
            stopped_early=stopped_early,
            complete=self.estimation_complete,
            deadline_expired=deadline_expired,
            achieved_epsilon=achieved,
        )

    def _frequencies(self) -> Dict[Tuple, float]:
        """Each answer's ``count / valid``, sharing objects across reports.

        A caller may keep every report it was given, so a report holds
        one float per distinct count, and an answer the previous
        estimation also returned reuses that estimation's tuple when
        their members' types agree: ``1``, ``1.0`` and ``True`` are
        equal, and a report holds the representation its own draws
        produced.  Equal answers whose members are all ``str`` agree
        member by member, so only other answers compare types.
        """
        counts = self.counts
        valid = self.valid_draws
        shares = {count: count / valid for count in set(counts.values())}
        plain = set(map(type, itertools.chain.from_iterable(counts))) <= {str}
        trusted = plain and self._plain_answers
        known = self._answers
        frequencies: Dict[Tuple, float] = {}
        for answer, count in counts.items():
            shared = known.get(answer)
            if shared is not None and (
                trusted or tuple(map(type, shared)) == tuple(map(type, answer))
            ):
                answer = shared
            frequencies[answer] = shares[count]
        self._answers = {answer: answer for answer in frequencies}
        self._plain_answers = plain
        return frequencies

    def reset_tallies(self) -> None:
        """Start a fresh estimation (warm chains and draw cursor kept)."""
        self.counts = {}
        self.draws_done = 0
        self.valid_draws = 0
        self.discarded = 0
        self._estimation_key = None
        self.estimation_complete = True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_checkpoint(self, path: Optional[str] = None) -> str:
        """Write the campaign state to disk, durably.

        Chains are included best-effort: a chain whose generator cannot
        pickle (e.g. closure-based) is dropped from the payload — the
        resumed campaign rebuilds it cold, with identical draw sequences
        (the substreams, not the chain caches, determine the draws).

        Durability ladder: the payload is written to a pid-tagged temp
        file, fsynced, and atomically renamed over *path* — so a crash
        at any point leaves either the previous checkpoint or the new
        one, never a torn file under the resume path (stale ``.tmp.*``
        files are ignored by :meth:`resume`).  A sidecar
        ``<path>.sha256`` then records the content digest, letting
        :meth:`resume` distinguish "written by us, intact" from silent
        corruption; a checkpoint that fails either check is quarantined
        to ``<path>.corrupt``, not resumed.
        """
        from repro.distributed.chaos import failpoint

        path = path or self.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "draw_cursor": self.draw_cursor,
            "counts": dict(self.counts),
            "draws_done": self.draws_done,
            "valid_draws": self.valid_draws,
            "discarded": self.discarded,
            "estimation_key": self._estimation_key,
            "estimation_complete": self.estimation_complete,
            "chains": self._chains,
        }
        try:
            blob = pickle.dumps(payload)
        except Exception:
            payload["chains"] = {}
            blob = pickle.dumps(payload)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            half = len(blob) // 2
            fh.write(blob[:half])
            # The torn-write injection point: a crash here leaves a
            # truncated temp file that must never be resumed.
            failpoint("campaign.save_checkpoint")
            fh.write(blob[half:])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._write_checkpoint_digest(path, blob)
        self._fsync_directory(os.path.dirname(path) or ".")
        _CHECKPOINT_SAVES.inc()
        obs_trace.span(
            "checkpoint_save",
            fingerprint=self.fingerprint[:12],
            path=path,
            bytes=len(blob),
            draws=self.draws_done,
        )
        return path

    @staticmethod
    def _write_checkpoint_digest(path: str, blob: bytes) -> None:
        digest = hashlib.sha256(blob).hexdigest()
        sidecar = path + CHECKPOINT_DIGEST_SUFFIX
        tmp = f"{sidecar}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(digest + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, sidecar)

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        # Make the renames themselves durable where the platform allows
        # opening a directory; best-effort elsewhere.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    @classmethod
    def resume(
        cls,
        path: str,
        fingerprint: Optional[str] = None,
        adaptive: bool = False,
        checkpoint_path: Optional[str] = None,
    ) -> "SamplingCampaign":
        """Restore a campaign from *path*, validating its fingerprint.

        A checkpoint written for a different schema/constraint
        configuration (or an incompatible format version) raises
        :class:`CheckpointMismatchError` — stale warm chains must never
        silently feed new estimates.

        A checkpoint that is *corrupt* — sidecar digest mismatch, or an
        undecodable payload (torn write, truncation, bit rot) — is
        quarantined to ``<path>.corrupt`` and raises
        :class:`CheckpointCorruptError` instead of a raw pickle
        traceback; :meth:`attach` catches exactly that and restarts the
        campaign cleanly.
        """
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise CheckpointMismatchError(
                f"unreadable campaign checkpoint {path!r}: {exc}"
            ) from exc
        sidecar = path + CHECKPOINT_DIGEST_SUFFIX
        expected_digest = None
        try:
            with open(sidecar, "r", encoding="ascii") as fh:
                expected_digest = fh.read().strip() or None
        except OSError:
            pass  # legacy checkpoint without a sidecar: decode-checked only
        if expected_digest is not None:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != expected_digest:
                quarantined = _quarantine_checkpoint(path)
                raise CheckpointCorruptError(
                    f"campaign checkpoint {path!r} failed its content "
                    f"digest (sidecar {expected_digest[:12]}..., file "
                    f"{actual[:12]}...); quarantined to {quarantined!r}"
                )
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            quarantined = _quarantine_checkpoint(path)
            raise CheckpointCorruptError(
                f"campaign checkpoint {path!r} is corrupt ({exc}); "
                f"quarantined to {quarantined!r}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointMismatchError(
                f"campaign checkpoint {path!r} has incompatible version "
                f"{payload.get('version') if isinstance(payload, dict) else '?'} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if fingerprint is not None and payload.get("fingerprint") != fingerprint:
            raise CheckpointMismatchError(
                f"campaign checkpoint {path!r} was written for a different "
                "schema/constraint/policy configuration; refusing to reuse "
                "its warm chains and tallies"
            )
        campaign = cls(
            fingerprint=payload.get("fingerprint", ""),
            seed=payload["seed"],
            checkpoint_path=checkpoint_path or path,
            adaptive=adaptive,
        )
        campaign.counts = dict(payload.get("counts", {}))
        campaign.draw_cursor = payload.get("draw_cursor", 0)
        campaign.draws_done = payload.get("draws_done", 0)
        campaign.valid_draws = payload.get("valid_draws", 0)
        campaign.discarded = payload.get("discarded", 0)
        campaign._estimation_key = payload.get("estimation_key")
        campaign.estimation_complete = payload.get("estimation_complete", True)
        campaign._chains = dict(payload.get("chains", {}))
        return campaign

    @classmethod
    def attach(
        cls,
        checkpoint_path: Optional[str],
        fingerprint: str,
        rng: Optional[random.Random] = None,
        adaptive: bool = False,
    ) -> "SamplingCampaign":
        """Resume from *checkpoint_path* if it exists, else start fresh
        (checkpointing there).  The samplers' standard entry point.

        A corrupt checkpoint (torn write, truncation, digest mismatch)
        has already been quarantined to ``*.corrupt`` by the time
        :meth:`resume` reports it, so attach falls through to a clean
        fresh start — progress is lost, correctness is not.  Fingerprint
        and version mismatches still raise: silently discarding a
        *valid* checkpoint for a different campaign would be data loss
        the operator did not opt into.
        """
        if checkpoint_path and os.path.exists(checkpoint_path):
            try:
                return cls.resume(
                    checkpoint_path,
                    fingerprint,
                    adaptive=adaptive,
                )
            except CheckpointCorruptError:
                pass  # quarantined by resume(); start fresh below
        return cls(
            fingerprint=fingerprint,
            rng=rng,
            checkpoint_path=checkpoint_path,
            adaptive=adaptive,
        )
