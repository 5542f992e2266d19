"""Sampling campaigns: warm chains, persistence, adaptive stopping.

A *campaign* is the unit of amortization for the Section 5 sampling
scheme.  PR 1 batched walks over one shared chain; PR 2 kept one chain
per conflict group alive for a whole ``run()``; this module unifies
those mechanisms — plus the Hoeffding budgeting — into one subsystem
shared by :func:`repro.core.sampling.approximate_cp` /
:func:`~repro.core.sampling.approximate_oca` and both SQL samplers
(:class:`repro.sql.sampler.KeyRepairSampler`,
:class:`repro.sql.generic.ConstraintRepairSampler`).

A :class:`SamplingCampaign`

- **owns the warm chains**: one repairing chain per conflict group /
  component, cached across draws *and* across ``run()`` calls;
- **owns draw-indexed substreams**: draw *i* of group *g* has its own
  RNG (:meth:`SamplingCampaign.rng_at`), seeded from the campaign seed,
  the group key, and the draw index — the campaign's only source of
  randomness.  Because a draw depends on nothing but
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
  samplers and estimators accept ``workers=N`` (a persistent local
  worker pool, :class:`repro.distributed.LocalPoolTransport`) and
  ``worker_addresses`` (remote ``ocqa worker`` processes).  Because
  draws are substream-indexed, sharded campaigns are draw-for-draw
  identical to serial ones, whatever the worker count or failures;
- **supports adaptive stopping**: with ``adaptive=True`` the estimation
  loop draws in geometric batches and stops as soon as the
  empirical-Bernstein rule (:mod:`repro.analysis.bernstein`) certifies
  the additive ``(epsilon, delta)`` guarantee — never exceeding the
  fixed Hoeffding count.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
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
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.bernstein import BernsteinStopper
from repro.analysis.hoeffding import sample_size
from repro.core.chain import RepairingChain
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.deadline import Deadline, DeadlineExpired

#: Bumped whenever the checkpoint payload layout changes.
CHECKPOINT_VERSION = 2

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


def draw_rng(seed: Any, key: Any, index: int) -> random.Random:
    """The RNG substream of draw *index* for group *key* under *seed*.

    The module-level form of :meth:`SamplingCampaign.rng_at`: workers in
    :mod:`repro.distributed` reproduce a coordinator's draws from just
    ``(seed, key, index)``, without holding the campaign object.
    """
    return random.Random(f"{seed}:{_key_str(key)}#{index}")


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


def generator_signature(generator: Any) -> Tuple:
    """Best-effort semantic identity of a chain generator.

    Covers the class plus the configuration the in-repo generators
    carry (constraint set, trust mapping, preference relation).  A
    generator with an opaque payload (e.g. ``FunctionGenerator``'s
    closure) additionally contributes its object identity, so two
    distinct opaque generators never alias each other's warm chains or
    checkpoints — at the cost of cross-process reuse for that class.
    """
    parts: List[Any] = [type(generator).__qualname__]
    constraints = getattr(generator, "constraints", None)
    if constraints is not None:
        parts.append(tuple(sorted(str(c) for c in constraints)))
    trust = getattr(generator, "trust", None)
    if trust is not None:
        try:
            parts.append(tuple(sorted((str(k), str(v)) for k, v in trust.items())))
        except AttributeError:
            parts.append(("trust", repr(trust)))
    for attr in ("default_trust", "relation"):
        value = getattr(generator, attr, None)
        if value is not None:
            parts.append((attr, str(value)))
    if hasattr(generator, "_fn"):
        parts.append(("identity", id(generator)))
    return tuple(parts)


def _key_str(key: Any) -> str:
    """A deterministic, process-independent string form of a group key.

    Collection parts are length-prefixed before joining, so the encoding
    is injective even when member strings contain the separator — two
    distinct conflict groups can never alias one warm chain / RNG
    substream.
    """
    if isinstance(key, str):
        return key
    if isinstance(key, (tuple, list, set, frozenset)):
        parts = sorted(str(item) for item in key)
        return "|".join(f"{len(part)}#{part}" for part in parts)
    return str(key)


def group_key(facts: Iterable[Any]) -> str:
    """The canonical identity of one conflict group/component.

    The same injective encoding :class:`SamplingCampaign` uses for warm
    chains and RNG substreams (:func:`_key_str` over the fact set), so
    the touched-group keys an :class:`UpdateReport` carries line up
    exactly with the chains the campaign pruned for the same delta.
    """
    return _key_str(frozenset(facts))


@dataclass(frozen=True)
class UpdateReport:
    """What one ``apply_update`` delta touched — the invalidation feed.

    Returned by the samplers' ``apply_update`` so downstream consumers
    (the service result cache, tests) can reason about which cached
    answers the base-table delta could have changed:

    - :attr:`touched_relations` — relations of the delta facts
      themselves (their clean rows changed);
    - :attr:`touched_groups` / :attr:`touched_group_relations` — the
      conflict groups whose fact sets changed (by :func:`group_key`
      symmetric difference, old vs new), and every relation appearing
      in those groups: a delta in one relation can merge or split a
      component that spans others, shifting the repair distribution of
      facts the delta never named.
    - :attr:`old_digest` / :attr:`new_digest` — the sampler's
      incremental instance digests before/after the delta, ``None``
      when the sampler never materialized one (consumers must then fall
      back to a conservative full flush).

    An answer whose relations avoid ``touched_relations |
    touched_group_relations`` is provably unaffected for conjunctive
    queries: its clean rows, its conflict groups, and the per-group RNG
    substreams (keyed by fact set) are all byte-identical.
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
        old_by_key = {group_key(g): frozenset(g) for g in old_groups}
        new_by_key = {group_key(g): frozenset(g) for g in new_groups}
        touched = sorted(set(old_by_key) ^ set(new_by_key))
        group_relations = frozenset(
            fact.relation
            for key in touched
            for fact in old_by_key.get(key, new_by_key.get(key, frozenset()))
        )
        return cls(
            added=added,
            removed=removed,
            touched_relations=frozenset(
                fact.relation for fact in added + removed
            ),
            touched_groups=tuple(touched),
            touched_group_relations=group_relations,
            old_digest=old_digest,
            new_digest=new_digest,
        )


#: ``draw(batch)`` returns one outcome per draw: an iterable of observed
#: answer tuples, or ``None`` for a discarded draw (failing walk under
#: ``allow_failing``).
DrawFn = Callable[[int], Sequence[Optional[Iterable[Tuple]]]]


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
        self._chains: Dict[str, RepairingChain] = {}
        #: Next global draw index to hand out (see :meth:`claim_draws`).
        #: The cursor only ever advances — a fresh estimation on a warm
        #: campaign continues the substreams rather than replaying them.
        self.draw_cursor = 0
        self.counts: Dict[Tuple, int] = {}
        self.draws_done = 0
        self.valid_draws = 0
        self.discarded = 0
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
        """The warm chain for group *key*, built on first use."""
        ks = _key_str(key)
        chain = self._chains.get(ks)
        if chain is None:
            chain = factory()
            self._chains[ks] = chain
        return chain

    def prune_chains(self, live_keys: Iterable[Any]) -> None:
        """Drop chains whose groups no longer exist (a regenerated group
        rebuilds its chain; its draws stay the same pure function of
        ``(seed, group, index)``)."""
        keep = {_key_str(key) for key in live_keys}
        for stale in [ks for ks in self._chains if ks not in keep]:
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
                outcomes = draw(batch)
            except DeadlineExpired:
                # The batch expired mid-flight (a worker or the
                # coordinator abandoned it).  The claimed draw indices
                # are simply skipped: substreams are index-pure, so the
                # tallies already taken stay exact.
                deadline_expired = True
                break
            _DRAW_BATCHES.inc()
            _DRAWS.inc(len(outcomes), tenant=obs_metrics.current_tenant())
            obs_trace.span(
                "draw_batch",
                fingerprint=self.fingerprint[:12],
                tenant=obs_metrics.current_tenant(),
                batch=batch,
                drawn=len(outcomes),
                done=self.draws_done + len(outcomes),
            )
            # Tally batching: repeated outcome objects (interned answer
            # sets from workers, the columnar path's shared clean-answer
            # frozenset) normalize their tuples once, and the counting
            # itself runs in C (`collections._count_elements`).  The
            # memo is per-batch and `pinned` keeps its keys alive, so
            # the id() keys cannot be recycled mid-batch.
            prepared_memo: Dict[int, List[Tuple]] = {}
            pinned = []
            for outcome in outcomes:
                self.draws_done += 1
                consumed += 1
                if outcome is None:
                    self.discarded += 1
                    continue
                self.valid_draws += 1
                prepared = prepared_memo.get(id(outcome))
                if prepared is None:
                    prepared = [
                        answer if type(answer) is tuple else tuple(answer)
                        for answer in outcome
                    ]
                    prepared_memo[id(outcome)] = prepared
                    pinned.append(outcome)
                _count_elements(self.counts, prepared)
            del prepared_memo, pinned
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
        frequencies = (
            {t: c / self.valid_draws for t, c in self.counts.items()}
            if self.valid_draws
            else {}
        )
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
