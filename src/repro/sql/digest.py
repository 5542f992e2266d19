"""Order-independent instance digests, incrementally maintainable.

The campaign fingerprint machinery (:func:`repro.sql.sampler.instance_digest`)
digests the instance by sorting every table — exactly right for rejecting
stale checkpoints, but recomputing it after each base-table delta costs a
full rescan.  The result cache needs the opposite trade-off: a digest the
query service can *roll forward* through each ``/update`` in O(|delta|),
so an update report can name the instance identity before and after the
delta without rehashing the instance.

:class:`InstanceDigest` therefore folds per-fact SHA-256 tokens with
modular addition — a commutative, invertible accumulator.  Insertion
order never matters, and removal subtracts the same token addition
added.  The token binds the relation name and every value position with
length prefixes, so no two distinct facts collide by concatenation
tricks, and each value by its ``repr``, which binds its type:
``R(1, 'b')`` and ``R('1', 'b')`` print alike under ``str`` but answer
differently, and even ``R(1, 'b')`` and ``R(1.0, 'b')``, one fact to a
set, print their answers differently.  So two digests agree exactly
when the instances hold the same facts with the same value types; the
256-bit accumulator makes accidental cancellation astronomically
unlikely (this is a cache key, not an adversarial MAC).

:func:`database_digest` of a :class:`~repro.db.facts.Database` equals
the digest rolled from any other instance through the delta that turns
it into that database, so cache keys built from a posted database and
the service's rolled digest of a named instance never disagree about
instance identity.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.db.facts import Database, Fact

__all__ = ["InstanceDigest", "database_digest", "fact_token"]

_MODULUS = 1 << 256


def fact_token(fact: Fact) -> int:
    """The additive token one fact contributes to an instance digest."""
    parts = [f"{len(fact.relation)}#{fact.relation}"]
    for value in fact.values:
        text = repr(value)
        parts.append(f"{len(text)}#{text}")
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


class InstanceDigest:
    """A rolling digest of a fact set: add/discard in O(1), read anytime."""

    __slots__ = ("_acc", "_count")

    def __init__(self) -> None:
        self._acc = 0
        self._count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of_database(cls, database: Database) -> "InstanceDigest":
        digest = cls()
        for fact in database.facts:
            digest.add(fact)
        return digest

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def add(self, fact: Fact) -> None:
        self._acc = (self._acc + fact_token(fact)) % _MODULUS
        self._count += 1

    def discard(self, fact: Fact) -> None:
        self._acc = (self._acc - fact_token(fact)) % _MODULUS
        self._count -= 1

    def update(self, added: Iterable[Fact] = (), removed: Iterable[Fact] = ()) -> None:
        for fact in removed:
            self.discard(fact)
        for fact in added:
            self.add(fact)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def hexdigest(self) -> str:
        """The current identity: count + accumulator, re-hashed."""
        return hashlib.sha256(
            f"{self._count}\x1f{self._acc:064x}".encode("ascii")
        ).hexdigest()


def database_digest(database: Database) -> str:
    """The instance digest of a :class:`Database` value."""
    return InstanceDigest.of_database(database).hexdigest()

