"""Wall-clock deadlines that propagate end to end.

A :class:`Deadline` is an absolute point on the *monotonic* clock.  It
is created once at the edge (the service request handler, or a CLI
``--deadline`` flag), handed down through the coordinator into the
transport layer, and shipped over the wire as a *remaining-seconds*
budget (clocks differ between machines; monotonic offsets do not
survive a socket).  The worker rebuilds a local deadline from the
remaining budget and abandons any shard whose deadline has already
passed instead of computing draws nobody will merge.

This module is deliberately dependency-free (stdlib ``math`` and
``time`` only) so that every layer — ``campaign``, ``distributed``,
``service`` — can import it without cycles.
"""

from __future__ import annotations

import math
import time
from typing import Optional

__all__ = ["Deadline", "DeadlineExpired"]


class DeadlineExpired(RuntimeError):
    """A deadline passed before the work guarded by it completed.

    Raised by :meth:`Deadline.check` and by any layer that notices
    expiry mid-flight (coordinator dispatch, worker shard execution).
    The error is *retriable only by policy*: the caller decides whether
    a partial (widened ``(eps, delta)``) estimate is acceptable or the
    query should be retried with a larger budget.
    """


class Deadline:
    """An absolute deadline on the monotonic clock.

    Instances are immutable value objects; ``remaining()`` and
    ``expired`` re-read the clock on every call.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline *seconds* from now; *seconds* must be finite and
        > 0 (a NaN or infinite budget would never expire)."""
        seconds = float(seconds)
        if not (math.isfinite(seconds) and seconds > 0):
            raise ValueError(
                f"deadline must be positive finite seconds, got {seconds!r}"
            )
        return cls(time.monotonic() + seconds)

    def remaining(self) -> float:
        """Seconds left on the budget; negative once expired."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExpired` if the deadline has passed."""
        if self.expired:
            raise DeadlineExpired(f"{what} exceeded its deadline")

    def clamp(self, timeout: Optional[float]) -> float:
        """*timeout* bounded by the remaining budget.

        The result is never below a small positive floor so callers can
        use it directly as a socket/poll timeout: detecting expiry is
        the caller's job (via :meth:`check`), not the timeout's.
        """
        remaining = max(self.remaining(), 0.001)
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.3f}s)"
