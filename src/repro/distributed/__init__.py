"""Distributed sampling service: coordinator/worker campaign sharding.

Scale a :class:`repro.campaign.SamplingCampaign` beyond one process —
and one machine — without giving up determinism:

- :class:`Coordinator` cuts a campaign's draw budget into leased shards
  and dispatches them over :class:`WorkerTransport` implementations;
- :class:`~repro.distributed.pool.LocalPoolTransport` runs persistent
  local worker processes (the only local parallel fan-out);
- :class:`~repro.distributed.transport.SocketTransport` reaches
  ``ocqa worker --listen host:port`` processes on other machines over a
  small length-prefixed JSON/pickle protocol with heartbeats and lease
  timeouts;
- every draw is a pure function of ``(campaign seed, group key, draw
  index)``, so any shard can be computed anywhere — or recomputed after
  a worker death — and the merged estimates are byte-identical to a
  single-process run;
- :mod:`repro.distributed.chaos` injects deterministic faults (frame
  corruption, connection flaps, heartbeat stalls, failpoint crashes)
  from a seeded :class:`FaultPlan`, and the self-healing machinery it
  exercises — CRC frame integrity, reconnect with backoff
  (:class:`ReconnectPolicy`), checkpoint quarantine — keeps those
  estimates byte-identical under a hostile network;
- deadlines (:class:`repro.service.deadline.Deadline`) propagate from
  the caller through the coordinator onto every ``run`` frame, so
  workers abandon shards whose budget has expired and campaigns return
  honest best-effort results instead of running past their time budget.

See the README's "Distributed sampling service", "Running as a
service", and "Failure semantics" sections for deployment and protocol
reference.
"""

from repro.distributed.chaos import (
    ChaosProxy,
    ChaosTransport,
    FailpointError,
    FaultPlan,
    clear_failpoints,
    failpoint,
    set_failpoint,
)
from repro.distributed.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_SHARD_SIZE,
    Coordinator,
    ReconnectPolicy,
)
from repro.distributed.lease import (
    DistributedSamplingError,
    LeaseTable,
    ShardLease,
)
from repro.distributed.pool import LocalPoolTransport
from repro.distributed.protocol import (
    FrameIntegrityError,
    ProtocolError,
    WorkerError,
    intern_outcomes,
    restore_outcomes,
)
from repro.distributed.transport import (
    InlineTransport,
    SocketTransport,
    WorkerTransport,
    WorkerUnavailable,
)
from repro.distributed.worker import (
    ShardContext,
    ShardExecutor,
    WorkerServer,
    serve,
)

__all__ = [
    "ChaosProxy",
    "ChaosTransport",
    "Coordinator",
    "DistributedSamplingError",
    "FailpointError",
    "FaultPlan",
    "FrameIntegrityError",
    "intern_outcomes",
    "restore_outcomes",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_SHARD_SIZE",
    "InlineTransport",
    "LeaseTable",
    "LocalPoolTransport",
    "ProtocolError",
    "ReconnectPolicy",
    "ShardContext",
    "ShardExecutor",
    "ShardLease",
    "SocketTransport",
    "WorkerError",
    "WorkerServer",
    "WorkerTransport",
    "WorkerUnavailable",
    "clear_failpoints",
    "failpoint",
    "serve",
    "set_failpoint",
]
