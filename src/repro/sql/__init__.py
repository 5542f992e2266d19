"""SQL substrate for the Section 5 practical approximation scheme.

The paper sketches how the additive-error scheme can run inside an RDBMS:
sample per-key-group survivors, collect the removed tuples in ``R_del``,
run the query with every ``R`` replaced by ``R - R_del``, and average the
results over ``n`` runs.  This package implements exactly that over a
*pluggable backend protocol*:

- :class:`SQLBackend` — the protocol (structured table operations plus
  optional raw SQL with dialect hooks) every consumer targets;
- :class:`SQLiteBackend` — the standard library implementation (the only
  module importing :mod:`sqlite3`);
- :class:`repro.sql.postgres.PostgresBackend` — PostgreSQL over psycopg
  (optional dependency; imported lazily);
- :class:`InMemoryBackend` — the same protocol over the core
  :class:`repro.db.Database` machinery, so the whole sampler stack runs
  without any database engine;
- :func:`create_backend` — select one by name or ``REPRO_SQL_BACKEND``;
- :mod:`repro.sql.compiler` — compile conjunctive and full first-order
  queries to dialect-neutral SQL (active-domain translation);
- :mod:`repro.sql.rewriting` — the ``R -> R EXCEPT R_del`` rewriting;
- :class:`ConstraintRepairSampler` — the end-to-end n-run sampling
  loop over conflict components, running its campaign through
  :class:`repro.campaign.SamplingCampaign`;
  :class:`KeyRepairSampler` constructs it from key specifications.
"""

from repro.sql.backend import (
    BackendFeatureError,
    BackendUnavailableError,
    DBAPIBackend,
    SQLBackend,
    SQLiteBackend,
    create_backend,
)
from repro.sql.compiler import compile_cq, compile_fo_query
from repro.sql.dialect import SQLDialect, check_name
from repro.sql.digest import InstanceDigest, backend_digest, database_digest
from repro.sql.memory import InMemoryBackend
from repro.sql.rewriting import DeletionRewriter, LiveRelationMap
from repro.sql.sampler import (
    ConstraintRepairSampler,
    KeyRepairSampler,
    KeySpec,
    SamplerPolicy,
)
from repro.sql.violations import (
    SQLDeltaViolationIndex,
    compile_violation_query,
    components_from_edges,
    conflict_components_sql,
    conflict_hypergraph_sql,
    violating_fact_sets,
)

__all__ = [
    "BackendFeatureError",
    "BackendUnavailableError",
    "DBAPIBackend",
    "SQLBackend",
    "SQLiteBackend",
    "InMemoryBackend",
    "create_backend",
    "SQLDialect",
    "check_name",
    "compile_cq",
    "compile_fo_query",
    "InstanceDigest",
    "backend_digest",
    "database_digest",
    "ConstraintRepairSampler",
    "DeletionRewriter",
    "LiveRelationMap",
    "KeyRepairSampler",
    "KeySpec",
    "SamplerPolicy",
    "SQLDeltaViolationIndex",
    "compile_violation_query",
    "components_from_edges",
    "conflict_components_sql",
    "conflict_hypergraph_sql",
    "violating_fact_sets",
]
