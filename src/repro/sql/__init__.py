"""SQL substrate for the Section 5 practical approximation scheme.

The paper sketches how the additive-error scheme can run inside an RDBMS:
sample per-key-group survivors, collect the removed tuples in ``R_del``,
run the query with every ``R`` replaced by ``R - R_del``, and average the
results over ``n`` runs.  This package implements exactly that, as
compiled SQL over one DB-API connection:

- :class:`SQLBackend` — table operations plus raw parameterized SQL
  behind dialect hooks, the one backend every consumer targets;
- :class:`SQLiteBackend` — over the standard library (the only module
  importing :mod:`sqlite3`);
- :class:`repro.sql.postgres.PostgresBackend` — PostgreSQL over psycopg
  (optional dependency; imported lazily);
- :func:`create_backend` — select one by name or ``REPRO_SQL_BACKEND``;
- :mod:`repro.sql.compiler` — compile conjunctive and full first-order
  queries to dialect-neutral SQL (active-domain translation, over each
  sampled repair's own domain where the answers depend on it);
- :mod:`repro.sql.rewriting` — the ``R -> R EXCEPT R_del`` rewriting;
- :class:`ConstraintRepairSampler` — the end-to-end n-run sampling
  loop over conflict components, running its campaign through
  :class:`repro.campaign.SamplingCampaign`;
  :class:`KeyRepairSampler` constructs it from key specifications.
"""

from repro.sql.backend import (
    BackendUnavailableError,
    SQLBackend,
    SQLiteBackend,
    create_backend,
)
from repro.sql.compiler import compile_cq, compile_fo_query
from repro.sql.dialect import SQLDialect, check_name
from repro.sql.digest import InstanceDigest, database_digest
from repro.sql.rewriting import DeletionRewriter
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
    "BackendUnavailableError",
    "SQLBackend",
    "SQLiteBackend",
    "create_backend",
    "SQLDialect",
    "check_name",
    "compile_cq",
    "compile_fo_query",
    "InstanceDigest",
    "database_digest",
    "ConstraintRepairSampler",
    "DeletionRewriter",
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
