"""The SQL sampler for arbitrary TGD-free constraints.

:class:`ConstraintRepairSampler` — Section 5's sampling loop over the
conflict components of any EGD/DC set — lives in
:mod:`repro.sql.sampler`, next to
:class:`~repro.sql.sampler.KeyRepairSampler`, which constructs it from
key specifications.  This module keeps its import path.
"""

from repro.sql.sampler import ConstraintRepairSampler, GeneratorFactory

__all__ = ["ConstraintRepairSampler", "GeneratorFactory"]
