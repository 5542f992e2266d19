"""The benchmark's traced run can still wrap every layer it probes.

``perfbench/run.py --trace 1`` installs :data:`perfbench.layers.SERVICE_PROBES`
and :data:`~perfbench.layers.CAMPAIGN_PROBES` by module, owner and
attribute name, and ``Tracer.install`` refuses a name that is missing or
only inherited.  Installing both sets here turns a refactor that moves
a probed callable into a tier-1 failure instead of a broken benchmark.
"""

import importlib

import pytest

from perfbench.layers import CAMPAIGN_PROBES, SERVICE_PROBES
from perfbench.spans import Tracer


def _defined(probe):
    """The probed callable as its owner defines it (not a bound view)."""
    module = importlib.import_module(probe.module)
    owner = module if probe.owner is None else getattr(module, probe.owner)
    return vars(owner)[probe.attr]


@pytest.mark.parametrize(
    "probes", [SERVICE_PROBES, CAMPAIGN_PROBES], ids=["service", "campaign"]
)
def test_every_probe_installs_and_uninstalls(probes):
    originals = [_defined(probe) for probe in probes]
    tracer = Tracer()
    try:
        tracer.install(probes)
        for probe, original in zip(probes, originals):
            assert _defined(probe) is not original, probe
    finally:
        tracer.uninstall()
    for probe, original in zip(probes, originals):
        assert _defined(probe) is original, probe
