"""Launch ``ocqa serve`` for the benchmark, with switchable tracing.

    python3 perfbench/serve_entry.py TRACE_OUT [ocqa serve options...]

Runs exactly what ``ocqa serve`` runs.  ``SIGUSR1`` installs the service
probes (:data:`perfbench.layers.SERVICE_PROBES`) and then creates
``TRACE_OUT.on``; ``SIGUSR2`` removes them and creates ``TRACE_OUT.off``.
When the service has drained and exits, the spans recorded in between
are written to ``TRACE_OUT``.  Traced and untraced runs launch the
service the same way; only the signals differ.
"""

from __future__ import annotations

import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _touch(path: str) -> None:
    with open(path, "w", encoding="ascii"):
        pass


def main(argv: list) -> int:
    from perfbench.layers import SERVICE_PROBES
    from perfbench.spans import Tracer
    from repro.cli import main as ocqa

    trace_out, serve_args = argv[0], argv[1:]
    tracer = Tracer()

    def enable(_signum, _frame) -> None:
        tracer.install(SERVICE_PROBES)
        _touch(trace_out + ".on")

    def disable(_signum, _frame) -> None:
        tracer.uninstall()
        _touch(trace_out + ".off")

    signal.signal(signal.SIGUSR1, enable)
    signal.signal(signal.SIGUSR2, disable)
    try:
        return ocqa(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
