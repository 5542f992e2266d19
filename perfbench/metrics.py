"""The benchmark's own arithmetic: percentiles, failure counting, reports.

Kept free of any import from the program under test so the self-tests
in ``perfbench/tests`` exercise it in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that, one outlier decides the value.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-quantile, or ``None`` when the sample is too small.

    The value at rank ``ceil(q * n)`` is returned only if at least
    :data:`MIN_BEYOND` samples rank above it, so a p95 needs 200 samples.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


# ----------------------------------------------------------------------
# Operation outcomes
# ----------------------------------------------------------------------
#: Outcome classes; everything but ``ok`` is a failure.
OK = "ok"
REFUSED = "refused"  # 429 / 503: shed or draining
HTTP_ERROR = "http_error"  # any other non-2xx
TIMEOUT = "timeout"
ERROR = "error"  # transport error or exception
CHECK = "check"  # answered, but failed an output check


def classify(status: Optional[int], timed_out: bool = False) -> str:
    """The outcome class of one answered (or unanswered) operation."""
    if timed_out:
        return TIMEOUT
    if status is None:
        return ERROR
    if status in (429, 503):
        return REFUSED
    if not 200 <= status < 300:
        return HTTP_ERROR
    return OK


@dataclass
class OpLog:
    """Thread-safe record of every operation a run attempted.

    Each operation gets an index; :meth:`fail_check` turns an answered
    operation into a failure after the fact (an output check run later
    found its answer wrong), so ``failed`` always counts operations, not
    check events.
    """

    outcomes: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, outcome: str) -> int:
        with self._lock:
            self.outcomes.append(outcome)
            return len(self.outcomes) - 1

    def fail_check(self, index: int) -> None:
        with self._lock:
            if self.outcomes[index] == OK:
                self.outcomes[index] = CHECK

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome != OK)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.outcomes else 0.0

    def by_class(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome] = counts.get(outcome, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def canonical(body: Dict[str, Any], volatile: Sequence[str]) -> str:
    """A byte-comparable form of a response body without volatile fields."""
    return json.dumps(
        {key: value for key, value in body.items() if key not in volatile},
        sort_keys=True,
    )


def environment(root: str, **counts: Any) -> Dict[str, Any]:
    """Where and how a result was measured; *counts* adds client/worker counts."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a git repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        **counts,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source_digest(os.path.join(root, "src")),
    }


def source_digest(directory: str) -> str:
    """SHA-256 over the program's sources (stands in for the commit when
    the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: Optional[int] = None


def end_to_end(
    setups: Sequence[float],
    latencies_ms: Sequence[float],
    draws: int,
    window_s: float,
    rss_mb: float,
) -> List[Metric]:
    """The gated metrics of an untraced run, with their sample counts."""
    n = len(latencies_ms)
    return [
        Metric("setup_s", median(setups), "s", len(setups)),
        Metric("query_p50_ms", median(latencies_ms), "ms", n),
        Metric("queries_per_s", n / window_s, "1/s", n),
        Metric("draws_per_s", draws / window_s, "1/s", n),
        Metric("peak_rss_mb", rss_mb, "MiB"),
    ]


def overhead_ratio(untraced_ms: Sequence[float], traced_ms: Sequence[float]) -> float:
    """Traced over untraced median latency, minus one (0 without samples)."""
    if not untraced_ms or not traced_ms:
        return 0.0
    return median(traced_ms) / median(untraced_ms) - 1.0


@dataclass
class Outcome:
    """Everything a workload hands back to ``run.py``.

    *reported* metrics form the JSON result of an untraced run,
    *per_layer* that of a traced run; *shown* are printed only.
    """

    env: Dict[str, Any]
    reported: List[Metric]
    shown: List[Metric]
    log: OpLog
    correct: bool
    notes: List[str]
    per_layer: Dict[str, float] = field(default_factory=dict)


def print_report(
    workload: str, env: Dict[str, Any], outcome: Outcome, reported: Sequence[Metric]
) -> None:
    """Print the human-readable report, then the one-line JSON result.

    *reported* are printed and form the ``metrics`` of the final line;
    ``outcome.shown`` are printed only.
    """
    log = outcome.log
    print(f"workload {workload}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        print(note)
    for metric in list(reported) + list(outcome.shown):
        count = "" if metric.samples is None else f"  (n={metric.samples})"
        print(f"  {metric.name:<34} {metric.value:>14.6g} {metric.unit}{count}")
    print(
        f"  attempted={log.attempted} failed={log.failed} "
        f"error_rate={log.error_rate:.6g} outcomes={log.by_class()}"
    )
    print(
        json.dumps(
            {
                "correct": bool(outcome.correct),
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {
                    metric.name: {"value": metric.value, "unit": metric.unit}
                    for metric in reported
                },
            }
        ),
        flush=True,
    )


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
