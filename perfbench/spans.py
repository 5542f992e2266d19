"""Outside-in span tracing: wrap public callables, record timed spans.

A :class:`Tracer` replaces each named callable with a wrapper that
records one span per call: ``(id, parent, name, start, end, request)``.
The parent is the innermost open span on the calling thread; a span
opened with no parent starts a new request, and its id becomes the
request id of everything beneath it.  Spans stay in memory until the
run ends (:meth:`Tracer.dump`).  Nothing inside the program changes:
the wrappers live only in the processes this benchmark launches, and
:meth:`Tracer.uninstall` puts every original back.

:func:`self_times` turns spans into per-span self time — the span's
duration minus the part of its interval covered by its direct children
(overlapping children are merged, and children are clipped to the
parent) — and :func:`layer_table` sums self time per span name, with
the roots' own self time as the ``unattributed`` row.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(span id, parent id or 0, name, start, end, request id)``.
Span = Tuple[int, int, str, float, float, int]

#: ``hook(tracer, args, kwargs, result, error)`` runs after the span
#: closes (outside its timed interval) to record counts.
Hook = Callable[["Tracer", tuple, dict, Any, Optional[BaseException]], None]

UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Probe:
    """One callable to wrap: ``module[.owner].attr`` recorded as *name*."""

    module: str
    owner: Optional[str]
    attr: str
    name: str
    hook: Optional[Hook] = None


class Tracer:
    """Records spans around wrapped callables; see the module docs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None) -> Callable:
        """A wrapper around *fn* recording a span called *name*."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent, request = stack[-1]
            else:
                parent = request = 0
            span_id = next(ids)
            stack.append((span_id, request or span_id))
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, request or span_id))
                if hook is not None:
                    hook(self, args, kwargs, result, error)

        return traced

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every probe at the name its callers resolve."""
        for probe in probes:
            module = importlib.import_module(probe.module)
            owner = module if probe.owner is None else getattr(module, probe.owner)
            if isinstance(owner, type):
                if probe.attr not in owner.__dict__:
                    raise AttributeError(
                        f"{probe.owner}.{probe.attr} is inherited; probe the "
                        f"class that defines it"
                    )
                raw = owner.__dict__[probe.attr]
            else:
                raw = getattr(owner, probe.attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, probe.name, probe.hook))
            else:
                wrapped = self.wrap(raw, probe.name, probe.hook)
            setattr(owner, probe.attr, wrapped)
            self._installed.append((owner, probe.attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def drain(self) -> Tuple[List[Span], Dict[str, float]]:
        """Take the recorded spans and counts, leaving the tracer empty."""
        with self._lock:
            spans, self.spans[:] = list(self.spans), []
            counts, self.counts = self.counts, {}
        return spans, counts

    def dump(self, path: str) -> None:
        """Write spans and counts as one JSON document (at run end)."""
        spans, counts = self.drain()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counts": counts}, handle)


def load_dump(path: str) -> Tuple[List[Span], Dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [tuple(span) for span in data["spans"]], data["counts"]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _sid, parent, _name, start, end, _rid in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _parent, _name, start, end, _rid in spans
    }


@dataclass
class LayerRow:
    name: str
    calls: int
    self_s: float
    inclusive_s: float = 0.0


@dataclass
class LayerTable:
    """Self time per span name over the requests of one traced phase."""

    rows: List[LayerRow]
    roots: int
    root_s: float
    unattributed_s: float
    orphan_s: float

    @property
    def attributed_share(self) -> float:
        if self.root_s <= 0:
            return 0.0
        return 1.0 - self.unattributed_s / self.root_s

    def self_s(self, name: str) -> float:
        return sum(row.self_s for row in self.rows if row.name == name)

    def inclusive_s(self, name: str) -> float:
        return sum(row.inclusive_s for row in self.rows if row.name == name)

    def calls(self, name: str) -> int:
        return sum(row.calls for row in self.rows if row.name == name)

    def render(self, title: str) -> str:
        per = max(self.roots, 1)
        lines = [
            f"{title}: {self.roots} root span(s), {self.root_s * 1000:.1f} ms "
            f"in roots, {self.attributed_share * 100:.1f}% attributed to "
            f"named layers",
            f"  {'layer':<26}{'calls':>8}{'self ms':>12}{'ms/root':>10}{'share':>8}",
        ]
        ordered = sorted(self.rows, key=lambda row: -row.self_s)
        ordered.append(LayerRow(UNATTRIBUTED, self.roots, self.unattributed_s))
        for row in ordered:
            share = row.self_s / self.root_s if self.root_s > 0 else 0.0
            lines.append(
                f"  {row.name:<26}{row.calls:>8}{row.self_s * 1000:>12.2f}"
                f"{row.self_s * 1000 / per:>10.3f}{share * 100:>7.1f}%"
            )
        if self.orphan_s:
            lines.append(
                f"  (outside any root: {self.orphan_s * 1000:.2f} ms, not in the shares)"
            )
        return "\n".join(lines)


def layer_table(spans: Sequence[Span], root_names: Iterable[str]) -> LayerTable:
    """Aggregate self time by span name; roots' self time is unattributed.

    A root's own name does not get a row: the time a root span covers
    that no child covers is exactly the work no named layer accounts for.
    Spans under no root (orphans and their descendants) are reported
    separately and left out of the shares.
    """
    root_names = frozenset(root_names)
    own = self_times(spans)
    roots = {
        span[0]
        for span in spans
        if not span[1] and span[2] in root_names
    }
    rows: Dict[str, LayerRow] = {}
    root_s = unattributed = orphan = 0.0
    for span in spans:
        sid, _parent, name, start, end, request = span
        if sid in roots:
            root_s += end - start
            unattributed += own[sid]
            continue
        if request not in roots:
            orphan += own[sid]
            continue
        row = rows.setdefault(name, LayerRow(name, 0, 0.0))
        row.calls += 1
        row.self_s += own[sid]
        row.inclusive_s += end - start
    return LayerTable(
        rows=list(rows.values()),
        roots=len(roots),
        root_s=root_s,
        unattributed_s=unattributed,
        orphan_s=orphan,
    )
