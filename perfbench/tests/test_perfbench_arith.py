"""Self-tests for the benchmark's own arithmetic (no service, no sampling).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import threading
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.metrics import (
    CHECK,
    ERROR,
    HTTP_ERROR,
    OK,
    REFUSED,
    TIMEOUT,
    OpLog,
    canonical,
    classify,
    end_to_end,
    overhead_ratio,
    percentile,
)
from perfbench.spans import Probe, Tracer, covered, layer_table, self_times

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# The percentile rule: at least ten samples beyond the reported value
# ----------------------------------------------------------------------
def test_p95_needs_ten_samples_beyond():
    assert percentile(list(range(199)), 0.95) is None
    samples = list(range(1, 201))
    value = percentile(samples, 0.95)
    assert value == 190
    assert sum(1 for s in samples if s > value) == 10


def test_p50_of_small_samples_and_order_independence():
    assert percentile([5.0] * 21, 0.5) == 5.0
    assert percentile([], 0.5) is None
    assert percentile(list(range(19)), 0.5) is None  # only 9 beyond rank 10
    shuffled = [7, 1, 9, 3, 5, 2, 8, 4, 6, 0, 11, 10, 13, 12, 15, 14, 17, 16, 19, 18, 20, 21]
    assert percentile(shuffled, 0.5) == 10


def test_percentile_rejects_bad_quantiles():
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 1.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_nested_children():
    spans = [
        (1, 0, "root", 0.0, 10.0, 1),
        (2, 1, "a", 1.0, 5.0, 1),
        (3, 2, "b", 2.0, 4.0, 1),
    ]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 2.0}


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        (1, 0, "root", 0.0, 10.0, 1),
        (2, 1, "a", 1.0, 5.0, 1),
        (3, 1, "a", 3.0, 7.0, 1),  # overlaps the first child
        (4, 1, "b", 8.0, 12.0, 1),  # runs past the parent's end
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 2.0)
    assert covered(0.0, 10.0, [(1, 5), (3, 7), (8, 12)]) == pytest.approx(8.0)
    assert covered(0.0, 10.0, [(2, 3), (2, 3)]) == pytest.approx(1.0)
    assert covered(0.0, 1.0, []) == 0.0


def test_layer_table_attributes_children_and_leaves_root_self_time_unattributed():
    spans = [
        (1, 0, "server.query", 0.0, 10.0, 1),
        (2, 1, "eval.run", 1.0, 5.0, 1),
        (3, 1, "eval.run", 6.0, 9.0, 1),
        (4, 0, "transport.recv", 20.0, 21.0, 4),  # under no root
    ]
    table = layer_table(spans, ["server.query"])
    assert table.roots == 1
    assert table.root_s == pytest.approx(10.0)
    assert table.unattributed_s == pytest.approx(3.0)
    assert table.attributed_share == pytest.approx(0.7)
    assert table.self_s("eval.run") == pytest.approx(7.0)
    assert table.calls("eval.run") == 2
    assert table.orphan_s == pytest.approx(1.0)
    assert "unattributed" in table.render("t")


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def test_classify_refused_timeouts_and_errors():
    assert classify(200) == OK
    assert classify(429) == REFUSED
    assert classify(503) == REFUSED
    assert classify(500) == HTTP_ERROR
    assert classify(400) == HTTP_ERROR
    assert classify(None) == ERROR
    assert classify(None, timed_out=True) == TIMEOUT


def test_failures_count_operations_not_check_events():
    log = OpLog()
    ok = log.record(OK)
    log.record(REFUSED)
    log.record(TIMEOUT)
    log.record(OK)
    log.fail_check(ok)
    log.fail_check(ok)  # a second failed check on the same answer
    log.fail_check(1)  # an already refused operation stays refused
    assert log.attempted == 4
    assert log.failed == 3
    assert log.error_rate == pytest.approx(0.75)
    assert log.by_class() == {CHECK: 1, REFUSED: 1, TIMEOUT: 1, OK: 1}
    assert OpLog().error_rate == 0.0


def test_canonical_ignores_volatile_fields_and_key_order():
    first = {"runs": 3, "cached": False, "elapsed_seconds": 0.2, "frequencies": [["a", 1.0]]}
    hit = {"frequencies": [["a", 1.0]], "cached": True, "runs": 3, "cache_age_seconds": 1}
    volatile = ("cached", "elapsed_seconds", "cache_age_seconds")
    assert canonical(first, volatile) == canonical(hit, volatile)
    assert canonical(dict(first, runs=4), volatile) != canonical(hit, volatile)


def test_end_to_end_rates_and_trace_overhead():
    metrics = {m.name: m for m in end_to_end([3.0, 1.0, 2.0], [10.0, 30.0, 20.0, 40.0], 80, 2.0, 9.5)}
    assert metrics["setup_s"].value == 2.0 and metrics["setup_s"].samples == 3
    assert metrics["query_p50_ms"].value == 25.0
    assert metrics["queries_per_s"].value == 2.0
    assert metrics["draws_per_s"].value == 40.0
    assert overhead_ratio([10.0, 10.0], [11.0]) == pytest.approx(0.1)
    assert overhead_ratio([], [1.0]) == 0.0


# ----------------------------------------------------------------------
# Tracer wrappers
# ----------------------------------------------------------------------
class Target:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n

    @staticmethod
    def helper(n):
        return n * 2


def test_tracer_records_parents_requests_and_restores_originals():
    original = Target.__dict__["work"]
    tracer = Tracer()
    seen = []
    tracer.install(
        [
            Probe(__name__, "Target", "work", "root"),
            Probe(__name__, "Target", "inner", "child", lambda t, a, k, r, e: seen.append(r)),
            Probe(__name__, "Target", "helper", "static"),
        ]
    )
    try:
        assert Target().work(3) == 4
        assert Target.helper(2) == 4
        worker = threading.Thread(target=Target().work, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert Target.__dict__["work"] is original
    assert isinstance(Target.__dict__["helper"], staticmethod)
    spans, _ = tracer.drain()
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
    root, child = by_name["root"][0], by_name["child"][0]
    assert child[1] == root[0] and child[5] == root[0]
    assert by_name["static"][0][1] == 0  # its own request
    second_root, second_child = by_name["root"][1], by_name["child"][1]
    assert second_child[1] == second_root[0]  # parent links stay per thread
    assert seen == [3, 1]
    assert tracer.drain() == ([], {})


# ----------------------------------------------------------------------
# The benchmark definition matches what the runs print
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == [
        "serve_cold",
        "serve_hot_update",
        "campaign_pool",
    ]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "query_p50_ms", "queries_per_s", "draws_per_s", "peak_rss_mb"}
