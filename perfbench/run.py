"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory (pure Python, nothing to build).  ``--trace 0`` measures the
end-to-end metrics with no probes installed.  ``--trace 1`` splits the
window into an untraced and a traced half, prints the per-layer
self-time table, and reports the per-layer metrics (including
``trace.overhead_ratio``, the traced half's median latency over the
untraced half's, minus one).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("serve_cold", "serve_hot_update", "campaign_pool")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no program under {os.path.join(ROOT, 'src', 'repro')}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2

    # Everything the run writes stays inside the checkout.
    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    for name in ("TMPDIR", "SQLITE_TMPDIR"):
        os.environ[name] = tmp_dir
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.layers import per_layer_result
    from perfbench.metrics import ERROR, Metric, environment, print_report

    if args.workload == "campaign_pool":
        from perfbench.pooled import campaign_pool as run
    else:
        from perfbench import served

        run = getattr(served, args.workload)
    outcome = run(ROOT, out_dir, args.seed, args.seconds, bool(args.trace))
    if outcome.log.attempted == 0:
        outcome.log.record(ERROR)
        outcome.correct = False
    env = environment(ROOT, **outcome.env)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    reported = outcome.reported
    if args.trace:
        reported = [
            Metric(name, value, unit)
            for name, value, unit in per_layer_result(outcome.per_layer)
        ]
    print_report(args.workload, env, outcome, reported)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
