"""The repository benchmark: served ``/query`` + ``/update`` traffic and a
pooled sampling campaign, with a separately traced per-layer run.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``NOTES.md``
beside this file for the workloads, the metrics and what is out of scope.
"""
