"""End-to-end and per-layer benchmark for carelay.

Run it from the repository root with ``python3 perfbench/run.py --workload
NAME --seed N --seconds S --trace 0|1``; ``perfbench/README.md`` describes
the workloads and metrics.
"""
