"""Benchmark of trigsum: four seeded workloads, end-to-end and per-layer metrics.

Run it with `python3 perfbench/run.py --workload <name>`; see README.md.
"""
