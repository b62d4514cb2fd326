"""Serve-stack benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python bench/run.py --help``; see ``bench/README.md``.
"""
