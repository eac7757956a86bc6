"""Benchmark of the simulator: end-to-end and per-layer metrics (see README.md)."""
