"""Benchmark of the packet-chasing simulator: see README.md."""
