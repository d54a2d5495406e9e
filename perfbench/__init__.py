"""Benchmark of the cross-modal pipeline and its serving path (see README.md)."""
