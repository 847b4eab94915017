"""Benchmark of the landau solver; see perfbench/README.md."""
