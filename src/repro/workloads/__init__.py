"""Benchmark workloads: Table I layer specs and their source networks."""
