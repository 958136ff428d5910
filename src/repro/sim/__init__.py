"""Cycle-level simulation utilities: counters, traces, instrumented runs,
the analytic schedule compiler and the fused multi-job engine."""
