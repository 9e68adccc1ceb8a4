"""Benchmark of the steklov library: workloads, checks, tracing."""
