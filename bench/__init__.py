"""Benchmark for grlcodes: three closed-loop workloads with layer tracing.

Run ``python3 bench/run.py --workload distance --seed 1 --seconds 32
--trace 0`` from the repository root; see README.md in this directory for
the design.
"""
