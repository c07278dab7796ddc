"""The measurement spine: one benchmark for every later performance claim.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
