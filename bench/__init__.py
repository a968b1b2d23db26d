"""Benchmark harness for the repro package; run ``python -m bench --help``."""
