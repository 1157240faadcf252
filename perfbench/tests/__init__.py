"""Tests of the benchmark harness (run: python -m pytest perfbench/tests -q)."""
