"""Benchmark harness for radsurv; run it with ``python3 perfbench/run.py``."""
