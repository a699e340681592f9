"""Benchmark of the fldx analyzer; run it with `python3 perfbench/run.py`."""
