"""Closed-loop benchmark of the srgpq toolkit; run it as ``python3 perfbench/run.py``."""
