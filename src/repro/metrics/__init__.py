"""Evaluation metrics (Section V-B) as Spark batch aggregations.

``quality`` computes all seven quality metrics for every summary in one pass
over two batched DataFrames (edge occurrences, node memberships);
``reference`` holds the naive pandas/pure-Python definitions the Spark
versions are cross-checked against in tests.
"""
from repro.metrics.quality import compute_quality

__all__ = ["compute_quality"]
