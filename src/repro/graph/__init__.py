"""GraphFrames-lite: graph primitives on Spark DataFrames.

GraphFrames/GraphX are unavailable offline, so this package implements the
aggregate-messages pattern the reproduction needs directly on the DataFrame
API: one hop-limited shortest-path relaxation (`sssp`) in two modes —
per landmark (ST's metric closure) and nearest root (PCST's Voronoi
partition) — plus graph statistics (`stats`) over a shared
:class:`~repro.graph.model.KG` edge/node layout.
"""
from repro.graph.model import KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER

__all__ = ["KG", "NTYPE_USER", "NTYPE_ITEM", "NTYPE_EXT"]
