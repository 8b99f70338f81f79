"""Weakly-connected components via iterative min-label propagation.

Used for weak-connectivity assertions on summaries and for graph statistics.
Each node starts labelled with its own id; every round each node adopts the
minimum label in its closed neighbourhood. Convergence takes at most the
graph diameter rounds (the reproduction graphs have diameter ≲ 10).
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def connected_components(
    spark: SparkSession,
    nodes: DataFrame,
    edges: DataFrame,
    *,
    max_iter: int = 50,
) -> DataFrame:
    """Label every node with the min node id of its weak component.

    Args:
        nodes: ``(id)`` (extra columns ignored).
        edges: directed ``(src, dst)`` (extra columns ignored); symmetrized
            internally.

    Returns:
        ``(id, component)``.
    """
    sym = edges.select("src", "dst").unionByName(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    labels = nodes.select("id", F.col("id").alias("component")).localCheckpoint(eager=True)

    for _ in range(max_iter):
        nbr_min = (
            labels.alias("l")
            .join(sym.alias("e"), F.col("l.id") == F.col("e.src"))
            .groupBy(F.col("e.dst").alias("id"))
            .agg(F.min("l.component").alias("_nbr"))
        )
        new = (
            labels.join(nbr_min, "id", "left")
            .select("id", F.least("component", F.coalesce("_nbr", "component")).alias("component"))
            .localCheckpoint(eager=True)
        )
        converged = (
            new.alias("n")
            .join(labels.alias("o"), "id")
            .where(F.col("n.component") != F.col("o.component"))
            .isEmpty()
        )
        labels = new
        if converged:
            break
    return labels


def is_weakly_connected(spark: SparkSession, nodes: DataFrame, edges: DataFrame) -> bool:
    """True iff the graph has at most one weak component."""
    comps = connected_components(spark, nodes, edges)
    return comps.select("component").distinct().count() <= 1
