"""Hop-limited shortest-path relaxation on Spark DataFrames.

One primitive, :func:`relax`, serves both summarizers. ST's metric closure
(Algorithm 1, step 2: "compute shortest paths between all pairs of terminal
nodes") runs it per root: the state is keyed by ``(sid, root, node)``, so one
iterative relaxation serves every ``(summary, landmark)`` pair at once. PCST's
Voronoi partition (Algorithm 2) runs it nearest-root: the state is keyed by
``(sid, node)`` and each node keeps only its nearest terminal, so a pass costs
the same however many terminals a summary has — the |T|-independence the
paper credits PCST with (Figs. 9–11). Each round relaxes all frontier rows
against the edge table in one join: the aggregate-messages pattern of
GraphX/GraphFrames expressed in Catalyst.

Costs are strictly positive, so hop-limited Bellman–Ford rounds converge to
Dijkstra's answer for paths of at most ``max_hops`` edges. The shortest path
itself is carried as an array column (hops are short — explanation paths are
≤3 edges — so arrays stay tiny), which makes Algorithm 1's path-unfolding step
(lines 9–14) a plain column lookup instead of a second traversal.

Per-summary Eq. 1 cost boosts arrive as a small ``(sid, src, dst, cost)``
table left-joined at relaxation time, so the base graph is shared across all
summaries rather than replicated per summary.
"""
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_EPS = 1e-9


def relax(
    edges: DataFrame,
    seeds: DataFrame,
    *,
    per_root: bool,
    max_hops: int,
    boosts: DataFrame | None = None,
    track_paths: bool = True,
) -> DataFrame:
    """Hop-limited shortest paths from ``seeds`` ``(sid, root)``.

    ``per_root=True`` keeps one row per ``(sid, root, node)``; otherwise one
    row per ``(sid, node)`` holding the nearest root. Ties break on the
    smallest ``(dist, root, path)``, so the result is deterministic.

    Each hop aggregates ``state ∪ candidates`` once. Old state rows carry
    their distance as ``_old`` and candidates carry null, so the same
    aggregation flags the rows that improved (``_new``); those rows are the
    next frontier, and the hop needs one materialization.

    Returns ``(sid, node, dist, root, path)``.
    """
    key = ["sid", "root", "node"] if per_root else ["sid", "node"]
    base = edges.select("src", "dst", F.col("cost").alias("_base_cost"))
    init_path = F.array(F.col("root")) if track_paths else F.array().cast("array<long>")
    state = seeds.select(
        "sid",
        F.col("root").alias("node"),
        F.lit(0.0).alias("dist"),
        "root",
        init_path.alias("path"),
        F.lit(True).alias("_new"),
    ).localCheckpoint(eager=True)

    for _ in range(max_hops):
        cand = state.where("_new").alias("f").join(base.alias("e"), F.col("f.node") == F.col("e.src"))
        step = F.col("_base_cost")
        if boosts is not None:
            b = boosts.select(
                F.col("sid").alias("_bsid"),
                F.col("src").alias("_bsrc"),
                F.col("dst").alias("_bdst"),
                F.col("cost").alias("_boost_cost"),
            )
            cand = cand.join(
                b,
                (F.col("f.sid") == F.col("_bsid"))
                & (F.col("e.src") == F.col("_bsrc"))
                & (F.col("e.dst") == F.col("_bdst")),
                "left",
            )
            step = F.coalesce(F.col("_boost_cost"), step)
        step_path = (
            F.concat(F.col("f.path"), F.array(F.col("e.dst"))) if track_paths else F.col("f.path")
        )
        cand = cand.select(
            F.col("f.sid").alias("sid"),
            F.col("e.dst").alias("node"),
            (F.col("f.dist") + step).alias("dist"),
            F.col("f.root").alias("root"),
            step_path.alias("path"),
            F.lit(None).cast("double").alias("_old"),
        )
        prev = state.select("sid", "node", "dist", "root", "path", F.col("dist").alias("_old"))
        state = (
            prev.unionByName(cand)
            .groupBy(*key)
            .agg(F.min(F.struct("dist", "root", "path")).alias("_s"), F.min("_old").alias("_old"))
            .select(
                "sid",
                "node",
                F.col("_s.dist").alias("dist"),
                F.col("_s.root").alias("root"),
                F.col("_s.path").alias("path"),
                (F.col("_old").isNull() | (F.col("_s.dist") < F.col("_old") - _EPS)).alias("_new"),
            )
            .localCheckpoint(eager=True)
        )
        if state.where("_new").isEmpty():
            break
    return state.drop("_new")


def multi_landmark_paths(
    spark: SparkSession,
    edges: DataFrame,
    sources: DataFrame,
    *,
    max_hops: int,
    boosts: DataFrame | None = None,
    track_paths: bool = True,
) -> DataFrame:
    """Shortest paths from every landmark of every summary, in one pass.

    Args:
        edges: symmetrized edge table ``(src, dst, cost)`` with ``cost > 0``.
        sources: ``(sid, landmark)`` — one row per landmark per summary.
        max_hops: maximum number of edges on any returned path.
        boosts: optional ``(sid, src, dst, cost)`` — per-summary replacement
            cost for specific (directed, already-symmetrized) edges.

    Returns:
        ``(sid, landmark, node, dist, path)`` where ``path`` is the node array
        from ``landmark`` to ``node`` inclusive; one row per reached node.
        With ``track_paths=False`` the path column is a constant empty array
        (distance-only queries shuffle far less at full graph scale).
    """
    seeds = sources.select("sid", F.col("landmark").alias("root"))
    return relax(
        edges, seeds, per_root=True, max_hops=max_hops, boosts=boosts, track_paths=track_paths
    ).select("sid", F.col("root").alias("landmark"), "node", "dist", "path")


def voronoi_partition(
    spark: SparkSession,
    edges: DataFrame,
    terminals: DataFrame,
    *,
    max_hops: int,
) -> DataFrame:
    """Assign every reachable node to its nearest terminal.

    Args:
        edges: symmetrized ``(src, dst, cost)`` with ``cost > 0``.
        terminals: ``(sid, terminal)`` — the prize-bearing nodes per summary.
        max_hops: exploration radius in edges.

    Returns:
        ``(sid, node, dist, root, path)`` — ``root`` is the nearest terminal,
        ``path`` the node array from ``root`` to ``node`` inclusive.
    """
    seeds = terminals.select("sid", F.col("terminal").alias("root"))
    return relax(edges, seeds, per_root=False, max_hops=max_hops)
