"""Summary explanation output type and baseline wrapping.

A :class:`Summary` is one explanation for one ``(request, method, k)`` cell:
its (multi)set of edges, its node set and the terminal set it was built for.
ST and PCST summaries are trees, whose edges are the selected terminal-pair
paths unfolded, pruned or merged; a baseline's edges are the multiset union
of its k individual 3-hop paths, which is exactly the ``|E| = 3k`` the paper
plots. The edge multiset drives comprehensibility, diversity and redundancy.

Both summarizers hand Spark's result to the driver the same way, as one
``(cost, ra, rb, path)`` candidate per terminal pair (:func:`collect_pairs`),
and both turn the driver's tree into a :class:`Summary` with
:func:`tree_summary`.
"""
from collections import defaultdict
from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.core.scenarios import SummaryRequest


@dataclass(frozen=True)
class Summary:
    """One summary explanation (or wrapped baseline explanation set)."""

    sid: str
    scenario: str
    method: str
    k: int
    edges: tuple[tuple[int, int], ...]  # undirected, (min,max); multiset
    nodes: frozenset[int]
    terminals: tuple[int, ...]  # the terminal set T it was built for

    def n_edges(self) -> int:
        return len(self.edges)

    def n_nodes(self) -> int:
        return len(self.nodes)


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


class _DSU:
    """Lazy union-find; ``union(a, b)`` roots ``a``'s set under ``b``'s root."""

    def __init__(self):
        self.p: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.p.setdefault(x, x)
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def collect_pairs(pairs: DataFrame) -> dict[str, list[tuple[float, int, int, tuple[int, ...]]]]:
    """Per-summary terminal-pair candidates from a ``(sid, ra, rb, cost, path)`` frame.

    The frame holds one row per pair, with ``ra < rb`` and ``path`` joining
    the two terminals; each becomes ``(cost, ra, rb, path)`` under its sid.
    """
    by_sid: dict[str, list] = defaultdict(list)
    for r in pairs.collect():
        by_sid[r["sid"]].append(
            (float(r["cost"]), int(r["ra"]), int(r["rb"]), tuple(int(n) for n in r["path"]))
        )
    return by_sid


def tree_summary(
    req: SummaryRequest,
    method: str,
    k: int,
    edges: set[tuple[int, int]],
    terminals: list[int],
    anchor: list[int],
) -> Summary:
    """A tree summary: its nodes are the edge endpoints, or ``anchor`` when it has no edge."""
    return Summary(
        sid=req.sid,
        scenario=req.scenario,
        method=method,
        k=k,
        edges=tuple(sorted(edges)),
        nodes=frozenset({n for e in edges for n in e} or anchor),
        terminals=tuple(terminals),
    )


def summary_from_paths(
    req: SummaryRequest, method: str, k: int, paths: list[tuple[int, ...]]
) -> Summary:
    """Build a Summary whose edges are the multiset union of ``paths``."""
    edges: list[tuple[int, int]] = []
    nodes: set[int] = set()
    for p in paths:
        nodes.update(p)
        for a, b in zip(p, p[1:]):
            edges.append(_norm(a, b))
    return Summary(
        sid=req.sid,
        scenario=req.scenario,
        method=method,
        k=k,
        edges=tuple(edges),
        nodes=frozenset(nodes),
        terminals=tuple(req.terminals(k)),
    )


def baseline_summaries(
    requests: list[SummaryRequest], method: str, *, ks: list[int]
) -> list[Summary]:
    """Wrap raw explanation-path sets as multiset 'summaries' for every k.

    This is what the paper's figures plot for PGPR/CAFE/PLM/PEARLM: the
    un-summarized union of the k individual 3-hop paths.
    """
    out = []
    for req in requests:
        for k in ks:
            out.append(summary_from_paths(req, method, k, req.paths_at(k)))
    return out
