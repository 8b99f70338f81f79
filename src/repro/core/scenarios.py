"""The four summarization scenarios (Section III).

A :class:`SummaryRequest` is one summarization task: its terminal set at
every cut-off ``k`` plus the input explanation paths. Terminals follow the
paper exactly — user-centric ``T = {u} ∪ R_u``, item-centric
``T = {i} ∪ C_i``, user-group ``T = D ∪ R_D``, item-group ``T = F ∪ C_F`` —
and each target/path carries the ``k`` at which it first enters the task, so
the incremental sweeps (k = 1…10 of the paper's figures) reuse one request.

The single-node scenarios are the group scenarios with ``|D| = 1`` (or
``|F| = 1``), so all four are built by one grouping function. Requests are
built from the recommenders' output DataFrame; the per-user path lists are
small (``k ≤ 10``), so they are collected to the driver here and the heavy
lifting (shortest paths over the 10⁶-edge graph) stays in Spark inside the
summarizers.
"""
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass

from pyspark.sql import DataFrame


@dataclass(frozen=True)
class SummaryRequest:
    """One summarization task across all cut-offs ``k``.

    Attributes:
        sid: stable identifier (e.g. ``"user:17"`` or ``"igroup:popular"``).
        scenario: ``user-centric|item-centric|user-group|item-group``.
        centers: always-included terminals (the user u / item i / group D / F).
        targets: ``(k_enter, node)`` — node joins the terminal set at
            ``k ≥ k_enter`` (deduplicated at the smallest rank).
        paths: ``(k_enter, nodes)`` — input explanation paths with the cut-off
            at which they join ``P``.
    """

    sid: str
    scenario: str
    centers: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]
    paths: tuple[tuple[int, tuple[int, ...]], ...]

    def k_max(self) -> int:
        return max((k for k, _ in self.targets), default=0)

    def terminals(self, k: int) -> list[int]:
        """Terminal set ``T`` at cut-off ``k`` (centers first, then targets)."""
        seen = dict.fromkeys(self.centers)
        for ke, node in self.targets:
            if ke <= k and node not in seen:
                seen[node] = None
        return list(seen)

    def paths_at(self, k: int) -> list[tuple[int, ...]]:
        return [p for ke, p in self.paths if ke <= k]


def _grouped(
    paths_df: DataFrame,
    centre: str,
    groups: Iterable[tuple[object, list[int]]] | None,
    prefix: str,
    scenario: str,
) -> list[SummaryRequest]:
    """One request per ``(gid, members)`` of ``groups``, centred on ``centre``.

    Each ``(user, item, rank, path)`` row is keyed by its ``centre`` column
    (``"user"`` or ``"item"``); a group's targets are the other endpoints of
    its members' paths, each at its smallest rank. ``groups=None`` means one
    singleton group per centre that has a path, in ascending order.
    """
    other = "item" if centre == "user" else "user"
    by_centre: dict[int, list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    for r in paths_df.select(centre, other, "rank", "path").collect():
        by_centre[int(r[centre])].append(
            (int(r["rank"]), int(r[other]), tuple(int(n) for n in r["path"]))
        )
    if groups is None:
        groups = [(c, [c]) for c in sorted(by_centre)]
    out = []
    for gid, members in groups:
        entries = [e for c in members for e in by_centre.get(c, ())]
        first: dict[int, int] = {}
        for rank, node, _ in entries:
            first[node] = min(first.get(node, rank), rank)
        out.append(
            SummaryRequest(
                sid=f"{prefix}:{gid}",
                scenario=scenario,
                centers=tuple(sorted(members)),
                targets=tuple(sorted((ke, n) for n, ke in first.items())),
                paths=tuple(sorted((rank, p) for rank, _, p in entries)),
            )
        )
    return out


def user_centric_requests(paths_df: DataFrame) -> list[SummaryRequest]:
    """One request per user: explain why this user gets their top-k items."""
    return _grouped(paths_df, "user", None, "user", "user-centric")


def item_centric_requests(paths_df: DataFrame, items: list[int]) -> list[SummaryRequest]:
    """One request per item: explain why this item reaches its users ``C_i``.

    A user enters ``C_i`` at the ``k`` equal to the item's rank in their list.
    """
    return _grouped(paths_df, "item", [(i, [i]) for i in items], "item", "item-centric")


def user_group_requests(
    paths_df: DataFrame, groups: dict[str, list[int]]
) -> list[SummaryRequest]:
    """One request per user group ``D``: terminals ``D ∪ R_D``."""
    return _grouped(paths_df, "user", groups.items(), "ugroup", "user-group")


def item_group_requests(
    paths_df: DataFrame, groups: dict[str, list[int]]
) -> list[SummaryRequest]:
    """One request per item group ``F``: terminals ``F ∪ C_F``."""
    return _grouped(paths_df, "item", groups.items(), "igroup", "item-group")
