"""The five synthetic random graphs of Table III.

Node and edge counts are hard-coded from the paper's table; composition
(30.4% users / 19.6% items / 54.5% external) and the user/item/external
degree profile mirror the ML1M graph, as the paper describes. A ``scale``
knob shrinks every count proportionally so tests and benchmarks can run the
same code cheaply.
"""
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.graph.model import KG
from repro.kg.build import IdSpace, build_kg
from repro.kg.datasets import _sample_distinct_pairs

# Paper Table III, verbatim: (users, items, external, total_edges).
TABLE3_GRAPHS: dict[int, tuple[int, int, int, int]] = {
    1: (3_043, 1_956, 5_452, 559_734),
    2: (4_565, 2_935, 8_178, 839_601),
    3: (6_087, 3_913, 10_905, 1_119_468),
    4: (7_609, 4_891, 13_631, 1_399_335),
    5: (9_131, 5_870, 16_357, 1_679_202),
}

# ML1M edge-type split (932,293 ui : 178,461 ie) applied to the totals.
_UI_FRAC = 932_293 / (932_293 + 178_461)


@dataclass(frozen=True)
class SynthGraph:
    """One Table III graph plus its id layout."""

    kg: KG
    ids: IdSpace
    n_ui: int
    n_ie: int


def synth_graph(
    spark: SparkSession, which: int, *, scale: float = 1.0, seed: int = 29
) -> SynthGraph:
    """Generate Table III graph ``which`` (1–5) at ``scale``.

    Node counts scale linearly; edge counts scale with ``scale²`` so the
    graph *density* is preserved at any scale (shrinking nodes shrinks the
    pair capacity quadratically). ``scale = 1`` matches the table verbatim.
    """
    nu, ni, ne, n_edges = TABLE3_GRAPHS[which]
    nu = max(4, int(nu * scale))
    ni = max(4, int(ni * scale))
    ne = max(4, int(ne * scale))
    n_edges = max(8, int(n_edges * scale * scale))
    n_ui = int(n_edges * _UI_FRAC)
    n_ie = n_edges - n_ui

    g = np.random.default_rng(seed + which)
    ratings = _sample_distinct_pairs(
        g, n_rows=nu, n_cols=ni, n_target=n_ui, row_w=None, col_w=None, names=("user", "item")
    )
    n = len(ratings)
    ratings = ratings.assign(
        rating=g.integers(1, 6, size=n).astype("float64"),
        ts=g.integers(946_684_800, 1_041_379_200, size=n).astype("float64"),
    )
    attrs = _sample_distinct_pairs(
        g, n_rows=ni, n_cols=ne, n_target=n_ie, row_w=None, col_w=None, names=("item", "ext")
    )

    ids = IdSpace(n_users=nu, n_items=ni, n_ext=ne)
    kg = build_kg(spark, ratings, attrs, ids)
    return SynthGraph(kg=kg, ids=ids, n_ui=len(ratings), n_ie=len(attrs))
