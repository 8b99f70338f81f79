"""Simulated path-based baseline recommenders.

The paper's baselines (PGPR, CAFE, PLM-Rec, PEARLM) are trained RL / language
models that cannot be reproduced offline; each is replaced by a seeded
3-hop beam walk (:func:`~repro.recommenders.base.recommend_paths`) whose
selection policy mimics the published behaviour the summarization
experiments depend on (see DESIGN.md §2). Each policy is one row of
``_POLICIES``; :func:`~repro.recommenders.base.random_walker` (uniform random)
makes Table III's synthetic paths.

All return the same schema: ``(user, item, rank, path, in_kg, score)`` with
``path`` a 4-node array (3 edges), top-``k`` distinct items per user.
"""
from pyspark.sql import DataFrame, SparkSession

from repro.graph.model import KG
from repro.kg.build import IdSpace
from repro.recommenders.base import random_walker, recommend_paths

_POLICIES = {
    # PGPR [Xian et al., SIGIR'19] trains an RL agent that walks toward
    # high-reward (historically strong) edges: weight-greedy over both
    # metapath families, giving popularity-concentrated, low-diversity paths.
    "pgpr": dict(weight_coef=1.0, temperature=0.0, families=("ie", "uu")),
    # CAFE [Xian et al., CIKM'20] composes coarse user-profile metapath
    # patterns before fine-grained search: greedy, restricted to the dominant
    # user→item→entity→item template, giving regular, attribute-routed paths.
    "cafe": dict(weight_coef=1.0, temperature=0.0, families=("ie",)),
    # PLM-Rec [Geng et al., WWW'22] decodes paths token by token and
    # "generates novel paths beyond the static KG topology": sampled at a high
    # temperature (diverse), with 10% of final hops hallucinated (edges not in
    # the KG), the unfaithfulness the PEARLM paper measures.
    "plm": dict(weight_coef=1.0, temperature=8.0, families=("ie", "uu"), hallucination=0.10),
    # PEARLM [Balloccu et al.] constrains decoding to valid KG connections:
    # PLM's sampled walk with no hallucination, same diversity, fully faithful.
    "pearlm": dict(weight_coef=1.0, temperature=8.0, families=("ie", "uu"), hallucination=0.0),
}


def _baseline(name: str, policy: dict):
    def recommend(
        spark: SparkSession, kg: KG, ids: IdSpace, users: list[int], *, k: int = 10, seed: int = 0
    ) -> DataFrame:
        return recommend_paths(spark, kg, ids, users, k=k, seed=seed, **policy)

    recommend.__name__ = recommend.__qualname__ = name
    return recommend


BASELINES = {name: _baseline(name, policy) for name, policy in _POLICIES.items()}
pgpr, cafe, plm, pearlm = (BASELINES[n] for n in ("pgpr", "cafe", "plm", "pearlm"))

__all__ = ["recommend_paths", "random_walker", "pgpr", "cafe", "plm", "pearlm", "BASELINES"]
