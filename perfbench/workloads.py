"""The benchmark workloads: inputs made from a seed, one pass, output checks.

Each workload builds its inputs in :meth:`setup` (timed as ``setup_s``), runs
the same calls into the public functions of the program on every pass, and
checks every output of a pass in Python in :meth:`check`. Spans around the
calls name the stages; the traced run adds the layer spans of ``tracing.py``
beneath them.
"""
from repro.core import pcst_summaries, steiner_summaries, user_group_requests
from repro.core.summary import _norm
from repro.graph.stats import graph_stats, path_length_stats
from repro.kg.datasets import dataset_kg, ml1m
from repro.kg.synth_graphs import synth_graph
from repro.metrics.quality import compute_quality
from repro.recommenders import random_walker

from checks import bfs_path_stats, quality_problems, summary_problems


def _kg_edge_set(kg) -> set[tuple[int, int]]:
    return {_norm(int(r["src"]), int(r["dst"])) for r in kg.edges.select("src", "dst").collect()}


class G1Group:
    """One user-group request on the Table III G1 graph: ST, PCST and quality.

    The Figs. 10/11 configuration, where ST is heaviest: the KMB closure runs
    one shortest-path search per terminal, so ``sssp`` state is about
    |T| x |V| rows. PCST on the same request is the control that bypasses
    ``sssp``. Scale 0.15, not the 0.25 of the Figs. 9-11 job, keeps a run
    (three set-ups, a cold and a warm pass) near a minute on a 4-core host.
    """

    name = "g1-group"
    scale = 0.15
    n_users = 10
    ks = list(range(1, 11))
    lam = 1.0

    def __init__(self, spark, seed: int):
        self.spark = spark
        self.seed = seed

    def setup(self, tracer):
        with tracer.span("kg.build"):
            g = synth_graph(self.spark, 1, scale=self.scale, seed=self.seed)
            g.kg.edges.cache().count()
            g.kg.nodes.cache().count()
        users = [g.ids.user(u) for u in range(self.n_users)]
        with tracer.span("recommenders.paths"):
            paths = random_walker(self.spark, g.kg, g.ids, users, k=max(self.ks), seed=self.seed)
            paths.cache().count()
        with tracer.span("scenarios.requests"):
            requests = user_group_requests(paths, {"g": users})
        return {"kg": g.kg, "paths": paths, "requests": requests}

    def release(self, state):
        state["paths"].unpersist()
        state["kg"].edges.unpersist()
        state["kg"].nodes.unpersist()

    def reference(self, state):
        """What the checks compare against, collected once per run."""
        return {
            "kg_edges": _kg_edge_set(state["kg"]),
            "centres": {r.sid: set(r.centers) for r in state["requests"]},
        }

    def run(self, tracer, state):
        kg, requests = state["kg"], state["requests"]
        with tracer.span("steiner"):
            st = steiner_summaries(self.spark, kg, requests, lam=self.lam, ks=self.ks)
        with tracer.span("pcst"):
            pc = pcst_summaries(self.spark, kg, requests, ks=self.ks)
        with tracer.span("quality"):
            quality = compute_quality(self.spark, kg, st + pc)
        return {"st": st, "pcst": pc, "quality": quality}

    def check(self, ref, out):
        """(outputs checked, {failed output: problems}, workload figures)."""
        rows = {(r["sid"], r["method"], int(r["k"])): r for _, r in out["quality"].iterrows()}
        failures = {}
        figures = {}
        for method in ("st", "pcst"):
            covered = requested = 0
            for s in out[method]:
                bad = summary_problems(s, ref["kg_edges"], ref["centres"][s.sid])
                bad += quality_problems(s, rows.get((s.sid, s.method, s.k)))
                if bad:
                    failures[f"{s.method} {s.sid} k={s.k}"] = bad
                covered += len(set(s.terminals) & s.nodes)
                requested += len(s.terminals)
            figures[f"{method}_coverage"] = covered / requested
        top = [s.n_edges() for s in out["st"] if s.k == max(self.ks)]
        figures["st_edges_mean"] = sum(top) / len(top)
        n = len(out["st"]) + len(out["pcst"])
        figures["summaries"] = n
        return n, failures, figures

    @staticmethod
    def stage_times(tracer):
        return {
            "st_s": tracer.total("steiner"),
            "pcst_s": tracer.total("pcst"),
            "quality_s": tracer.total("quality"),
        }


class ML1MStats:
    """Table II statistics on the ML1M graph: ``graph_stats`` and sampled BFS.

    Runs ``sssp`` another way than ST does: distance-only, one sid, unit costs
    and no boosts, while ST, PCST and quality are bypassed. A shared-relaxation
    rewrite that speeds up ST but slows this path shows here. 24 landmarks,
    not the 48 of the Table II job, keep a run near 45 s on a 4-core host.
    """

    name = "ml1m-stats"
    scale = 0.1
    n_landmarks = 24
    max_hops = 12

    def __init__(self, spark, seed: int):
        self.spark = spark
        self.seed = seed

    def setup(self, tracer):
        with tracer.span("kg.build"):
            kg = dataset_kg(self.spark, ml1m(scale=self.scale, seed=self.seed))
            kg.edges.cache().count()
            kg.nodes.cache().count()
        return {"kg": kg}

    def release(self, state):
        state["kg"].edges.unpersist()
        state["kg"].nodes.unpersist()

    def reference(self, state):
        kg = state["kg"]
        nodes = [int(r["id"]) for r in kg.nodes.select("id").collect()]
        edges = [(int(r["src"]), int(r["dst"])) for r in kg.edges.select("src", "dst").collect()]
        # The landmark sample of path_length_stats, drawn the same way.
        frac = min(1.0, (self.n_landmarks * 3.0) / max(len(nodes), 1))
        landmarks = [
            int(r["id"])
            for r in kg.nodes.sample(fraction=frac, seed=self.seed)
            .limit(self.n_landmarks)
            .select("id")
            .collect()
        ]
        apl, diam = bfs_path_stats(edges, landmarks, self.max_hops)
        return {"n_nodes": len(nodes), "n_edges": len(edges), "apl": apl, "diameter": diam}

    def run(self, tracer, state):
        kg = state["kg"]
        with tracer.span("stats.graph_stats"):
            gs = graph_stats(kg)
        with tracer.span("stats.path_length"):
            apl, diam = path_length_stats(
                self.spark, kg, n_landmarks=self.n_landmarks, max_hops=self.max_hops, seed=self.seed
            )
        return {"graph_stats": gs, "apl": apl, "diameter": diam}

    def check(self, ref, out):
        failures = {}
        gs = out["graph_stats"]
        if (gs.n_nodes, gs.n_edges) != (ref["n_nodes"], ref["n_edges"]):
            failures["graph_stats"] = [
                f"counts {(gs.n_nodes, gs.n_edges)} != KG {(ref['n_nodes'], ref['n_edges'])}"
            ]
        if abs(out["apl"] - ref["apl"]) > 1e-9 or out["diameter"] != ref["diameter"]:
            failures["path_length_stats"] = [
                f"{(out['apl'], out['diameter'])} != networkx BFS {(ref['apl'], ref['diameter'])}"
            ]
        figures = {"avg_path_length": out["apl"], "diameter": out["diameter"]}
        return 2, failures, figures

    @staticmethod
    def stage_times(tracer):
        return {"stats_s": tracer.total("stats.graph_stats") + tracer.total("stats.path_length")}


WORKLOADS = {w.name: w for w in (G1Group, ML1MStats)}
