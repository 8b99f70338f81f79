"""Spans, Spark job counts and layer wrappers for the traced benchmark run.

A :class:`Tracer` keeps spans in memory. Each span gets its own Spark job
group, set with ``setJobGroup`` on entry and restored to the parent's group on
exit, so a job is counted once, in the innermost span that ran it. Job counts
are read from ``statusTracker`` after the listener bus has drained.

:func:`instrumented` replaces layer entry points by their module attribute (as
bound in the importing module) with span-recording wrappers, and puts the
originals back on exit. Row counts run after a span closes, in
:meth:`Tracer.untimed`, whose time is taken out of every open span and whose
jobs go to a group of their own.
"""
import contextlib
import functools
import time
from collections import defaultdict

import repro.core.pcst as pcst_mod
import repro.core.steiner as steiner_mod
import repro.graph.stats as stats_mod
import repro.metrics.quality as quality_mod

_UNTIMED = {"group": "perfbench-untimed", "name": "row counts"}


class Tracer:
    """In-memory span recorder; ``sc=None`` times spans without job groups."""

    def __init__(self, sc=None):
        self._sc = sc
        self._stack: list[dict] = []
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def _set_group(self, rec: dict | None):
        if self._sc is None:
            return
        if rec is None:
            self._sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self._sc.setJobGroup(rec["group"], rec["name"])

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        rec = {
            "id": self._next_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "group": f"perfbench-{id(self)}-{self._next_id}",
            "excluded": 0.0,
            "child_s": 0.0,
        }
        self._stack.append(rec)
        self._set_group(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["s"] = time.perf_counter() - rec["start"] - rec["excluded"]
            self._stack.pop()
            self._set_group(parent)
            if parent:
                parent["child_s"] += rec["s"]
            self.spans.append(rec)

    @contextlib.contextmanager
    def untimed(self):
        """Work that belongs to no span: its time and jobs are left out."""
        self._set_group(_UNTIMED)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            for rec in self._stack:
                rec["excluded"] += dt
            self._set_group(self._stack[-1] if self._stack else None)

    def count_jobs(self):
        """Fill ``jobs`` (self) and ``jobs_incl`` (with children) per span."""
        if self._sc is None:
            return
        self._sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self._sc.statusTracker()
        by_id = {}
        for rec in self.spans:
            rec["jobs"] = len(tracker.getJobIdsForGroup(rec["group"]))
            rec["jobs_incl"] = rec["jobs"]
            by_id[rec["id"]] = rec
        # Children close before their parents, so walk in closing order.
        for rec in self.spans:
            if rec["parent"] is not None:
                by_id[rec["parent"]]["jobs_incl"] += rec["jobs_incl"]

    def total(self, name: str, key: str = "s") -> float:
        return sum(r.get(key, 0) for r in self.spans if r["name"] == name)

    def self_time(self, name: str) -> float:
        return sum(r["s"] - r["child_s"] for r in self.spans if r["name"] == name)


def _traced(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if count is not None:
            with tracer.untimed():
                count(tracer, args, kwargs, out)
        return out

    return wrapper


def _count_sssp(tracer, args, kwargs, out):
    sources = kwargs["sources"] if "sources" in kwargs else args[2]
    tracer.counts["sssp.landmark_rows"] += sources.count()
    tracer.counts["sssp.state_rows"] += out.count()


def _count_voronoi(tracer, args, kwargs, out):
    tracer.counts["voronoi.state_rows"] += out.count()


def _count_boosts(tracer, args, kwargs, out):
    tracer.counts["weights.boost_rows"] += out.count() if out is not None else 0


def _count_frames(tracer, args, kwargs, out):
    tracer.counts["quality.edge_rows"] += len(out["edges"])


# (module, attribute as bound there, span name, row counter)
LAYERS = [
    (steiner_mod, "multi_landmark_paths", "sssp", _count_sssp),
    (stats_mod, "multi_landmark_paths", "sssp", _count_sssp),
    (pcst_mod, "voronoi_partition", "voronoi", _count_voronoi),
    (steiner_mod, "w_cap_for", "weights.w_cap", None),
    (steiner_mod, "boost_table", "weights.boost_table", _count_boosts),
    (steiner_mod, "_prim", "steiner.driver", None),
    (steiner_mod, "_tree_of_union", "steiner.driver", None),
    (pcst_mod, "_merge_phase", "pcst.driver", None),
    (quality_mod, "summary_frames", "quality.frames", _count_frames),
]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every entry point in :data:`LAYERS`; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in LAYERS]
    try:
        for mod, attr, name, count in LAYERS:
            setattr(mod, attr, _traced(tracer, name, getattr(mod, attr), count))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
