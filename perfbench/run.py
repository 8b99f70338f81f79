"""Benchmark of the summary pipeline: one workload in one fresh Spark process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload g1-group --seed 7 --seconds 30 --trace 0

A run sets its inputs up three times (``setup_s`` is the median), then makes a
cold pass and warm passes until ``--seconds`` would be exceeded, checking the
outputs of every pass. With ``--trace 0`` the passes run untraced and the last
line of standard output is a JSON object with the end-to-end metrics. With
``--trace 1`` warm passes alternate between untraced and traced ones; the last
line then holds the per-layer metrics of the traced passes, and the tracing
overhead is the traced minus the untraced median pass time. Every run writes a
JSON file with host facts, all pass times, figures and spans to
``.perfbench/results/``. Spark scratch space and temporary files stay under
``.perfbench/`` in the checkout.
"""
import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUPS = 3
SETTINGS = {  # read by repro.runtime.job_session at JVM launch
    "SPARK_MASTER": "local[4]",
    "SPARK_DRIVER_MEM": "4g",
    "SPARK_SHUFFLE_PARTITIONS": "4",
}

END_TO_END = {
    "setup_s": "s",
    "cold_pass_s": "s",
    "pass_s": "s",
    "valid_frac": "fraction",
}
PER_LAYER = {
    "sssp.s": "s",
    "sssp.calls": "count",
    "sssp.spark_jobs": "count",
    "sssp.landmark_rows": "count",
    "sssp.state_rows": "count",
    "sssp.rows_per_landmark": "count",
    "voronoi.s": "s",
    "voronoi.spark_jobs": "count",
    "voronoi.state_rows": "count",
    "weights.w_cap_s": "s",
    "weights.boost_table_s": "s",
    "weights.boost_rows": "count",
    "steiner.closure_collect_s": "s",
    "steiner.driver_s": "s",
    "steiner.spark_jobs": "count",
    "pcst.boundary_collect_s": "s",
    "pcst.driver_s": "s",
    "quality.frames_s": "s",
    "quality.s": "s",
    "quality.spark_jobs": "count",
    "quality.edge_rows": "count",
    "stats.graph_stats_s": "s",
    "stats.path_length_s": "s",
    "kg.build_s": "s",
    "recommenders.paths_s": "s",
    "scenarios.requests_s": "s",
    "spark.jobs_per_pass": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _layer_metrics(tr) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    landmarks = tr.counts["sssp.landmark_rows"]
    return {
        "sssp.s": tr.total("sssp"),
        "sssp.calls": sum(r["name"] == "sssp" for r in tr.spans),
        "sssp.spark_jobs": tr.total("sssp", "jobs"),
        "sssp.landmark_rows": landmarks,
        "sssp.state_rows": tr.counts["sssp.state_rows"],
        "sssp.rows_per_landmark": tr.counts["sssp.state_rows"] / landmarks if landmarks else 0.0,
        "voronoi.s": tr.total("voronoi"),
        "voronoi.spark_jobs": tr.total("voronoi", "jobs"),
        "voronoi.state_rows": tr.counts["voronoi.state_rows"],
        "weights.w_cap_s": tr.total("weights.w_cap"),
        "weights.boost_table_s": tr.total("weights.boost_table"),
        "weights.boost_rows": tr.counts["weights.boost_rows"],
        "steiner.closure_collect_s": tr.self_time("steiner"),
        "steiner.driver_s": tr.total("steiner.driver"),
        "steiner.spark_jobs": tr.total("steiner", "jobs_incl"),
        "pcst.boundary_collect_s": tr.self_time("pcst"),
        "pcst.driver_s": tr.total("pcst.driver"),
        "quality.frames_s": tr.total("quality.frames"),
        "quality.s": tr.total("quality"),
        "quality.spark_jobs": tr.total("quality", "jobs_incl"),
        "quality.edge_rows": tr.counts["quality.edge_rows"],
        "stats.graph_stats_s": tr.total("stats.graph_stats"),
        "stats.path_length_s": tr.total("stats.path_length"),
        "spark.jobs_per_pass": tr.total("pass", "jobs_incl"),
    }


def _host_facts(spark, args) -> dict:
    mem_kb = next(
        int(line.split()[1]) for line in open("/proc/meminfo") if line.startswith("MemTotal:")
    )
    conf = spark.sparkContext.getConf()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gib": round(mem_kb / (1 << 20), 2),
        "python": platform.python_version(),
        "spark": spark.version,
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": conf.get("spark.driver.memory", os.environ["SPARK_DRIVER_MEM"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _stop(spark):
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _medians(passes: list[dict], field: str) -> dict[str, float]:
    """Per-key median of ``pass[field]`` over ``passes``."""
    return {k: statistics.median(p[field][k] for p in passes) for k in passes[0][field]}


def measure(spark, workload, args) -> dict:
    from tracing import Tracer, instrumented

    sc = spark.sparkContext
    setups = []
    for i in range(SETUPS):
        tr = Tracer(sc if args.trace else None)
        t0 = time.perf_counter()
        state = workload.setup(tr)
        setups.append({"s": time.perf_counter() - t0, "spans": tr.spans})
        if i < SETUPS - 1:
            workload.release(state)
    ref = workload.reference(state)

    passes = []
    attempted = 0
    failures: dict[str, list[str]] = {}
    t_measure = time.perf_counter()
    while True:
        # With tracing on, the warm passes alternate: untraced, traced, ...
        traced = bool(args.trace) and len(passes) % 2 == 0 and len(passes) > 0
        tr = Tracer(sc if traced else None)
        with instrumented(tr) if traced else contextlib.nullcontext():
            with tr.span("pass"):
                out = workload.run(tr, state)
        tr.count_jobs()
        n, bad, figures = workload.check(ref, out)
        attempted += n
        failures.update({f"pass {len(passes)} {k}": v for k, v in bad.items()})
        passes.append(
            {
                "s": tr.total("pass"),
                "traced": traced,
                "stages": workload.stage_times(tr),
                "figures": figures,
                "layers": _layer_metrics(tr) if traced else None,
                "spans": tr.spans if traced else None,
            }
        )
        warm = passes[1:]
        plain = [p["s"] for p in warm if not p["traced"]]
        traced_s = [p["s"] for p in warm if p["traced"]]
        if not plain or (args.trace and not traced_s):
            continue
        elapsed = time.perf_counter() - t_measure
        if elapsed + statistics.median([p["s"] for p in warm]) > args.seconds:
            break

    failed = len(failures)
    warm_plain = [p for p in passes[1:] if not p["traced"]]
    e2e = {
        "setup_s": statistics.median([s["s"] for s in setups]),
        "cold_pass_s": passes[0]["s"],
        "pass_s": statistics.median([p["s"] for p in warm_plain]),
        "valid_frac": (attempted - failed) / attempted,
    }
    figures = {**_medians(warm_plain, "stages"), **_medians(warm_plain, "figures")}
    result = {
        "e2e": e2e,
        "figures": figures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setups": setups,
        "passes": passes,
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = _medians(traced, "layers")
        for name in ("kg.build", "recommenders.paths", "scenarios.requests"):
            layers[f"{name}_s"] = statistics.median(
                [sum(r["s"] for r in s["spans"] if r["name"] == name) for s in setups]
            )
        layers["trace.pass_s"] = statistics.median([p["s"] for p in traced])
        layers["trace.overhead_s"] = layers["trace.pass_s"] - e2e["pass_s"]
        result["layers"] = layers
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "core" / "steiner.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp = WORK / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(SETTINGS)
    os.environ.update(
        SPARK_LOCAL_DIRS=str(tmp / "spark"),
        TMPDIR=str(tmp),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
    )
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)  # job_session builds it from SETTINGS

    from repro.runtime import job_session

    t0 = time.perf_counter()
    spark = job_session(f"perfbench-{args.workload}")
    try:
        spark.sparkContext.setLogLevel("ERROR")
        session_s = time.perf_counter() - t0
        workload = WORKLOADS[args.workload](spark, args.seed)
        result = measure(spark, workload, args)
        result["host"] = _host_facts(spark, args)
        result["session_s"] = session_s
    finally:
        _stop(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    out_file = out_dir / f"{args.workload}-seed{args.seed}-{kind}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str))

    for k, v in result["host"].items():
        print(f"host {k}: {v}")
    for label, problems in list(result["failures"].items())[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for k, v in result["figures"].items():
        print(f"figure {k}: {v}")
    specs = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result["e2e"]
    for k, unit in specs.items():
        print(f"metric {k}: {values[k]} {unit}")
    print(f"wrote {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": values[k], "unit": u} for k, u in specs.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
