"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload driver-insert --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
SPARK_CORES = min(4, os.cpu_count() or 1)
#: Shuffle partitions, Arrow and broadcast joins as in the test suite's
#: ``spark`` fixture (conftest.py).
SPARK_CONF = {
    "spark.driver.memory": "1g",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}
#: Per-layer metrics measured during set-up; the rest come from the passes.
SETUP_LAYERS = ("synth_data.", "core.training.", "core.dqn.learn")


def _environment() -> None:
    """Import the program from this checkout and keep Spark's and
    Python's scratch files inside it."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"--master local[{SPARK_CORES}] pyspark-shell"
    SPARK_CONF["spark.local.dir"] = str(WORK / "spark")
    SPARK_CONF["spark.sql.warehouse.dir"] = str(WORK / "warehouse")
    # Keep the JVMs from writing perf-data files outside the checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    SPARK_CONF["spark.driver.extraJavaOptions"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"


class Spark:
    """The benchmark's Spark session. ``start`` is the timed Spark part of
    set-up: a new session plus one throw-away ``applyInPandas`` job, which
    starts the Python workers. Stopping the previous session is teardown,
    not set-up, and is left out of the timing."""

    def __init__(self):
        self.session = None

    def start(self):
        import numpy as np
        import pandas as pd
        from pyspark.sql import SparkSession

        b = SparkSession.builder.master(f"local[{SPARK_CORES}]").appName("perfbench")
        for k, v in SPARK_CONF.items():
            b = b.config(k, v)
        self.session = b.getOrCreate()
        self.session.sparkContext.setLogLevel("ERROR")
        warm = self.session.createDataFrame(
            pd.DataFrame({"k": np.arange(64) % 8, "v": np.arange(64.0)}))
        warm.groupBy("k").applyInPandas(lambda p: p, schema="k long, v double").count()
        return self.session

    def stop(self) -> None:
        if self.session is not None:
            self.session.stop()
            self.session = None

    def close(self) -> None:
        """Stop the session, the JVM and its Python workers, and wait."""
        from pyspark import SparkContext

        self.stop()
        gateway = SparkContext._gateway
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
                proc.wait(timeout=60)
            SparkContext._gateway = SparkContext._jvm = None


def _setup(wl, spark: Spark, seed: int, chk) -> tuple[dict, float]:
    if wl.uses_spark:
        spark.stop()
    t0 = time.perf_counter()
    st = wl.setup(spark.start() if wl.uses_spark else None, seed)
    took = time.perf_counter() - t0
    policy = hashlib.sha1(b"".join(st["policy_bytes"])).hexdigest()
    chk.op(f"{wl.name}/train", chk.repeats("policies", policy))
    return st, took


def _pass(wl, st, chk, tracer=None):
    """One timed pass; its outputs are checked after the clock stops."""
    t0 = time.perf_counter()
    res = wl.run_pass(st, chk, tracer)
    res.pass_s = time.perf_counter() - t0
    wl.check(st, res, chk)
    res.outs, res.truth, res.queries = {}, None, {}
    return res


def _passes(wl, st, chk, seconds: float, tracer=None) -> list:
    """Closed loop: passes back to back until ``seconds`` have elapsed."""
    out = []
    t_end = time.perf_counter() + seconds
    while not out or time.perf_counter() < t_end:
        out.append(_pass(wl, st, chk, tracer))
    return out


def _median(passes, attr: str) -> float:
    return statistics.median(getattr(p, attr) for p in passes)


def _layer_values(tracer, n_passes: int) -> dict[str, float]:
    """Every span as ``<name>_s`` / ``<name>_calls`` and every counter,
    per pass (setup layers: per set-up)."""
    vals: dict[str, float] = {}

    def keep(phase: str, name: str) -> bool:
        return (phase == "setup") == name.startswith(SETUP_LAYERS)

    for (phase, name), agg in tracer.totals().items():
        if keep(phase, name):
            div = 1 if phase == "setup" else n_passes
            vals[f"{name}_s"] = agg["total_s"] / div
            vals[f"{name}_calls"] = agg["calls"] / div
    for (phase, name), v in tracer.counts.items():
        if keep(phase, name):
            vals[name] = v / (1 if phase == "setup" else n_passes)
    g = vals.get
    vals.update({
        "queries.range_query.s": g("queries.range_query_s", 0.0),
        "queries.similarity.s": g("queries.similarity_s", 0.0),
        "queries.similarity.calls": g("queries.similarity_calls", 0.0),
        "queries.knn.calls": g("queries.knn.edr_calls", 0.0) + g("queries.knn.t2vec_calls", 0.0),
        "core.training.episodes": g("core.training.episode_calls", 0.0),
        "core.rl4qdts.iterations": g("core.mdp.start_nodes_calls", 0.0),
        "core.rl4qdts.insertions": g("core.mdp.insert_calls", 0.0),
    })
    it = vals["core.rl4qdts.iterations"]
    vals["core.rl4qdts.useful_ratio"] = vals["core.rl4qdts.insertions"] / it if it else 0.0
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    _environment()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    chk = workloads.Checker()
    spark = Spark()
    detail: dict = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
                    "spark_master": f"local[{SPARK_CORES}]" if wl.uses_spark else None}
    try:
        if wl.uses_spark:
            spark.start()  # JVM launch: process start-up, not set-up
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            st, _ = _setup(wl, spark, args.seed, chk)
            tracer.unwrap_all()
            first = _pass(wl, st, chk)  # warm-up
            plain = _passes(wl, st, chk, args.seconds / 2)
            tracer.phase = "pass"
            tracing.install(tracer)
            traced = _passes(wl, st, chk, args.seconds / 2, tracer)
            tracer.unwrap_all()
            vals = _layer_values(tracer, len(traced))
            vals["trace.overhead_ratio"] = _median(traced, "pass_s") / _median(plain, "pass_s")
            passes = plain + traced
            detail["passes"] = {"untraced": len(plain), "traced": len(traced)}
        else:
            setups = [_setup(wl, spark, args.seed, chk) for _ in range(SETUP_REPS)]
            st = setups[-1][0]
            first = _pass(wl, st, chk)  # warm-up: first Spark jobs, lazy imports
            passes = _passes(wl, st, chk, args.seconds)
            detail["setup_s"] = [s[1] for s in setups]
            detail["passes"] = len(passes)
    finally:
        spark.close()
    vals_e2e = {
        "setup_s": None if args.trace else statistics.median(detail["setup_s"]),
        "pass_s": _median(passes, "pass_s"),
        "simplify_s": _median(passes, "simplify_s"),
        "eval_s": _median(passes, "eval_s"),
        "range_f1": first.range_f1,
        "budget_dev_pts": first.budget_dev_pts,
        "fail_ratio": chk.failed / chk.attempted,
        "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail.update(end_to_end=vals_e2e, attempted=chk.attempted, failed=chk.failed,
                  pass_s=[p.pass_s for p in passes], method_s=first.method_s, f1=first.f1, digests=chk.digests)
    if args.trace:
        vals.update(budget_dev_pts=first.budget_dev_pts, fail_ratio=vals_e2e["fail_ratio"])
        for task in ("range", "knn_edr", "knn_t2vec", "similarity", "clustering"):
            vals[f"queries.{task}.f1"] = first.f1.get(f"rl4qdts/{task}", 0.0)
        tracer.dump(WORK / f"trace-{wl.name}.json", {"workload": wl.name, "seed": args.seed})
        wanted, source = spec["per_layer"], vals
    else:
        wanted, source = spec["end_to_end"], vals_e2e
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    for name, v in vals_e2e.items():
        if v is not None:
            print(f"{wl.name:18s} {name:20s} {v:14.6g}")
    print(f"{wl.name:18s} {'fail_ratio base':20s} {chk.failed}/{chk.attempted} ops")
    print("perfbench detail " + json.dumps(detail))
    print(json.dumps({"correct": chk.failed == 0, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
