"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: ``setup`` builds its
inputs once per set-up repetition, ``run_pass`` produces one result
table (every simplifier of the workload, then its query-accuracy
evaluation), and the next pass starts only when the previous one ended.

Inputs come from the seed alone. A database is a fixed number of trips
of a fixed length cut from a generated database (see ``make_db``), so
that every seed simplifies the same amount of data and run-to-run spread
measures the program, not the input size.
"""
from __future__ import annotations

import hashlib
import pickle
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro import experiments, synth_data
from repro.baselines import adaptations
from repro.core import spark_driver, training
from repro.queries import knn, range_query, similarity
from repro.queries.measures import mean_f1
from repro.workloads.distributions import range_query_workload

TRAIN_PROFILE = "geolife"


# -- inputs ------------------------------------------------------------------

def make_db(profile: str, n_traj: int, traj_len: int, seed: int) -> pd.DataFrame:
    """``n_traj`` trips of exactly ``traj_len`` points: consecutive pieces
    of the trajectories of a generated ``profile`` database, in
    generation order, numbered 0..n_traj-1. Every seed thus gives the
    same N, trip count and Spark bucket of each trip."""
    prof = synth_data.TRAJ_PROFILES[profile]
    sf = 1.5 * n_traj * traj_len / (prof["mean_len"] * prof["n_per_sf"])
    while True:
        db = synth_data.trajectory_db_pandas(profile=profile, sf=sf, seed=seed)
        piece = db["seq"].to_numpy() // traj_len
        full = piece < db.groupby("traj_id")["seq"].transform("size").to_numpy() // traj_len
        trip, _ = pd.factorize(db["traj_id"].to_numpy()[full] * (1 << 20) + piece[full])
        if trip.max(initial=-1) + 1 >= n_traj:
            break
        sf *= 2  # trajectories are generated in order: this extends the prefix
    out = db[full].assign(traj_id=trip.astype(np.int64), seq=db["seq"][full] % traj_len)
    return out[out["traj_id"] < n_traj].reset_index(drop=True)


def train_policies(seed: int):
    """Agent-Cube/Agent-Point policies trained in memory on geolife
    (transferred to every workload, as in the paper's Fig. 8(a))."""
    dbs = [synth_data.trajectory_db_pandas(profile=TRAIN_PROFILE, sf=0.05, seed=10 * seed + i)
           for i in (1, 2, 3)]
    val = synth_data.trajectory_db_pandas(profile=TRAIN_PROFILE, sf=0.05, seed=10 * seed + 9)
    cube, point, _ = training.train_rl4qdts(
        dbs, ratio=0.01, config=experiments.bench_config(seed=seed),
        episodes_per_db=1, delta=50, seed=seed, validation_db=val,
    )
    return cube, point


def base_state(wl, seed: int) -> dict:
    """Set-up shared by every workload: D, its range boxes, the config
    and freshly trained policies."""
    db = make_db(wl.profile, wl.n_traj, wl.traj_len, seed)
    cube, point = train_policies(seed)
    return {"db": db, "boxes": boxes_for(db, wl.n_boxes, seed), "seed": seed,
            "config": experiments.bench_config(seed=seed), "policies": (cube, point),
            "policy_bytes": (cube.to_bytes(), point.to_bytes())}


def boxes_for(db: pd.DataFrame, n_boxes: int, seed: int) -> np.ndarray:
    return range_query_workload(
        db, n_queries=n_boxes, distribution="data",
        spatial=experiments.BENCH_SPATIAL, duration=experiments.BENCH_DURATION, seed=seed + 99,
    )


def budget(db: pd.DataFrame, ratio: float) -> int:
    """W = max(2·#traj, round(r·N)): the global point budget."""
    return max(2 * db["traj_id"].nunique(), int(round(ratio * len(db))))


# -- output checks -----------------------------------------------------------

def digest(d: pd.DataFrame) -> str:
    """SHA-1 of D′ in (traj_id, seq) order."""
    d = d.sort_values(["traj_id", "seq"])
    h = hashlib.sha1(d[["traj_id", "seq"]].to_numpy(np.int64).tobytes())
    h.update(d[["x", "y", "t"]].to_numpy(np.float64).tobytes())
    return h.hexdigest()


def subset_problems(db: pd.DataFrame, dprime: pd.DataFrame) -> list[str]:
    """Why D′ is not a row-for-row subset of D keeping every endpoint."""
    probs = []
    key = ["traj_id", "seq"]
    if dprime.duplicated(key).any():
        probs.append("duplicate (traj_id, seq) rows")
    m = dprime.merge(db, on=key, how="left", suffixes=("", "_d"), indicator=True)
    if (m["_merge"] != "both").any():
        probs.append(f"{int((m['_merge'] != 'both').sum())} rows not in D")
    elif not all((m[c].to_numpy() == m[c + "_d"].to_numpy()).all() for c in ("x", "y", "t")):
        probs.append("rows differ from D")
    ends = db.groupby("traj_id")["seq"].agg(["min", "max"]).reset_index()
    want = pd.concat([ends[["traj_id", "min"]].set_axis(key, axis=1),
                      ends[["traj_id", "max"]].set_axis(key, axis=1)])
    have = want.merge(dprime[key], on=key, how="left", indicator=True)
    if (have["_merge"] != "both").any():
        probs.append("trajectory endpoints missing")
    return probs


@dataclass
class Checker:
    """Counts ops and failed checks. One op is one simplify call or one
    (task, side) query evaluation; the first pass fixes the digests and
    results that every later pass must repeat."""

    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def repeats(self, key, value) -> list[str]:
        ref = self.first.setdefault(key, value)
        return [] if ref == value else [f"{key} differs from the first pass"]

    def simplified(self, what: str, db: pd.DataFrame, dprime: pd.DataFrame) -> None:
        dg = digest(dprime)
        self.digests.setdefault(what, dg)
        self.op(what, subset_problems(db, dprime) + self.repeats(("digest", what), dg))

    def crashed(self, what: str, n_ops: int) -> None:
        traceback.print_exc(file=sys.stderr)
        for _ in range(n_ops):
            self.op(what, ["raised"])


@dataclass
class PassResult:
    pass_s: float = 0.0
    simplify_s: float = 0.0
    eval_s: float = 0.0
    range_f1: float = 0.0
    budget_dev_pts: int = 0
    f1: dict = field(default_factory=dict)  # "method/task" -> F1
    method_s: dict = field(default_factory=dict)  # method -> simplify seconds
    # Kept for the checks, which run after the pass is timed.
    outs: dict = field(default_factory=dict)  # method -> D′
    truth: object = None  # ground-truth range results
    queries: dict = field(default_factory=dict)  # method -> (session, recorded calls)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def score_numpy(st: dict, res: PassResult) -> None:
    """Range F1 of every D′ with the numpy engine, ground truth once."""
    db, boxes = st["db"], st["boxes"]
    t0 = time.perf_counter()
    res.truth = range_query.range_query_numpy(db, boxes)
    for m, d in res.outs.items():
        res.f1[f"{m}/range"] = mean_f1(res.truth, range_query.range_query_numpy(d, boxes))
    res.eval_s = time.perf_counter() - t0
    res.range_f1 = res.f1.get("rl4qdts/range", 0.0)


def check_simplified(name: str, st: dict, res: PassResult, chk: Checker, ratio: float) -> None:
    w = budget(st["db"], ratio)
    for m, d in res.outs.items():
        chk.simplified(f"{name}/{m}", st["db"], d)
        res.budget_dev_pts += abs(len(d) - w)


def check_numpy(name: str, st: dict, res: PassResult, chk: Checker, ratio: float) -> None:
    """One op per D′ and one for D: outputs valid, results repeat."""
    check_simplified(name, st, res, chk, ratio)
    chk.op(f"{name}/range/D", chk.repeats("range/D", res.truth))
    for m in res.outs:
        chk.op(f"{name}/{m}/range/Dprime", chk.repeats(("f1", m), res.f1[f"{m}/range"]))


# -- workloads ---------------------------------------------------------------

class DriverInsert:
    """Driver-side simplifiers on geolife, scored with numpy range F1."""

    name = "driver-insert"
    uses_spark = False
    profile, n_traj, traj_len, ratio = "geolife", 40, 500, 0.03
    methods = ("rl4qdts", "rl4qdts_wo_both", "topdown(E,sed)", "bottomup(E,sed)")
    n_boxes = 2000

    def setup(self, spark, seed: int) -> dict:
        return base_state(self, seed)

    def run_pass(self, st: dict, chk: Checker, tracer=None) -> PassResult:
        res = PassResult()
        for m in self.methods:
            try:
                res.outs[m], dt = _timed(experiments.simplify_with, st["db"], self.ratio, m,
                                         config=st["config"], policies=st["policies"],
                                         run_seed=st["seed"])
            except Exception:
                chk.crashed(f"{self.name}/{m}", 2)
                continue
            res.simplify_s += dt
            res.method_s[m] = dt
        score_numpy(st, res)
        return res

    def check(self, st: dict, res: PassResult, chk: Checker) -> None:
        check_numpy(self.name, st, res, chk, self.ratio)


class _SideTracking:
    """SparkSession stand-in handed to ``evaluate_query_tasks``: it
    remembers which pandas frame each created DataFrame came from, so
    Spark query results can be checked against the numpy references."""

    def __init__(self, spark, db: pd.DataFrame):
        self._spark, self._db = spark, db
        self.frames: dict[int, tuple[str, object, pd.DataFrame]] = {}

    def createDataFrame(self, data, *args, **kwargs):
        df = self._spark.createDataFrame(data, *args, **kwargs)
        side = "D" if data is self._db else "Dprime"
        self.frames[id(df)] = (side, df, data)  # holding df keeps its id unique
        return df

    def side_of(self, df):
        hit = self.frames.get(id(df))
        return hit[0] if hit else None

    def __getattr__(self, name):
        return getattr(self._spark, name)


class _QueryRecorder:
    """Records every Spark query call of ``evaluate_query_tasks`` (by
    patching the names ``repro.experiments`` looks up) for the checks."""

    TARGETS = {"range": "range_query_results", "knn": "knn_query",
               "similarity": "similarity_query", "clustering": "traclus_labels"}

    def __init__(self):
        self.calls: list[tuple[str, object, tuple, dict, object]] = []
        self._orig = {k: getattr(experiments, v) for k, v in self.TARGETS.items()}

    def install(self) -> None:
        for kind, attr in self.TARGETS.items():
            setattr(experiments, attr, self._recording(kind, getattr(experiments, attr)))

    def _recording(self, kind, fn):
        def call(df, *args, **kwargs):
            out = fn(df, *args, **kwargs)
            self.calls.append((kind, df, args, kwargs, out))
            return out
        return call

    def uninstall(self) -> None:
        for kind, attr in self.TARGETS.items():
            setattr(experiments, attr, self._orig[kind])


def _task(kind: str, kwargs: dict) -> str:
    return f"knn_{kwargs.get('measure', 'edr')}" if kind == "knn" else kind


def _numpy_reference(kind: str, pdf: pd.DataFrame, args: tuple, kwargs: dict):
    if kind == "range":
        return range_query.range_query_numpy(pdf, *args, **kwargs)
    if kind == "knn":
        return knn.knn_query_numpy(pdf, *args, **kwargs)
    return similarity.similarity_query_numpy(pdf, *args, **kwargs)


def _key(value):
    """Hashable, order-independent form of a query result."""
    if isinstance(value, dict):
        return tuple(sorted((k, _key(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(value))
    return tuple(value) if isinstance(value, list) else value


class SparkEval:
    """Query-accuracy evaluation on Spark for two simplifiers of one D."""

    name = "spark-eval"
    uses_spark = True
    profile, n_traj, traj_len, ratio = "chengdu", 20, 100, 0.05
    methods = ("rl4qdts", "topdown(E,sed)")
    n_boxes = 100
    n_query_trajs = 2

    def setup(self, spark, seed: int) -> dict:
        return {**base_state(self, seed), "spark": spark, "refs": {}}

    def run_pass(self, st: dict, chk: Checker, tracer=None) -> PassResult:
        db, spark = st["db"], st["spark"]
        res = PassResult()
        for m in self.methods:
            try:
                d, dt = _timed(experiments.simplify_with, db, self.ratio, m,
                               config=st["config"], policies=st["policies"], run_seed=st["seed"])
            except Exception:
                chk.crashed(f"{self.name}/{m}", 11)
                continue
            res.simplify_s += dt
            res.method_s[m] = dt
            res.outs[m] = d
            session, rec = _SideTracking(spark, db), _QueryRecorder()
            if tracer is not None:
                tracer.side_of = session.side_of
            rec.install()
            try:
                with tracer.spark_jobs(spark, "eval") if tracer else nullcontext():
                    scores, dt = _timed(experiments.evaluate_query_tasks, session, db, d,
                                        boxes=st["boxes"], n_query_trajs=self.n_query_trajs,
                                        seed=st["seed"])
            except Exception:
                chk.crashed(f"{self.name}/{m}/eval", 10)
                continue
            finally:
                rec.uninstall()
            res.eval_s += dt
            res.queries[m] = (session, rec.calls)
            res.f1.update({f"{m}/{task}": v for task, v in scores.items()})
        res.range_f1 = res.f1.get("rl4qdts/range", 0.0)
        return res

    def check(self, st: dict, res: PassResult, chk: Checker) -> None:
        check_simplified(self.name, st, res, chk, self.ratio)
        for m, (session, calls) in res.queries.items():
            self._check_queries(st, chk, m, session, calls)

    def _check_queries(self, st, chk: Checker, method: str, session, calls) -> None:
        """One op per (task, side): every Spark result of it equals the
        numpy reference on the same frame and repeats the first pass."""
        problems: dict[tuple[str, str], list[str]] = {}
        for i, (kind, df, args, kwargs, out) in enumerate(calls):
            side, _, pdf = session.frames[id(df)]
            op = (_task(kind, kwargs), side)
            probs = problems.setdefault(op, [])
            probs += chk.repeats((method, i), _key(out))
            if kind == "clustering":
                continue  # TRACLUS has no reference implementation
            call = pickle.dumps((kind, args, sorted(kwargs.items())))
            ref_key = (method if side == "Dprime" else "D", hashlib.sha1(call).digest())
            if ref_key not in st["refs"]:
                st["refs"][ref_key] = _key(_numpy_reference(kind, pdf, args, kwargs))
            if _key(out) != st["refs"][ref_key]:
                probs.append(f"Spark {kind} result differs from the numpy reference")
        for (task, side), probs in sorted(problems.items()):
            chk.op(f"{self.name}/{method}/{task}/{side}", probs)


class SparkDistributed:
    """The simplifiers run per trajectory bucket in Spark Python workers."""

    name = "spark-distributed"
    uses_spark = True
    profile, n_traj, traj_len, ratio = "osm", 60, 1005, 0.1
    methods = ("rl4qdts", "topdown(E,sed)", "bottomup(E,sed)")
    n_boxes = 2000
    n_partitions = 8

    def setup(self, spark, seed: int) -> dict:
        st = base_state(self, seed)
        st["df"] = spark.createDataFrame(st["db"]).cache()
        st["df"].count()
        return {**st, "spark": spark}

    def _simplify(self, st: dict, method: str):
        """One Spark simplify call plus the action that runs it."""
        if method == "rl4qdts":
            cube_b, point_b = st["policy_bytes"]
            out = spark_driver.simplify_database_rl_spark(
                st["df"], self.ratio, cube_policy_bytes=cube_b, point_policy_bytes=point_b,
                config=st["config"], n_partitions=self.n_partitions)
        else:
            algo, rest = method.split("(", 1)
            mode, measure = rest.rstrip(")").split(",")
            out = adaptations.simplify_database_spark(
                st["df"], self.ratio, method=algo, measure=measure, mode=mode,
                n_partitions=self.n_partitions)
        return out.toPandas()  # D′ is small

    def run_pass(self, st: dict, chk: Checker, tracer=None) -> PassResult:
        res = PassResult()
        for m in self.methods:
            layer = ("core.spark_driver.simplify" if m == "rl4qdts"
                     else "baselines.adaptations.spark_simplify")
            try:
                if tracer is None:
                    res.outs[m], dt = _timed(self._simplify, st, m)
                else:
                    with tracer.spark_jobs(st["spark"], "simplify"), tracer.span(layer):
                        res.outs[m], dt = _timed(self._simplify, st, m)
            except Exception:
                chk.crashed(f"{self.name}/{m}", 2)
                continue
            res.simplify_s += dt
            res.method_s[m] = dt
        score_numpy(st, res)
        return res

    def check(self, st: dict, res: PassResult, chk: Checker) -> None:
        check_numpy(self.name, st, res, chk, self.ratio)


WORKLOADS = {w.name: w for w in (DriverInsert(), SparkEval(), SparkDistributed())}
