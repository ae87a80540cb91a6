"""Spans and counters recorded from outside the program.

The tracer patches public functions of each layer *in the module that
looks them up* (``from x import f`` binds ``f`` into the caller's
namespace, so ``x.f`` and ``caller.f`` are both patched where both are
called). Each wrapped call becomes one span: name, phase, start, end and
parent span. Spans stay in memory and are written out by :meth:`dump`.

Names referenced from inside Spark closures (``per_bucket``, the query
kernels) are never patched: cloudpickle would ship the wrapper, and
with it this tracer, to the Python workers.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        # One list per span: [name, phase, start, end, parent index].
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self.side_of = lambda df: None  # DataFrame -> "D" | "Dprime" | None
        self.last_segments = 0  # set by extract_segments, read by traclus_labels
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._groups = 0

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.phase, name)] += n

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        i = len(spans)
        spans.append([name, self.phase, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(i)
        try:
            yield
        finally:
            stack.pop()
            spans[i][3] = time.perf_counter()

    def wrap(self, module: str, attr: str, name, hook=None) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a
        spanning wrapper. ``name`` is a span name or a function of the
        call's ``(args, kwargs)``; ``hook(tracer, result, args, kwargs)``
        records counts from the result."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        spans, stack, tracer = self.spans, self._stack, self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            i = len(spans)
            spans.append([label, tracer.phase, perf(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                result = orig(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][3] = perf()
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        setattr(owner, leaf, wrapper)
        self._patched.append((owner, leaf, orig))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, leaf, orig = self._patched.pop()
            setattr(owner, leaf, orig)

    @contextmanager
    def spark_jobs(self, spark, layer: str):
        """Count the Spark jobs, stages and completed tasks started inside
        the block, under ``spark.<layer>_{jobs,stages,tasks}``."""
        sc = spark.sparkContext
        self._groups += 1
        group = f"{layer}-{self._groups}"
        sc.setJobGroup(group, layer)
        try:
            yield
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            st = sc.statusTracker()
            for job in st.getJobIdsForGroup(group):
                self.count(f"spark.{layer}_jobs")
                info = st.getJobInfo(job)
                for sid in (info.stageIds if info else []):
                    stage = st.getStageInfo(sid)
                    if stage is not None and stage.numCompletedTasks:
                        self.count(f"spark.{layer}_stages")
                        self.count(f"spark.{layer}_tasks", stage.numCompletedTasks)

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[tuple[str, str], dict]:
        """(phase, span name) -> {calls, total_s, self_s}. Self time is a
        span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, phase, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, phase, t0, t1, _) in enumerate(self.spans):
            agg = out[(phase, name)]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span, the per-name totals and the counters."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            **extra,
            "span_fields": ["name", "phase", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], ph, round(a, 7), round(b, 7), p] for n, ph, a, b, p in self.spans],
            "totals": [{"phase": ph, "name": n, **v} for (ph, n), v in sorted(self.totals().items())],
            "counts": [{"phase": ph, "name": n, "value": v} for (ph, n), v in sorted(self.counts.items())],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# -- what is wrapped -----------------------------------------------------------

def _stop_depth(tr, node, args, kwargs):
    tr.count(f"core.rl4qdts.stop_depth.{node.depth}")


def _empty_retry(tr, row, args, kwargs):
    if row is None:
        tr.count("core.rl4qdts.empty_retries")


def _action(tr, action, args, kwargs):
    from repro.core.mdp import CUBE_ACTIONS

    agent = "cube" if args[0].n_actions == CUBE_ACTIONS else "point"
    tr.count(f"core.dqn.{agent}_action.{action}")


def _knn_name(args, kwargs):
    return f"queries.knn.{kwargs.get('measure', 'edr')}"


def _ground_truth(tr, result, args, kwargs):
    if tr.side_of(args[0]) == "D":
        tr.count("experiments.ground_truth_evals")


def _traclus(tr, labels, args, kwargs):
    from repro.queries.clustering import traclus_labels  # never patched

    _ground_truth(tr, labels, args, kwargs)
    side = tr.side_of(args[0]) or "D"
    cap = kwargs.get("max_segments", traclus_labels.__kwdefaults__["max_segments"])
    tr.count(f"queries.clustering.segments.{side}", tr.last_segments)
    tr.count(f"queries.clustering.sampled.{side}", int(tr.last_segments > cap))


def _segments(tr, segs, args, kwargs):
    tr.last_segments = len(segs)


#: (module that looks the name up, attribute, span name, result hook)
PATCHES = [
    ("repro.synth_data", "trajectory_db_pandas", "synth_data.gen", None),
    ("repro.core.octree", "Octree.__init__", "core.octree.build", None),
    ("repro.core.octree", "Octree.assign_queries", "core.octree.assign_queries", None),
    ("repro.core.octree", "Octree.nodes_at_level", "core.octree.nodes_at_level", None),
    ("repro.core.mdp", "QDTSRuntime.__init__", "core.mdp.runtime_build", None),
    ("repro.core.mdp", "QDTSRuntime.start_nodes", "core.mdp.start_nodes", None),
    ("repro.core.mdp", "QDTSRuntime.cube_state", "core.mdp.cube_state", None),
    ("repro.core.mdp", "QDTSRuntime.point_state", "core.mdp.point_state", None),
    ("repro.core.mdp", "QDTSRuntime.insert", "core.mdp.insert", None),
    ("repro.core.rl4qdts", "query_centers", "workloads.query_centers", None),
    ("repro.core.training", "query_centers", "workloads.query_centers", None),
    ("repro.core.rl4qdts", "traverse_cube", "core.rl4qdts.traverse", _stop_depth),
    ("repro.core.training", "traverse_cube", "core.rl4qdts.traverse", _stop_depth),
    ("repro.core.rl4qdts", "choose_point", "core.rl4qdts.choose", _empty_retry),
    ("repro.core.training", "choose_point", "core.rl4qdts.choose", _empty_retry),
    ("repro.core.dqn", "DQN.act", "core.dqn.act", _action),
    ("repro.core.dqn", "DQN.learn", "core.dqn.learn", None),
    ("repro.core.training", "run_episode", "core.training.episode", None),
    ("repro.core.training", "RewardTracker.__init__", "core.training.reward_tracker", None),
    ("repro.core.training", "RewardTracker.add_point", "core.training.reward_tracker", None),
    ("repro.core.training", "RewardTracker.diff", "core.training.reward_tracker", None),
    # train_rl4qdts imports rl4qdts_simplify at call time, for validation only.
    ("repro.core.rl4qdts", "rl4qdts_simplify", "core.training.validation", None),
    ("repro.core.training", "_range_results", "core.training.validation", None),
    ("repro.baselines.adaptations", "topdown_select", "baselines.topdown.select", None),
    ("repro.baselines.adaptations", "bottomup_select", "baselines.bottomup.select", None),
    ("repro.baselines.topdown", "point_errors", "core.errors.point_errors", None),
    ("repro.baselines.bottomup", "point_errors", "core.errors.point_errors", None),
    ("repro.experiments", "simplify_with", "experiments.simplify_with", None),
    ("repro.experiments", "evaluate_query_tasks", "experiments.evaluate_query_tasks", None),
    ("repro.experiments", "range_query_results", "queries.range_query", _ground_truth),
    ("repro.queries.range_query", "range_query_numpy", "queries.range_query", None),
    ("repro.experiments", "knn_query", _knn_name, _ground_truth),
    ("repro.experiments", "similarity_query", "queries.similarity", _ground_truth),
    ("repro.experiments", "traclus_labels", "queries.clustering", _traclus),
    ("repro.queries.clustering", "extract_segments", "queries.clustering.extract_segments", _segments),
    ("repro.queries.clustering", "segment_distance_matrix", "queries.clustering.distance_matrix", None),
    ("repro.queries.clustering", "dbscan", "queries.clustering.dbscan", None),
    ("workloads", "_SideTracking.createDataFrame", "spark.create_df", None),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, hook in PATCHES:
        tracer.wrap(module, attr, name, hook)
