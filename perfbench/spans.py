"""In-memory span tracer that wraps the library's layer functions from outside.

Nothing in ``src/`` changes: :func:`install` replaces each wrapped
function at every place it is looked up (module globals that hold it,
including names bound by ``from ... import``) and patches methods on
their classes.  Each call records one span ``[name, start, end, parent,
request]`` in a per-thread list; a span's parent is the innermost open
span on the same thread, and every span under one root shares the
root's request id.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is its spans' durations minus the time their direct
children cover; :func:`layer_metrics` turns the spans of the timed
phase into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Span name -> per-layer time metric its self time is charged to.
SPAN_METRIC = {
    "graphs.generate": "graphs.generate_s",
    "graphs.load": "graphs.load_s",
    "graphs.sample": "graphs.sample_s",
    "kernels.estimate": "kernels.miss_s",
    "tuning.partition": "tuning.partition_s",
    "gpusim.hit_rate": "gpusim.hit_rate_s",
    "gpusim.launch": "gpusim.launch_s",
    "analysis.check": "analysis.check_s",
    "analysis.plan": "analysis.check_s",
    "perf.lookup": "perf.lookup_s",
    "perf.cache_get": "perf.lookup_s",
    "perf.fingerprint": "perf.fingerprint_s",
    "engine.batch": "engine.batch_self_s",
    "engine.shard_map": "engine.shard_map_s",
    "store.publish": "store.publish_s",
    "serve.collect": "serve.collect_s",
    "serve.batch": "serve.batch_self_s",
    "serve.quick": "serve.quick_s",
    "gnn.forward": "gnn.forward_s",
    "gnn.backward": "gnn.backward_s",
    "gnn.optim": "gnn.optim_s",
    "gnn.timing": "gnn.timing_s",
    "world.features": "world.features_s",
    "world.aggregate": "world.aggregate_s",
    "reorder.gcr": "reorder.gcr_s",
}

#: Every per-layer metric, with its unit, in ``BENCHMARK.json`` order.
PER_LAYER = (
    ("graphs.generate_s", "s"), ("graphs.generated", "count"),
    ("graphs.edges_generated", "count"), ("graphs.load_s", "s"),
    ("graphs.sample_s", "s"), ("graphs.sampled", "count"),
    ("graphs.sample_node_share", "ratio"),
    ("kernels.miss_s", "s"), ("tuning.partition_s", "s"),
    ("gpusim.hit_rate_s", "s"), ("gpusim.launch_s", "s"),
    ("gpusim.sim_us_sum", "us"),
    ("analysis.check_s", "s"), ("analysis.plans_checked", "count"),
    ("perf.lookup_s", "s"), ("perf.hits", "count"), ("perf.misses", "count"),
    ("perf.working_set", "count"), ("perf.fingerprint_s", "s"),
    ("engine.batch_self_s", "s"), ("engine.batches", "count"),
    ("engine.requests", "count"), ("engine.shard_map_s", "s"),
    ("engine.shard_items", "count"),
    ("store.publish_s", "s"), ("store.publishes", "count"),
    ("store.bytes_shared", "bytes"), ("store.attaches", "count"),
    ("store.fallbacks", "count"),
    ("serve.collect_s", "s"), ("serve.batch_self_s", "s"),
    ("serve.quick_s", "s"),
    ("serve.queue_wait_p50_ms", "ms"), ("serve.queue_wait_p99_ms", "ms"),
    ("serve.batches", "count"), ("serve.batch_size_mean", "count"),
    ("serve.coalesced", "count"), ("serve.deduped", "count"),
    ("serve.degraded", "count"), ("serve.timeouts", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("gnn.forward_s", "s"), ("gnn.backward_s", "s"), ("gnn.optim_s", "s"),
    ("gnn.timing_s", "s"), ("gnn.spmm_ops", "count"),
    ("world.features_s", "s"), ("world.aggregate_s", "s"),
    ("reorder.gcr_s", "s"),
    ("trace.timed_s", "s"), ("trace.other_s", "s"),
    ("trace.other_share", "ratio"), ("trace.spans", "count"),
    ("trace.estimates_per_s", "1/s"), ("trace.steps_per_s", "1/s"),
    ("trace.latency_p50_ms", "ms"),
)

#: Charged over the traced set-up repetition as well as the timed phase:
#: the registry and the generators do their work in set-up for every
#: workload except world-sweep.
SETUP_SCOPED = ("graphs.generate", "graphs.load")


class Tracer:
    """Per-thread span lists plus the hooks that fill them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, tuple[str, list]] = {}
        self._next_request = 0
        #: ``(time, kind, value...)`` facts recorded at layer boundaries.
        self.events: list[tuple] = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            spans: list = []
            st = self._local.st = ([], spans)
            with self._lock:
                self._threads[threading.get_ident()] = (
                    threading.current_thread().name, spans,
                )
        return st

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` wrapped to record a ``name`` span around each call.

        ``on_result(args, result)`` runs after calls that are not nested
        inside another ``name`` span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._state()
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent = -1
                with tracer._lock:
                    request = tracer._next_request
                    tracer._next_request += 1
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, parent, request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if on_result is not None and not (parent >= 0 and spans[parent][0] == name):
                on_result(args, result)
            return result

        return traced

    def note(self, kind: str, *values) -> None:
        self.events.append((time.perf_counter(), kind) + values)

    def threads(self):
        """``(thread name, span list)`` pairs."""
        with self._lock:
            return list(self._threads.values())

    def dump(self, path: str) -> None:
        """Write every thread's spans as one JSON object per line."""
        with open(path, "w") as f:
            for tname, spans in self.threads():
                json.dump({"thread": tname, "spans": spans}, f)
                f.write("\n")


def self_times(tracer: Tracer, t0: float, t1: float, thread: str | None = None):
    """Self seconds and call counts per span name, for spans starting in
    ``[t0, t1)`` (on ``thread`` only, when given)."""
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for tname, spans in tracer.threads():
        if thread is not None and tname != thread:
            continue
        cover = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                cover[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            if t0 <= s[1] < t1:
                seconds[s[0]] = seconds.get(s[0], 0.0) + (s[2] - s[1]) - cover[i]
                calls[s[0]] = calls.get(s[0], 0) + 1
    return seconds, calls


def layer_metrics(tracer: Tracer, setup_t0: float, out, primary_thread: str,
                  deltas: dict) -> dict:
    """Per-layer metric values for one traced run.

    ``deltas`` carries counters the runner read before and after the
    timed phase; ``out`` is the workload's :class:`Outcome`.
    """
    timed, calls = self_times(tracer, out.t0, out.t1)
    with_setup, _ = self_times(tracer, setup_t0, out.t1)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SPAN_METRIC.items():
        values[metric] += (with_setup if span in SETUP_SCOPED else timed).get(span, 0.0)

    def events(kind, lo):
        return [e for e in tracer.events if e[1] == kind and lo <= e[0] < out.t1]

    generated = events("generated", setup_t0)
    values["graphs.generated"] = len(generated)
    values["graphs.edges_generated"] = sum(e[2] for e in generated)
    sampled = events("sampled", out.t0)
    values["graphs.sampled"] = len(sampled)
    if sampled:
        values["graphs.sample_node_share"] = sum(e[2] / e[3] for e in sampled) / len(sampled)
    values["analysis.plans_checked"] = calls.get("analysis.check", 0)
    values["perf.working_set"] = len({e[2] for e in events("lookup", out.t0)})
    values["gpusim.sim_us_sum"] = out.sim_us_sum
    values.update(deltas)
    values.update({k: v for k, v in out.counters.items() if k in values})

    primary, _ = self_times(tracer, out.t0, out.t1, primary_thread)
    elapsed = out.elapsed_s
    other = elapsed - sum(primary.values())
    values["trace.timed_s"] = elapsed
    values["trace.other_s"] = other
    values["trace.other_share"] = other / elapsed
    values["trace.spans"] = sum(len(s) for _, s in tracer.threads())
    return values


def _replace_everywhere(old, new) -> int:
    """Rebind every module global that holds ``old`` to ``new``."""
    hits = 0
    for mod in list(sys.modules.values()):
        d = getattr(mod, "__dict__", None)
        if not d:
            continue
        for key, val in list(d.items()):
            if val is old:
                setattr(mod, key, new)
                hits += 1
    return hits


def _patch_function(tracer: Tracer, fn, name: str, on_result=None) -> None:
    if _replace_everywhere(fn, tracer.wrap(fn, name, on_result)) == 0:
        raise RuntimeError(f"no call site found for {fn.__qualname__}")


def _patch_method(tracer: Tracer, cls, attr: str, name: str, on_result=None) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, on_result))


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    import repro.graphs.generators as gen
    import repro.graphs.registry as registry
    import repro.graphs.samplers as samplers
    import repro.world.sweep as world_sweep
    from repro import tuning
    from repro.analysis import check_plan, plan_for_kernel
    from repro.engine import Engine, ShardedExecutor
    from repro.gnn import GCN, Adam, TimingContext
    from repro.gnn.autograd import Tensor
    from repro.gpusim import FootprintCacheModel, simulate_launch
    from repro.kernels.api import SDDMMKernel, SpMMKernel
    from repro.perf import EstimateCache, cached_estimate, matrix_fingerprint
    from repro.reorder import GCRReorderer
    from repro.serve import EstimationServer
    from repro.serve.estimator import quick_estimate
    from repro.store import SharedGraphStore
    from repro.world import build_report

    for fname in ("generate_graph", "chung_lu_graph", "community_graph",
                  "lognormal_degree_graph", "rmat_graph"):
        _patch_function(
            tracer, getattr(gen, fname), "graphs.generate",
            lambda args, S: tracer.note("generated", int(S.nnz)),
        )
    _patch_function(tracer, registry.load_graph, "graphs.load")
    for fname in ("saint_node_sampler", "saint_edge_sampler",
                  "saint_walk_sampler", "sage_neighbor_sampler"):
        _patch_function(
            tracer, getattr(samplers, fname), "graphs.sample",
            lambda args, sub: tracer.note(
                "sampled", sub.num_nodes, int(args[0].shape[0])
            ),
        )

    for base in (SpMMKernel, SDDMMKernel):
        for cls in _subclasses(base):
            if "_estimate" in cls.__dict__:
                _patch_method(tracer, cls, "_estimate", "kernels.estimate")
    for fname in tuning.__all__:
        fn = getattr(tuning, fname)
        if callable(fn) and not isinstance(fn, type):
            _patch_function(tracer, fn, "tuning.partition")
    _patch_method(tracer, FootprintCacheModel, "hit_rate", "gpusim.hit_rate")
    _patch_function(tracer, simulate_launch, "gpusim.launch")
    _patch_function(tracer, check_plan, "analysis.check")
    _patch_function(tracer, plan_for_kernel, "analysis.plan")
    _patch_function(tracer, cached_estimate, "perf.lookup")
    _patch_function(tracer, matrix_fingerprint, "perf.fingerprint")
    _patch_method(
        tracer, EstimateCache, "get", "perf.cache_get",
        lambda args, entry: tracer.note("lookup", args[1]),
    )
    _patch_method(tracer, Engine, "estimate_batch", "engine.batch")
    _patch_method(tracer, ShardedExecutor, "map", "engine.shard_map")
    _patch_method(tracer, SharedGraphStore, "publish", "store.publish")
    # The serving layer has no public per-batch entry point: its batching
    # worker's two loop stages are the only place its time is visible.
    _patch_method(tracer, EstimationServer, "_collect_batch", "serve.collect")
    _patch_method(tracer, EstimationServer, "_process_batch", "serve.batch")
    _patch_function(tracer, quick_estimate, "serve.quick")
    _patch_method(tracer, GCN, "loss", "gnn.forward")
    _patch_method(tracer, GCN, "__call__", "gnn.forward")
    _patch_method(tracer, Tensor, "backward", "gnn.backward")
    _patch_method(tracer, Adam, "step", "gnn.optim")
    _patch_method(tracer, Adam, "zero_grad", "gnn.optim")
    for attr in ("spmm_time", "sddmm_time", "record_spmm", "record_sddmm",
                 "record_gemm", "record_elementwise"):
        _patch_method(tracer, TimingContext, attr, "gnn.timing")
    # Serving and selection share the feature extractor; only the world
    # sweep's calls are charged to the world layer.
    world_sweep.structural_features = tracer.wrap(
        world_sweep.structural_features, "world.features"
    )
    _patch_function(tracer, build_report, "world.aggregate")
    _patch_method(tracer, GCRReorderer, "apply", "reorder.gcr")
