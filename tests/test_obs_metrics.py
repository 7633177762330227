"""The unified counters registry and its subsystem integrations."""

import pytest

from repro.obs import METRICS, MetricsRegistry, snapshot
from repro.engine import PoolExecutor
from repro.perf import get_estimate_cache

from tests.conftest import random_hybrid

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def fresh_metrics(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    METRICS.reset()
    get_estimate_cache().clear()
    yield
    METRICS.reset()


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------

def test_registry_inc_get_reset():
    reg = MetricsRegistry()
    assert reg.get("a") == 0
    reg.inc("a")
    reg.inc("a", 4)
    reg.inc("b", 2.5)
    assert reg.get("a") == 5
    assert reg.counters() == {"a": 5, "b": 2.5}
    reg.reset()
    assert reg.counters() == {}


def test_snapshot_merges_estimate_cache_counters(small_matrix):
    from repro.kernels import make_spmm

    kern = make_spmm("hp-spmm")
    kern.estimate(small_matrix, 64)
    kern.estimate(small_matrix, 64)
    snap = snapshot()
    assert snap["estimate_cache.misses"] == 1
    assert snap["estimate_cache.hits"] == 1
    assert snap["estimate_cache.entries"] == 1
    assert snap["trace.spans"] == 0  # tracing off


# ----------------------------------------------------------------------
# Subsystem integrations
# ----------------------------------------------------------------------

def test_pool_executor_counts_shard_runs_and_fallbacks():
    # One worker is the inline loop: no fan-out to count.
    assert PoolExecutor(jobs=1).map(abs, [1, -2, 3]) == [1, 2, 3]
    assert METRICS.get("engine.shard_runs") == 0
    assert METRICS.get("engine.shard_fallbacks") == 0
    # A lambda cannot cross the process boundary: counted as a fallback.
    PoolExecutor(jobs=2).map(lambda x: x, [1, 2])
    assert METRICS.get("engine.shard_fallbacks") == 1
    assert METRICS.get("engine.shard_runs") == 0
    PoolExecutor(jobs=2).map(abs, [1, -2])
    assert METRICS.get("engine.shard_runs") == 1
    assert METRICS.get("engine.shard_items") == 2


def test_sweep_counts_plan_checks():
    from repro.bench.runner import sweep_spmm

    graphs = [("g", random_hybrid(200, 200, 1500, seed=31))]
    sweep_spmm(graphs, ("hp-spmm", "ge-spmm"), k=32)
    assert METRICS.get("plan_check.checked") == 2
    assert METRICS.get("bench.sweeps") == 1


def test_timing_context_counts_ops(small_matrix):
    from repro.gnn.timing import TimingContext

    ctx = TimingContext()
    ctx.record_spmm(small_matrix, 32)
    ctx.record_spmm(small_matrix, 32)
    ctx.record_gemm(64, 64, 64)
    assert METRICS.get("gnn.spmm_ops") == 2
    assert METRICS.get("gnn.gemm_ops") == 1


def test_trace_replay_and_profile_report_counted(paper_fig2_matrix):
    from repro.gpusim import TESLA_V100
    from repro.gpusim.profile import profile_report
    from repro.gpusim.trace import trace_hp_spmm
    from repro.kernels import make_spmm

    trace_hp_spmm(paper_fig2_matrix, 32, nnz_per_warp=4)
    assert METRICS.get("gpusim.trace_replays") == 1
    res = make_spmm("hp-spmm").estimate(paper_fig2_matrix, 32)
    profile_report(res.stats, TESLA_V100, kernel_name="hp-spmm")
    assert METRICS.get("gpusim.profile_reports") == 1


# ----------------------------------------------------------------------
# record_max and latency histograms
# ----------------------------------------------------------------------

def test_record_max_keeps_the_high_water_mark():
    reg = MetricsRegistry()
    reg.record_max("depth", 3)
    reg.record_max("depth", 1)
    assert reg.get("depth") == 3
    reg.record_max("depth", 7)
    assert reg.get("depth") == 7


def test_histogram_rejects_bad_bounds():
    from repro.obs import LatencyHistogram

    with pytest.raises(ValueError):
        LatencyHistogram("h", bounds_s=())
    with pytest.raises(ValueError):
        LatencyHistogram("h", bounds_s=(1e-3, 1e-4))  # not ascending
    with pytest.raises(ValueError):
        LatencyHistogram("h", bounds_s=(0.0, 1e-3))  # non-positive


def test_histogram_bucket_math():
    from repro.obs import LatencyHistogram

    h = LatencyHistogram("h", bounds_s=(1e-3, 1e-2, 1e-1))
    for s in (5e-4, 1e-3):        # both land in the first bucket (<=)
        h.observe(s)
    h.observe(5e-2)               # third bucket
    h.observe(2.0)                # overflow
    h.observe(-1.0)               # clamps to 0 -> first bucket
    assert h.count == 5
    assert h._counts == [3, 0, 1, 1]
    assert h.max_s == 2.0
    assert h.sum_s == pytest.approx(5e-4 + 1e-3 + 5e-2 + 2.0)


def test_histogram_percentiles_empty_and_single_sample():
    from repro.obs import LatencyHistogram

    h = LatencyHistogram("h")
    assert h.percentile(50) == 0.0            # empty -> 0
    assert h.summary()["count"] == 0
    h.observe(3.3e-3)
    # A single sample answers exactly (bucket bound clamps to the max).
    for p in (0, 50, 99, 100):
        assert h.percentile(p) == pytest.approx(3.3e-3)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_percentile_ranks_and_overflow():
    from repro.obs import LatencyHistogram

    h = LatencyHistogram("h", bounds_s=(1e-3, 1e-2, 1e-1))
    for _ in range(90):
        h.observe(5e-4)           # first bucket
    for _ in range(10):
        h.observe(42.0)           # overflow bucket
    assert h.percentile(50) == 1e-3   # bucket upper bound
    assert h.percentile(90) == 1e-3
    assert h.percentile(95) == 42.0   # overflow reports the observed max
    assert h.percentile(99) == 42.0
    assert h.summary()["p95"] == 42.0


def test_histogram_registry_and_snapshot_keys():
    from repro.obs import (
        get_histogram,
        histogram_summaries,
        observe_latency,
        reset_histograms,
    )

    reset_histograms()
    try:
        assert histogram_summaries() == {}
        empty = get_histogram("serve.request_latency")
        # Present but unobserved histograms stay out of snapshots, so
        # non-serving manifests remain byte-stable.
        assert "serve.request_latency.count" not in snapshot()
        observe_latency("serve.request_latency", 2e-3)
        observe_latency("serve.request_latency", 4e-3)
        assert get_histogram("serve.request_latency") is empty
        snap = snapshot()
        assert snap["serve.request_latency.count"] == 2
        assert snap["serve.request_latency.p50"] > 0
        assert snap["serve.request_latency.p99"] > 0
        summaries = histogram_summaries()
        assert set(summaries) == {"serve.request_latency"}
        assert summaries["serve.request_latency"]["count"] == 2
    finally:
        reset_histograms()
