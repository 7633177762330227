"""The estimation server: protocol, batching, triage and fallback."""

import os
import signal
import threading
import time

import pytest

from repro.gpusim import get_device
from repro.graphs import load_graph
from repro.kernels import make_spmm
from repro.obs import METRICS, get_histogram, reset_histograms
from repro.perf import get_estimate_cache
from repro.serve import (
    STATUS_DEGRADED,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    EstimateRequest,
    EstimateResponse,
    EstimationServer,
    quick_estimate,
)

pytestmark = pytest.mark.serve

#: Small enough that aifb/corafull generate in well under a second and
#: every full-path estimate is milliseconds.
MAX_EDGES = 20_000

#: Caller-side wait ceiling so a wedged worker fails the test instead of
#: hanging the suite.
WAIT_S = 60.0


@pytest.fixture(autouse=True)
def fresh_serving_state(monkeypatch):
    from repro.engine import cost_priors

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    METRICS.reset()
    reset_histograms()
    get_estimate_cache().clear()
    cost_priors().reset()
    yield
    METRICS.reset()
    reset_histograms()
    cost_priors().reset()


def req(**kw):
    base = dict(
        op="spmm", kernel="hp-spmm", graph="aifb", k=32,
        device="v100", max_edges=MAX_EDGES,
    )
    base.update(kw)
    return EstimateRequest(**base)


# ----------------------------------------------------------------------
# Protocol records
# ----------------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError):
        req(op="gemm")
    with pytest.raises(ValueError):
        req(k=0)
    with pytest.raises(ValueError):
        req(deadline_s=-1.0)


def test_batch_key_groups_structure_signature_identifies_estimate():
    a, b = req(k=32), req(k=64)
    assert a.batch_key == b.batch_key  # same graph -> same micro-batch
    assert a.signature != b.signature  # different K -> distinct estimate
    assert req().signature == req().signature


def test_response_properties():
    ok = EstimateResponse(
        request=req(), status=STATUS_OK, time_s=1e-3, preprocessing_s=2e-3
    )
    assert ok.answered and not ok.degraded
    assert ok.total_time_s == pytest.approx(3e-3)
    timeout = EstimateResponse(request=req(), status=STATUS_TIMEOUT)
    assert not timeout.answered
    assert timeout.total_time_s is None


# ----------------------------------------------------------------------
# Full path
# ----------------------------------------------------------------------

def test_full_path_matches_direct_estimate():
    with EstimationServer() as server:
        resp = server.estimate(req(), timeout=WAIT_S)
    assert resp.status == STATUS_OK
    S = load_graph("aifb", max_edges=MAX_EDGES).matrix
    direct = make_spmm("hp-spmm").estimate(S, 32, device=get_device("v100"))
    assert resp.time_s == direct.stats.time_s
    assert resp.bound == direct.stats.bound
    assert resp.latency_s > 0


def test_replay_submissions_coalesce_into_one_batch():
    server = EstimationServer(max_batch=16)
    tickets = server.submit_many(
        [req(kernel=kern, k=k) for kern in ("hp-spmm", "ge-spmm")
         for k in (32, 64) for _ in range(2)]
    )
    server.start()
    responses = [t.result(WAIT_S) for t in tickets]
    server.stop()
    assert all(r.status == STATUS_OK for r in responses)
    assert len({r.batch_id for r in responses}) == 1
    assert all(r.batch_size == 8 for r in responses)
    stats = server.stats()
    assert stats["coalesced"] == 7    # one group of 8 shares one matrix
    assert stats["deduped"] == 4      # 4 unique signatures, each twice
    assert stats["batch_size_max"] == 8
    assert METRICS.get("serve.coalesced") == 7


def test_distinct_graphs_split_into_groups_within_a_batch():
    server = EstimationServer(max_batch=16)
    tickets = server.submit_many(
        [req(graph="aifb"), req(graph="corafull"), req(graph="aifb")]
    )
    server.start()
    responses = [t.result(WAIT_S) for t in tickets]
    server.stop()
    assert [r.status for r in responses] == [STATUS_OK] * 3
    # One batch, two structural groups: only the repeated graph coalesces.
    assert len({r.batch_id for r in responses}) == 1
    assert server.stats()["coalesced"] == 1


# ----------------------------------------------------------------------
# Deadline triage and degradation
# ----------------------------------------------------------------------

def test_forced_deadline_degrades_to_quick_model():
    with EstimationServer() as server:
        resp = server.estimate(req(deadline_s=0.0), timeout=WAIT_S)
    assert resp.status == STATUS_DEGRADED
    assert resp.answered and resp.degraded
    S = load_graph("aifb", max_edges=MAX_EDGES).matrix
    time_s, bound = quick_estimate("spmm", S, 32, get_device("v100"))
    assert resp.time_s == pytest.approx(time_s)
    assert resp.bound == bound
    assert METRICS.get("serve.degraded") == 1
    assert METRICS.get("serve.quick_estimates") == 1


def test_forced_deadline_without_degradation_times_out():
    with EstimationServer() as server:
        resp = server.estimate(
            req(deadline_s=0.0, allow_degraded=False), timeout=WAIT_S
        )
    assert resp.status == STATUS_TIMEOUT
    assert not resp.answered
    assert resp.time_s is None
    assert "deadline budget" in resp.error
    assert METRICS.get("serve.timeouts") == 1


def test_generous_deadline_stays_on_full_path():
    with EstimationServer() as server:
        resp = server.estimate(req(deadline_s=600.0), timeout=WAIT_S)
    assert resp.status == STATUS_OK


def test_triage_uses_per_graph_cost_prior_over_ewma():
    """A graph whose prior says 'expensive' degrades even under a
    deadline the cold-start EWMA would accept."""
    from repro.engine import cost_priors

    cost_priors().observe("aifb", 10.0, count=4)  # 10 s/request history
    with EstimationServer(initial_full_cost_s=1e-6) as server:
        resp = server.estimate(req(deadline_s=5.0), timeout=WAIT_S)
    assert resp.status == STATUS_DEGRADED


def test_triage_falls_back_to_ewma_without_prior_history():
    """No prior for the graph: the seeded EWMA is the cold-start cost."""
    from repro.engine import cost_priors

    assert cost_priors().predict("aifb") is None
    with EstimationServer(initial_full_cost_s=100.0) as server:
        resp = server.estimate(req(deadline_s=5.0), timeout=WAIT_S)
    assert resp.status == STATUS_DEGRADED  # EWMA (100 s) vetoes the deadline
    # One deadline-free request runs the full path and records a real
    # (tiny) prior for this graph...
    with EstimationServer(initial_full_cost_s=100.0) as server:
        assert server.estimate(req(), timeout=WAIT_S).status == STATUS_OK
    assert cost_priors().predict("aifb") is not None
    # ...so the same deadline now passes triage despite the huge EWMA.
    with EstimationServer(initial_full_cost_s=100.0) as server:
        resp = server.estimate(req(deadline_s=5.0), timeout=WAIT_S)
    assert resp.status == STATUS_OK


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------

def test_unknown_graph_fails_only_its_group():
    server = EstimationServer(max_batch=4)
    bad = EstimateRequest(
        op="spmm", kernel="hp-spmm", graph="no-such-graph",
        max_edges=MAX_EDGES,
    )
    tickets = server.submit_many([req(), bad])
    server.start()
    good_resp, bad_resp = (t.result(WAIT_S) for t in tickets)
    server.stop()
    assert good_resp.status == STATUS_OK
    assert bad_resp.status == STATUS_ERROR
    assert "no-such-graph" in bad_resp.error
    assert METRICS.get("serve.errors") == 1


def test_unknown_kernel_fails_only_its_signature():
    server = EstimationServer(max_batch=4)
    tickets = server.submit_many([req(), req(kernel="no-such-kernel")])
    server.start()
    good_resp, bad_resp = (t.result(WAIT_S) for t in tickets)
    server.stop()
    assert good_resp.status == STATUS_OK
    assert bad_resp.status == STATUS_ERROR
    assert "KeyError" in bad_resp.error


def test_submit_after_stop_raises():
    server = EstimationServer()
    server.start()
    server.stop()
    with pytest.raises(RuntimeError):
        server.submit(req())


def test_stop_without_drain_answers_queued_requests():
    """Dropped pendings resolve as errors, never hang their callers.

    Regression for the nested-lock finding: ``stop(drain=False)`` used
    to resolve dropped requests while still holding ``_cond``, taking
    ``_stats_lock`` (and firing tracer hooks) inside it.  The answers
    must still arrive — now after ``_cond`` is released.
    """
    server = EstimationServer()
    tickets = [server.submit(req(k=k)) for k in (32, 64)]
    server.stop(drain=False)
    for t in tickets:
        resp = t.result(WAIT_S)
        assert resp.status == STATUS_ERROR
        assert "stopped before processing" in resp.error


# ----------------------------------------------------------------------
# Worker crash containment and lifecycle churn
# ----------------------------------------------------------------------

def _crash_batches(server, exc=None):
    """Make the next ``_process_batch`` blow up outside any inner try."""
    def boom(batch):
        raise exc if exc is not None else RuntimeError("injected fault")
    server._process_batch = boom


def test_worker_crash_resolves_all_pendings_instead_of_hanging():
    """Regression: an exception escaping ``_process_batch`` killed the
    daemon worker silently and every ``result()`` blocked forever."""
    server = EstimationServer(max_batch=2)
    tickets = server.submit_many([req(k=k) for k in (32, 64, 128, 256)])
    _crash_batches(server)
    server.start()
    for t in tickets:
        resp = t.result(WAIT_S)  # used to hang here
        assert resp.status == STATUS_ERROR
        assert "serve worker crashed" in resp.error
        assert "injected fault" in resp.error
    assert METRICS.get("serve.worker_crashes") == 1
    assert server.stats()["worker_crashes"] == 1
    # The crashed server refuses new work rather than accepting requests
    # nobody will ever answer.
    with pytest.raises(RuntimeError):
        server.submit(req())
    server.stop()


def test_worker_crash_recovery_via_restart():
    """After a crash, ``start()`` brings up a fresh worker that serves."""
    server = EstimationServer()
    _crash_batches(server)
    t = server.submit(req())
    server.start()
    assert t.result(WAIT_S).status == STATUS_ERROR
    del server._process_batch  # restore the class implementation
    server.start()
    assert server.estimate(req(), timeout=WAIT_S).status == STATUS_OK
    server.stop()
    assert METRICS.get("serve.worker_crashes") == 1


def test_base_exception_in_worker_still_resolves_pendings():
    server = EstimationServer()
    _crash_batches(server, exc=KeyboardInterrupt())
    t = server.submit(req())
    server.start()
    resp = t.result(WAIT_S)
    assert resp.status == STATUS_ERROR
    assert "KeyboardInterrupt" in resp.error
    server.stop()


def _kill_own_process(unit):
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_shard_resolves_in_flight_batch_as_error(monkeypatch):
    """A shard worker killed mid-batch answers ``error`` in bounded time
    (it used to hang every pending request), and the server restarts
    inline instead of forking from its threaded process again."""
    from repro.engine import ShardedExecutor
    from repro.engine import core as engine_core

    executor = ShardedExecutor(workers=2)
    executor.start()
    procs = list(executor._procs)
    server = EstimationServer(executor=executor)
    execute_unit = engine_core._execute_unit
    try:
        monkeypatch.setattr(engine_core, "_execute_unit", _kill_own_process)
        server.start()
        t0 = time.monotonic()
        resp = server.submit(req()).result(WAIT_S)
        elapsed = time.monotonic() - t0
        monkeypatch.setattr(engine_core, "_execute_unit", execute_unit)
        assert resp.status == STATUS_ERROR
        assert "serve worker crashed: ShardWorkerDied" in resp.error
        assert elapsed < 10
        assert server.stats()["worker_crashes"] == 1
        assert not any(p.is_alive() for p in procs)
        server.start()
        assert server.estimate(req(), timeout=WAIT_S).status == STATUS_OK
        assert not executor.started
        assert METRICS.get("engine.shard_fallbacks") == 1
    finally:
        server.stop()
        executor.stop()


def test_start_stop_submit_interleaving_never_wedges():
    """Regression for the unlocked ``_stopping`` write in ``start()``:
    concurrent start/stop/submit cycles must neither deadlock nor leak
    an unanswered ticket."""
    server = EstimationServer(batch_window_s=0.0)
    tickets = []
    tickets_lock = threading.Lock()
    errors = []

    def churn(i):
        try:
            for _ in range(10):
                server.start()
                try:
                    t = server.submit(req(k=32 + i))
                    with tickets_lock:
                        tickets.append(t)
                except RuntimeError:
                    pass  # raced a concurrent stop(); acceptable
                server.stop()
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=churn, args=(i,)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT_S)
        assert not t.is_alive(), "lifecycle churn deadlocked"
    assert errors == []
    server.stop()
    # Every accepted ticket got an answer — drained, dropped, or served.
    for t in tickets:
        assert t.result(WAIT_S).status in (STATUS_OK, STATUS_ERROR)


def test_concurrent_submit_during_stop_drains_or_rejects():
    """A submitter racing ``stop(drain=True)`` either gets served or a
    clean RuntimeError — never a hung ticket."""
    server = EstimationServer()
    server.start()
    accepted = []
    rejected = []

    def submitter():
        for k in (32, 64, 128, 256, 512):
            try:
                accepted.append(server.submit(req(k=k)))
            except RuntimeError:
                rejected.append(k)

    thread = threading.Thread(target=submitter)
    thread.start()
    server.stop()
    thread.join(WAIT_S)
    assert not thread.is_alive()
    assert len(accepted) + len(rejected) == 5
    for t in accepted:
        assert t.result(WAIT_S).status == STATUS_OK  # drain answered it


def test_pending_on_done_fires_once_per_resolution():
    fired = []
    with EstimationServer() as server:
        t = server.submit(req())
        t.on_done(lambda p: fired.append(p.response.status))
        assert t.result(WAIT_S).status == STATUS_OK
    assert fired == [STATUS_OK]
    # Registering after resolution fires immediately, exactly once.
    t.on_done(lambda p: fired.append("late"))
    assert fired == [STATUS_OK, "late"]


# ----------------------------------------------------------------------
# Observability wiring
# ----------------------------------------------------------------------

def test_latencies_land_in_the_serving_histograms():
    with EstimationServer() as server:
        server.estimate(req(), timeout=WAIT_S)
        server.estimate(req(deadline_s=0.0), timeout=WAIT_S)
    assert get_histogram("serve.request_latency").count == 2
    assert get_histogram("serve.queue_wait").count == 2
    assert get_histogram("serve.request_latency").percentile(99) > 0
    assert METRICS.get("serve.requests") == 2
    assert METRICS.get("serve.completed") == 2
    assert METRICS.get("serve.batches") == 2


# ----------------------------------------------------------------------
# Quick model sanity
# ----------------------------------------------------------------------

def test_quick_estimate_is_monotone_in_k_and_bounded_below():
    S = load_graph("aifb", max_edges=MAX_EDGES).matrix
    device = get_device("v100")
    t32, bound32 = quick_estimate("spmm", S, 32, device)
    t256, _ = quick_estimate("spmm", S, 256, device)
    assert bound32 in ("dram", "fma")
    assert t256 > t32 > device.kernel_launch_overhead_s
    t_sddmm, _ = quick_estimate("sddmm", S, 32, device)
    assert t_sddmm > device.kernel_launch_overhead_s
