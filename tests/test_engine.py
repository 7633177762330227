"""The unified estimation pipeline (repro.engine)."""

import pytest

from repro.engine import (
    VALID_BOUNDS,
    VALID_OPS,
    CostPriorBook,
    Engine,
    EngineConfig,
    EstimateRequest,
    InlineExecutor,
    PlanCheckError,
    PoolExecutor,
    ShardedExecutor,
    check_bound,
    cost_priors,
    kernel_factory,
    make_kernel,
    plan_checking_enabled,
    valid_kernels,
)
from repro.gpusim import TESLA_V100
from repro.kernels import make_spmm

from tests.conftest import random_hybrid


@pytest.fixture(autouse=True)
def fresh_engine_state(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_NO_PLAN_CHECK", raising=False)
    cost_priors().reset()
    yield
    cost_priors().reset()


def S():
    return random_hybrid(200, 200, 1500, seed=41)


def req(**kw):
    base = dict(op="spmm", kernel="hp-spmm", graph="g", k=32,
                device=TESLA_V100)
    base.update(kw)
    return EstimateRequest(**base)


# ----------------------------------------------------------------------
# Registry (deduplicated op -> factory maps)
# ----------------------------------------------------------------------

def test_kernel_factory_unknown_op_lists_valid_ops():
    with pytest.raises(KeyError, match="spmm.*sddmm"):
        kernel_factory("gemm")


def test_make_kernel_unknown_name_lists_registered_kernels():
    with pytest.raises(KeyError, match="hp-spmm"):
        make_kernel("spmm", "no-such-kernel")
    with pytest.raises(KeyError, match="hp-sddmm"):
        make_kernel("sddmm", "no-such-kernel")


def test_make_kernel_dispatches_both_ops():
    assert make_kernel("spmm", "hp-spmm").name == make_spmm("hp-spmm").name
    assert make_kernel("sddmm", "hp-sddmm") is not None
    assert valid_kernels("spmm") == tuple(sorted(valid_kernels("spmm")))
    assert "hp-spmm" in valid_kernels("spmm")


# ----------------------------------------------------------------------
# Bound vocabulary
# ----------------------------------------------------------------------

def test_check_bound_accepts_canonical_labels_only():
    for b in VALID_BOUNDS:
        assert check_bound(b) == b
    with pytest.raises(ValueError, match="valid bounds"):
        check_bound("latency")


def test_simulator_bounds_are_in_the_canonical_vocabulary():
    # The full simulator's possible labels (launch.py bounds dict keys
    # plus the launch-overhead degenerate case) must all be canonical.
    from repro.serve import quick_estimate

    res = Engine().estimate(req(), matrix=S())
    assert res.bound in VALID_BOUNDS
    _, qbound = quick_estimate("spmm", S(), 32, TESLA_V100)
    assert qbound in VALID_BOUNDS


# ----------------------------------------------------------------------
# Requests / config
# ----------------------------------------------------------------------

def test_request_validation():
    with pytest.raises(ValueError, match="op must be one of"):
        req(op="gemm")
    with pytest.raises(ValueError, match="k must be positive"):
        req(k=0)
    assert req().op in VALID_OPS


def test_config_env_resolution(monkeypatch):
    assert plan_checking_enabled()
    monkeypatch.setenv("REPRO_NO_PLAN_CHECK", "1")
    assert not plan_checking_enabled()
    assert EngineConfig(check_plans=None).plan_checking() is False
    assert EngineConfig(check_plans=True).plan_checking() is True
    monkeypatch.delenv("REPRO_NO_PLAN_CHECK")
    assert EngineConfig(check_plans=None).plan_checking() is True
    resolved = EngineConfig().resolved()
    assert set(resolved) == {"plan_check", "estimate_cache", "capture_errors"}


# ----------------------------------------------------------------------
# Pipeline behavior
# ----------------------------------------------------------------------

def test_engine_estimate_matches_direct_kernel_api():
    matrix = S()
    res = Engine().estimate(req(), matrix=matrix)
    direct = make_spmm("hp-spmm").estimate(matrix, 32, TESLA_V100)
    assert res.ok
    assert res.time_s == direct.stats.time_s
    assert res.preprocessing_s == direct.preprocessing_s
    assert res.bound == direct.stats.bound
    assert res.total_time_s == direct.stats.time_s + direct.preprocessing_s


def test_missing_graph_and_matrix_raises():
    with pytest.raises(ValueError, match="no matrix was supplied"):
        Engine().estimate(EstimateRequest(op="spmm", kernel="hp-spmm"))


def test_capture_errors_returns_error_results():
    eng = Engine(EngineConfig(capture_errors=True))
    batch = eng.estimate_batch(
        [req(), req(kernel="no-such-kernel"), req(device="no-such-device")],
        matrix=S(),
    )
    ok, bad_kernel, bad_device = batch.results
    assert ok.ok
    assert bad_kernel.status == "error" and "KeyError" in bad_kernel.error
    assert bad_device.status == "error"
    # Without capture, the same failure propagates.
    with pytest.raises(KeyError):
        Engine().estimate(req(kernel="no-such-kernel"), matrix=S())


def test_plan_check_failure_raises_plan_check_error(monkeypatch):
    from repro.engine import core as engine_core

    def exploding_check(plan):
        raise PlanCheckError("injected plan failure")

    monkeypatch.setattr(engine_core, "check_plan", exploding_check)
    eng = Engine(EngineConfig(check_plans=True))
    with pytest.raises(PlanCheckError):
        eng.estimate(req(), matrix=S())


def test_batch_results_keep_request_order():
    kernels = ("hp-spmm", "ge-spmm", "row-split")
    batch = Engine().estimate_batch(
        [req(kernel=k) for k in kernels], matrix=S()
    )
    assert [r.request.kernel for r in batch] == list(kernels)
    assert len(batch) == 3


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

def _three_graph_requests():
    matrices = {
        "a": random_hybrid(200, 200, 1500, seed=21),
        "b": random_hybrid(300, 300, 2500, seed=22),
        "c": random_hybrid(250, 250, 2000, seed=23),
    }
    requests = [
        req(graph=g, kernel=k)
        for g in matrices
        for k in ("hp-spmm", "ge-spmm")
    ]
    return matrices, requests


def _values(batch):
    return [
        (r.request.graph, r.request.kernel, r.time_s, r.preprocessing_s,
         r.gflops, r.bound)
        for r in batch
    ]


def test_all_executors_produce_identical_results():
    matrices, requests = _three_graph_requests()
    inline = Engine(executor=InlineExecutor()).estimate_batch(
        requests, matrices=matrices
    )
    pooled = Engine(executor=PoolExecutor(jobs=2)).estimate_batch(
        requests, matrices=matrices
    )
    with ShardedExecutor(workers=2) as sharded_exec:
        sharded = Engine(executor=sharded_exec).estimate_batch(
            requests, matrices=matrices
        )
    assert _values(inline) == _values(pooled) == _values(sharded)


def test_sharded_executor_spreads_units_over_workers():
    matrices, requests = _three_graph_requests()
    with ShardedExecutor(workers=2) as executor:
        assert executor.worker_count == 2
        Engine(executor=executor).estimate_batch(requests, matrices=matrices)
        # Three graph units round-robined over two persistent workers.
        assert len(executor.dispatch_counts) == 2
        assert sum(executor.dispatch_counts.values()) == 3


def test_sharded_executor_propagates_worker_errors():
    with ShardedExecutor(workers=2) as executor:
        eng = Engine(executor=executor)
        with pytest.raises(KeyError, match="no-such-kernel"):
            eng.estimate(req(kernel="no-such-kernel"), matrix=S())


def test_sharded_executor_requires_positive_workers():
    with pytest.raises(ValueError):
        ShardedExecutor(workers=0)


_DEAD_WORKER_SCRIPT = """
import json, multiprocessing, os, signal, time
from repro.engine import ShardedExecutor
from repro.obs import METRICS

def f(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10

ex = ShardedExecutor(workers=2)
out = {"raised": None}
t0 = time.monotonic()
try:
    ex.map(f, [1, 2, 3, 4])
except Exception as exc:
    out.update(
        raised=type(exc).__name__, message=str(exc),
        pid=getattr(exc, "pid", None), exitcode=getattr(exc, "exitcode", None),
    )
out["elapsed_s"] = time.monotonic() - t0
out["children"] = len(multiprocessing.active_children())
out["later"] = ex.map(f, [1, 2])
out["fallbacks"] = METRICS.get("engine.shard_fallbacks")
out["restarted"] = ex.started or bool(multiprocessing.active_children())
print(json.dumps(out))
"""


def test_dead_shard_worker_raises_named_error_instead_of_hanging():
    """Regression: a worker killed mid-``map`` left the parent waiting on
    its reply forever.  Run in a fresh interpreter (its own session, so
    a hang is killed with every worker it forked) to fail, not hang."""
    import json
    import os
    import signal
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", "timed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert proc.returncode == 0 and stdout, stderr
    out = json.loads(stdout.strip().splitlines()[-1])
    assert out["raised"] == "ShardWorkerDied"
    assert out["message"] == (
        f"shard worker pid {out['pid']} died with exit code "
        f"{-signal.SIGKILL}"
    )
    assert out["exitcode"] == -signal.SIGKILL
    assert out["elapsed_s"] < 10
    assert out["children"] == 0  # the survivor was stopped too
    # No fork after a death: later maps run inline and say so.
    assert out["later"] == [10, 20]
    assert out["fallbacks"] == 1
    assert out["restarted"] is False


# ----------------------------------------------------------------------
# Cost priors
# ----------------------------------------------------------------------

def test_cost_prior_book_running_mean():
    book = CostPriorBook()
    assert book.predict("g") is None
    book.observe("g", 2.0, count=1)
    book.observe("g", 4.0, count=1)
    assert book.predict("g") == pytest.approx(3.0)
    book.observe("g", 3.0, count=2)
    assert book.predict("g") == pytest.approx(3.0)
    assert book.observations("g") == 4
    snap = book.snapshot()
    assert snap["g"]["count"] == 4
    book.reset()
    assert book.predict("g") is None


def test_engine_observes_priors_when_configured():
    eng = Engine(EngineConfig(observe_priors=True))
    eng.estimate_batch([req(), req(kernel="ge-spmm")], matrices={"g": S()})
    assert cost_priors().observations("g") == 2
    assert cost_priors().predict("g") >= 0.0
    # Default engines do not write the book.
    cost_priors().reset()
    Engine().estimate(req(), matrix=S())
    assert cost_priors().predict("g") is None
