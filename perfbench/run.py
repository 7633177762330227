"""Host-side benchmark of the repro library: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``kernel-sweep``, ``world-sweep``, ``serve-open``,
``train-gcn`` (see ``perfbench/README.md``).  The run generates every
input from ``--seed`` into a directory private to the run, sets up
three times (``setup_s`` is the import time plus the median set-up),
measures for ``--seconds``, checks every answer, and prints one JSON
object as its last line of output.  With ``--trace 0`` the metrics are
the end-to-end metrics; with ``--trace 1`` the library's layer
functions are wrapped with spans and the metrics are per layer.
"""

import argparse
import importlib.util
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "estimates_per_s": "1/s",
    "configs_per_s": "1/s",
    "steps_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "full_share": "ratio",
    "paper_error": "ratio",
}


def _python_with_numpy():
    """Another ``python3`` on PATH that has NumPy and SciPy, if this
    interpreter lacks them; ``None`` when this one will do."""
    if all(importlib.util.find_spec(m) for m in ("numpy", "scipy")):
        return None
    me = os.path.realpath(sys.executable)
    for d in os.environ.get("PATH", "").split(os.pathsep):
        cand = os.path.join(d, "python3")
        if not os.access(cand, os.X_OK) or os.path.realpath(cand) == me:
            continue
        probe = subprocess.run(
            [cand, "-c", "import numpy, scipy"], capture_output=True, timeout=60
        )
        if probe.returncode == 0:
            return cand
    raise SystemExit("perfbench: no python3 with numpy and scipy on PATH")


#: One BLAS thread: on a two-vCPU machine a second BLAS thread competes
#: with whatever else runs, which made training-step latency swing by a
#: third between runs.  Set before NumPy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _clean_env(run_dir: str) -> None:
    """Only the workload's own settings reach the library."""
    for key in list(os.environ):
        if key.startswith("REPRO_"):
            del os.environ[key]
    os.environ.update(BLAS_ENV)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(run_dir, "graphs")
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(run_dir, "results")
    os.environ["REPRO_STORE_DIR"] = os.path.join(run_dir, "store")
    os.environ["TMPDIR"] = run_dir


def _peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _counters() -> dict:
    """Library counters the per-layer metrics take deltas of."""
    from repro.obs import METRICS
    from repro.store import store_counters

    m = METRICS.counters()
    s = store_counters()
    return {
        "engine.batches": m.get("engine.batches", 0),
        "engine.requests": m.get("engine.requests", 0),
        "engine.shard_items": m.get("engine.shard_items", 0),
        "gnn.spmm_ops": m.get("gnn.spmm_ops", 0),
        "store.publishes": s["publishes"],
        "store.bytes_shared": s["bytes_shared"],
        "store.attaches": s["attaches"],
        "store.fallbacks": s["fallbacks"],
    }


def _child_pids() -> list:
    """Live child processes of this process (Linux ``/proc``; else none)."""
    pids = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(os.path.join(task_dir, tid, "children")) as f:
                pids.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return pids


def release(run_dir: str) -> None:
    """Free everything a run holds, on every path out of it.

    Releases the store's shared-memory segments, then stops and waits
    for every process the run started: multiprocessing's resource
    tracker (started by the first segment, it would otherwise outlive
    the run until it reads end of file on its pipe), any worker the
    library left alive, and whatever child is still running after that.
    Last, removes the run's private directory.
    """
    if "repro.store" in sys.modules:
        sys.modules["repro.store"].reset_store()
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        for proc in multiprocessing.active_children():
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    shutil.rmtree(run_dir, ignore_errors=True)


def _import_seconds() -> float:
    """Median wall time of fresh interpreters importing the benchmark
    and the library: the part of set-up one process can do only once."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.monotonic()
        subprocess.run(
            [sys.executable, "-c", "import workloads"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
            check=True,
        )
        times.append(time.monotonic() - t)
    return statistics.median(times)


def _median_over(windows, value) -> float:
    return statistics.median(value(w) for w in windows)


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str,
            configure=None) -> dict:
    """Set up, run and check one workload; returns the result object.

    ``configure(workload)`` may adjust the workload before set-up (the
    self-test shrinks sizes and plants a wrong answer with it).
    """
    from workloads import WORKLOADS, percentile

    import spans

    import_s = _import_seconds()
    wl = WORKLOADS[workload](seed, seconds, run_dir)
    if configure is not None:
        configure(wl)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        reps = []
        for rep in range(SETUP_REPEATS):
            t = time.monotonic()
            setup_t0 = time.perf_counter()
            wl.setup(rep)
            reps.append(time.monotonic() - t)
        before = _counters()
        hits0, misses0 = wl.cache_counts()
        out = wl.run()
        hits1, misses1 = wl.cache_counts()
        after = _counters()
    finally:
        wl.close()

    windows = out.windows
    rate = {
        name: _median_over(windows, lambda w: getattr(w, name) / w.seconds)
        for name in ("estimates", "configs", "steps")
    }
    p50, p99 = (
        _median_over(windows, lambda w: percentile(sorted(w.latencies_ms), p))
        for p in (50, 99)
    )
    if trace:
        deltas = {k: after[k] - before[k] for k in after}
        deltas["perf.hits"] = hits1 - hits0
        deltas["perf.misses"] = misses1 - misses0
        values = spans.layer_metrics(tracer, setup_t0, out, wl.primary_thread, deltas)
        values["trace.estimates_per_s"] = rate["estimates"]
        values["trace.steps_per_s"] = rate["steps"]
        values["trace.latency_p50_ms"] = p50
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tracer.dump(os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seed}.jsonl"))
        units = dict(spans.PER_LAYER)
    else:
        values = {
            "setup_s": import_s + statistics.median(reps),
            "peak_rss_mb": _peak_rss_mb(workload == "world-sweep"),
            "ok_share": (out.attempted - out.failed) / out.attempted,
            "estimates_per_s": rate["estimates"],
            "configs_per_s": rate["configs"],
            "steps_per_s": rate["steps"],
            "latency_p50_ms": p50,
            "latency_p99_ms": p99,
            "full_share": out.full / out.attempted,
            "paper_error": out.paper_error,
        }
        units = END_TO_END
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        f"perfbench: {workload} seed={seed}: {out.attempted} operations in "
        f"{out.elapsed_s:.2f}s over {len(windows)} passes of "
        f"{sum(len(w.latencies_ms) for w in windows) // len(windows)} latency "
        f"samples; imports {import_s:.3f}s, set-up reps "
        + ", ".join(f"{r:.3f}s" for r in reps),
        file=sys.stderr,
    )
    return {
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernel-sweep", "world-sweep", "serve-open", "train-gcn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        return 2
    other = _python_with_numpy()
    if other is not None:
        os.execv(other, [other, os.path.abspath(__file__)] + sys.argv[1:])

    run_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    _clean_env(run_dir)
    sys.path.insert(0, src)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        release(run_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
