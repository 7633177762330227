"""Executor strategies for the engine's execute stage.

An executor is anything with ``map(fn, items) -> list`` that preserves
item order.  The engine's work units are deterministic pure functions of
their inputs, so the executor choice changes wall-clock time and process
topology — never results.  Every multi-process map in the repo runs on
one mechanism, :class:`ShardedExecutor`:

* :class:`InlineExecutor` — a plain serial loop in the calling process.
  No extra processes; the default, and what the fig/table scripts, GNN
  timing and the estimation server use.
* :class:`ShardedExecutor` — a pool of *persistent* worker server
  processes.  The workers live across batches, so a serving process
  pays fork cost once and every subsequent batch only pays queue
  traffic.  Units are sharded round-robin (or pinned by an affinity
  hook); results return in item order; worker spans are shipped back
  and spliced onto the parent trace, tagged ``shard_worker``; a worker
  exception is re-raised in the parent (lowest item index first, for
  determinism); a worker that dies raises :class:`ShardWorkerDied`
  instead of hanging the parent.
* :class:`PoolExecutor` — the one-shot form for sweeps: ``REPRO_JOBS``
  (or ``jobs``) workers, started and stopped around a single ``map``;
  below two workers it is the inline loop.

``REPRO_JOBS`` semantics (:func:`resolve_jobs`): unset or ``1`` →
serial; ``N`` → N workers; ``0`` or ``auto`` → one worker per CPU.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
from typing import Callable, Protocol, Sequence

from ..config import env_str
from ..obs import METRICS, trace_span
from ..obs.tracer import Tracer, get_tracer, set_tracer
from ..store import StoreAttachError, get_store, store_counters

#: Failures creating processes/queues in restricted sandboxes.
_SPAWN_FAILURES = (OSError, PermissionError, ValueError, ImportError)

_STOP = None  # sentinel shutting down a shard worker

#: Seconds ``ShardedExecutor.map`` waits for a reply before checking
#: that every worker is still alive.  Replies arriving sooner pay
#: nothing extra; a dead worker is noticed within about one interval.
_REPLY_POLL_S = 0.5


def resolve_jobs(num_items: int | None = None) -> int:
    """Worker count from ``REPRO_JOBS``, clamped to the item count."""
    raw = env_str("REPRO_JOBS", "1").lower()
    if raw in ("", "0", "auto"):
        jobs = os.cpu_count() or 1
    else:
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, 'auto' or unset; got {raw!r}"
            ) from None
    jobs = max(1, jobs)
    if num_items is not None:
        jobs = min(jobs, max(1, num_items))
    return jobs


class ShardWorkerDied(RuntimeError):
    """A shard worker process exited while ``map`` waited on it."""

    def __init__(self, pid: int | None, exitcode: int | None) -> None:
        super().__init__(pid, exitcode)
        self.pid = pid
        self.exitcode = exitcode

    def __str__(self) -> str:
        return (
            f"shard worker pid {self.pid} died with exit code "
            f"{self.exitcode}"
        )


class Executor(Protocol):
    """Order-preserving ``map`` over the engine's work units.

    ``ships_work`` tells the planner whether ``map`` may move items
    across a process boundary — only then is publishing matrices to the
    shared store worth anything.
    """

    ships_work: bool

    def map(self, fn: Callable, items: Sequence) -> list:
        ...


class InlineExecutor:
    """Serial, in-process evaluation — the deterministic baseline."""

    ships_work = False

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]


def _shard_worker_loop(inbox, outbox) -> None:
    """A shard worker server: evaluate inbox items until told to stop.

    Each item runs under a worker-local tracer anchored at the parent
    tracer's ``t0_ns`` (when the parent traces), and the spans ship back
    with the result, tagged ``shard_worker``.  Worker exceptions come
    back as data; the parent re-raises them deterministically.
    """
    pid = os.getpid()
    while True:
        msg = inbox.get()
        if msg is _STOP:
            return
        seq, fn, item, t0_ns = msg
        spans: list = []
        # Bound before the try: if the accounting in the finally below
        # itself raises, the error reply must still be constructible.
        delta: dict = {}
        # Store counters accumulate in the worker's own process; ship
        # the per-item delta back so the parent's snapshot (and run
        # manifests) account for the sharing actually happening.
        before = store_counters()
        if t0_ns is not None:
            prev = get_tracer()
            worker_tracer = Tracer(t0_ns=t0_ns)
            set_tracer(worker_tracer)
        try:
            try:
                result = fn(item)
            finally:
                if t0_ns is not None:
                    set_tracer(prev)
                    for span in worker_tracer.spans:
                        span.args.setdefault("shard_worker", pid)
                    spans = worker_tracer.spans
                after = store_counters()
                delta = {
                    key: after[key] - before[key]
                    for key in ("attaches", "attach_hits", "fallbacks")
                    if after[key] != before[key]
                }
            reply = (seq, "ok", result, spans, pid, delta)
        except Exception as exc:  # noqa: BLE001 - shipped to parent
            reply = (seq, "error", exc, spans, pid, delta)
        try:
            outbox.put(reply)
        except Exception:  # unpicklable result/exception: degrade to repr
            outbox.put(
                (seq, "error", RuntimeError(repr(reply[2])), [], pid, {})
            )


class ShardedExecutor:
    """Persistent worker servers sharding batches round-robin.

    ``workers`` fixes the pool size; ``None`` resolves via
    ``REPRO_JOBS`` (minimum 2 — a single shard is just a slow inline
    loop).  Workers start lazily on the first ``map`` and persist until
    :meth:`stop` (or context-manager exit).  In sandboxes that forbid
    process/queue creation, ``map`` falls back to the inline loop and
    counts ``engine.shard_fallbacks`` — results are identical either
    way.  A worker that dies mid-``map`` raises :class:`ShardWorkerDied`
    within about :data:`_REPLY_POLL_S`; the executor then never forks
    again, and later ``map`` calls take the same inline fallback.

    ``affinity`` pins items to shards: a callable taking one work item
    and returning a shard key (any int — reduced modulo the pool size)
    or ``None`` to fall back to round-robin for that item.  The serve
    tier passes :meth:`repro.serve.ShardRouter.shard_of_unit` so every
    batch touching a graph lands on the worker that owns that graph's
    estimate cache and cost priors.  Determinism is unaffected: the
    executor only places work; results return in item order regardless.
    """

    ships_work = True

    def __init__(
        self, workers: int | None = None, *, affinity=None
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._requested = workers
        self._affinity = affinity
        self._procs: list = []
        self._inboxes: list = []
        self._outbox = None
        self._seq = 0
        #: Set once a worker died; start() never forks again after it.
        self._broken = False
        #: fn -> pickle-probe verdict, held for the executor's lifetime.
        self._probe_ok: dict = {}
        #: worker pid -> items evaluated there (tests assert sharding).
        self.dispatch_counts: dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    @property
    def worker_count(self) -> int:
        return len(self._procs)

    def _resolve_workers(self) -> int:
        if self._requested is not None:
            return self._requested
        return max(2, resolve_jobs())

    def start(self) -> None:
        """Fork the worker servers (idempotent; a no-op after a death)."""
        if self._procs or self._broken:
            return
        n = self._resolve_workers()
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
        else:
            ctx = multiprocessing.get_context()
        outbox = ctx.Queue()
        inboxes, procs = [], []
        for _ in range(n):
            inbox = ctx.Queue()
            proc = ctx.Process(
                target=_shard_worker_loop, args=(inbox, outbox), daemon=True
            )
            proc.start()
            inboxes.append(inbox)
            procs.append(proc)
        self._outbox = outbox
        self._inboxes = inboxes
        self._procs = procs

    def stop(self) -> None:
        """Shut the worker servers down (idempotent)."""
        for inbox in self._inboxes:
            try:
                inbox.put(_STOP)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for q in [*self._inboxes, self._outbox]:
            if q is not None:
                q.close()
        self._procs = []
        self._inboxes = []
        self._outbox = None
        self._probe_ok.clear()

    def __enter__(self) -> "ShardedExecutor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- execution ------------------------------------------------------
    def map(self, fn: Callable, items: Sequence) -> list:
        seq_items = list(items)
        if not seq_items:
            return []
        # Probe picklability once per (executor lifetime, fn) — a
        # serving process dispatches thousands of homogeneous batches
        # through one fn, and the old per-batch probe double-serialized
        # the first item of every one of them.  Probing before start()
        # keeps unpicklable work from forking workers it cannot use.
        probed = self._probe_ok.get(fn)
        if probed is None:
            METRICS.inc("engine.shard_probes")
            try:
                pickle.dumps(fn)
                pickle.dumps(seq_items[0])
                probed = True
            except Exception:
                probed = False
            self._probe_ok[fn] = probed
        if probed and not self._procs:
            try:
                self.start()
            except _SPAWN_FAILURES:
                pass
        if not (probed and self._procs):
            METRICS.inc("engine.shard_fallbacks")
            return [fn(item) for item in seq_items]

        tracer = get_tracer()
        t0_ns = tracer.t0_ns if tracer is not None else None
        n = len(self._inboxes)
        base = self._seq
        self._seq += len(seq_items)
        with trace_span(
            "sharded_map", cat="engine", workers=n, items=len(seq_items)
        ):
            # Placement: the affinity hook pins an item to its owning
            # shard; items it declines (None, or a hook failure) fall
            # back to round-robin on the batch-global sequence number,
            # so a serving process issuing many single-unit batches
            # still spreads unpinned work across the worker pool.
            for i, item in enumerate(seq_items):
                target = None
                if self._affinity is not None:
                    try:
                        key = self._affinity(item)
                    except Exception:
                        key = None
                        METRICS.inc("engine.shard_affinity_errors")
                    if key is not None:
                        target = int(key) % n
                        METRICS.inc("engine.shard_affinity_hits")
                if target is None:
                    target = (base + i) % n
                self._inboxes[target].put((base + i, fn, item, t0_ns))
            replies: dict[int, tuple] = {}
            for _ in seq_items:
                seq, status, payload, spans, pid, delta = self._next_reply()
                replies[seq] = (status, payload)
                self.dispatch_counts[pid] = (
                    self.dispatch_counts.get(pid, 0) + 1
                )
                if delta:
                    get_store().absorb(delta)
                if spans and tracer is not None:
                    tracer.splice(spans)
        results = []
        for i in range(len(seq_items)):
            status, payload = replies[base + i]
            if status == "error":
                if isinstance(payload, StoreAttachError):
                    # The worker lost the shared segment; the parent's
                    # item still holds its matrix, so evaluate it here
                    # (fn is deterministic — same result either way).
                    get_store().record_fallback()
                    results.append(fn(seq_items[i]))
                    continue
                # Deterministic: the lowest-index failure raises, as it
                # would have in a serial loop.
                raise payload
            results.append(payload)
        METRICS.inc("engine.shard_runs")
        METRICS.inc("engine.shard_items", len(seq_items))
        return results

    def _next_reply(self) -> tuple:
        """The next worker reply; raises :class:`ShardWorkerDied` when a
        worker has exited instead.

        A dead worker never answers the items queued for it, so an
        unbounded wait would hang the caller.  The survivors are stopped
        and the executor is marked broken: forking again from a serving
        process that already runs threads is unsafe.
        """
        while True:
            try:
                return self._outbox.get(timeout=_REPLY_POLL_S)
            except queue.Empty:
                pass
            dead = next((p for p in self._procs if not p.is_alive()), None)
            if dead is None:
                continue
            died = ShardWorkerDied(dead.pid, dead.exitcode)
            self._broken = True
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
            self.stop()
            raise died


class PoolExecutor:
    """One-shot fan-out for sweeps: a :class:`ShardedExecutor` per ``map``.

    ``jobs=None`` defers to ``REPRO_JOBS``; the worker count is clamped
    to the item count.  Below two workers ``map`` is the inline loop and
    ``ships_work`` is False, so the engine publishes nothing to the
    shared store.  Otherwise the workers start for the one ``map`` and
    stop before it returns, so no process outlives the call.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = jobs

    def _workers(self, num_items: int | None = None) -> int:
        if self.jobs is None:
            return resolve_jobs(num_items)
        return self.jobs if num_items is None else min(self.jobs, num_items)

    @property
    def ships_work(self) -> bool:
        return self._workers() >= 2

    def map(self, fn: Callable, items: Sequence) -> list:
        seq_items = list(items)
        workers = self._workers(len(seq_items))
        if workers < 2:
            return [fn(item) for item in seq_items]
        sharded = ShardedExecutor(workers)
        try:
            return sharded.map(fn, seq_items)
        finally:
            sharded.stop()
