"""Span tracer with Chrome-trace/Perfetto JSON export.

Two kinds of spans share one trace file:

* **host spans** (:func:`trace_span`) measure wall-clock time of harness
  work — sweeps, estimate calls, worker fan-out — on the ``host`` track;
* **simulated spans** (:func:`trace_emit`) place simulated-GPU kernel
  durations on a separate ``sim-gpu`` track, so a Table-V training run
  shows the modeled kernel timeline the paper reads off Nsight Systems.

Tracing is **off by default** and costs one module-global check plus a
shared no-op context manager per call when disabled.  Enable it with
``REPRO_TRACE=<path>`` (or ``REPRO_TRACE=1`` for ``repro-trace.json``);
the bench CLI and the wall-clock harness export automatically, and an
``atexit`` hook covers ad-hoc scripts.  Spans recorded inside shard
worker processes are shipped back with each work item's result and
spliced onto the parent trace (see
:class:`repro.engine.ShardedExecutor`), so parallel sweeps produce
complete traces too — worker spans carry a ``shard_worker`` arg with
the worker's pid.

The export format is the Chrome Trace Event ``traceEvents`` array of
complete (``"ph": "X"``) events, which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from ..config import env_str

#: Track name -> synthetic pid for the trace file.
HOST_TRACK = "host"
SIM_TRACK = "sim-gpu"
_TRACK_PIDS = {HOST_TRACK: 1, SIM_TRACK: 2}

#: Shared no-op context manager returned by trace_span when disabled —
#: one object for the whole process, so the disabled path allocates
#: nothing.
_NULL_SPAN = nullcontext()


@dataclass
class SpanRecord:
    """One recorded span (either track)."""

    name: str
    cat: str
    ts_us: float
    dur_us: float
    track: str
    tid: int
    depth: int
    args: dict = field(default_factory=dict)

    def to_event(self) -> dict:
        """Chrome Trace Event Format complete event."""
        event = {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": "X",
            "ts": self.ts_us,
            "dur": self.dur_us,
            "pid": _TRACK_PIDS.get(self.track, 1),
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event


class Tracer:
    """Collects spans; thread-safe enough for the harness's use."""

    def __init__(self, t0_ns: int | None = None) -> None:
        self.spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._depths: dict[int, int] = {}
        # Trace timestamps are relative to tracer creation so the viewer
        # opens at t=0 rather than at an epoch offset.  Pool workers pass
        # the parent tracer's ``t0_ns`` so their spans land on the parent
        # timeline (``perf_counter_ns`` is CLOCK_MONOTONIC on Linux —
        # shared across processes on one machine).
        if t0_ns is None:
            t0_ns = time.perf_counter_ns()  # lint: allow(wallclock) host-side tracing is a measured surface
        self._t0_ns = int(t0_ns)

    @property
    def t0_ns(self) -> int:
        """The monotonic-clock origin trace timestamps are relative to."""
        return self._t0_ns

    # ------------------------------------------------------------------
    def _now_us(self) -> float:
        now_ns = time.perf_counter_ns()  # lint: allow(wallclock) host-side tracing is a measured surface
        return (now_ns - self._t0_ns) / 1e3

    def now_us(self) -> float:
        """Current offset on this tracer's timeline, in microseconds."""
        return self._now_us()

    def splice(self, spans) -> None:
        """Append externally recorded spans (e.g. shipped back from
        shard workers by :class:`repro.engine.ShardedExecutor`).

        The spans must already be on this tracer's timeline — workers
        achieve that by building their tracer with the parent's
        :attr:`t0_ns`.
        """
        with self._lock:
            self.spans.extend(spans)

    @contextmanager
    def span(self, name: str, cat: str = "", **args):
        """Record one host (wall-clock) span around the ``with`` body."""
        tid = threading.get_ident()
        with self._lock:
            depth = self._depths.get(tid, 0)
            self._depths[tid] = depth + 1
        start = self._now_us()
        try:
            yield self
        finally:
            dur = self._now_us() - start
            record = SpanRecord(
                name=name,
                cat=cat,
                ts_us=start,
                dur_us=dur,
                track=HOST_TRACK,
                tid=tid,
                depth=depth,
                args=dict(args),
            )
            with self._lock:
                self.spans.append(record)
                self._depths[tid] = depth
        return

    def emit(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        cat: str = "",
        track: str = SIM_TRACK,
        **args,
    ) -> None:
        """Record one span with caller-supplied (e.g. simulated) times."""
        record = SpanRecord(
            name=name,
            cat=cat,
            ts_us=float(ts_us),
            dur_us=float(dur_us),
            track=track,
            tid=0,
            depth=0,
            args=dict(args),
        )
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """The full trace document (metadata + events)."""
        events: list[dict] = []
        for track in (HOST_TRACK, SIM_TRACK):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": _TRACK_PIDS[track],
                    "tid": 0,
                    "args": {"name": f"repro:{track}"},
                }
            )
        with self._lock:
            spans = list(self.spans)
        events.extend(s.to_event() for s in spans)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path``; returns the path."""
        doc = self.to_chrome_trace()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_TRACER: Tracer | None = None
_TRACE_PATH: str | None = None
_ENV_CHECKED = False

DEFAULT_TRACE_PATH = "repro-trace.json"


def _env_trace_path() -> str | None:
    raw = env_str("REPRO_TRACE")
    if raw in ("", "0"):
        return None
    if raw == "1":
        return DEFAULT_TRACE_PATH
    return raw


def _ensure_env_tracer() -> None:
    """Install a tracer from ``REPRO_TRACE`` on first use (once)."""
    global _ENV_CHECKED, _TRACER, _TRACE_PATH
    if _ENV_CHECKED or _TRACER is not None:
        return
    _ENV_CHECKED = True
    path = _env_trace_path()
    if path is not None:
        _TRACER = Tracer()
        _TRACE_PATH = path
        atexit.register(_export_at_exit)


def _export_at_exit() -> None:
    if _TRACER is not None and _TRACE_PATH is not None and _TRACER.spans:
        try:
            _TRACER.export(_TRACE_PATH)
        except OSError:
            pass


def tracing_enabled() -> bool:
    """True when a tracer is installed (env or :func:`set_tracer`)."""
    _ensure_env_tracer()
    return _TRACER is not None


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off."""
    _ensure_env_tracer()
    return _TRACER


def set_tracer(tracer: Tracer | None, path: str | None = None) -> None:
    """Install (or, with ``None``, remove) the process tracer.

    Used by tests and by programs that want tracing without environment
    variables.  Re-arms the ``REPRO_TRACE`` check when removing, so a
    later env change is still honored.
    """
    global _TRACER, _TRACE_PATH, _ENV_CHECKED
    _TRACER = tracer
    _TRACE_PATH = path
    _ENV_CHECKED = tracer is not None


def trace_span(name: str, cat: str = "", **args):
    """Context manager recording a host span — a shared no-op when off."""
    tracer = get_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, cat, **args)


def trace_emit(
    name: str,
    ts_us: float,
    dur_us: float,
    cat: str = "",
    track: str = SIM_TRACK,
    **args,
) -> None:
    """Record a caller-timed span (no-op when tracing is off)."""
    tracer = get_tracer()
    if tracer is not None:
        tracer.emit(name, ts_us, dur_us, cat, track, **args)


def traced(name: str, cat: str = ""):
    """Decorator: run the wrapped function inside a host span."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with trace_span(name, cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def export_trace(path: str | None = None) -> str | None:
    """Export the active trace; returns the path or ``None`` when off.

    With no explicit ``path`` the ``REPRO_TRACE`` destination is used.
    """
    tracer = get_tracer()
    if tracer is None:
        return None
    target = path or _TRACE_PATH or DEFAULT_TRACE_PATH
    return tracer.export(target)
