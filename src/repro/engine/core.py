"""The estimation pipeline: request -> plan -> execute -> result.

Every evaluation path in the repo — bench sweeps, the per-figure
scripts, the serve layer's full-path micro-batches, GNN training-epoch
timing, and ``python -m repro.bench`` — used to carry its own copy of
the same pipeline: look up a kernel factory, load a graph, optionally
plan-check, evaluate through the estimate cache, trace a span.  This
module is the single copy.

The pipeline has two stages:

* **Plan** (:meth:`Engine._plan`): resolve each request's graph (via
  :mod:`repro.graphs.registry`, a caller-supplied matrix map, or a
  default matrix), resolve its device spec, and group requests sharing
  a matrix into :class:`_WorkUnit` items — one graph load per unit, so
  every request in it shares one structural fingerprint and their
  estimate-cache keys differ only in (kernel, K, device, config).
* **Execute**: an :class:`~repro.engine.executors.Executor` maps the
  module-level (picklable) :func:`_execute_unit` over the units.  Each
  unit evaluates its points serially *in request order*, so serial and
  fanned-out batches produce identical results and identical
  estimate-cache traffic.  Per-point spans, the optional
  :mod:`repro.analysis` plan check, and the estimate cache (inside
  :meth:`kernel.estimate`) all live in the unit body — every path gets
  them for free and none can drift.

Environment handling (``REPRO_NO_PLAN_CHECK``,
``REPRO_NO_ESTIMATE_CACHE``) is consolidated in
:class:`EngineConfig`; the variables keep their historical meaning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis import ERROR, check_plan, plan_for_kernel
from ..config import env_flag
from ..formats import HybridMatrix
from ..gpusim import DeviceSpec, KernelStats, get_device
from ..graphs import load_graph
from ..obs import METRICS, trace_span
from ..obs.tracer import get_tracer
from ..perf.estimate_cache import cache_enabled
from ..perf.fingerprint import structural_features
from ..select.policy import Candidate, active_policy, default_topk
from ..store import StoreError, StoreHandle, get_store, store_enabled
from .bounds import VALID_BOUNDS
from .executors import Executor, InlineExecutor
from .priors import cost_priors
from .registry import VALID_OPS, make_kernel, valid_kernels

#: Result statuses.  ``error`` only appears under ``capture_errors``.
STATUS_OK = "ok"
STATUS_ERROR = "error"


class PlanCheckError(RuntimeError):
    """A request's kernel plan failed the static schedule checker."""


def plan_checking_enabled() -> bool:
    """Env default for plan checking: on unless ``REPRO_NO_PLAN_CHECK=1``."""
    return not env_flag("REPRO_NO_PLAN_CHECK")


def estimate_caching_enabled() -> bool:
    """Env default for the estimate cache (``REPRO_NO_ESTIMATE_CACHE``)."""
    return cache_enabled()


@dataclass(frozen=True)
class EstimateRequest:
    """One kernel-estimate query against the engine.

    ``graph`` names a registry dataset; callers that already hold a
    matrix pass it through ``estimate(..., matrix=...)`` /
    ``estimate_batch(..., matrices=...)`` instead and may leave
    ``graph`` as a label (or ``None``).  ``device`` accepts a
    :class:`~repro.gpusim.DeviceSpec` or a registry short name.
    ``kernel_kwargs`` is a tuple of ``(key, value)`` pairs so requests
    stay hashable and picklable.
    """

    op: str                                 #: "spmm" | "sddmm"
    kernel: str                             #: kernel registry name
    graph: str | None = None                #: graph-registry name (or label)
    k: int = 64                             #: feature width
    device: str | DeviceSpec = "v100"       #: device spec or short name
    max_edges: int | None = None            #: registry edge cap
    kernel_kwargs: tuple = ()               #: extra kernel-config pairs

    def __post_init__(self) -> None:
        if self.op not in VALID_OPS:
            raise ValueError(
                f"op must be one of {list(VALID_OPS)}, got {self.op!r}"
            )
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    @property
    def group_key(self) -> tuple:
        """Matrix-identity key: same key -> same loaded graph."""
        return (self.graph, self.max_edges)


@dataclass(frozen=True)
class EstimateResult:
    """The engine's answer to one :class:`EstimateRequest`."""

    request: EstimateRequest
    status: str                      #: "ok" | "error"
    time_s: float | None = None      #: simulated kernel seconds
    preprocessing_s: float = 0.0     #: modeled host preprocessing seconds
    bound: str | None = None         #: dominant bound (VALID_BOUNDS)
    gflops: float = 0.0              #: achieved GFLOP/s at this point
    stats: KernelStats | None = None  #: full simulator stats
    error: str | None = None         #: failure detail for "error"

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def total_time_s(self) -> float | None:
        """Kernel + preprocessing, mirroring the kernel-API results."""
        if self.time_s is None:
            return None
        return self.time_s + self.preprocessing_s


@dataclass
class BatchResult:
    """All of one batch's results, in request order, plus check tallies."""

    results: list[EstimateResult]
    plans_checked: int = 0
    plan_diagnostics: dict = field(default_factory=dict)
    elapsed_s: float = 0.0   #: parent-side wall seconds spent executing

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def by_graph(self) -> dict:
        """Results grouped by request graph label, in request order.

        The world sweep (and any caller issuing one batch spanning many
        matrices) fans hundreds of ``(graph, kernel)`` points through a
        single :meth:`Engine.estimate_batch` call; this view re-folds
        the flat, request-ordered result list back into per-graph
        groups without re-deriving the planner's grouping.
        """
        grouped: dict = {}
        for res in self.results:
            grouped.setdefault(res.request.graph, []).append(res)
        return grouped


@dataclass(frozen=True)
class Selection:
    """What the selection layer decided to run for one matrix.

    ``requests`` are ready-made plan-stage requests: the predicted
    top-k on a policy hit, or the full kernel field on a miss — so a
    caller can hand them straight to :meth:`Engine.estimate_batch`
    either way.  ``candidates`` always carries the *complete* ranked
    field (not just top-k) for reporting and regret accounting;
    predicted schedules (NnzPerWarp / vector width of the matched
    region) ride on each candidate and deliberately do **not** become
    ``kernel_kwargs``: requests keep default kernel configs so
    predicted-frontier results stay byte-comparable with full sweeps.
    """

    op: str
    graph: str | None
    k: int
    device: DeviceSpec
    predicted: bool                       #: policy covered this query
    policy: str                           #: policy name ("model"/"null")
    candidates: tuple[Candidate, ...]     #: full ranked field
    requests: tuple[EstimateRequest, ...]  #: what to actually run

    @property
    def kernels(self) -> tuple[str, ...]:
        """Kernel names of :attr:`requests`, in rank order."""
        return tuple(r.kernel for r in self.requests)


@dataclass(frozen=True)
class EngineConfig:
    """Per-call-site policy for the shared pipeline.

    ``check_plans=None`` defers to the environment
    (:func:`plan_checking_enabled`) — the bench sweeps use this so
    ``REPRO_NO_PLAN_CHECK=1`` keeps its historical bypass meaning;
    paths that never checked plans (serve, GNN timing, the per-figure
    scripts) pass ``False`` explicitly.  The estimate cache is engaged
    inside ``kernel.estimate`` and honors ``REPRO_NO_ESTIMATE_CACHE``;
    :meth:`resolved` reports both effective settings.
    """

    check_plans: bool | None = False  #: None = honor REPRO_NO_PLAN_CHECK
    capture_errors: bool = False      #: per-request errors as data
    span: str = "engine.estimate"     #: per-point span name ({op} legal)
    cat: str = "engine"               #: trace category for point spans
    observe_priors: bool = False      #: feed per-graph cost priors

    def plan_checking(self) -> bool:
        """The effective plan-check switch for this config."""
        if self.check_plans is None:
            return plan_checking_enabled()
        return bool(self.check_plans)

    def resolved(self) -> dict:
        """Effective settings after env resolution (for manifests/tests)."""
        return {
            "plan_check": self.plan_checking(),
            "estimate_cache": estimate_caching_enabled(),
            "capture_errors": self.capture_errors,
        }


# ----------------------------------------------------------------------
# Work units — the picklable payloads executors ship to workers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Point:
    """One planned request: everything a worker needs to evaluate it."""

    index: int                 #: position in the batch's request order
    op: str
    kernel: str
    kwargs: tuple              #: kernel-config (key, value) pairs
    k: int
    device: DeviceSpec


@dataclass(frozen=True)
class _Outcome:
    """One point's evaluation, shipped back from the worker."""

    index: int
    status: str
    time_s: float | None = None
    preprocessing_s: float = 0.0
    bound: str | None = None
    gflops: float = 0.0
    stats: KernelStats | None = None
    error: str | None = None


@dataclass
class _WorkUnit:
    """One graph's worth of points — the unit of executor fan-out.

    When the planner published the unit's matrix to the shared store,
    ``store_ref`` carries the segment handle and pickling drops ``S``:
    executors ship a few hundred bytes of fingerprint metadata instead
    of the CSR arrays, and the worker re-attaches a zero-copy view in
    :func:`_materialize`.  The parent's own copy always keeps ``S``, so
    inline execution and attach-failure fallbacks never touch the store.
    """

    graph: str | None
    S: HybridMatrix | None
    points: list[_Point]
    check_plans: bool
    capture_errors: bool
    span: str
    cat: str
    store_ref: StoreHandle | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if state.get("store_ref") is not None:
            state["S"] = None  # consumers re-attach from the store
        return state


def _materialize(unit: _WorkUnit) -> HybridMatrix:
    """The unit's matrix, attaching from the shared store if shipped.

    Raises :class:`~repro.store.StoreAttachError` when the referenced
    segment is gone or corrupted — executors catch exactly that and
    re-evaluate the item from the parent's full copy.
    """
    if unit.S is None:
        if unit.store_ref is None:
            raise StoreError(
                "work unit has neither a matrix nor a store reference"
            )
        unit.S = get_store().attach(unit.store_ref)
    return unit.S


@dataclass
class _UnitOutput:
    outcomes: list[_Outcome]
    plans_checked: int
    diag_counts: dict
    seconds: float            #: measured unit wall time (feeds priors)


#: (op, kernel name, kwargs) -> kernel instance.  Kernel objects are
#: immutable after construction (no method assigns attributes), so one
#: instance can serve every request naming the same configuration —
#: construction plus the per-instance fingerprint hashing used to be
#: paid per request.
_KERNEL_MEMO: dict[tuple, object] = {}
_KERNEL_MEMO_MAX = 256


def _get_kernel(op: str, name: str, kwargs: tuple):
    key = (op, name, kwargs)
    kernel = _KERNEL_MEMO.get(key)
    if kernel is None:
        kernel = make_kernel(op, name, **dict(kwargs))
        if len(_KERNEL_MEMO) >= _KERNEL_MEMO_MAX:
            _KERNEL_MEMO.clear()
        _KERNEL_MEMO[key] = kernel
    return kernel


def _evaluate_point(unit: _WorkUnit, pt: _Point) -> tuple[_Outcome, tuple]:
    """One point through the full pipeline body: span, check, estimate."""
    if get_tracer() is None:
        # Untraced fast path: skip span-name formatting and span-kwarg
        # assembly — pure per-request overhead when no tracer is live
        # (trace_span itself would no-op, but only after both were built).
        return _point_body(unit, pt)
    with trace_span(
        unit.span.format(op=pt.op), cat=unit.cat,
        op=pt.op, graph=unit.graph, kernel=pt.kernel, k=pt.k,
        device=pt.device.name,
    ):
        return _point_body(unit, pt)


def _point_body(unit: _WorkUnit, pt: _Point) -> tuple[_Outcome, tuple]:
    kernel = _get_kernel(pt.op, pt.kernel, pt.kwargs)
    diags = ()
    if unit.check_plans:
        diags = check_plan(
            plan_for_kernel(kernel, unit.S, pt.k, pt.device)
        )
        errors = [d for d in diags if d.severity == ERROR]
        if errors:
            detail = "\n".join(d.render() for d in errors)
            raise PlanCheckError(
                f"kernel {pt.kernel!r} on graph {unit.graph!r} "
                f"(k={pt.k}, {pt.device.name}) has an illegal "
                f"schedule; refusing to simulate a silently-wrong "
                f"sweep point:\n{detail}"
            )
    res = kernel.estimate(unit.S, pt.k, pt.device)
    flops = 2.0 * unit.S.nnz * pt.k
    return _Outcome(
        index=pt.index,
        status=STATUS_OK,
        time_s=res.stats.time_s,
        preprocessing_s=res.preprocessing_s,
        bound=res.stats.bound,
        gflops=res.stats.throughput_gflops(flops),
        stats=res.stats,
    ), diags


def _execute_unit(unit: _WorkUnit) -> _UnitOutput:
    """All points of one unit, serially, in request order.

    Module-level (picklable) so every executor — the inline loop or
    the sharded worker servers — ships the same work body.  Deterministic estimates make the executor choice
    invisible in the results.
    """
    _materialize(unit)
    t0 = time.monotonic()  # lint: allow(wallclock) measured evaluation cost feeds admission-control priors
    outcomes: list[_Outcome] = []
    checked = 0
    counts: dict[str, int] = {}
    for pt in unit.points:
        try:
            outcome, diags = _evaluate_point(unit, pt)
        except Exception as exc:  # noqa: BLE001 - per-request error capture
            if not unit.capture_errors:
                raise
            outcomes.append(
                _Outcome(
                    index=pt.index, status=STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        if unit.check_plans:
            checked += 1
            for d in diags:
                counts[d.severity] = counts.get(d.severity, 0) + 1
        outcomes.append(outcome)
    return _UnitOutput(
        outcomes=outcomes,
        plans_checked=checked,
        diag_counts=counts,
        seconds=time.monotonic() - t0,  # lint: allow(wallclock) measured evaluation cost feeds admission-control priors
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class Engine:
    """One configured instance of the shared estimation pipeline.

    Parameters
    ----------
    config:
        Pipeline policy (plan checking, error capture, span naming).
    executor:
        How planned work units run: :class:`InlineExecutor` (default,
        serial), :class:`~repro.engine.executors.PoolExecutor`
        (``REPRO_JOBS`` workers for one batch) or
        :class:`~repro.engine.executors.ShardedExecutor` (persistent
        worker servers).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.executor = executor if executor is not None else InlineExecutor()

    # -- public API -----------------------------------------------------
    def estimate(
        self,
        request: EstimateRequest,
        *,
        matrix: HybridMatrix | None = None,
    ) -> EstimateResult:
        """One request, inline; raises on failure unless capturing."""
        batch = self.estimate_batch([request], matrix=matrix)
        return batch.results[0]

    def estimate_batch(
        self,
        requests,
        *,
        matrices: dict[str, HybridMatrix] | None = None,
        matrix: HybridMatrix | None = None,
    ) -> BatchResult:
        """Evaluate a batch of requests; results come back in order.

        ``matrices`` maps graph names to already-loaded matrices
        (bypassing the registry); ``matrix`` is the default for
        requests whose ``graph`` is ``None`` or unmapped.  Requests
        naming registry graphs resolve through
        :func:`repro.graphs.load_graph`, one load per group.
        """
        requests = list(requests)
        out = BatchResult(results=[None] * len(requests))  # type: ignore[list-item]
        if not requests:
            return out
        units, failures = self._plan(requests, matrices, matrix)
        for idx, message in failures:
            out.results[idx] = EstimateResult(
                request=requests[idx], status=STATUS_ERROR, error=message
            )
        METRICS.inc("engine.batches")
        METRICS.inc("engine.requests", len(requests))
        t0 = time.monotonic()  # lint: allow(wallclock) batch evaluation cost feeds the serve EWMA fallback
        try:
            mapped = self.executor.map(_execute_unit, units)
        except PlanCheckError:
            METRICS.inc("plan_check.failed")
            raise
        out.elapsed_s = time.monotonic() - t0  # lint: allow(wallclock) batch evaluation cost feeds the serve EWMA fallback
        for unit, unit_out in zip(units, mapped):
            out.plans_checked += unit_out.plans_checked
            for sev, n in unit_out.diag_counts.items():
                out.plan_diagnostics[sev] = (
                    out.plan_diagnostics.get(sev, 0) + n
                )
            for oc in unit_out.outcomes:
                req = requests[oc.index]
                out.results[oc.index] = EstimateResult(
                    request=req,
                    status=oc.status,
                    time_s=oc.time_s,
                    preprocessing_s=oc.preprocessing_s,
                    bound=oc.bound,
                    gflops=oc.gflops,
                    stats=oc.stats,
                    error=oc.error,
                )
            if self.config.observe_priors and unit.points:
                cost_priors().observe(
                    unit.graph,
                    unit_out.seconds / len(unit.points),
                    count=len(unit.points),
                )
        if self.config.check_plans is not False:
            # Mirror the historical bench-runner accounting: the counter
            # is written (possibly with 0) whenever checking was in play,
            # so a bypassed run is visible as `plan_check.checked: 0`.
            METRICS.inc("plan_check.checked", out.plans_checked)
            for sev, n in out.plan_diagnostics.items():
                METRICS.inc(f"plan_check.diag_{sev}", n)
        return out

    def select(
        self,
        op: str,
        *,
        graph: str | None = None,
        matrix: HybridMatrix | None = None,
        k: int = 64,
        device: str | DeviceSpec = "v100",
        kernels=None,
        top_k: int | None = None,
        max_edges: int | None = None,
    ) -> Selection:
        """Resolve the active selection policy into runnable requests.

        The one entry point for "what should run on this matrix?": the
        matrix resolves exactly as in :meth:`estimate_batch` (registry
        name or caller-supplied), its structural features go to
        :func:`repro.select.active_policy`, and the answer comes back
        as plan-stage :class:`EstimateRequest` objects.  On a policy
        hit the requests are the top ``top_k`` (default
        ``REPRO_SELECT_TOPK``) predicted candidates, counted as
        ``select.hits``; when the policy declines — no model, wrong
        op, ``REPRO_NO_SELECT=1`` — the requests are the full kernel
        field in registry order, counted as ``select.misses``, which
        is precisely the historical full sweep.
        """
        device_spec = (
            device if isinstance(device, DeviceSpec) else get_device(device)
        )
        names = list(kernels) if kernels else valid_kernels(op)
        S = self._resolve_matrix(graph, max_edges, None, matrix)
        ranked = active_policy().rank(
            op, structural_features(S), kernels=names
        )
        METRICS.inc("select.requests")
        if ranked is None:
            METRICS.inc("select.misses")
            candidates = tuple(
                Candidate(
                    kernel=name, nnz_per_warp=None, vector_width=None,
                    score=0.0,
                )
                for name in names
            )
            chosen = candidates
            predicted, policy = False, "null"
        else:
            METRICS.inc("select.hits")
            candidates = tuple(ranked)
            keep = default_topk() if top_k is None else top_k
            chosen = candidates[: max(1, keep)]
            predicted, policy = True, "model"
        return Selection(
            op=op,
            graph=graph,
            k=k,
            device=device_spec,
            predicted=predicted,
            policy=policy,
            candidates=candidates,
            requests=tuple(
                EstimateRequest(
                    op=op, kernel=c.kernel, graph=graph, k=k,
                    device=device_spec, max_edges=max_edges,
                )
                for c in chosen
            ),
        )

    # -- plan stage -----------------------------------------------------
    def _plan(
        self,
        requests: list[EstimateRequest],
        matrices: dict[str, HybridMatrix] | None,
        matrix: HybridMatrix | None,
    ) -> tuple[list[_WorkUnit], list[tuple[int, str]]]:
        """Group requests by matrix identity and resolve their inputs.

        Returns ``(units, failures)`` where failures are per-request
        ``(index, message)`` pairs for requests whose graph or device
        could not be resolved.  Without ``capture_errors`` the first
        failure raises instead.
        """
        check = self.config.plan_checking()
        capture = self.config.capture_errors
        # Publish matrices only for executors that actually cross a
        # process boundary — inline batches never pay pickling, so the
        # store would be pure overhead there.
        publish = store_enabled() and getattr(
            self.executor, "ships_work", False
        )
        groups: dict[tuple, list[tuple[int, EstimateRequest]]] = {}
        for i, req in enumerate(requests):
            groups.setdefault(req.group_key, []).append((i, req))

        units: list[_WorkUnit] = []
        failures: list[tuple[int, str]] = []
        device_memo: dict[str, DeviceSpec] = {}
        for (gname, max_edges), members in groups.items():
            try:
                S = self._resolve_matrix(gname, max_edges, matrices, matrix)
            except Exception as exc:  # unknown graph fails the group
                if not capture:
                    raise
                message = f"{type(exc).__name__}: {exc}"
                failures.extend((i, message) for i, _ in members)
                continue
            points: list[_Point] = []
            for i, req in members:
                try:
                    if isinstance(req.device, DeviceSpec):
                        device = req.device
                    else:
                        # A batch reuses a handful of short names across
                        # hundreds of requests — resolve each name once.
                        device = device_memo.get(req.device)
                        if device is None:
                            device = get_device(req.device)
                            device_memo[req.device] = device
                except Exception as exc:
                    if not capture:
                        raise
                    failures.append((i, f"{type(exc).__name__}: {exc}"))
                    continue
                points.append(
                    _Point(
                        index=i, op=req.op, kernel=req.kernel,
                        kwargs=tuple(req.kernel_kwargs), k=int(req.k),
                        device=device,
                    )
                )
            if points:
                store_ref = None
                if publish:
                    try:
                        store_ref = get_store().publish(S)
                    except StoreError:
                        # Degrade to shipping the pickled matrix.
                        get_store().record_fallback()
                units.append(
                    _WorkUnit(
                        graph=gname, S=S, points=points,
                        check_plans=check, capture_errors=capture,
                        span=self.config.span, cat=self.config.cat,
                        store_ref=store_ref,
                    )
                )
        return units, failures

    @staticmethod
    def _resolve_matrix(
        gname: str | None,
        max_edges: int | None,
        matrices: dict[str, HybridMatrix] | None,
        matrix: HybridMatrix | None,
    ) -> HybridMatrix:
        if matrices and gname in matrices:
            return matrices[gname]
        if gname is None:
            if matrix is None:
                raise ValueError(
                    "request has no graph name and no matrix was supplied"
                )
            return matrix
        if matrix is not None and not matrices:
            # A single shared matrix serves named requests too (the
            # serve layer resolves its group's graph once, up front).
            return matrix
        return load_graph(gname, max_edges=max_edges).matrix


#: Process-wide default engine: inline, no plan checks — the drop-in
#: replacement for a bare ``make_spmm(name).estimate(...)`` call.
_DEFAULT: Engine | None = None


def default_engine() -> Engine:
    """The shared inline engine (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Engine()
    return _DEFAULT


# Re-exported so report consumers can validate bound labels alongside
# the engine types that carry them.
__all__ = [
    "VALID_BOUNDS",
    "BatchResult",
    "Engine",
    "EngineConfig",
    "EstimateRequest",
    "EstimateResult",
    "PlanCheckError",
    "STATUS_ERROR",
    "STATUS_OK",
    "Selection",
    "default_engine",
    "estimate_caching_enabled",
    "plan_checking_enabled",
]
