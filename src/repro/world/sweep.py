"""Run every registered kernel over a sampled universe via the engine.

One :class:`~repro.engine.Engine` batch spans the whole universe —
``configs x kernels`` requests sharing one plan/execute pass — so the
sweep reuses everything the engine already provides: the zero-copy
shared store (matrices publish once and shard workers attach views),
the structural-fingerprint estimate cache, per-point spans, and
per-request error capture.  With ``workers >= 2`` the units fan out
over a one-shot :class:`~repro.engine.PoolExecutor`; results are
identical to inline dispatch either way, so the smoke CI can assert
byte determinism regardless of topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import env_int
from ..engine import (
    Engine,
    EngineConfig,
    EstimateRequest,
    PoolExecutor,
    make_kernel,
    resolve_jobs,
    valid_kernels,
)
from ..gpusim import DeviceSpec, get_device
from ..graphs import generate_graph
from ..obs import METRICS, trace_span
from ..tuning import select_partition
from .features import structural_features
from .universe import WorldConfig, build_world_graph


def default_k() -> int:
    """Env default for the sweep's feature width (``REPRO_WORLD_K``)."""
    return env_int("REPRO_WORLD_K", 32)


def supported_kernels(
    k: int, device: DeviceSpec, *, op: str = "spmm"
) -> tuple[list[str], dict[str, str]]:
    """Registered kernels that can estimate on ``device``, plus skips.

    Some kernels have hard device requirements — TC-GNN refuses any
    device without TF32 tensor cores — so "every registered kernel"
    means every kernel *eligible on the sweep's device*.  The probe is
    one estimate on a tiny fixed graph per kernel; ineligible kernels
    come back as ``{name: reason}`` so the report can say what was
    dropped rather than silently shrinking the field.
    """
    probe = generate_graph("chung-lu", 64, 256, seed=0)
    kept: list[str] = []
    skipped: dict[str, str] = {}
    for name in valid_kernels(op):
        try:
            make_kernel(op, name).estimate(probe, k, device)
        except Exception as exc:  # noqa: BLE001 - eligibility, not failure
            skipped[name] = f"{type(exc).__name__}: {exc}"
            continue
        kept.append(name)
    return kept, skipped


@dataclass
class WorldPoint:
    """One config's full evaluation: features, per-kernel times, winner."""

    config: WorldConfig
    features: dict
    kernels: dict            #: kernel name -> result record (status, times)
    winner: str | None       #: fastest kernel by total time (ok results)
    margin: float | None     #: runner-up total / winner total (>= 1.0)
    partition: dict          #: DTP/HVMA schedule chosen at this point

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "features": self.features,
            "kernels": self.kernels,
            "winner": self.winner,
            "margin": self.margin,
            "partition": self.partition,
        }


@dataclass
class WorldSweepResult:
    """Everything one universe sweep produced, pre-aggregation."""

    points: list[WorldPoint]
    kernels: list[str]
    k: int
    device: str
    errors: int = 0
    workers: int = 0
    degree_range: tuple[float, float] = (0.0, 0.0)
    rows: list = field(default_factory=list)  #: crossover-map input rows
    skipped_kernels: dict = field(default_factory=dict)  #: name -> reason

    @property
    def configs(self) -> int:
        return len(self.points)


def _result_record(res) -> dict:
    """One engine result as a JSON-ready kernel record."""
    if res.ok:
        return {
            "status": res.status,
            "time_s": res.time_s,
            "preprocessing_s": res.preprocessing_s,
            "total_time_s": res.total_time_s,
            "bound": res.bound,
            "gflops": res.gflops,
        }
    return {"status": res.status, "error": res.error}


def run_world_sweep(
    configs: list[WorldConfig],
    *,
    kernels: list[str] | None = None,
    k: int | None = None,
    device: str | DeviceSpec = "v100",
    workers: int | None = None,
) -> WorldSweepResult:
    """Evaluate ``kernels`` (default: every registered SpMM kernel) over
    every config; returns per-config winners plus crossover-map rows.

    ``workers`` defaults to ``REPRO_JOBS``; below 2 the sweep is inline.
    """
    k = default_k() if k is None else k
    workers = resolve_jobs() if workers is None else workers
    device_spec = get_device(device) if isinstance(device, str) else device
    skipped: dict[str, str] = {}
    if kernels:
        kernels = sorted(kernels)
    else:
        kernels, skipped = supported_kernels(k, device_spec)

    with trace_span(
        "world.sweep", cat="world", configs=len(configs), kernels=len(kernels)
    ):
        matrices, features = {}, {}
        for cfg in configs:
            with trace_span("world.generate", cat="world", config=cfg.name):
                S = build_world_graph(cfg)
            matrices[cfg.name] = S
            features[cfg.name] = structural_features(S)
        METRICS.inc("world.configs", len(configs))

        requests = [
            EstimateRequest(
                op="spmm", kernel=kernel, graph=cfg.name, k=k,
                device=device_spec,
            )
            for cfg in configs
            for kernel in kernels
        ]
        engine = Engine(
            EngineConfig(
                check_plans=False, capture_errors=True,
                span="world.estimate", cat="world",
            ),
            executor=PoolExecutor(workers),
        )
        batch = engine.estimate_batch(requests, matrices=matrices)

        by_graph = batch.by_graph()
        points: list[WorldPoint] = []
        rows: list[dict] = []
        errors = 0
        for cfg in configs:
            records: dict = {}
            for res in by_graph.get(cfg.name, ()):
                records[res.request.kernel] = _result_record(res)
                if not res.ok:
                    errors += 1
            # (total time, name) sort: name breaks exact ties so the
            # winner label is deterministic across executors.
            ordering = sorted(
                (rec["total_time_s"], name)
                for name, rec in records.items()
                if rec["status"] == "ok"
            )
            winner = ordering[0][1] if ordering else None
            margin = None
            if len(ordering) > 1 and ordering[0][0] > 0:
                margin = ordering[1][0] / ordering[0][0]
            part = select_partition(matrices[cfg.name].nnz, k, device_spec)
            points.append(
                WorldPoint(
                    config=cfg,
                    features=features[cfg.name],
                    kernels=records,
                    winner=winner,
                    margin=margin,
                    partition=part.schedule_dict(),
                )
            )
            rows.append(
                {
                    "mean_degree": cfg.mean_degree,
                    "skew": cfg.skew,
                    "winner": winner,
                    "margin": margin,
                    "kernels": records,
                }
            )
        METRICS.inc("world.evaluations", len(requests) - errors)
        if errors:
            METRICS.inc("world.errors", errors)

    degree_values = [cfg.mean_degree for cfg in configs] or [1.0]
    return WorldSweepResult(
        points=points,
        kernels=kernels,
        k=k,
        device=device_spec.name,
        errors=errors,
        workers=workers,
        degree_range=(min(degree_values), max(degree_values)),
        rows=rows,
        skipped_kernels=skipped,
    )
