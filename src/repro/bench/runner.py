"""Shared experiment machinery: kernel sweeps and speedup aggregation.

Conventions follow the paper's Section IV-A: times are kernel execution
only (format conversion excluded; hybrid CSR/COO needs none), speedups
are averaged per-graph ratios against HP kernels, and the "percentage"
column is the fraction of graphs on which the HP kernel is faster.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

import numpy as np

from ..engine import (
    Engine,
    EngineConfig,
    EstimateRequest,
    # Re-exported: historically defined here; tests and callers import
    # them from the runner.
    PlanCheckError,  # noqa: F401
    PoolExecutor,
    plan_checking_enabled,  # noqa: F401
)
from ..config import env_str
from ..formats import HybridMatrix
from ..gpusim import DeviceSpec, TESLA_V100
from ..obs import METRICS, trace_span, write_manifest

#: Paper kernel display names for the standard comparison sets.
SPMM_BASELINES: tuple[str, ...] = (
    "cusparse-csr-alg2",
    "cusparse-csr-alg3",
    "cusparse-coo-alg4",
    "ge-spmm",
    "row-split",
)
SDDMM_BASELINES: tuple[str, ...] = ("dgl-sddmm", "cusparse-csr-sddmm")


@dataclass(frozen=True)
class KernelRun:
    """One kernel on one graph."""

    graph: str
    kernel: str
    time_s: float
    preprocessing_s: float
    gflops: float

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6


@dataclass
class SweepResult:
    """All kernels over all graphs of one dataset."""

    device: str
    k: int
    runs: list[KernelRun] = field(default_factory=list)
    #: Plans verified by the static schedule checker before simulation;
    #: 0 means checking was skipped (REPRO_NO_PLAN_CHECK) — visible so a
    #: sweep that bypassed verification cannot masquerade as checked.
    plans_checked: int = 0
    #: Per-severity totals from the checker (error/warning/info).
    plan_diagnostics: dict = field(default_factory=dict)

    def plan_check_summary(self) -> str:
        """One-line checker summary for harness output."""
        if not self.plans_checked:
            return "plan-check: skipped (REPRO_NO_PLAN_CHECK=1)"
        c = self.plan_diagnostics
        return (
            f"plan-check: {self.plans_checked} plans verified "
            f"({c.get('error', 0)} errors, {c.get('warning', 0)} warnings, "
            f"{c.get('info', 0)} info)"
        )

    def times(self, kernel: str) -> dict[str, float]:
        return {r.graph: r.time_s for r in self.runs if r.kernel == kernel}

    def speedups_vs(self, ours: str, baseline: str) -> np.ndarray:
        """Per-graph ratio baseline_time / our_time (aligned by graph)."""
        t_ours = self.times(ours)
        t_base = self.times(baseline)
        graphs = [g for g in t_ours if g in t_base]
        return np.array([t_base[g] / t_ours[g] for g in graphs])

    def summary_vs(self, ours: str, baseline: str) -> tuple[float, float]:
        """(average speedup, win percentage) — the Table III columns."""
        s = self.speedups_vs(ours, baseline)
        if s.size == 0:
            return float("nan"), float("nan")
        return float(s.mean()), float(100.0 * np.mean(s > 1.0))


#: Sweep pipeline policy: plan-check every point (honoring
#: ``REPRO_NO_PLAN_CHECK``), one ``sweep_point[<op>]`` span per
#: kernel x graph evaluation on the bench trace category.
_SWEEP_CONFIG = EngineConfig(
    check_plans=None, span="sweep_point[{op}]", cat="bench"
)


def _sweep(
    op: str,
    graphs: list[tuple[str, HybridMatrix]],
    kernels: tuple[str, ...],
    *,
    k: int,
    device: DeviceSpec,
    jobs: int | None,
    kernels_by_graph: dict | None = None,
) -> SweepResult:
    out = SweepResult(device=device.name, k=k)
    # Graphs-outer / kernels-inner: the engine groups requests per graph
    # (one fan-out unit each, evaluated in request order), reproducing
    # the historical sweep order exactly.  ``kernels_by_graph``
    # restricts individual graphs to a chosen subset — the selection
    # layer's predicted frontier — without perturbing this ordering.
    matrices = {gname: S for gname, S in graphs}
    per_graph = kernels_by_graph or {}
    requests = [
        EstimateRequest(op=op, kernel=kname, graph=gname, k=k, device=device)
        for gname, _ in graphs
        for kname in per_graph.get(gname, kernels)
    ]
    METRICS.inc("bench.sweeps")
    engine = Engine(_SWEEP_CONFIG, executor=PoolExecutor(jobs=jobs))
    # A plan-check failure propagates as PlanCheckError (the engine
    # counts ``plan_check.failed``) instead of returning partial runs.
    with trace_span(
        f"sweep[{op}]", cat="bench",
        k=k, device=device.name, graphs=len(graphs),
        kernels=len(kernels),
    ):
        batch = engine.estimate_batch(requests, matrices=matrices)
    for res in batch:
        out.runs.append(
            KernelRun(
                graph=res.request.graph,
                kernel=res.request.kernel,
                time_s=res.time_s,
                preprocessing_s=res.preprocessing_s,
                gflops=res.gflops,
            )
        )
    out.plans_checked = batch.plans_checked
    out.plan_diagnostics = dict(batch.plan_diagnostics)
    if graphs:
        # Surface to stderr so report files stay byte-identical.
        print(
            f"[{op} sweep k={k} {device.name}] {out.plan_check_summary()}",
            file=sys.stderr,
        )
    return out


def sweep_spmm(
    graphs: list[tuple[str, HybridMatrix]],
    kernels: tuple[str, ...],
    *,
    k: int = 64,
    device: DeviceSpec = TESLA_V100,
    jobs: int | None = None,
    kernels_by_graph: dict | None = None,
) -> SweepResult:
    """Timing-only SpMM sweep of ``kernels`` over named graphs.

    ``jobs`` (default: the ``REPRO_JOBS`` environment variable) fans
    per-graph work over that many worker processes
    (:class:`~repro.engine.PoolExecutor`); results keep graph order.
    ``kernels_by_graph`` maps graph names to a kernel subset to sweep
    there instead of ``kernels`` (the predicted-frontier path).
    """
    return _sweep(
        "spmm", graphs, kernels, k=k, device=device, jobs=jobs,
        kernels_by_graph=kernels_by_graph,
    )


def sweep_sddmm(
    graphs: list[tuple[str, HybridMatrix]],
    kernels: tuple[str, ...],
    *,
    k: int = 64,
    device: DeviceSpec = TESLA_V100,
    jobs: int | None = None,
) -> SweepResult:
    """Timing-only SDDMM sweep of ``kernels`` over named graphs."""
    return _sweep("sddmm", graphs, kernels, k=k, device=device, jobs=jobs)


def results_dir() -> str:
    """Directory where experiment reports are written."""
    base = env_str("REPRO_RESULTS_DIR") or os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))),
        "results",
    )
    os.makedirs(base, exist_ok=True)
    return base


def write_report(
    experiment_id: str, text: str, *, config: dict | None = None
) -> str:
    """Persist a rendered experiment report; returns the path.

    A run manifest (``<experiment_id>.manifest.json`` — env flags,
    versions, unified metrics snapshot; see :mod:`repro.obs.manifest`)
    is written next to the report.  The report text itself is untouched,
    so reports stay byte-identical with or without observability on.
    """
    base = results_dir()
    path = os.path.join(base, f"{experiment_id}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    METRICS.inc("bench.reports")
    write_manifest(experiment_id, base, config)
    return path
