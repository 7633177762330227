"""Fig. 12 — sensitivity to node-degree variance.

Ten graphs with the same mean degree (21-25 in the paper) and ascending
degree standard deviation; the y-axis is HP-SpMM's speedup over GE-SpMM
(node-parallel, so variance hurts it).  The paper reports Pearson's
r = 0.90 between degree std-dev and speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EstimateRequest, PoolExecutor, default_engine
from ..gpusim import DeviceSpec, TESLA_V100
from ..graphs import DegreeStats, pearson_r, variance_graph, variance_suite_specs
from .tables import render_table


@dataclass
class Fig12Result:
    """(degree std-dev, speedup) series plus the correlation."""

    stds: list[float]
    speedups: list[float]
    pearson: float
    mean_degrees: list[float]

    def render(self) -> str:
        rows = [
            [i + 1, self.mean_degrees[i], self.stds[i], self.speedups[i]]
            for i in range(len(self.stds))
        ]
        table = render_table(
            ["graph #", "mean degree", "degree std", "speedup over GE-SpMM (x)"],
            rows,
            title="Fig. 12 — speedup vs node-degree standard deviation",
        )
        return table + f"\nPearson's r = {self.pearson:.3f} (paper: 0.90)"


def _fig12_one_graph(
    item: tuple[tuple[int, float, float, int], int, DeviceSpec],
) -> tuple[float, float, float]:
    """Generate one suite graph and time both kernels on it.

    Module-level so :class:`~repro.engine.PoolExecutor` can fan graph
    construction *and* estimation over worker processes (each graph is
    independent).
    Returns ``(degree std, mean degree, speedup)``.
    """
    spec, k, device = item
    graph = variance_graph(spec)
    st = DegreeStats.of(graph)
    # Inline engine inside the worker: the fan-out is already per-graph
    # here, so each worker evaluates its two kernels serially.
    eng = default_engine()
    t_hp = eng.estimate(
        EstimateRequest(op="spmm", kernel="hp-spmm", k=k, device=device),
        matrix=graph,
    ).time_s
    t_ge = eng.estimate(
        EstimateRequest(op="spmm", kernel="ge-spmm", k=k, device=device),
        matrix=graph,
    ).time_s
    return st.std, st.mean, t_ge / t_hp


def run_fig12(
    *,
    k: int = 64,
    device: DeviceSpec = TESLA_V100,
    num_graphs: int = 10,
    num_nodes: int = 20_000,
    mean_degree: float = 23.0,
    seed: int = 7,
) -> Fig12Result:
    """Run the degree-variance sensitivity experiment."""
    specs = variance_suite_specs(
        num_graphs=num_graphs,
        num_nodes=num_nodes,
        mean_degree=mean_degree,
        seed=seed,
    )
    rows = PoolExecutor().map(
        _fig12_one_graph, [(spec, k, device) for spec in specs]
    )
    # Ascending std-dev order, as in the paper's figure (and as
    # variance_suite orders the graphs).
    rows.sort(key=lambda r: r[0])
    stds = [r[0] for r in rows]
    means = [r[1] for r in rows]
    speedups = [r[2] for r in rows]
    return Fig12Result(
        stds=stds,
        speedups=speedups,
        pearson=pearson_r(stds, speedups),
        mean_degrees=means,
    )
