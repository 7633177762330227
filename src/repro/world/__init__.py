"""GraphWorld-style scenario universe: sample a parametric space of
synthetic graphs, run every registered kernel over it through the
engine, and emit crossover/ranking maps showing *where* each kernel
wins (``python -m repro.world``)."""

from .crossover import (
    DEFAULT_DEGREE_BUCKETS,
    DEFAULT_SKEW_BUCKETS,
    crossover_map,
    kernel_ranking,
)
from .features import structural_features
from .report import (
    SCHEMA,
    build_report,
    render_crossover_table,
    render_ranking_table,
    write_world_report,
)
from .sweep import (
    WorldPoint,
    WorldSweepResult,
    default_k,
    run_world_sweep,
)
from .universe import (
    DEFAULT_DEGREE_RANGE,
    DEFAULT_MIN_NODES,
    WorldConfig,
    build_world_graph,
    default_max_nodes,
    default_samples,
    default_seed,
    grid_universe,
    sample_universe,
)

__all__ = [
    "DEFAULT_DEGREE_BUCKETS",
    "DEFAULT_DEGREE_RANGE",
    "DEFAULT_MIN_NODES",
    "DEFAULT_SKEW_BUCKETS",
    "SCHEMA",
    "WorldConfig",
    "WorldPoint",
    "WorldSweepResult",
    "build_report",
    "build_world_graph",
    "crossover_map",
    "default_k",
    "default_max_nodes",
    "default_samples",
    "default_seed",
    "grid_universe",
    "kernel_ranking",
    "render_crossover_table",
    "render_ranking_table",
    "run_world_sweep",
    "sample_universe",
    "structural_features",
    "write_world_report",
]
