"""Huang's neighbor-grouping baseline (Huang et al., PPoPP'21).

Neighbor grouping splits long CSR rows into fixed-size tiles during a
*preprocessing* pass, producing an augmented row structure whose per-tile
work is bounded.  The kernel is then effectively balanced node-parallel:
each warp owns one tile.  Execution quality approaches HP-SpMM's (paper
Table IV: within ~2x), but the grouping pass is the most expensive of the
preprocess-based baselines, which rules it out for graph-sampling
training.
"""

from __future__ import annotations

import numpy as np

from ...gpusim import CostParams, DeviceSpec, simulate_launch
from ...formats import HybridMatrix, HybridMatrix as _Hybrid
from ..api import SpMMKernel, register_spmm
from ..common import matrix_hit_rate
from ..preproc import DEFAULT_HOST, HostCostParams, huang_preprocess_s
from .node_parallel import NodeParallelProfile, build_node_parallel_workload

HUANG_PROFILE = NodeParallelProfile(
    features_per_warp=64,
    vector_width=2,
    sparse_instr_per_nnz=0.5,
    sparse_sectors_per_nnz=0.25,
    misaligned_dense=False,
    row_overhead_instr=14.0,
    warps_per_block=8,
    registers_per_thread=40,
    shared_mem_per_block=8 * 32 * 8,
)


def neighbor_group_degrees(degrees: np.ndarray, tile: int) -> np.ndarray:
    """Split each row's degree into tiles of at most ``tile`` nonzeros.

    Returns the per-tile nnz array — the per-warp work distribution of
    the post-grouping kernel.  Vectorized: each row of degree ``d``
    contributes ``d // tile`` full tiles plus one remainder tile.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if tile <= 0:
        raise ValueError("tile must be positive")
    full = degrees // tile
    rem = degrees % tile
    n_tiles = int(full.sum() + np.count_nonzero(rem))
    out = np.empty(n_tiles, dtype=np.int64)
    # Full tiles first, then remainders — order inside the launch does not
    # change the balance statistics the cost model consumes.
    total_full = int(full.sum())
    out[:total_full] = tile
    out[total_full:] = rem[rem > 0]
    return out


@register_spmm
class HuangNGSpMM(SpMMKernel):
    """Neighbor grouping: preprocessing splits rows into bounded tiles."""

    name = "huang-ng"

    def __init__(
        self,
        *,
        tile: int = 256,
        profile: NodeParallelProfile = HUANG_PROFILE,
        host: HostCostParams = DEFAULT_HOST,
    ) -> None:
        self.tile = tile
        self.profile = profile
        self.host = host

    def _estimate(
        self,
        S: HybridMatrix,
        k: int,
        device: DeviceSpec,
        cost: CostParams,
    ) -> tuple:
        # Model the post-grouping kernel by synthesizing the tiled degree
        # distribution: one warp per tile, every tile bounded by `tile`.
        tile_nnz = neighbor_group_degrees(S.row_degrees(), self.tile)
        tiled = _tiled_view(S, tile_nnz)
        # The tiled view shares S's column stream; pricing it through S
        # keys the reuse profile by S's fingerprint instead of hashing a
        # fresh matrix on every estimate.
        work, config = build_node_parallel_workload(
            tiled, k, self.profile, device,
            hit_rate=matrix_hit_rate(S, "col", k * 4.0, device),
        )
        stats = simulate_launch(device, work, config, cost)
        return stats, huang_preprocess_s(S, self.host)


def _tiled_view(S: HybridMatrix, tile_nnz: np.ndarray) -> HybridMatrix:
    """A synthetic matrix whose rows are the grouped tiles of ``S``.

    Only the quantities the node-parallel cost model reads (row degrees
    and the column stream) are meaningful; values are reused as-is.
    """
    new_rows = np.repeat(
        np.arange(tile_nnz.size, dtype=np.int64), tile_nnz
    ).astype(S.row.dtype)
    # Column stream order is preserved: grouping is a row split, the nnz
    # sequence (and therefore locality) is unchanged.
    return _Hybrid(
        row=new_rows,
        col=S.col,
        val=S.val,
        shape=(int(tile_nnz.size), S.shape[1]),
    )
