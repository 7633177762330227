"""Experiment-acceleration subsystem: estimate memoization.

Two pillars (DESIGN.md §2, "perf/"):

* :mod:`repro.perf.fingerprint` — content fingerprints of matrices,
  devices, cost params and kernel configurations;
* :mod:`repro.perf.estimate_cache` — the sweep-level memo layer every
  ``SpMMKernel.estimate`` / ``SDDMMKernel.estimate`` call routes
  through (in-process LRU + optional on-disk JSON store).

Multi-process fan-out lives in :mod:`repro.engine.executors`.
"""

from .estimate_cache import (
    EstimateCache,
    EstimateCacheStats,
    cache_enabled,
    cached_estimate,
    estimate_cache_stats,
    get_estimate_cache,
)
from .fingerprint import (
    FEATURE_NAMES,
    dataclass_fingerprint,
    feature_vector,
    kernel_config_fingerprint,
    matrix_fingerprint,
    structural_features,
)

__all__ = [
    "EstimateCache",
    "EstimateCacheStats",
    "cache_enabled",
    "cached_estimate",
    "estimate_cache_stats",
    "get_estimate_cache",
    "FEATURE_NAMES",
    "dataclass_fingerprint",
    "feature_vector",
    "kernel_config_fingerprint",
    "matrix_fingerprint",
    "structural_features",
]
