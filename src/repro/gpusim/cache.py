"""L2 cache models for the simulator.

Two models are provided:

* :class:`FootprintCacheModel` — an analytic, fully-vectorized hit-rate
  estimator for long access streams based on reuse *time* and a sampled
  footprint function (Denning working-set theory: an access whose reuse
  window touches a footprint larger than the cache is a miss).  This is
  the model used by kernel cost models; it is what makes Graph Clustering
  based Reordering show up as fewer DRAM transactions.  Its per-stream
  work is a capacity-independent :class:`ReuseProfile`, so one stream
  priced at many (K, device) capacities is analysed once.

* :class:`LRUCache` — an exact set-associative LRU simulator used by the
  test-suite to validate the analytic estimator on small streams.

Both operate on *item* streams (e.g. the column index of each SpMM
nonzero), with a caller-supplied ``bytes_per_item`` (e.g. ``K * 4`` for a
feature-matrix row).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


def _stable_order(stream: np.ndarray) -> np.ndarray:
    """``np.argsort(stream, kind="stable")``, in linear time for integer ids.

    Integer ids are offset to start at 0 and sorted by 16-bit digits,
    least significant first (an LSD radix sort).  NumPy's stable sort of
    a 16-bit array is itself a radix sort, so each pass is O(n), and
    because every pass is stable the result is the same permutation the
    comparison sort returns.  Other dtypes use that sort directly.
    """
    if stream.dtype.kind not in "iu":
        return np.argsort(stream, kind="stable")
    lo = int(stream.min())
    span = int(stream.max()) - lo
    # Offsets from the minimum, exact in wrapping uint64 arithmetic
    # because each lies in [0, 2**64).
    keys = stream.astype(np.uint64) - np.uint64(lo % 2**64)
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while span >> shift:
        digit = (keys >> np.uint64(shift)).astype(np.uint16)
        order = order[np.argsort(digit[order], kind="stable")]
        shift += 16
    return order


def previous_positions(stream: np.ndarray) -> np.ndarray:
    """Position of the previous access to the same item, or ``-1``.

    Vectorized: one stable sort on item id (:func:`_stable_order`, linear
    for integer ids).  This array is the shared substrate of both
    :func:`reuse_times` (``i - prev[i]``) and :func:`sampled_footprint`
    (an access is the first of its item within window ``[s, s+w)`` iff
    ``prev[i] < s``).
    """
    stream = np.asarray(stream)
    n = stream.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = _stable_order(stream)
    sorted_items = stream[order]
    pos = order.astype(np.int64)
    out = np.full(n, -1, dtype=np.int64)
    same_as_prev = sorted_items[1:] == sorted_items[:-1]
    out[pos[1:]] = np.where(same_as_prev, pos[:-1], -1)
    return out


def reuse_times(stream: np.ndarray) -> np.ndarray:
    """Accesses elapsed since the previous access to the same item.

    Returns an int64 array aligned with ``stream``; first-ever accesses get
    ``-1``.
    """
    prev = previous_positions(stream)
    n = prev.size
    if n == 0:
        return prev
    return np.where(prev >= 0, np.arange(n, dtype=np.int64) - prev, -1)


def sampled_footprint(
    stream: np.ndarray,
    window_sizes: np.ndarray,
    samples_per_size: int = 48,
    seed: int = 0,
    *,
    prev: np.ndarray | None = None,
) -> np.ndarray:
    """Estimate the average number of distinct items in windows of each size.

    For each window size ``w`` the estimator averages exact distinct
    counts over ``samples_per_size`` windows at deterministic,
    evenly-spread offsets (salted by ``seed``).  The result is forced
    monotone non-decreasing in ``w`` (footprints are, in expectation).

    The count for a window ``[s, s+w)`` is the number of accesses whose
    previous same-item access falls before ``s`` — a single vectorized
    comparison against the :func:`previous_positions` array, instead of
    hashing every window with ``np.unique`` (which dominated whole
    experiment pipelines).  Callers that already hold the ``prev`` array
    can pass it to skip the one O(n log n) sort.
    """
    stream = np.asarray(stream)
    n = stream.size
    out = np.empty(len(window_sizes), dtype=np.float64)
    rng = np.random.default_rng(seed)
    if prev is None:
        prev = previous_positions(stream)
    for i, w in enumerate(window_sizes):
        w = int(min(w, n))
        if w <= 0:
            out[i] = 0.0
            continue
        max_start = n - w
        if max_start <= 0:
            starts = np.array([0])
        else:
            k = min(samples_per_size, max_start + 1)
            starts = np.unique(
                (rng.random(k) * (max_start + 1)).astype(np.int64)
            )
        counts = [
            int(np.count_nonzero(prev[s : s + w] < s)) for s in starts
        ]
        out[i] = float(np.mean(counts))
    return np.maximum.accumulate(out)


@dataclass(frozen=True)
class CacheStats:
    """Result of running a stream through a cache model."""

    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served by the cache (0 for an empty stream)."""
        return self.hits / self.accesses if self.accesses else 0.0


class ReuseProfile:
    """The capacity-independent part of one stream's L2 hit count.

    :class:`FootprintCacheModel` counts an access as a hit when it reuses
    an item within the largest sampled window whose footprint fits in the
    capacity, or on any reuse when the capacity holds every distinct
    item.  The stream therefore enters a query only through its access
    and distinct counts, the number of reuses whose reuse time is at most
    each window size, and the sampled footprint curve of each (seed,
    samples per size).  None of these depend on the capacity, so one
    profile answers every (bytes per item, cache size) query of its
    stream by a threshold lookup.

    Parts are built on first need from the stream passed to :meth:`hits`,
    which must be the stream the profile describes: the counts on the
    first query (one sort), the reuse counts and a footprint curve only
    when a capacity below the distinct count first asks for them.  A
    profile holds O(window sizes) numbers, never an O(n) array.  Each
    part is assigned whole once it is complete, so a query on a profile
    shared between threads finds a part absent or complete; two threads
    that build the same part build equal values.
    """

    #: Log-spaced window sizes used for footprint sampling.
    NUM_WINDOW_SIZES = 24

    def __init__(self) -> None:
        #: (accesses, distinct items), or None until the first query.
        self._counts: tuple[int, int] | None = None
        #: (window sizes, reuses with reuse time <= each size), or None.
        self._reuses: tuple[np.ndarray, np.ndarray] | None = None
        #: (seed, samples per size) -> monotone footprint per window size.
        self._footprints: dict[tuple[int, int], np.ndarray] = {}

    def hits(
        self,
        stream: np.ndarray,
        capacity_items: float,
        *,
        seed: int = 0,
        samples_per_size: int = 48,
    ) -> int:
        """Estimated hits of ``stream`` in a cache of ``capacity_items``."""
        prev = None
        counts = self._counts
        if counts is None:
            prev = previous_positions(stream)
            # Distinct items == first-ever accesses (prev < 0).
            counts = (prev.size, int(np.count_nonzero(prev < 0)))
            self._counts = counts
        accesses, distinct = counts
        if capacity_items >= distinct:
            # Everything fits: every non-cold access hits.
            return accesses - distinct
        reuses = self._reuses
        curve = self._footprints.get((seed, samples_per_size))
        if reuses is None or curve is None:
            if prev is None:
                prev = previous_positions(stream)
            if reuses is None:
                reuses = _reuses_within_windows(prev, self.NUM_WINDOW_SIZES)
                self._reuses = reuses
            if curve is None:
                curve = sampled_footprint(
                    stream,
                    reuses[0],
                    samples_per_size=samples_per_size,
                    seed=seed,
                    prev=prev,
                )
                self._footprints[(seed, samples_per_size)] = curve
        # Reuses within the largest window whose footprint still fits.
        fits = np.nonzero(curve <= capacity_items)[0]
        return int(reuses[1][fits[-1]]) if fits.size else 0


def _reuses_within_windows(
    prev: np.ndarray, num_sizes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced window sizes over ``[1, n]`` and, for each, the number
    of reuses whose reuse time ``i - prev[i]`` is at most that size."""
    n = prev.size
    sizes = np.unique(np.geomspace(1, n, num=num_sizes).astype(np.int64))
    reused = prev >= 0
    t = np.arange(n, dtype=np.int64)[reused] - prev[reused]
    # A reuse lies within every window from the first one at least as
    # long as its reuse time.
    first = np.searchsorted(sizes, t)
    within = np.cumsum(np.bincount(first, minlength=sizes.size + 1))
    return sizes, within[: sizes.size]


class FootprintCacheModel:
    """Analytic LRU hit-rate estimator for a single access stream.

    An access with reuse time ``t`` hits iff the expected footprint of a
    ``t``-access window fits in the effective capacity.  The effective
    capacity is the cache size divided by ``concurrency``, modelling the
    interleaving of many concurrent warps' streams (each warp sees only a
    fraction of the cache).  The stream-dependent work lives in a
    :class:`ReuseProfile`, which callers may keep to answer later queries
    of the same stream at other capacities.
    """

    def __init__(
        self,
        capacity_bytes: int,
        bytes_per_item: float,
        *,
        concurrency: float = 1.0,
        samples_per_size: int = 48,
        seed: int = 0,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if bytes_per_item <= 0:
            raise ValueError("bytes_per_item must be positive")
        if concurrency < 1.0:
            raise ValueError("concurrency must be >= 1")
        self.capacity_bytes = int(capacity_bytes)
        self.bytes_per_item = float(bytes_per_item)
        self.concurrency = float(concurrency)
        self.samples_per_size = int(samples_per_size)
        self.seed = int(seed)

    @property
    def capacity_items(self) -> float:
        """Items that fit in the effective (concurrency-shared) capacity."""
        return self.capacity_bytes / self.concurrency / self.bytes_per_item

    def run(
        self, stream: np.ndarray, profile: ReuseProfile | None = None
    ) -> CacheStats:
        """Estimate hits for ``stream`` (array of item ids, access order).

        ``profile`` is a :class:`ReuseProfile` of this same stream, queried
        and extended in place; a fresh one is used when omitted.
        """
        stream = np.asarray(stream)
        if profile is None:
            profile = ReuseProfile()
        hits = profile.hits(
            stream,
            self.capacity_items,
            seed=self.seed,
            samples_per_size=self.samples_per_size,
        )
        return CacheStats(accesses=stream.size, hits=hits)

    def hit_rate(
        self, stream: np.ndarray, profile: ReuseProfile | None = None
    ) -> float:
        """Convenience wrapper returning just the hit fraction."""
        return self.run(stream, profile).hit_rate


class LRUCache:
    """Exact set-associative LRU cache simulator (small streams only).

    Used in tests as ground truth for :class:`FootprintCacheModel`.
    ``num_sets == 1`` gives fully-associative LRU.
    """

    def __init__(
        self, capacity_items: int, *, num_sets: int = 1
    ) -> None:
        if capacity_items <= 0:
            raise ValueError("capacity_items must be positive")
        if num_sets <= 0 or capacity_items % num_sets != 0:
            raise ValueError("capacity must divide evenly into sets")
        self.capacity_items = capacity_items
        self.num_sets = num_sets
        self.ways = capacity_items // num_sets
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.accesses = 0

    def access(self, item: int) -> bool:
        """Access one item; returns True on hit."""
        s = self._sets[int(item) % self.num_sets]
        self.accesses += 1
        if item in s:
            s.move_to_end(item)
            self.hits += 1
            return True
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[item] = True
        return False

    def run(self, stream) -> CacheStats:
        """Run a whole stream; accumulates into and returns overall stats."""
        for item in np.asarray(stream).ravel():
            self.access(int(item))
        return CacheStats(accesses=self.accesses, hits=self.hits)
