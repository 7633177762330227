"""Tests for the cache models: exact LRU vs footprint estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    FootprintCacheModel,
    LRUCache,
    ReuseProfile,
    previous_positions,
    reuse_times,
    sampled_footprint,
)


# ---------------------------------------------------------------------
# reuse_times
# ---------------------------------------------------------------------
def test_reuse_times_basic():
    stream = np.array([1, 2, 1, 1, 3, 2])
    np.testing.assert_array_equal(
        reuse_times(stream), [-1, -1, 2, 1, -1, 4]
    )


def test_reuse_times_all_cold():
    np.testing.assert_array_equal(
        reuse_times(np.array([5, 4, 3])), [-1, -1, -1]
    )


def test_reuse_times_empty():
    assert reuse_times(np.array([])).size == 0


@given(st.lists(st.integers(0, 8), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_reuse_times_matches_naive(stream):
    stream = np.array(stream)
    out = reuse_times(stream)
    last: dict[int, int] = {}
    for i, item in enumerate(stream):
        expected = i - last[item] if item in last else -1
        assert out[i] == expected
        last[int(item)] = i


# ---------------------------------------------------------------------
# sampled_footprint
# ---------------------------------------------------------------------
def test_sampled_footprint_monotone():
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 50, size=2000)
    sizes = np.array([1, 10, 100, 1000, 2000])
    fp = sampled_footprint(stream, sizes)
    assert np.all(np.diff(fp) >= 0)
    assert fp[0] == 1.0
    assert fp[-1] <= 50


def test_sampled_footprint_constant_stream():
    fp = sampled_footprint(np.zeros(100, dtype=int), np.array([1, 50, 100]))
    np.testing.assert_allclose(fp, 1.0)


# ---------------------------------------------------------------------
# LRUCache (exact)
# ---------------------------------------------------------------------
def test_lru_basic_hit_miss():
    c = LRUCache(2)
    assert not c.access(1)
    assert not c.access(2)
    assert c.access(1)          # still resident
    assert not c.access(3)      # evicts 2 (LRU)
    assert not c.access(2)
    stats = c.run([])
    assert stats.accesses == 5
    assert stats.hits == 1


def test_lru_set_associative():
    c = LRUCache(4, num_sets=2)
    # Items 0, 2 map to set 0; 1, 3 map to set 1.
    for item in (0, 2, 4):
        c.access(item)  # set 0 holds 2 ways -> 0 evicted by 4
    assert not c.access(0)


def test_lru_validates():
    with pytest.raises(ValueError):
        LRUCache(0)
    with pytest.raises(ValueError):
        LRUCache(5, num_sets=2)


def test_cache_stats_hit_rate():
    c = LRUCache(8)
    stats = c.run([1, 1, 1, 2])
    assert stats.hit_rate == pytest.approx(0.5)
    assert stats.misses == 2


# ---------------------------------------------------------------------
# FootprintCacheModel vs exact LRU
# ---------------------------------------------------------------------
def test_footprint_all_fits():
    model = FootprintCacheModel(capacity_bytes=1024, bytes_per_item=1.0)
    stream = np.array([1, 2, 3, 1, 2, 3])
    # Everything fits: 3 cold misses, 3 hits.
    assert model.run(stream).hits == 3


def test_footprint_empty_stream():
    model = FootprintCacheModel(capacity_bytes=64, bytes_per_item=1.0)
    assert model.run(np.array([])).hit_rate == 0.0


def test_footprint_validates():
    with pytest.raises(ValueError):
        FootprintCacheModel(0, 1.0)
    with pytest.raises(ValueError):
        FootprintCacheModel(64, 0.0)
    with pytest.raises(ValueError):
        FootprintCacheModel(64, 1.0, concurrency=0.5)


def test_footprint_tracks_lru_on_cyclic_thrash():
    # Cyclic scan over more items than capacity: LRU hit rate is 0.
    stream = np.tile(np.arange(64), 20)
    model = FootprintCacheModel(capacity_bytes=16, bytes_per_item=1.0)
    exact = LRUCache(16).run(stream)
    approx = model.run(stream)
    assert exact.hit_rate == 0.0
    assert approx.hit_rate <= 0.15


def test_footprint_tracks_lru_on_local_stream():
    # Strong temporal locality: both should report high hit rates.
    rng = np.random.default_rng(1)
    blocks = [rng.integers(b * 8, b * 8 + 8, size=300) for b in range(12)]
    stream = np.concatenate(blocks)
    model = FootprintCacheModel(capacity_bytes=16, bytes_per_item=1.0)
    exact = LRUCache(16).run(stream)
    approx = model.run(stream)
    assert exact.hit_rate > 0.85
    assert approx.hit_rate > 0.75


def test_footprint_monotone_in_capacity():
    rng = np.random.default_rng(2)
    stream = rng.zipf(1.5, size=4000) % 1000
    rates = [
        FootprintCacheModel(capacity_bytes=c, bytes_per_item=1.0).hit_rate(
            stream
        )
        for c in (8, 64, 512, 4096)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))


def test_footprint_concurrency_shrinks_capacity():
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 256, size=4000)
    lone = FootprintCacheModel(capacity_bytes=128, bytes_per_item=1.0)
    shared = FootprintCacheModel(
        capacity_bytes=128, bytes_per_item=1.0, concurrency=8.0
    )
    assert shared.hit_rate(stream) <= lone.hit_rate(stream) + 1e-9
    assert shared.capacity_items == pytest.approx(16.0)


# ---------------------------------------------------------------------
# ReuseProfile vs the single-query algorithm it replaced
# ---------------------------------------------------------------------
def _reference_prev(stream):
    """previous_positions with its order from the comparison sort."""
    stream = np.asarray(stream)
    n = stream.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(stream, kind="stable")
    sorted_items = stream[order]
    pos = order.astype(np.int64)
    out = np.full(n, -1, dtype=np.int64)
    same_as_prev = sorted_items[1:] == sorted_items[:-1]
    out[pos[1:]] = np.where(same_as_prev, pos[:-1], -1)
    return out


def _reference_hits(stream, capacity_items, seed, samples_per_size):
    """The body FootprintCacheModel.run had before reuse profiles."""
    stream = np.asarray(stream)
    n = stream.size
    if n == 0:
        return 0
    prev = _reference_prev(stream)
    t = np.where(prev >= 0, np.arange(n, dtype=np.int64) - prev, -1)
    cap = capacity_items
    if cap >= int(np.count_nonzero(prev < 0)):
        return int(np.count_nonzero(t >= 0))
    sizes = np.unique(np.geomspace(1, n, num=24).astype(np.int64))
    fp = sampled_footprint(
        stream, sizes, samples_per_size=samples_per_size, seed=seed, prev=prev
    )
    fits = fp <= cap
    if not fits.any():
        threshold = 0
    else:
        threshold = int(sizes[np.nonzero(fits)[0][-1]])
    return int(np.count_nonzero((t >= 0) & (t <= threshold)))


def _equivalence_streams():
    rng = np.random.default_rng(7)
    blocks = [rng.integers(b * 16, b * 16 + 24, size=60) for b in range(10)]
    return {
        "uniform": rng.integers(0, 200, size=600),
        "zipf": rng.zipf(1.4, size=600) % 300,
        "local": np.concatenate(blocks),
        "length-1": np.array([7]),
        "one-id": np.full(60, 3),
        "all-distinct": rng.permutation(200),
        "short": np.array([5, 1, 5, 2, 1, 9, 5, 2, 2, 8, 1, 5]),
        "wide-ids": rng.integers(2**16, 2**40, size=150)[rng.integers(0, 150, size=400)],
        "negative-ids": rng.integers(-150, 150, size=400),
    }


def _capacities(stream):
    n = stream.size
    distinct = np.unique(stream).size
    sizes = np.unique(np.geomspace(1, n, num=24).astype(np.int64))
    caps = {distinct - 1, distinct, distinct + 1, *sizes.tolist()}
    return sorted(c for c in caps if c > 0)


@pytest.mark.parametrize("name", sorted(_equivalence_streams()))
def test_reuse_profile_matches_single_query_algorithm(name):
    stream = _equivalence_streams()[name]
    caps = _capacities(stream)
    # Seed 0 samples as many windows as the kernels' model does; the
    # other seeds sample fewer to keep the reference cheap.
    queries = [(c, seed, 48 if seed == 0 else 8) for c in caps
               for seed in range(5)]
    expected = {q: _reference_hits(stream, *q) for q in queries}
    for ordered in (queries, queries[::-1]):  # smallest- then largest-first
        profile = ReuseProfile()
        for cap, seed, samples in ordered:
            model = FootprintCacheModel(
                capacity_bytes=cap, bytes_per_item=1.0, seed=seed,
                samples_per_size=samples,
            )
            stats = model.run(stream, profile)
            assert stats.accesses == stream.size
            assert stats.hits == expected[(cap, seed, samples)], (cap, seed)


def test_reuse_profile_holds_no_stream_sized_array():
    stream = _equivalence_streams()["uniform"]
    profile = ReuseProfile()
    for cap in _capacities(stream):
        profile.hits(stream, float(cap), seed=1)
    parts = [*profile._reuses, *profile._footprints.values()]
    assert parts and all(p.size <= ReuseProfile.NUM_WINDOW_SIZES for p in parts)


def test_reuse_profile_that_fits_builds_no_window_parts():
    stream = _equivalence_streams()["zipf"]
    distinct = np.unique(stream).size
    profile = ReuseProfile()
    assert profile.hits(stream, float(distinct)) == stream.size - distinct
    assert profile._reuses is None and not profile._footprints


def test_previous_positions_matches_stable_argsort_form():
    rng = np.random.default_rng(11)
    streams = list(_equivalence_streams().values()) + [
        rng.integers(-128, 127, size=500).astype(np.int8),
        rng.integers(0, 2**16, size=3000).astype(np.uint16),
        rng.integers(0, 2**20, size=3000).astype(np.int32)[rng.integers(0, 3000, 5000)],
        (rng.integers(0, 2**63, size=400, dtype=np.uint64) * np.uint64(2)
         + np.uint64(1))[rng.integers(0, 400, size=800)],
        np.array([-(2**63), 2**63 - 1, 0, -(2**63), 5, 2**63 - 1], dtype=np.int64),
        np.array([3, -1, 3, -1], dtype=np.int64),
        rng.random(200).round(1),  # non-integer ids take the comparison sort
        np.array([], dtype=np.int64),
    ]
    for stream in streams:
        np.testing.assert_array_equal(
            previous_positions(stream), _reference_prev(stream)
        )
