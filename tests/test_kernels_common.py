"""Cost-model helpers: warp slicing, row segments, hit-rate splitting."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import TESLA_V100, FootprintCacheModel
from repro.kernels import common
from repro.kernels.common import (
    L2_EFFECTIVE_FRACTION,
    dense_row_alignment,
    estimate_hit_rate,
    matrix_hit_rate,
    output_write_sectors,
    per_warp_nnz,
    row_segments_per_slice,
    split_by_hit_rate,
    warp_slice_starts,
)


def test_warp_slice_starts():
    np.testing.assert_array_equal(warp_slice_starts(100, 32), [0, 32, 64, 96])
    np.testing.assert_array_equal(warp_slice_starts(96, 32), [0, 32, 64])
    assert warp_slice_starts(0, 32).size == 0
    with pytest.raises(ValueError):
        warp_slice_starts(10, 0)


def test_per_warp_nnz():
    np.testing.assert_array_equal(per_warp_nnz(100, 32), [32, 32, 32, 4])
    assert per_warp_nnz(0, 8).size == 0
    assert int(per_warp_nnz(100, 32).sum()) == 100


def test_row_segments_per_slice_basic():
    # rows: 0 0 0 1 1 2 | slices of 3: [0,0,0] -> 1 segment, [1,1,2] -> 2.
    row = np.array([0, 0, 0, 1, 1, 2])
    starts = warp_slice_starts(6, 3)
    np.testing.assert_array_equal(
        row_segments_per_slice(row, starts, 3), [1, 2]
    )


def test_row_segments_boundary_not_counted():
    # A row change exactly at a slice boundary is not an internal switch.
    row = np.array([0, 0, 1, 1])
    starts = warp_slice_starts(4, 2)
    np.testing.assert_array_equal(
        row_segments_per_slice(row, starts, 2), [1, 1]
    )


def test_row_segments_empty():
    assert row_segments_per_slice(np.array([]), np.array([], dtype=np.int64), 4).size == 0


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=200),
    st.integers(1, 64),
)
@settings(max_examples=60, deadline=None)
def test_row_segments_matches_naive(rows, npw):
    row = np.sort(np.array(rows))
    starts = warp_slice_starts(row.size, npw)
    got = row_segments_per_slice(row, starts, npw)
    for w, s in enumerate(starts):
        chunk = row[s : s + npw]
        expected = np.unique(chunk).size
        # Distinct rows == segments because rows are sorted.
        assert got[w] == expected
    # Total segments >= total distinct rows.
    assert got.sum() >= np.unique(row).size


def test_split_by_hit_rate():
    sectors = np.array([10.0, 20.0])
    l2, dram = split_by_hit_rate(sectors, 0.75)
    np.testing.assert_allclose(l2, [7.5, 15.0])
    np.testing.assert_allclose(dram, [2.5, 5.0])
    np.testing.assert_allclose(l2 + dram, sectors)


def test_split_by_hit_rate_clips():
    sectors = np.array([4.0])
    l2, dram = split_by_hit_rate(sectors, 1.7)
    np.testing.assert_allclose(dram, 0.0)


def test_estimate_hit_rate_empty():
    assert estimate_hit_rate(np.array([]), 256.0, TESLA_V100) == 0.0


def test_estimate_hit_rate_hot_stream():
    stream = np.zeros(10_000, dtype=np.int64)
    assert estimate_hit_rate(stream, 256.0, TESLA_V100) > 0.95


def test_estimate_hit_rate_memoized():
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 100_000, size=50_000)
    a = estimate_hit_rate(stream, 256.0, TESLA_V100)
    b = estimate_hit_rate(stream, 256.0, TESLA_V100)  # cached path
    assert a == b


def _direct_rate(stream, bytes_per_item, seed=0):
    """The model's answer for one query, with no memo involved."""
    return FootprintCacheModel(
        capacity_bytes=int(TESLA_V100.l2_cache_bytes * L2_EFFECTIVE_FRACTION),
        bytes_per_item=bytes_per_item,
        seed=seed,
    ).hit_rate(stream)


def test_hit_rate_memo_tells_apart_streams_with_equal_samples():
    # B copies A's size, 64 strided samples and first 4096 ids, and puts
    # a fresh id everywhere else: a key built from those parts alone
    # hands B the hit rate of A.
    rng = np.random.default_rng(5)
    n = 200_000
    a = rng.integers(0, 64, size=n)
    b = a.copy()
    fresh = np.ones(n, dtype=bool)
    fresh[:4096] = False
    fresh[:: n // 64] = False
    b[fresh] = 1_000 + np.arange(np.count_nonzero(fresh))
    common._HIT_RATE_CACHE.clear()
    rate_a = estimate_hit_rate(a, 256.0, TESLA_V100)
    rate_b = estimate_hit_rate(b, 256.0, TESLA_V100)
    assert rate_a == pytest.approx(0.99968)
    assert rate_b == _direct_rate(b, 256.0)
    assert rate_b < 0.05


def test_matrix_streams_are_keyed_by_fingerprint_and_role():
    from repro.perf import matrix_fingerprint
    from tests.conftest import random_hybrid

    S = random_hybrid(300, 300, 3000, seed=4)
    common._HIT_RATE_CACHE.clear()
    for role, seed in (("col", 1), ("row", 2)):
        rate = matrix_hit_rate(S, role, 16384.0, TESLA_V100, seed=seed)
        assert rate == _direct_rate(getattr(S, role), 16384.0, seed)
        assert (matrix_fingerprint(S), role) in common._HIT_RATE_CACHE
    assert len(common._HIT_RATE_CACHE) == 2


def test_hit_rate_memo_threads_agree_with_single_threaded_answers():
    rng = np.random.default_rng(9)
    streams = [rng.integers(0, 4000, size=20_000) for _ in range(3)]
    # V100 capacities of 12288, 3072, 768 and 192 items against ~3960
    # distinct ids: each stream's first query fits, and the later ones
    # add reuse counts and footprint curves to the shared profile.  All
    # threads walk the same order, so they race on every part.
    queries = [(i, bpi, seed) for i in range(len(streams))
               for bpi in (256.0, 1024.0, 4096.0, 16384.0) for seed in (0, 1)]
    expected = {q: _direct_rate(streams[q[0]], q[1], q[2]) for q in queries}
    answers: list[tuple] = []
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def worker():
        try:
            start.wait(timeout=10)
            for q in queries:
                i, bpi, seed = q
                answers.append(
                    (q, estimate_hit_rate(streams[i], bpi, TESLA_V100, seed=seed))
                )
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    common._HIT_RATE_CACHE.clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(answers) == 8 * len(queries)
    for q, rate in answers:
        assert rate == expected[q], q


def test_alignment_and_write_sectors():
    assert dense_row_alignment(64)
    assert dense_row_alignment(8)
    assert not dense_row_alignment(7)
    assert output_write_sectors(64) == 8
    assert output_write_sectors(7) == 1


def test_row_segments_rejects_empty_row_with_slices():
    starts = np.array([0, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="row array is empty"):
        row_segments_per_slice(np.array([], dtype=np.int64), starts, 4)


def test_row_segments_rejects_unsorted_row():
    row = np.array([0, 2, 1, 3], dtype=np.int64)
    starts = warp_slice_starts(4, 2)
    with pytest.raises(ValueError, match="non-decreasing") as exc:
        row_segments_per_slice(row, starts, 2)
    # The message names the offending index for fast diagnosis.
    assert "row[1]=2" in str(exc.value)
