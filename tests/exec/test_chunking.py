"""chunk_bounds: the contiguous server→worker ownership map."""

import pytest

from repro.exec import chunk_bounds


@pytest.mark.parametrize("count,parts", [
    (0, 1), (1, 1), (1, 4), (7, 3), (8, 4), (16, 5), (100, 7), (3, 8),
])
def test_partition_properties(count, parts):
    bounds = chunk_bounds(count, parts)
    # Covers range(count) contiguously, in order, with no empty chunks.
    cursor = 0
    for start, stop in bounds:
        assert start == cursor
        assert stop > start
        cursor = stop
    assert cursor == count
    assert len(bounds) == min(count, parts)


def test_near_even_split():
    sizes = [stop - start for start, stop in chunk_bounds(10, 3)]
    assert sizes == [4, 3, 3]  # first count%parts chunks get the extra


def test_exact_split():
    assert chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_single_part_is_identity():
    assert chunk_bounds(5, 1) == [(0, 5)]


def test_invalid_parts():
    with pytest.raises(ValueError):
        chunk_bounds(4, 0)


def test_owning_worker_matches_bounds():
    from repro.exec.base import ProcessBackend
    from repro.mpc.cluster import Cluster

    cluster = Cluster(10, backend=ProcessBackend(3))
    owners = [cluster.owning_worker(sid) for sid in range(10)]
    assert owners == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_owning_worker_inline_is_zero():
    from repro.mpc.cluster import Cluster

    cluster = Cluster(6, backend="inline")
    assert {cluster.owning_worker(sid) for sid in range(6)} == {0}
