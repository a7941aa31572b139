"""Parallel sorting in the MPC model: PSRS and multi-round sample sort."""

from repro.sorting.band_join import band_join, reference_band_join
from repro.sorting.multiround import expected_rounds, multiround_sort
from repro.sorting.psrs import psrs_partition, psrs_sort
from repro.sorting.splitters import (
    bucket_of,
    choose_splitters,
    random_sample,
    regular_sample,
)

__all__ = [
    "band_join",
    "bucket_of",
    "choose_splitters",
    "expected_rounds",
    "multiround_sort",
    "psrs_partition",
    "psrs_sort",
    "random_sample",
    "reference_band_join",
    "regular_sample",
]
