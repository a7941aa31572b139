"""Distributed two-way joins on the MPC model."""

from repro.joins.base import JoinRun, join_schemas, require_join_key
from repro.joins.broadcast_join import broadcast_join
from repro.joins.cartesian import (
    cartesian_product,
    optimal_rectangle,
    predicted_cartesian_load,
)
from repro.joins.hash_join import parallel_hash_join
from repro.joins.heavy import allocate_servers, heavy_value_products
from repro.joins.local import (
    cartesian_rows,
    hash_join_rows,
    merge_join_rows,
    nested_loop_rows,
)
from repro.joins.skew_join import find_heavy_keys, skew_join
from repro.joins.sort_join import sort_join

__all__ = [
    "JoinRun",
    "allocate_servers",
    "broadcast_join",
    "cartesian_product",
    "cartesian_rows",
    "find_heavy_keys",
    "hash_join_rows",
    "heavy_value_products",
    "join_schemas",
    "merge_join_rows",
    "nested_loop_rows",
    "optimal_rectangle",
    "parallel_hash_join",
    "predicted_cartesian_load",
    "require_join_key",
    "skew_join",
    "sort_join",
]
