"""A small star-schema workload generator (warehouse-style).

The tutorial motivates its algorithms with cluster analytics (slide 2)
and the orders/customers aggregate of slide 52. This module generates a
coherent miniature warehouse so examples and benchmarks can run
"realistic" multi-relation queries:

- ``customers(cust, region, segment)`` — dimension, uniform over 8 regions;
- ``orders(order, cust, month)`` — fact, Zipf-skewed customer keys
  (whale customers);
- ``lineitems(order, part, qty)`` — fact, fan-out per order;
- ``parts(part, brand)`` — dimension.

All foreign keys are guaranteed to resolve, so joins never silently
drop tuples, and every relation is deterministic given the seed.

The module also hosts :class:`RelationWarehouse`, the *shared* catalog
the concurrent query service (:mod:`repro.service`) reads through: a
name → :class:`~repro.data.relation.Relation` map behind a
reader-writer lock. Queries hold the read side (many at once), catalog
changes and in-place mutations hold the write side (exclusive), and
every write notifies registered invalidation listeners — that is the
hook the service's result cache uses to drop entries for a relation the
moment it changes, rather than waiting for a token mismatch to miss.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.data.relation import Relation, Row
from repro.data.zipf import ZipfSampler
from repro.errors import QueryError


@dataclass
class Warehouse:
    """The four generated relations plus the generation parameters."""

    customers: Relation
    orders: Relation
    lineitems: Relation
    parts: Relation
    seed: int

    def relations(self) -> dict[str, Relation]:
        return {
            "Customers": self.customers,
            "Orders": self.orders,
            "Lineitems": self.lineitems,
            "Parts": self.parts,
        }

    @property
    def total_tuples(self) -> int:
        return sum(len(r) for r in self.relations().values())


def make_warehouse(
    n_customers: int = 500,
    n_orders: int = 5000,
    n_parts: int = 200,
    lineitems_per_order: int = 3,
    customer_skew: float = 1.2,
    seed: int = 0,
) -> Warehouse:
    """Generate a consistent star schema with skewed order ownership."""
    if min(n_customers, n_orders, n_parts, lineitems_per_order) <= 0:
        raise ValueError("all warehouse dimensions must be positive")
    rng = np.random.default_rng(seed)

    customers = Relation(
        "Customers",
        ["cust", "region", "segment"],
        [
            (c, int(rng.integers(0, 8)), c % 5)
            for c in range(n_customers)
        ],
    )

    owner = ZipfSampler(n_customers, customer_skew, seed=seed + 1).sample(n_orders)
    months = rng.integers(1, 13, size=n_orders)
    orders = Relation.from_columns(
        "Orders",
        ["order", "cust", "month"],
        [np.arange(n_orders, dtype=np.int64), np.asarray(owner), months],
    )

    part_choice = rng.integers(0, n_parts, size=n_orders * lineitems_per_order)
    qty = rng.integers(1, 10, size=n_orders * lineitems_per_order)
    lineitems = Relation.from_columns(
        "Lineitems",
        ["order", "part", "qty"],
        [
            np.repeat(np.arange(n_orders, dtype=np.int64), lineitems_per_order),
            part_choice,
            qty,
        ],
    )

    part_ids = np.arange(n_parts, dtype=np.int64)
    parts = Relation.from_columns("Parts", ["part", "brand"], [part_ids, part_ids % 20])
    return Warehouse(customers, orders, lineitems, parts, seed)


# --------------------------------------------------------------- shared catalog


class ReadWriteLock:
    """A writer-preferring reader-writer lock (stdlib primitives only).

    Any number of readers may hold the lock at once; a writer holds it
    exclusively. A waiting writer blocks *new* readers (writer
    preference), so a steady query stream cannot starve mutations. Not
    reentrant on either side — a thread holding the read lock must not
    ask for the write lock (that deadlocks, as in any non-upgradable RW
    lock).
    """

    def __init__(self) -> None:
        self._state = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._state:
            while self._writer or self._writers_waiting:
                self._state.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._state:
                self._readers -= 1
                if self._readers == 0:
                    self._state.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._state:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._state.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._state:
                self._writer = False
                self._state.notify_all()


class RelationWarehouse:
    """A thread-shared relation catalog behind a reader-writer lock.

    The concurrent query service executes every query under
    :meth:`read_view` and funnels every catalog change through
    :meth:`register` / :meth:`extend` / :meth:`replace`, which take the
    write side — so queries see a frozen catalog for their whole
    execution, and mutations never interleave with a running query.

    *Invalidation protocol*: every write calls each listener registered
    via :meth:`add_invalidation_listener` with the affected relation
    name **while still holding the write lock**. A result cache that
    drops its entries in the listener is therefore coherent by
    construction: no query can be concurrently filling the cache with
    the stale relation (fills need the read lock), and any query
    admitted after the write sees both the new relation state and the
    already-invalidated cache.
    """

    def __init__(self, relations: Mapping[str, Relation] | None = None) -> None:
        self._lock = ReadWriteLock()
        self._relations: dict[str, Relation] = {}
        self._listeners: list[Callable[[str], None]] = []
        self._mutations = 0
        if relations:
            for name, relation in relations.items():
                self._relations[name] = relation

    @classmethod
    def from_warehouse(cls, warehouse: Warehouse) -> "RelationWarehouse":
        """Wrap the star-schema generator's output as a shared catalog."""
        return cls(warehouse.relations())

    # -- read side ---------------------------------------------------------

    @contextmanager
    def read_view(self) -> Iterator[dict[str, Relation]]:
        """Hold the read lock and expose the catalog as a plain dict.

        The dict is a shallow snapshot: mutating it does not touch the
        warehouse, and the relations inside must be treated as
        read-only (their mutation tokens are what cache keys hang on).
        """
        with self._lock.read():
            yield dict(self._relations)

    def relation(self, name: str) -> Relation:
        with self._lock.read():
            try:
                return self._relations[name]
            except KeyError:
                raise QueryError(
                    f"no relation {name!r} in the warehouse "
                    f"(have {sorted(self._relations)})"
                ) from None

    def names(self) -> list[str]:
        with self._lock.read():
            return sorted(self._relations)

    def tokens(self, names: Iterable[str]) -> tuple[tuple[str, int, int], ...]:
        """(name, identity, mutation token) for each relation, under one read."""
        with self._lock.read():
            out = []
            for name in names:
                rel = self._relations.get(name)
                if rel is None:
                    raise QueryError(
                        f"no relation {name!r} in the warehouse "
                        f"(have {sorted(self._relations)})"
                    )
                out.append((name, id(rel), rel.mutation_token()))
            return tuple(out)

    @property
    def mutation_count(self) -> int:
        """How many write-side operations the warehouse has performed."""
        return self._mutations

    # -- write side --------------------------------------------------------

    def add_invalidation_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(relation_name)`` inside every future write."""
        self._listeners.append(listener)

    def _notify(self, name: str) -> None:
        self._mutations += 1
        for listener in self._listeners:
            listener(name)

    def register(self, relation: Relation, name: str | None = None) -> None:
        """Add (or replace) a relation under ``name`` (default: its own)."""
        key = name or relation.name
        with self._lock.write():
            self._relations[key] = relation
            self._notify(key)

    def replace(self, name: str, relation: Relation) -> None:
        """Replace an existing relation (raises if ``name`` is unknown)."""
        with self._lock.write():
            if name not in self._relations:
                raise QueryError(
                    f"no relation {name!r} in the warehouse "
                    f"(have {sorted(self._relations)})"
                )
            self._relations[name] = relation
            self._notify(name)

    def extend(self, name: str, rows: Iterable[Row]) -> None:
        """Append rows to a relation in place (bumps its mutation token).

        The append happens under the write lock, so no query can be
        half-way through the relation while it grows, and the
        invalidation listeners fire before any new query is admitted.
        """
        with self._lock.write():
            rel = self._relations.get(name)
            if rel is None:
                raise QueryError(
                    f"no relation {name!r} in the warehouse "
                    f"(have {sorted(self._relations)})"
                )
            rel.extend(rows)
            self._notify(name)
