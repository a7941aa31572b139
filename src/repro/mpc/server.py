"""A simulated shared-nothing server.

Each server owns a private store mapping *fragment names* (``"R"``, the
local part of R; ``"R@shuffled"``, tuples received in a shuffle round) to
fragments; all movement goes through :class:`repro.mpc.cluster.Cluster`
rounds. A fragment is one thing: a :class:`ChunkedColumns` — every column,
as blocks — or a ``list`` of rows, never both: a relation and the sorts'
(key, position) pairs move as blocks, and the per-tuple senders (matrix
multiplication, the grid product, aggregation) move rows. :func:`held`
reads either as columns.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.kernels.columnar import columns_of, concatenated

Row = tuple[Any, ...]


class ChunkedColumns:
    """A columnar fragment: per column, the blocks that arrived, in order.

    Appending is O(1); concatenation waits for the first consumer that
    asks for whole columns (:meth:`arrays`). Sized and iterable like the
    row list it stands for (``tolist()`` rebuilds the very tuples), so
    audits, checkpoints and ``gather`` read it as rows. Blocks are never
    written in place: copies of the block lists share them.
    """

    __slots__ = ("chunks", "length")

    def __init__(self, chunks: list[list]) -> None:
        self.chunks = chunks  # chunks[i] = list of blocks of column i
        self.length = sum(map(len, chunks[0])) if chunks else 0

    def arrays(self) -> list[np.ndarray]:
        return [concatenated(blocks) for blocks in self.chunks]

    def extend(self, other: "ChunkedColumns") -> bool:
        """Append ``other``'s blocks if they have this arity; whether it did.
        (Blocks of one column that differ in dtype meet as ``object``.)"""
        fits = len(self.chunks) == len(other.chunks)
        if fits:
            for blocks, arrived in zip(self.chunks, other.chunks):
                blocks.extend(arrived)
            self.length += other.length
        return fits

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return zip(*(column.tolist() for column in self.arrays()))


def held(fragment: "list[Row] | ChunkedColumns", arity: int = 0) -> list[np.ndarray]:
    """A fragment's columns: its blocks concatenated, or its rows by the one
    column rule (:func:`repro.kernels.columnar.column_of`) — ``arity``
    empty columns for an empty row list."""
    if isinstance(fragment, ChunkedColumns):
        return fragment.arrays()
    return columns_of(fragment, arity)


class Server:
    """One MPC server: an id and a private fragment store."""

    __slots__ = ("sid", "storage")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.storage: dict[str, "list[Row] | ChunkedColumns"] = {}

    def fragment(self, name: str) -> list[Row]:
        """The local fragment ``name`` as a row list, created empty if absent."""
        rows = self.storage.setdefault(name, [])
        if isinstance(rows, ChunkedColumns):
            rows = self.storage[name] = list(rows)
        return rows

    def get(self, name: str) -> "list[Row] | ChunkedColumns":
        """The *live* fragment ``name`` (empty if not stored): read, never mutate."""
        return self.storage.get(name, [])

    def take(self, name: str) -> "list[Row] | ChunkedColumns":
        """Remove and return the local fragment ``name`` as held (empty if
        absent): ask column blocks for ``arrays()``, or iterate either."""
        return self.storage.pop(name, [])

    def put(self, name: str, rows: list[Row]) -> None:
        """Replace fragment ``name`` with ``rows``."""
        self.storage[name] = rows

    def append(self, name: str, part: "list[Row] | ChunkedColumns") -> None:
        """Append ``part``: blocks stay blocks on a columnar fragment and *become*
        an absent or empty one (handed over, not copied); else both meet as rows."""
        target, columnar = self.storage.get(name), isinstance(part, ChunkedColumns)
        if columnar and not target:
            self.storage[name] = part
        elif not (columnar and isinstance(target, ChunkedColumns) and target.extend(part)):
            self.fragment(name).extend(part)

    def append_result(self, name: str, result: "list[Row] | tuple | None") -> None:
        """:meth:`append` a local step's result: rows, or a tuple of columns."""
        if isinstance(result, tuple):
            result = ChunkedColumns([[column] for column in result])
        self.append(name, [] if result is None else result)

    def local_size(self) -> int:
        """Total tuples currently stored on this server."""
        return sum(len(rows) for rows in self.storage.values())

    def __repr__(self) -> str:
        frags = {k: len(v) for k, v in self.storage.items()}
        return f"Server({self.sid}, {frags})"
