"""A simulated shared-nothing server.

Each server owns a private store mapping *fragment names* (``"R"``, the
local part of R; ``"R@shuffled"``, tuples received in a shuffle round) to
fragments; all movement goes through :class:`repro.mpc.cluster.Cluster`
rounds. A fragment is one thing, a :class:`ChunkedColumns`: every column,
as the blocks that arrived, in order — a relation's tuples, the sorts'
(key, position) pairs, a group-by's partials and a matrix block's indices
alike. :func:`held` reads one, or its absence, as columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusterError
from repro.kernels.columnar import concatenated


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

    def check_arity(self, other: "ChunkedColumns") -> None:
        """Raise :class:`ClusterError` unless ``other`` has this arity."""
        if len(self.chunks) != len(other.chunks):
            raise ClusterError(
                f"a block of {len(other.chunks)} columns for a fragment of {len(self.chunks)}"
            )

    def extend(self, other: "ChunkedColumns") -> None:
        """Append ``other``'s blocks, of this arity (:meth:`check_arity`).
        Blocks of one column that differ in dtype meet as ``object``."""
        self.check_arity(other)
        for blocks, arrived in zip(self.chunks, other.chunks):
            blocks.extend(arrived)
        self.length += other.length

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return zip(*(column.tolist() for column in self.arrays()))


def held(fragment: ChunkedColumns, arity: int = 0) -> list[np.ndarray]:
    """A fragment's columns, its blocks concatenated — ``arity`` empty
    columns for an absent fragment (one of no columns)."""
    if not fragment.chunks:
        return [np.empty(0, dtype=np.int64) for _ in range(arity)]
    return fragment.arrays()


class Server:
    """One MPC server: an id and a private fragment store."""

    __slots__ = ("sid", "storage")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.storage: dict[str, ChunkedColumns] = {}

    def get(self, name: str) -> ChunkedColumns:
        """The *live* fragment ``name`` (empty if not stored): read, never mutate."""
        fragment = self.storage.get(name)
        return ChunkedColumns([]) if fragment is None else fragment

    def take(self, name: str) -> ChunkedColumns:
        """Remove and return the local fragment ``name`` (empty if absent):
        ask it for ``arrays()``, or iterate its tuples."""
        fragment = self.storage.pop(name, None)
        return ChunkedColumns([]) if fragment is None else fragment

    def put(self, name: str, fragment: ChunkedColumns) -> None:
        """Replace fragment ``name`` with ``fragment``."""
        self.storage[name] = fragment

    def append(self, name: str, part: ChunkedColumns) -> None:
        """Append ``part``'s blocks to fragment ``name``, of its arity; an
        absent or empty fragment *becomes* ``part`` (handed over, not copied)."""
        target = self.storage.get(name)
        if target:
            target.extend(part)
        else:
            self.storage[name] = part

    def append_result(self, name: str, result: tuple) -> None:
        """:meth:`append` a local step's result, a tuple of columns."""
        self.append(name, ChunkedColumns([[column] for column in result]))

    def local_size(self) -> int:
        """Total tuples currently stored on this server."""
        return sum(len(fragment) for fragment in self.storage.values())

    def __repr__(self) -> str:
        frags = {k: len(v) for k, v in self.storage.items()}
        return f"Server({self.sid}, {frags})"
