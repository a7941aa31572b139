"""A simulated shared-nothing server.

Each server owns a private key-value store mapping *fragment names* to
lists of tuples. Algorithms address fragments by name (e.g. ``"R"`` for
the locally stored part of relation R, or ``"R@shuffled"`` for tuples
received in a shuffle round). Servers never touch each other's storage;
all movement goes through :class:`repro.mpc.cluster.Cluster` rounds.
"""

from __future__ import annotations

from typing import Any

Row = tuple[Any, ...]


class ChunkedColumns:
    """A column side-car kept as the delivered per-send blocks.

    Delivery appends blocks in O(1); the concatenation the eager path
    would have done at the barrier is deferred to the first consumer
    that actually asks for whole columns (:meth:`arrays`).  ``length``
    reads block lengths without copying, so side-car validation stays
    zero-copy too.

    Holding every column, it also *is* a fragment — what a columnar local
    step leaves in :attr:`Server.storage`: sized and iterable like the
    row list it stands for (``tolist()`` rebuilds the very tuples), so
    audit snapshots, fault checkpoints and ``gather`` read it as rows.
    """

    __slots__ = ("chunks", "length")

    def __init__(self, chunks: list[list]) -> None:
        self.chunks = chunks  # chunks[i] = list of blocks of column i
        self.length = sum(len(block) for block in chunks[0]) if chunks else 0

    def arrays(self) -> list:
        import numpy as np

        return [
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            for blocks in self.chunks
        ]

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return zip(*(column.tolist() for column in self.arrays()))


def pick_columns(stored_idx: tuple[int, ...], columns: list | None, key_idx) -> list | None:
    """A side-car's arrays at ``key_idx``, ``None`` unless it holds them all.

    A side-car is named by the positions it carries, never by its length:
    ``T(z, x)`` routed on ``(x, z)`` travels with one in order ``(1, 0)``.
    """
    if columns is None or not set(key_idx) <= set(stored_idx):
        return None
    return [columns[stored_idx.index(i)] for i in key_idx]


class Server:
    """One MPC server: an id and a private fragment store.

    Besides the row store, a server keeps an optional *column side-car*
    per fragment: key-column arrays that travelled with a batched
    (kernel-routed) shuffle, letting the local computation skip
    re-extracting columns from the tuples. The side-car is a pure cache —
    it is dropped whenever the fragment is replaced or removed, and
    consumers must validate it against the row count (mutating the row
    list in place leaves a stale side-car behind, which the length check
    catches because every mutation path appends or removes rows).
    """

    __slots__ = ("sid", "storage", "column_cache")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.storage: dict[str, list[Row]] = {}
        # column_cache[name] = (key_positions, [one array per key position])
        self.column_cache: dict[str, tuple[tuple[int, ...], list]] = {}

    def fragment(self, name: str) -> list[Row]:
        """The local fragment ``name`` as a row list, created empty if absent."""
        rows = self.storage.setdefault(name, [])
        if isinstance(rows, ChunkedColumns):
            rows = self.storage[name] = list(rows)
        return rows

    def get(self, name: str) -> list[Row]:
        """The local fragment ``name``, or an empty list (not stored).

        Returns the *live* storage list — callers must not mutate it.
        Anything handed outside the simulator must copy first
        (:meth:`repro.mpc.cluster.Cluster.gather` does, by contract).
        """
        return self.storage.get(name, [])

    def take(self, name: str) -> list[Row]:
        """Remove and return the local fragment ``name`` (empty if absent)."""
        self.column_cache.pop(name, None)
        return self.storage.pop(name, [])

    def put(self, name: str, rows: list[Row]) -> None:
        """Replace fragment ``name`` with ``rows``."""
        self.column_cache.pop(name, None)
        self.storage[name] = rows

    def append_result(self, name: str, result: "list[Row] | tuple | None") -> None:
        """Append a local step's result to fragment ``name``: a row list, or
        a tuple of whole columns, kept as such while it is all there is."""
        if isinstance(result, tuple):
            result = ChunkedColumns([[column] for column in result])
            if not self.storage.get(name):
                self.storage[name] = result
                return
        self.fragment(name).extend(result or ())

    def put_columns(self, name: str, key_idx: tuple[int, ...], columns: list) -> None:
        """Attach a column side-car for fragment ``name``.

        ``columns[i]`` holds column ``key_idx[i]`` of every stored row,
        in row order.
        """
        self.column_cache[name] = (key_idx, columns)

    def put_column_chunks(
        self, name: str, key_idx: tuple[int, ...], chunk_lists: list[list]
    ) -> None:
        """Attach a *chunked* side-car (delivered blocks, not whole arrays).

        ``chunk_lists[i]`` is the ordered list of blocks making up column
        ``key_idx[i]``; concatenation is deferred until a consumer asks
        (:meth:`take_with_columns` materializes on demand).
        """
        self.column_cache[name] = (key_idx, ChunkedColumns(chunk_lists))

    def take_side_car(self, name: str) -> tuple[list[Row], tuple[int, ...], list | None]:
        """:meth:`take` plus the side-car, ``(rows, positions, arrays)``;
        ``arrays`` is ``None`` when it is missing or mismatches the row count."""
        rows = self.storage.pop(name, [])
        stored_idx, columns = self.column_cache.pop(name, ((), None))
        if isinstance(columns, ChunkedColumns):
            columns = columns.arrays() if columns.length == len(rows) else None
        if columns is not None and any(len(c) != len(rows) for c in columns):
            columns = None
        return rows, stored_idx, columns

    def take_with_columns(
        self, name: str, key_idx: tuple[int, ...]
    ) -> tuple[list[Row], list | None]:
        """:meth:`take` plus the side-car columns at ``key_idx``, if valid.

        The second element is one array per requested position (``None``
        when the side-car is missing, covers different positions, or does
        not match the row count — consumers then fall back to extracting
        columns from the tuples). All positions in order, it is the rows'
        columnar twin: the consumer needs no row list.
        """
        rows, stored_idx, columns = self.take_side_car(name)
        return rows, pick_columns(stored_idx, columns, key_idx)

    def drop(self, name: str) -> None:
        """Delete fragment ``name`` if present."""
        self.column_cache.pop(name, None)
        self.storage.pop(name, None)

    def local_size(self) -> int:
        """Total tuples currently stored on this server."""
        return sum(len(rows) for rows in self.storage.values())

    def __repr__(self) -> str:
        frags = {k: len(v) for k, v in self.storage.items()}
        return f"Server({self.sid}, {frags})"
