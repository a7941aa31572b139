"""In-memory relations: one read-only column per attribute.

The MPC model of the tutorial counts communication in *tuples*, and the
differential oracles compare results as multisets of tuples — but the
hot paths (routing, delivery, local joins, splitter search) are all
vectorized over numpy columns. A :class:`Relation` holds one 1-D array
per attribute, made by the one column rule
(:func:`repro.kernels.columnar.column_of`): ``int64`` (or ``uint64``)
when every value is a built-in ``int``, else ``object``, which holds the
very values it was given. The columns are the ground truth; the tuple
view is derived from them on first use and cached.

**A relation owns what it holds.** Nothing a caller keeps can change it:
:meth:`rows` hands out a fresh list, the constructor reads the caller's
rows into columns of its own, and every array it holds is read-only
(:func:`_frozen`). So the content changes only through
:meth:`add`/:meth:`extend`, each of which moves the **monotonic mutation
token** (:meth:`mutation_token`) once, and every derived cache — here and
in :mod:`repro.kernels.memo` — is valid while the token is unchanged.

The class offers the small relational-algebra surface the parallel
algorithms need: projection, selection, renaming, key extraction, degree
(frequency) statistics, and exact local joins for verifying distributed
results.

**Concurrency contract.** A relation may be read from many threads at
once — :meth:`rows`, :meth:`rows_readonly`, :meth:`columns`, and the pure
operators (project/select/join/...) are safe under concurrent readers,
including when the lazy tuple derivation races: the cache fill and the
mutation bookkeeping of :meth:`extend` happen under a per-relation lock,
so no reader can ever observe a half-built view. *Mutations are not
serialized against readers*: callers that interleave :meth:`add`/
:meth:`extend` with concurrent reads must provide external
synchronization (the :class:`repro.data.warehouse.RelationWarehouse`
writer lock is the service layer's way of doing exactly that) — the lock
here guarantees the relation's *internal* coherency, not snapshot
isolation.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.kernels.columnar import (
    column_of,
    columns_of,
    concatenated,
    exact,
    is_object,
    pack_columns,
    zip_rows,
)
from repro.kernels.join import code_key_columns, join_indices, locate, narrow_codes
from repro.kernels.memo import degree_view

Row = tuple[Any, ...]


def _as_column(values: Any) -> np.ndarray:
    """One column as a relation holds it: an integer array as ``int64``
    (``uint64`` kept), an ``object`` array as is, anything else by the one
    rule over its values."""
    if not isinstance(values, np.ndarray):
        values = column_of(list(values))
    if values.ndim != 1:
        raise SchemaError(f"a column must be 1-D, got shape {values.shape}")
    kind = values.dtype.kind
    if kind in "biu":
        return values if values.dtype in (np.int64, np.uint64) else values.astype(np.int64)
    return values if kind == "O" else column_of(values.tolist())


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column`` as a relation holds it: read-only, so no write can change
    the relation without moving its token. A writable array that owns its
    memory is frozen in place (for whoever handed it over, too); a
    writable view is copied once, since its base may be written through
    elsewhere; a read-only array is adopted as is."""
    if column.flags.writeable:
        if not column.flags.owndata:
            column = column.copy()
        column.flags.writeable = False
    return column


def _checked(name: str, arity: int, rows: Iterable[Row]) -> list[Row]:
    """``rows`` as a list of tuples, every one of them of ``arity``."""
    rows = list(map(tuple, rows))
    if rows and set(map(len, rows)) != {arity}:
        bad = next(row for row in rows if len(row) != arity)
        raise SchemaError(f"tuple {bad!r} has arity {len(bad)}, schema {name} expects {arity}")
    return rows


class Relation:
    """A named relation: schema + bag of tuples (duplicates allowed).

    >>> r = Relation("R", ["x", "y"], [(1, 2), (1, 3)])
    >>> len(r)
    2
    >>> r.project(["x"]).rows()
    [(1,), (1,)]
    """

    __slots__ = ("name", "schema", "_cols", "_rows", "_version", "_lock", "__weakref__")

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[str],
        rows: Iterable[Row] = (),
    ) -> None:
        """The relation over ``rows``, read into columns by the one rule
        (the caller's list and tuples are not kept; their values are)."""
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        self._install(name, schema, columns_of(_checked(name, schema.arity, rows), schema.arity))

    def _install(self, name: str, schema: Schema, cols: list[np.ndarray]) -> "Relation":
        self.name = name
        self.schema = schema
        self._cols = [_frozen(c) for c in cols]
        self._rows: list[Row] | None = None  # the derived tuple view
        self._version = 0
        # Guards the tuple derivation and the mutation bookkeeping — see
        # the module-level concurrency contract. Never held while user
        # code runs.
        self._lock = threading.Lock()
        return self

    @classmethod
    def _over(
        cls, name: str, schema: Schema | Sequence[str], cols: list[np.ndarray]
    ) -> "Relation":
        """A relation over normalized arrays that are now its own."""
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        return cls.__new__(cls)._install(name, schema, cols)

    # ------------------------------------------------------------------ basic

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema | Sequence[str],
        columns: Sequence[Any],
    ) -> "Relation":
        """Build a relation from one column per attribute.

        A column is an array or a sequence of values, all of equal length.
        Integer arrays are normalized to ``int64`` (``uint64`` is kept for
        values above the signed range) and ``object`` arrays are held as
        they are; anything else goes by the one rule, so an empty value
        list is an empty ``int64`` column. ``rows()[k][i]`` is exactly
        ``columns[i][k]`` as ``tolist()`` gives it. An input array the
        relation can own is frozen in place (:func:`_frozen`): a later
        write through the caller's reference raises.
        """
        return cls._holding(name, schema, [_as_column(c) for c in columns])

    @classmethod
    def from_chunks(
        cls,
        name: str,
        schema: Schema | Sequence[str],
        chunk_lists: Sequence[Sequence[Any]],
    ) -> "Relation":
        """Build a relation from per-column lists of blocks.

        ``chunk_lists[i]`` is the ordered list of 1-D blocks that make up
        column ``i``; each column is concatenated here (a lone block is
        owned as :meth:`from_columns` owns a column, and blocks of
        different dtypes meet as ``object``).
        """
        return cls._holding(
            name, schema, [concatenated([_as_column(b) for b in blocks]) for blocks in chunk_lists]
        )

    @classmethod
    def _holding(
        cls, name: str, schema: Schema | Sequence[str], cols: list[np.ndarray]
    ) -> "Relation":
        """A relation over arrays that are now its own, checked first."""
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        if len(cols) != schema.arity:
            raise SchemaError(f"{len(cols)} columns for schema {name} of arity {schema.arity}")
        if any(len(c) != len(cols[0]) for c in cols):
            raise SchemaError(f"column lengths differ: {[len(c) for c in cols]}")
        return cls._over(name, schema, cols)

    def __getstate__(self) -> dict:
        # The per-relation lock is not picklable (and must not be shared
        # across processes anyway); a fresh one is created on unpickle.
        # Weak references (the memo's) and the derived tuple view stay
        # behind; everything else round-trips verbatim.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_lock", "__weakref__", "_rows")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()
        self._rows = None
        self._cols = [_frozen(c) for c in self._cols]  # numpy unpickles writable

    def _materialize(self) -> list[Row]:
        """The tuple view, deriving (and caching) it from the columns."""
        rows = self._rows
        if rows is None:
            # Lazy derivation races with other readers: take the lock,
            # re-check, and let exactly one thread build the view.
            with self._lock:
                rows = self._rows
                if rows is None:
                    rows = self._rows = zip_rows(self._cols)
        return rows

    def rows(self) -> list[Row]:
        """The tuples as a fresh list the caller owns.

        Editing it changes nothing here: the mutation token and every
        cache stay as they were.
        """
        return list(self._materialize())

    def rows_readonly(self) -> list[Row]:
        """The tuple view itself, for callers that promise not to mutate
        it — the copy-free accessor of internal hot paths (CSV writing,
        oracles, reference plans).
        """
        return self._materialize()

    def mutation_token(self) -> int:
        """Monotonic token, moved once by every ``add``/``extend``.

        Cache layers key derived state on ``(id(relation), token)``; a
        stale entry can then never be served after ``add``/``extend`` —
        see :mod:`repro.kernels.memo`, which owns that policy.
        """
        return self._version

    def columns(self) -> list[np.ndarray]:
        """One read-only ``int64``, ``uint64`` or ``object`` array per
        attribute: the relation's own, at zero cost."""
        return self._cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __iter__(self) -> Iterator[Row]:
        return iter(self._materialize())

    def __contains__(self, row: object) -> bool:
        return row in set(self._materialize())

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema attributes and same multiset of tuples."""
        if isinstance(other, Relation):
            return (
                self.schema == other.schema
                and Counter(self._materialize()) == Counter(other._materialize())
            )
        return NotImplemented

    def __hash__(self) -> int:  # relations are mutable bags; identity hash
        return id(self)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {list(self.schema.attributes)!r}, {len(self)} rows)"

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.schema.attributes

    def add(self, row: Row) -> None:
        """Append one tuple (arity-checked); bumps the mutation token."""
        self.extend([row])

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many tuples; one bump of the mutation token per call.

        Arity is checked before anything is appended: a bad row rejects
        the whole call. Each column grows by one block (a block of
        another dtype makes the column ``object``). An empty ``rows`` is a
        no-op.
        """
        new = _checked(self.name, self.schema.arity, rows)
        if not new:
            return
        suffix = columns_of(new, self.schema.arity)
        with self._lock:
            self._cols = [_frozen(concatenated(pair)) for pair in zip(self._cols, suffix)]
            if self._rows is not None:  # the derived view grows with it
                self._rows.extend(new)
            self._version += 1

    def _taken(self, name: str, at: Any) -> "Relation":
        """The rows at ``at`` (a mask or positions) as a relation ``name``."""
        return Relation._over(name, self.schema, [c[at] for c in self._cols])

    # ------------------------------------------------------------- operations

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection (bag semantics: duplicates are kept)."""
        return Relation._over(
            name or self.name, self.schema.project(attributes),
            [self._cols[i] for i in self.schema.indices(attributes)],
        )

    def distinct(self, name: str | None = None) -> "Relation":
        """Set-semantics copy with duplicates removed (first occurrence kept):
        over a narrow span of ``int64`` codes (``narrow_codes``), the rows that
        are the first of their slot (``np.minimum.at`` over positions), else
        the first of each code's run in one sort."""
        packed = narrow_codes(self._cols)
        if packed is not None:
            codes, span, _radix = packed
            rows = np.arange(len(self))
            first = np.full(span, len(self))
            np.minimum.at(first, codes, rows)
            return self._taken(name or self.name, first[codes] == rows)
        codes, _ = code_key_columns(self._cols, [c[:0] for c in self._cols])
        first = np.unique(codes, return_index=True)[1]
        return self._taken(name or self.name, np.sort(first))

    def select(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Selection by an arbitrary predicate on the raw tuple."""
        rows = self._materialize()
        keep = np.fromiter((bool(predicate(row)) for row in rows), dtype=bool, count=len(rows))
        return self._taken(name or self.name, keep)

    def select_eq(self, attribute: str, value: Any, name: str | None = None) -> "Relation":
        """Selection ``attribute == value``."""
        column = self._cols[self.schema.index(attribute)]
        mask = None
        if type(value) is int and not is_object(column):
            try:
                mask = column == value
            except OverflowError:  # outside the column's dtype: equal to none
                mask = np.zeros(len(column), dtype=bool)
        if mask is None:
            mask = np.fromiter(
                (bool(v == value) for v in column.tolist()), dtype=bool, count=len(column)
            )
        return self._taken(name or self.name, mask)

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Relation":
        """Rename attributes (the arrays are shared)."""
        return Relation._over(name or self.name, self.schema.rename(mapping), self._cols)

    def key(self, attributes: Sequence[str]) -> list[Row]:
        """The key-tuple (projection) of every row, in row order."""
        return zip_rows([self._cols[i] for i in self.schema.indices(attributes)])

    def column(self, attribute: str) -> list[Any]:
        """All values of one attribute, in row order."""
        return self._cols[self.schema.index(attribute)].tolist()

    def degrees(self, attribute: str) -> Counter:
        """Frequency of each value of ``attribute`` (the tutorial's *degree*):
        the memoized degree view as a ``Counter`` of its own, first seen first."""
        index = self.schema.index(attribute)
        (keys,), counts = degree_view(self, (index,))
        rank = np.argsort(np.unique(locate([self._cols[index]], [keys]), return_index=True)[1])
        return Counter(dict(zip(keys[rank].tolist(), counts[rank].tolist())))

    def heavy_hitters(self, attribute: str, threshold: float) -> set[Any]:
        """Values of ``attribute`` occurring at least ``threshold`` times.

        The tutorial calls a join value *heavy* when its degree is at least
        ``IN / p``; the caller supplies that threshold.
        """
        return {v for v, c in self.degrees(attribute).items() if c >= threshold}

    # ------------------------------------------------------ reference queries

    def join(self, other: "Relation", name: str = "J") -> "Relation":
        """Exact local natural join, used as ground truth in tests.

        The output schema is this schema followed by ``other``'s attributes
        that are not shared. The join is column-native end to end: key
        codes, match indices, and the output's columns are all array
        operations, and no tuple is ever materialized. Keys meet as Python
        ``==`` does (``1`` meets ``1.0``); without a shared attribute the
        join is the product, left rows outer.
        """
        shared = self.schema.common(other.schema)
        extra = [a for a in other.schema.attributes if a not in self.schema]
        if shared:
            left_pos, right_pos = join_indices(*code_key_columns(
                [self._cols[i] for i in self.schema.indices(shared)],
                [other._cols[i] for i in other.schema.indices(shared)],
            ))
        else:
            left_pos, right_pos = np.divmod(np.arange(len(self) * len(other)), len(other) or 1)
        return Relation._over(
            name, list(self.schema.attributes) + extra,
            [c[left_pos] for c in self._cols]
            + [other._cols[i][right_pos] for i in other.schema.indices(extra)],
        )

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Exact local semijoin ``self ⋉ other`` on the shared attributes."""
        shared = self.schema.common(other.schema)
        if not shared:
            keep = np.full(len(self), len(other) > 0)
        else:
            keep = np.isin(*code_key_columns(
                [self._cols[i] for i in self.schema.indices(shared)],
                [other._cols[i] for i in other.schema.indices(shared)],
            ))
        return self._taken(name or self.name, keep)

    def sorted_by(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Copy sorted lexicographically by the given attributes (stable).

        Keys that are not all exact integers sort as Python sorts their
        tuples — incomparable values raise :class:`TypeError`, as
        ``sorted`` does.
        """
        keys = [self._cols[i] for i in self.schema.indices(attributes)]
        if not exact(keys):
            tuples = zip_rows(keys)
            order = np.array(sorted(range(len(self)), key=tuples.__getitem__), dtype=np.int64)
            return self._taken(name or self.name, order)
        packed = pack_columns(keys) if all(k.dtype == np.int64 for k in keys) else None
        if packed is not None:  # one stable sort of one code per row
            order = np.argsort(packed[0], kind="stable")
        else:
            # lexsort's last key is primary; reversing matches the tuple
            # key order, and its stability matches sorted()'s.
            order = np.lexsort(keys[::-1])
        return self._taken(name or self.name, order)


def union_all(name: str, relations: Sequence[Relation]) -> Relation:
    """Bag union of relations sharing one schema."""
    if not relations:
        raise SchemaError("union_all needs at least one relation")
    schema = relations[0].schema
    for r in relations[1:]:
        if r.schema != schema:
            raise SchemaError(
                f"union_all schemas differ: {schema} vs {r.schema} ({r.name})"
            )
    columns = [r.columns() for r in relations]
    return Relation._over(
        name, schema, [concatenated([cols[i] for cols in columns]) for i in range(schema.arity)]
    )
