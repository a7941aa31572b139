"""In-memory relations: columnar-native storage with a derived tuple view.

The MPC model of the tutorial counts communication in *tuples*, and the
differential oracles compare results as multisets of tuples — but the
hot paths (routing, delivery, local joins, splitter search) are all
vectorized over numpy integer columns. A :class:`Relation` therefore
holds **either** representation as ground truth:

- *column-primary* (built by :meth:`Relation.from_columns`, and by the
  columnar operator fast paths): one ``int64``/``uint64`` array per
  attribute; the tuple view is materialized lazily and cached.
- *row-primary* (built by the tuple constructor, :meth:`Relation.wrap`,
  or a mutation the columns cannot hold): a list of plain Python tuples;
  the columnar view is extracted lazily and cached.

**A relation owns what it holds.** Nothing a caller keeps can change it:
:meth:`rows` hands out a fresh list, :meth:`wrap` stores a snapshot of
the caller's, and every array it holds is read-only (:func:`_frozen`).
So the content changes only through :meth:`add`/:meth:`extend`, each of
which moves the **monotonic mutation token** (:meth:`mutation_token`)
once, and every derived cache — here and in :mod:`repro.kernels.memo` —
is valid while the token is unchanged.

The class offers the small relational-algebra surface the parallel
algorithms need: projection, selection, renaming, key extraction, degree
(frequency) statistics, and exact local joins for verifying distributed
results.

**Concurrency contract.** A relation may be read from many threads at
once — :meth:`rows`, :meth:`rows_readonly`, :meth:`columns`, and the pure
operators (project/select/join/...) are safe under concurrent readers,
including when the lazy row/column derivations race: every cache fill
and the mutation bookkeeping of :meth:`add`/:meth:`extend` happen under
a per-relation lock, so no reader can ever observe a half-built view.
*Mutations are not serialized against readers*: callers that interleave
:meth:`add`/:meth:`extend` with concurrent reads must provide external
synchronization (the
:class:`repro.data.warehouse.RelationWarehouse` writer lock is the
service layer's way of doing exactly that) — the lock here guarantees
the relation's *internal* coherency, not snapshot isolation.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import compress
from typing import Any

import numpy as np

from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.kernels.columnar import exact_columns, pack_columns, zip_rows
from repro.kernels.join import (
    code_key_columns,
    join_indices,
    join_rows_columnar,
    semijoin_mask,
)

Row = tuple[Any, ...]


def _as_column(values: Any) -> np.ndarray:
    """Normalize one column to a 1-D ``int64``/``uint64`` array."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise SchemaError(f"a column must be 1-D, got shape {array.shape}")
    kind = array.dtype.kind
    if kind not in "biu":
        raise SchemaError(
            f"columns must hold integers, got dtype {array.dtype} "
            "(use the tuple constructor for non-integer data)"
        )
    if array.dtype == np.uint64:
        return array
    if array.dtype != np.int64:
        return array.astype(np.int64)
    return array


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


def _concatenated(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """One column from its ordered, same-dtype blocks."""
    if not blocks:
        return np.empty(0, dtype=np.int64)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class Relation:
    """A named relation: schema + bag of tuples (duplicates allowed).

    >>> r = Relation("R", ["x", "y"], [(1, 2), (1, 3)])
    >>> len(r)
    2
    >>> r.project(["x"]).rows()
    [(1,), (1,)]
    """

    __slots__ = ("name", "schema", "_rows", "_cols", "_colcache",
                 "_version", "_lock", "__weakref__")

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[str],
        rows: Iterable[Row] = (),
    ) -> None:
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        # Ground truth: _cols when not None (column-primary), else _rows.
        self._cols: list[np.ndarray] | None = None
        self._rows: list[Row] | None = []
        # (mutation token, extracted columns or None) — row-primary cache.
        self._colcache: tuple[int, list | None] | None = None
        self._version = 0
        # Guards the lazy derivations (row materialization, column
        # extraction) and the mutation bookkeeping — see the module-level
        # concurrency contract. Never held while user code runs.
        self._lock = threading.Lock()
        arity = self.schema.arity
        for row in rows:
            t = tuple(row)
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, schema {self.name} expects {arity}"
                )
            self._rows.append(t)

    # ------------------------------------------------------------------ basic

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema | Sequence[str],
        columns: Sequence[Any],
    ) -> "Relation":
        """Build a column-primary relation from one array per attribute.

        Columns must be 1-D integer arrays (anything ``np.asarray`` turns
        into an integer dtype) of equal length; they are normalized to
        ``int64`` (``uint64`` is kept for values above the signed range).
        The tuple view is derived lazily — ``rows()[k][i]`` is exactly
        ``int(columns[i][k])``, so columnar construction is
        byte-identical to building the same tuples by hand. An input
        array the relation can own is frozen in place (:func:`_frozen`):
        a later write through the caller's reference raises.
        """
        return cls._holding(name, schema, [_as_column(c) for c in columns])

    @classmethod
    def from_chunks(
        cls,
        name: str,
        schema: Schema | Sequence[str],
        chunk_lists: Sequence[Sequence[Any]],
    ) -> "Relation":
        """Build a column-primary relation from per-column lists of blocks.

        ``chunk_lists[i]`` is the ordered list of 1-D integer blocks that
        make up column ``i``; each column is concatenated here (a lone
        block is owned as :meth:`from_columns` owns a column). Blocks of
        one column must share a dtype so the concatenation is value-exact.
        """
        columns = []
        for blocks in chunk_lists:
            blocks = [_as_column(b) for b in blocks]
            if len({b.dtype for b in blocks}) > 1:
                raise SchemaError(
                    "blocks of one column must share a dtype "
                    f"({[str(b.dtype) for b in blocks]})"
                )
            columns.append(_concatenated(blocks))
        return cls._holding(name, schema, columns)

    @classmethod
    def _holding(
        cls, name: str, schema: Schema | Sequence[str], cols: list[np.ndarray]
    ) -> "Relation":
        """A column-primary relation over arrays that are now its own."""
        out = cls(name, schema)
        if out.schema.arity == 0:
            raise SchemaError(f"columnar relation {name} needs at least one attribute")
        if len(cols) != out.schema.arity:
            raise SchemaError(
                f"{len(cols)} columns for schema {name} of arity {out.schema.arity}"
            )
        if any(len(c) != len(cols[0]) for c in cols):
            raise SchemaError(f"column lengths differ: {[len(c) for c in cols]}")
        return out._adopt_columns(cols)

    @classmethod
    def from_held(
        cls, name: str, schema: Schema | Sequence[str], columns: Sequence[Any]
    ) -> "Relation":
        """The inverse of :func:`repro.kernels.columnar.held_columns`:
        column-primary over exact arrays, else the tuples the value lists
        (or a mix of both) zip to."""
        if all(isinstance(c, np.ndarray) for c in columns):
            return cls.from_columns(name, schema, columns)
        return cls(name, schema, zip_rows(columns))

    @classmethod
    def wrap(
        cls, name: str, schema: Schema | Sequence[str], rows: list[Row]
    ) -> "Relation":
        """A row-primary relation over a snapshot of ``rows``, tuple by tuple.

        The list is copied, the tuples (immutable) are not, so later edits
        to the caller's list never reach the relation. The first row's
        arity is always checked so malformed input fails here with
        :class:`SchemaError` instead of deep inside a kernel; the full
        scan runs under ``__debug__``.
        """
        out = cls(name, schema)
        arity = out.schema.arity
        for t in rows if __debug__ else rows[:1]:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, schema {name} expects {arity}"
                )
        out._rows = list(rows)
        return out

    def __getstate__(self) -> dict:
        # The per-relation lock is not picklable (and must not be
        # shared across processes anyway); a fresh one is created on
        # unpickle. Weak references (the memo's) and the derived column
        # cache stay behind; everything else round-trips verbatim.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_lock", "__weakref__", "_colcache")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()
        self._colcache = None
        if self._cols is not None:  # numpy unpickles an array writable
            self._cols = [_frozen(c) for c in self._cols]

    def _derive_rows(self) -> list[Row]:
        """The tuple store (caller must hold :attr:`_lock` or own the relation)."""
        rows = self._rows
        if rows is None:
            assert self._cols is not None
            rows = list(zip(*(c.tolist() for c in self._cols)))
            self._rows = rows
        return rows

    def _materialize(self) -> list[Row]:
        """The tuple store, deriving (and caching) it from the columns."""
        rows = self._rows
        if rows is None:
            # Lazy derivation races with other readers: take the lock,
            # re-check, and let exactly one thread build the view.
            with self._lock:
                rows = self._derive_rows()
        return rows

    def rows(self) -> list[Row]:
        """The tuples as a fresh list the caller owns.

        Editing it changes nothing here: the representation, the mutation
        token and every cache stay as they were.
        """
        return list(self._materialize())

    def rows_readonly(self) -> list[Row]:
        """The tuple store itself, for callers that promise not to mutate
        it — the copy-free accessor of internal hot paths (scatter, CSV
        writing, unions, oracles).
        """
        return self._materialize()

    def mutation_token(self) -> int:
        """Monotonic token, moved once by every ``add``/``extend``.

        Cache layers key derived state on ``(id(relation), token)``; a
        stale entry can then never be served after ``add``/``extend`` —
        see :mod:`repro.kernels.memo`, which owns that policy.
        """
        return self._version

    @property
    def is_columnar(self) -> bool:
        """Whether numpy columns are currently the primary representation."""
        return self._cols is not None

    def columns(self) -> list | None:
        """The columnar view: one ``int64``/``uint64`` array per attribute.

        Column-primary relations return their backing arrays (zero cost,
        always coherent, read-only). Row-primary relations extract the
        arrays once per mutation token and cache them, read-only too.
        ``None`` unless every value is a built-in ``int`` (the
        kernels then have no fast path for this relation): the columns
        stand in for the rows, and a widened ``bool`` would return as ``1``.

        Safe under concurrent readers: the extraction (and its cache
        fill) runs under the relation lock, so a second extractor can
        never interleave with it.
        """
        cols = self._cols
        if cols is not None:
            return cols
        with self._lock:
            cached = self._colcache
            if cached is None or cached[0] != self._version:
                cols = exact_columns(self._rows, range(self.schema.arity))
                if cols is not None:
                    cols = [_frozen(c) for c in cols]
                cached = self._colcache = (self._version, cols)
            return cached[1]

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        cols = self._cols
        assert cols is not None
        return len(cols[0])

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
        t = tuple(row)
        if len(t) != self.schema.arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, schema {self.name} expects "
                f"{self.schema.arity}"
            )
        with self._lock:
            rows = self._derive_rows()
            self._cols = None
            self._colcache = None
            self._version += 1
            rows.append(t)

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many tuples; one bump of the mutation token per call.

        Arity is checked before anything is appended: a bad row rejects
        the whole call. A column-primary relation whose new tuples are
        exact ``int`` of the held dtypes grows by one block per column
        and stays column-primary; anything else becomes row-primary, as
        :meth:`add` makes it. An empty ``rows`` is a no-op.
        """
        arity = self.schema.arity
        new = [tuple(row) for row in rows]
        for t in new:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, schema {self.name} expects {arity}"
                )
        if not new:
            return
        with self._lock:
            cols = self._cols
            suffix = exact_columns(new, range(arity)) if cols is not None else None
            if suffix is not None and all(s.dtype == c.dtype for s, c in zip(suffix, cols)):
                self._cols = [_frozen(np.concatenate(pair)) for pair in zip(cols, suffix)]
                if self._rows is not None:  # the derived view grows with it
                    self._rows.extend(new)
            else:
                self._derive_rows().extend(new)
                self._cols = None
                self._colcache = None
            self._version += 1

    # ---------------------------------------------------- columnar plumbing

    def _adopt_columns(self, cols: list[np.ndarray]) -> "Relation":
        """Install normalized arrays, frozen, as the primary representation."""
        self._cols = [_frozen(c) for c in cols]
        self._rows = None
        return self

    # ------------------------------------------------------------- operations

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection (bag semantics: duplicates are kept)."""
        idx = self.schema.indices(attributes)
        out = Relation(name or self.name, self.schema.project(attributes))
        if self._cols is not None:
            return out._adopt_columns([self._cols[i] for i in idx])
        out._rows = [tuple(row[i] for i in idx) for row in self._rows]
        return out

    def distinct(self, name: str | None = None) -> "Relation":
        """Set-semantics copy with duplicates removed (first occurrence kept)."""
        out = Relation(name or self.name, self.schema)
        out._rows = list(dict.fromkeys(self._materialize()))
        return out

    def select(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Selection by an arbitrary predicate on the raw tuple."""
        out = Relation(name or self.name, self.schema)
        out._rows = [row for row in self._materialize() if predicate(row)]
        return out

    def select_eq(self, attribute: str, value: Any, name: str | None = None) -> "Relation":
        """Selection ``attribute == value``."""
        i = self.schema.index(attribute)
        out = Relation(name or self.name, self.schema)
        if self._cols is not None and isinstance(value, (int, np.integer)) \
                and not isinstance(value, bool):
            try:
                mask = self._cols[i] == value
            except (OverflowError, TypeError):
                mask = None
            if mask is not None:
                return out._adopt_columns([c[mask] for c in self._cols])
        out._rows = [row for row in self._materialize() if row[i] == value]
        return out

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Relation":
        """Rename attributes (the store is copied, tuples/arrays shared)."""
        out = Relation(name or self.name, self.schema.rename(mapping))
        if self._cols is not None:
            return out._adopt_columns(self._cols)
        out._rows = list(self._rows)
        return out

    def key(self, attributes: Sequence[str]) -> list[Row]:
        """The key-tuple (projection) of every row, in row order."""
        idx = self.schema.indices(attributes)
        if self._cols is not None:
            return list(zip(*(self._cols[i].tolist() for i in idx)))
        return [tuple(row[i] for i in idx) for row in self._rows]

    def column(self, attribute: str) -> list[Any]:
        """All values of one attribute, in row order."""
        i = self.schema.index(attribute)
        if self._cols is not None:
            return self._cols[i].tolist()
        return [row[i] for row in self._rows]

    def degrees(self, attribute: str) -> Counter:
        """Frequency of each value of ``attribute`` (the tutorial's *degree*)."""
        return Counter(self.column(attribute))

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
        that are not shared. When both sides are column-primary the join
        runs column-native end to end: key codes, match indices, and the
        output's columns are all array operations, and no tuple is ever
        materialized. Keys meet as Python ``==`` does (``1`` meets ``1.0``).
        """
        shared = self.schema.common(other.schema)
        left_idx = self.schema.indices(shared)
        right_idx = other.schema.indices(shared)
        extra = [a for a in other.schema.attributes if a not in self.schema]
        extra_idx = other.schema.indices(extra)

        out = Relation(name, Schema(list(self.schema.attributes) + extra))
        if not shared:
            out._rows = [
                l + r
                for l in self._materialize()
                for r in other._materialize()
            ]
            return out

        if self._cols is not None and other._cols is not None:
            left_pos, right_pos = join_indices(*code_key_columns(
                [self._cols[i] for i in left_idx], [other._cols[i] for i in right_idx],
            ))
            return out._adopt_columns(
                [c[left_pos] for c in self._cols]
                + [other._cols[i][right_pos] for i in extra_idx]
            )
        out._rows = join_rows_columnar(
            self._materialize(), other._materialize(), left_idx, right_idx, extra_idx
        )
        return out

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Exact local semijoin ``self ⋉ other`` on the shared attributes."""
        shared = self.schema.common(other.schema)
        if not shared:
            out = Relation(name or self.name, self.schema)
            out._rows = list(self._materialize()) if len(other) else []
            return out
        left_idx = self.schema.indices(shared)
        right_idx = other.schema.indices(shared)
        out = Relation(name or self.name, self.schema)
        if self._cols is not None and other._cols is not None:
            mask = np.isin(*code_key_columns(
                [self._cols[i] for i in left_idx], [other._cols[i] for i in right_idx],
            ))
            return out._adopt_columns([c[mask] for c in self._cols])
        rows = self._materialize()
        keep = semijoin_mask(rows, left_idx, other.key(shared))
        out._rows = list(compress(rows, keep.tolist()))
        return out

    def sorted_by(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Copy sorted lexicographically by the given attributes."""
        idx = self.schema.indices(attributes)
        out = Relation(name or self.name, self.schema)
        if self._cols is not None:
            keys = [self._cols[i] for i in idx]
            packed = pack_columns(keys) if all(k.dtype == np.int64 for k in keys) else None
            if packed is not None:  # one stable sort of one code per row
                order = np.argsort(packed, kind="stable")
            else:
                # lexsort's last key is primary; reversing matches the tuple
                # key order, and its stability matches sorted()'s.
                order = np.lexsort(keys[::-1])
            return out._adopt_columns([c[order] for c in self._cols])
        out._rows = sorted(
            self._rows, key=lambda row: tuple(row[i] for i in idx)
        )
        return out


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
    out = Relation(name, schema)
    # An empty part adds nothing, whichever way it is held.
    relations = [r for r in relations if len(r)] or relations[:1]
    columns = [r._cols for r in relations]
    if schema.arity and all(cols is not None for cols in columns):
        per_position = [[cols[i] for cols in columns] for i in range(schema.arity)]
        if all(len({b.dtype for b in blocks}) == 1 for blocks in per_position):
            return out._adopt_columns([_concatenated(b) for b in per_position])
    for r in relations:
        out._rows.extend(r.rows_readonly())
    return out
