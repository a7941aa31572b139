"""Shared-memory columnar transport for the process backend.

A task payload is an arbitrary picklable structure (nested tuples,
lists, dicts) whose numpy-array leaves — the columnar-native data
layer's columns — would be expensive to push through a queue's pickle
stream. Every array leaf of one message is packed into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment and
replaced by an index marker; the receiver re-attaches the segment and
rebuilds zero-copy views. A message with no array bytes to pack rides
the queue's pickle stream whole.

Row lists (lists of Python tuples) get the same treatment when they are
*uniform all-integer* blocks: a list of ≥ 32 same-arity int tuples
packs into one 2-D ``int64`` array riding the segment, marked by
:class:`_RowsRef` so the receiver rebuilds the exact tuple list. Mixed,
ragged, non-integer, or tiny lists keep travelling through the queue's
batched pickle — the fallback contract of the kernels, selected by the
input alone and counted (:attr:`ShmEncoded.fallback_rows`).

Segment lifecycle: the *sender* creates the segment and disowns it from
its resource tracker (:func:`disown_segment`), because the duty to
unlink transfers to the peer; the *receiver* attaches without claiming
tracker ownership (:func:`attach_segment`), decodes, and either unlinks
after reading (worker side) or copies the arrays out and unlinks
immediately (coordinator side).

Resident protocol
-----------------

Packed blocks are *content-addressed*: each block's token is a 16-byte
blake2b digest over its dtype, shape, and raw bytes. The coordinator
keeps a :class:`MirrorCache` per worker — a deterministic mirror of
what that worker's :class:`BlockCache` holds — and a block whose token
is mirrored is encoded as a :class:`_CachedArrayRef` /
:class:`_CachedRowsRef` marker carrying only the token; the worker
resolves it from its cache. Blocks shipped fresh
carry their token in :attr:`ShmEncoded.tokens` and are cached by the
worker on receipt, which is what keeps both sides in lockstep without
any extra round-trip. Invalidation is wholesale: the coordinator bumps
a *state epoch* (over-budget mirror, explicit
:meth:`~repro.exec.pool.WorkerPool.invalidate_resident`), ships it with
the next dispatch, and the worker drops its entire cache when the epoch
changes.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

__all__ = [
    "BlockCache",
    "MirrorCache",
    "ShmEncoded",
    "attach_segment",
    "decode_for_read",
    "decode_owned",
    "disown_segment",
    "encode_payload",
    "finish_read",
    "release_payload",
]


@dataclass(frozen=True)
class _ArrayRef:
    """Marker standing in for the ``index``-th packed array of a message."""

    index: int


@dataclass(frozen=True)
class _RowsRef:
    """Marker for a tuple list packed as the ``index``-th (2-D) array."""

    index: int


@dataclass(frozen=True)
class _CachedArrayRef:
    """Marker for an array the receiving worker already holds resident."""

    token: bytes


@dataclass(frozen=True)
class _CachedRowsRef:
    """Marker for a resident tuple list (cached in rebuilt form)."""

    token: bytes


# Below this the fixed per-message segment cost outweighs the pickle
# saving; the threshold only trades speed, never correctness.
_MIN_ROW_BLOCK = 32

# Blocks smaller than this are never content-addressed: hashing and
# token bookkeeping would cost more than re-shipping them.
_MIN_RESIDENT_BYTES = 1024


def _block_token(block: np.ndarray) -> bytes:
    """16-byte content address of a contiguous block (dtype+shape+bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(block.dtype.str.encode("ascii"))
    digest.update(repr(block.shape).encode("ascii"))
    try:
        digest.update(memoryview(block).cast("B"))
    except TypeError:  # pragma: no cover - non-contiguous defensive path
        digest.update(block.tobytes())
    return digest.digest()


class MirrorCache:
    """Coordinator-side mirror of one worker's resident :class:`BlockCache`.

    The mirror is authoritative: a block is encoded as a cached ref iff
    its token is mirrored, and every token the mirror holds was shipped
    to the worker with a cache instruction in a message the worker must
    fully process before any later one (per-worker FIFO queue). Staged
    entries cover the current message batch and are committed only once
    every blob of the batch was handed to the queue — an encode failure
    aborts them, so the mirror never claims blocks the worker never saw.
    """

    def __init__(self, cap_bytes: int) -> None:
        self.cap_bytes = cap_bytes
        self.epoch = 0
        self.bytes = 0
        self._resident: dict[tuple[str, bytes], int] = {}
        self._staged: dict[tuple[str, bytes], int] = {}
        self._invalidated = False

    def invalidate(self) -> None:
        """Force an epoch bump on the next dispatch (explicit reset path)."""
        self._invalidated = True

    def begin_message(self) -> int:
        """Epoch for the message about to be encoded; resets when due."""
        if self._invalidated or self.bytes > self.cap_bytes:
            self.epoch += 1
            self.bytes = 0
            self._resident.clear()
            self._staged.clear()
            self._invalidated = False
        return self.epoch

    def is_resident(self, kind: str, token: bytes) -> bool:
        key = (kind, token)
        return key in self._resident or key in self._staged

    def stage(self, kind: str, token: bytes, nbytes: int) -> None:
        key = (kind, token)
        if key not in self._resident and key not in self._staged:
            self._staged[key] = nbytes

    def commit(self) -> None:
        for key, nbytes in self._staged.items():
            if key not in self._resident:
                self._resident[key] = nbytes
                self.bytes += nbytes
        self._staged.clear()

    def abort(self) -> None:
        self._staged.clear()


class BlockCache:
    """Worker-side resident store of content-addressed payload blocks.

    Arrays are cached as private copies (segment views die with the
    message) and handed out as fresh copies on hit; rebuilt tuple lists
    are cached once and handed out as shallow copies (tuples are
    immutable, the list itself is the task's to mutate). Either way a
    hit observes exactly the value a fresh ship would have produced, so
    task behavior cannot depend on what was resident.
    """

    def __init__(self) -> None:
        self.epoch: int | None = None
        self._blocks: dict[tuple[str, bytes], Any] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def sync_epoch(self, epoch: int) -> None:
        """Drop everything when the coordinator declared a new epoch."""
        if epoch != self.epoch:
            self._blocks.clear()
            self.epoch = epoch

    def store(self, kind: str, token: bytes, value: Any) -> None:
        self._blocks[(kind, token)] = value

    def array(self, token: bytes) -> np.ndarray:
        cached = self._blocks.get(("a", token))
        if cached is None:
            raise KeyError(
                f"resident array {token.hex()} missing from worker cache"
            )
        return cached.copy()

    def rows(self, token: bytes) -> list[tuple]:
        cached = self._blocks.get(("r", token))
        if cached is None:
            raise KeyError(
                f"resident row block {token.hex()} missing from worker cache"
            )
        return list(cached)


def _pack_rows(obj: list[Any]) -> np.ndarray | None:
    """The 2-D ``int64`` block for a uniform all-int tuple list, or None.

    The first row acts as a cheap pre-filter (tuples of built-in ints
    only — ``bool`` is excluded because ``True`` must round-trip as
    ``True``, not ``1``); the array conversion then validates the rest:
    ragged lists raise, mixed or float or oversized values produce a
    non-``int`` dtype, and both cases fall back to pickle.
    """
    if len(obj) < _MIN_ROW_BLOCK or type(obj[0]) is not tuple:
        return None
    first = obj[0]
    if not first:
        return None
    for value in first:
        if type(value) is not int:
            return None
    try:
        block = np.asarray(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    if block.ndim != 2 or block.shape[1] != len(first) or block.dtype.kind != "i":
        return None
    return block


@dataclass
class ShmEncoded:
    """One encoded message: the structure plus its array segment (if any)."""

    structure: Any
    segment_name: str | None
    # (dtype string, shape, byte offset) per packed array, index-aligned.
    arrays: list[tuple[str, tuple[int, ...], int]]
    nbytes: int  # total array bytes carried via shared memory
    # Resident-protocol side channel, index-aligned with ``arrays``:
    # ``(kind, token)`` instructs the receiver to cache that block under
    # the token ("a" = array, "r" = rebuilt tuple list); None = don't.
    tokens: list[tuple[str, bytes] | None] = field(default_factory=list)
    resident: int = 0  # blocks encoded as cached refs (bytes not shipped)
    resident_bytes: int = 0  # bytes those refs would have shipped
    fallback_rows: int = 0  # rows of pack-eligible lists that fell to pickle


# Python 3.13 made attach-side tracking explicit (track=); before that,
# only the *creator* registers with the resource tracker, so attachers
# must not unregister (the creator already disowned — a second
# unregister makes the tracker log KeyError tracebacks).
_ATTACH_TRACKS = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


def disown_segment(segment: shared_memory.SharedMemory) -> None:
    """Drop a created segment from this process's resource tracker.

    Ownership (the duty to unlink) is being transferred to the peer;
    without this the tracker of the creating process would unlink the
    name again at exit and log a spurious leak warning.
    """
    try:  # pragma: no cover - tracker internals vary across 3.x
        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming tracker ownership."""
    if _ATTACH_TRACKS:  # pragma: no cover - 3.13+
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


class _Encoder:
    """State of one message encode: packed blocks, tokens, counters."""

    def __init__(self, mirror: MirrorCache | None) -> None:
        self.mirror = mirror
        self.sink: list[np.ndarray] = []  # contiguous blocks to pack
        self.tokens: list[tuple[str, bytes] | None] = []
        self.resident = 0
        self.resident_bytes = 0
        self.fallback_rows = 0

    def _emit_block(self, kind: str, block: np.ndarray) -> Any:
        """Ship, cache-and-ship, or reference one contiguous block."""
        token: tuple[str, bytes] | None = None
        if self.mirror is not None and block.nbytes >= _MIN_RESIDENT_BYTES:
            digest = _block_token(block)
            if self.mirror.is_resident(kind, digest):
                self.resident += 1
                self.resident_bytes += block.nbytes
                return (
                    _CachedArrayRef(digest)
                    if kind == "a"
                    else _CachedRowsRef(digest)
                )
            self.mirror.stage(kind, digest, block.nbytes)
            token = (kind, digest)
        self.sink.append(block)
        self.tokens.append(token)
        index = len(self.sink) - 1
        return _ArrayRef(index) if kind == "a" else _RowsRef(index)

    def walk(self, obj: Any) -> Any:
        if isinstance(obj, np.ndarray):
            return self._emit_block("a", np.ascontiguousarray(obj))
        if isinstance(obj, tuple):
            return tuple(self.walk(item) for item in obj)
        if isinstance(obj, list):
            block = _pack_rows(obj)
            if block is not None:
                return self._emit_block("r", np.ascontiguousarray(block))
            if len(obj) >= _MIN_ROW_BLOCK and type(obj[0]) is tuple:
                # Pack-eligible by size and shape but not uniform
                # all-int: these rows ride the queue pickle — the
                # counted fallback the backend warns about when hot.
                self.fallback_rows += len(obj)
            return [self.walk(item) for item in obj]
        if isinstance(obj, dict):
            return {key: self.walk(value) for key, value in obj.items()}
        return obj


def _walk_decode(obj: Any, arrays: list[np.ndarray], cache: BlockCache | None) -> Any:
    if isinstance(obj, _ArrayRef):
        return arrays[obj.index]
    if isinstance(obj, _RowsRef):
        # .tolist() yields built-in ints, so the rebuilt tuples are
        # byte-identical to what the sender packed.
        return [tuple(row) for row in arrays[obj.index].tolist()]
    if isinstance(obj, _CachedArrayRef):
        if cache is None:
            raise KeyError("cached array ref decoded without a block cache")
        return cache.array(obj.token)
    if isinstance(obj, _CachedRowsRef):
        if cache is None:
            raise KeyError("cached rows ref decoded without a block cache")
        return cache.rows(obj.token)
    if isinstance(obj, tuple):
        return tuple(_walk_decode(item, arrays, cache) for item in obj)
    if isinstance(obj, list):
        return [_walk_decode(item, arrays, cache) for item in obj]
    if isinstance(obj, dict):
        return {
            key: _walk_decode(value, arrays, cache) for key, value in obj.items()
        }
    return obj


def _cache_shipped_blocks(
    encoded: ShmEncoded, arrays: list[np.ndarray], cache: BlockCache | None
) -> None:
    """Store freshly shipped tokenized blocks before resolving the walk.

    Runs first so refs within the same message (a block shipped at index
    i and referenced again later) resolve, and so the cached value is
    taken before the task had any chance to touch the handed-out views.
    """
    if cache is None or not encoded.tokens:
        return
    for token, array in zip(encoded.tokens, arrays):
        if token is None:
            continue
        kind, digest = token
        if kind == "a":
            cache.store(kind, digest, array.copy())
        else:
            cache.store(kind, digest, [tuple(row) for row in array.tolist()])


def encode_payload(payload: Any, mirror: MirrorCache | None = None) -> ShmEncoded:
    """Lift the array leaves of ``payload`` into one shared-memory segment.

    When there are no array bytes to move the payload is passed through
    untouched and rides the queue's pickle stream whole.

    ``mirror`` (coordinator only) is the target worker's resident-cache
    mirror: blocks the worker already caches become token refs, fresh
    cacheable blocks are staged on the mirror — the caller commits or
    aborts the staging depending on whether the message was actually
    handed to the worker's queue. Without one (worker-side results)
    every block ships.
    """
    encoder = _Encoder(mirror)
    structure = encoder.walk(payload)
    arrays = encoder.sink
    total = sum(a.nbytes for a in arrays)
    if total == 0:
        # Zero-length segments are invalid; metadata-only messages (and
        # all-empty columns) go through pickle.
        # When resident refs replaced every block the walked structure
        # must be kept — only a truly markerless message passes the
        # original object through.
        structure = payload if encoder.resident == 0 else structure
        return ShmEncoded(
            structure, None, [], 0,
            resident=encoder.resident,
            resident_bytes=encoder.resident_bytes,
            fallback_rows=encoder.fallback_rows,
        )
    segment = shared_memory.SharedMemory(create=True, size=total)
    disown_segment(segment)  # receiver copies/unlinks; see module doc
    meta: list[tuple[str, tuple[int, ...], int]] = []
    offset = 0
    for contiguous in arrays:
        view = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype,
            buffer=segment.buf, offset=offset,
        )
        view[...] = contiguous
        meta.append((contiguous.dtype.str, contiguous.shape, offset))
        offset += contiguous.nbytes
    name = segment.name
    segment.close()
    return ShmEncoded(
        structure, name, meta, total,
        tokens=encoder.tokens,
        resident=encoder.resident,
        resident_bytes=encoder.resident_bytes,
        fallback_rows=encoder.fallback_rows,
    )


def decode_for_read(
    encoded: ShmEncoded, cache: BlockCache | None = None
) -> tuple[Any, shared_memory.SharedMemory | None]:
    """Rebuild the payload with zero-copy views into the segment.

    The worker-side read path: the returned segment handle must stay
    alive while the views are in use and be passed to
    :func:`finish_read` afterwards (the worker is the message's final
    consumer, so it also unlinks). ``cache`` is the worker's resident
    block store: freshly shipped tokenized blocks are copied into it
    before the structure resolves, cached refs are served from it.
    """
    if encoded.segment_name is None:
        if encoded.resident:
            return _walk_decode(encoded.structure, [], cache), None
        return encoded.structure, None
    segment = attach_segment(encoded.segment_name)
    arrays = [
        np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
        for dtype, shape, offset in encoded.arrays
    ]
    _cache_shipped_blocks(encoded, arrays, cache)
    return _walk_decode(encoded.structure, arrays, cache), segment


def finish_read(segment: shared_memory.SharedMemory | None) -> None:
    """Release a segment consumed by :func:`decode_for_read`.

    Unlinks the name (the memory itself is freed once the last mapping
    drops). Closing can legitimately fail with :class:`BufferError`
    when a task kept a view into its input alive in its result; the
    mapping then dies with the worker instead — unlink already ran, so
    nothing leaks past the process.
    """
    if segment is None:
        return
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already released
        pass
    try:
        segment.close()
    except BufferError:  # pragma: no cover - result aliases the input
        pass


def decode_owned(encoded: ShmEncoded) -> Any:
    """Rebuild the payload as private copies and release the segment.

    The coordinator-side result path: copies the arrays out so the
    segment can be unlinked immediately regardless of how long the
    caller keeps the result.
    """
    if encoded.segment_name is None:
        return encoded.structure
    segment = attach_segment(encoded.segment_name)
    try:
        arrays = [
            np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset
            ).copy()
            for dtype, shape, offset in encoded.arrays
        ]
        return _walk_decode(encoded.structure, arrays, None)
    finally:
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already released
            pass


def release_payload(encoded: ShmEncoded) -> None:
    """Unlink a message's segment without decoding it (error paths)."""
    if encoded.segment_name is None:
        return
    try:
        segment = attach_segment(encoded.segment_name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()
