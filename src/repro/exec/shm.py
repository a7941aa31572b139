"""Payload encoding for the process backend: bytes ride the frame.

A task payload is an arbitrary picklable structure (nested tuples,
lists, dicts, row lists, numpy arrays). :func:`encode_payload` turns it
into one pickle-5 stream — the C pickler does the whole traversal — and
the only decision taken here is where each *array block* travels:

* below :data:`_MIN_SEGMENT_BYTES` its bytes stay in the stream, and so
  in the one frame the pool writes to the worker's pipe: no segment, no
  hash, no mirror entry, no resource-tracker traffic;
* at or above it the block is packed into the message's single
  :class:`multiprocessing.shared_memory.SharedMemory` segment, and the
  stream keeps a slot the receiver fills with a view of the segment.

Row lists (lists of Python tuples) are ordinary pickle data and always
ride the frame. Whatever the carrier, a decoded array is private to the
receiver and writable, and rows are built-in ``int``/``bool``/``str``
exactly as sent.

Segment lifecycle: the *sender* creates the segment and disowns it from
its resource tracker (:func:`disown_segment`), because the duty to
unlink transfers to the peer; the *receiver* attaches without claiming
tracker ownership (:func:`attach_segment`), decodes, and either unlinks
after reading (worker side) or copies the blocks out and unlinks
immediately (coordinator side).

Resident protocol
-----------------

Segment-sized blocks are *content-addressed*: a block's token is a
16-byte blake2b digest over its format, shape, and raw bytes. The
coordinator keeps a :class:`MirrorCache` per worker — a deterministic
mirror of what that worker's :class:`BlockCache` holds — and a block
whose token is mirrored travels as the token alone; the worker fills
the slot from its cache. Blocks shipped fresh carry their token in
their slot and are cached by the worker on receipt, which is what keeps
both sides in lockstep without any extra round-trip. Invalidation is
wholesale: the coordinator bumps a *state epoch* (over-budget mirror,
explicit :meth:`~repro.exec.pool.WorkerPool.invalidate_resident`),
ships it with the next dispatch, and the worker drops its entire cache
when the epoch changes. A hit still pays the hash, which costs about
what shipping the block does (DESIGN.md has the table) — the cache
saves segment bytes, not time.
"""

from __future__ import annotations

import copyreg
import hashlib
import inspect
import io
import pickle
from collections import ChainMap
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
    "unlink_segment",
]

# The one size threshold of the transport: a block this large is worth a
# segment (shm_open + ftruncate + mmap + attach + unlink, and a content
# hash on the coordinator); a smaller one is cheaper as bytes in the
# frame. Measured, not tuned — DESIGN.md "Process backend dispatch
# protocol" has the crossover table; it only trades speed, never
# correctness, so it is a constant and not a knob.
_MIN_SEGMENT_BYTES = 1 << 20


def _block_token(block: Any) -> bytes:
    """16-byte content address of a contiguous block (format+shape+bytes)."""
    view = memoryview(block)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(view.format.encode("ascii"))
    digest.update(repr(view.shape).encode("ascii"))
    digest.update(view.cast("B"))
    return digest.digest()


class MirrorCache:
    """Coordinator-side mirror of one worker's resident :class:`BlockCache`.

    The mirror is authoritative: a block travels as its token iff the
    token is mirrored, and every token the mirror holds was shipped to
    the worker with a cache instruction in a message the worker must
    fully process before any later one (one pipe per worker, read in
    order). Staged entries cover the current message batch and are
    committed only once every frame of the batch was built — an encode
    failure aborts them, so the mirror never claims blocks the worker
    never saw.
    """

    def __init__(self, cap_bytes: int) -> None:
        self.cap_bytes = cap_bytes
        self.epoch = 0
        self.bytes = 0
        self._resident: dict[bytes, int] = {}
        self._staged: dict[bytes, int] = {}
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

    def is_resident(self, token: bytes) -> bool:
        return token in self._resident or token in self._staged

    def stage(self, token: bytes, nbytes: int) -> None:
        if not self.is_resident(token):
            self._staged[token] = nbytes

    def commit(self) -> None:
        for token, nbytes in self._staged.items():
            if token not in self._resident:
                self._resident[token] = nbytes
                self.bytes += nbytes
        self._staged.clear()

    def abort(self) -> None:
        self._staged.clear()


class BlockCache:
    """Worker-side resident store of content-addressed payload blocks.

    Blocks are cached as private copies (segment views die with the
    message) and handed out as fresh copies on hit, so a hit observes
    exactly the value a fresh ship would have produced and task behavior
    cannot depend on what was resident.
    """

    def __init__(self) -> None:
        self.epoch: int | None = None
        self._blocks: dict[bytes, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._blocks)

    def sync_epoch(self, epoch: int) -> None:
        """Drop everything when the coordinator declared a new epoch."""
        if epoch != self.epoch:
            self._blocks.clear()
            self.epoch = epoch

    def store(self, token: bytes, block: np.ndarray) -> None:
        self._blocks[token] = block

    def array(self, token: bytes) -> np.ndarray:
        cached = self._blocks.get(token)
        if cached is None:
            raise KeyError(
                f"resident block {token.hex()} missing from worker cache"
            )
        return cached.copy()


@dataclass
class ShmEncoded:
    """One encoded message: its pickle stream plus the segment (if any)."""

    stream: bytes  # pickle-5; sub-floor blocks in-band, the rest as slots
    segment_name: str | None = None
    # One ``(token, offset, nbytes)`` per out-of-band block, in stream
    # order. ``offset`` locates the bytes in the segment — ``None`` when
    # the receiver already holds them resident under ``token``; a fresh
    # block with a token is cached by the receiver under it.
    slots: list[tuple[bytes | None, int | None, int]] = field(default_factory=list)
    nbytes: int = 0  # block bytes carried via shared memory
    resident: int = 0  # blocks that traveled as tokens (bytes not shipped)
    resident_bytes: int = 0  # bytes those tokens would have shipped


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


def _array_from_bytes(data: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """Unpickle a sub-floor array: its bytes rode the frame."""
    return np.ndarray(shape, dtype, bytearray(data))


def _array_from_block(buffer: Any, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
    """Unpickle a lifted array over the block the decode supplied.

    Pickle hands a read-only sender's block back read-only, whatever
    memory the receiver supplied it in, so those are copied; the rest
    are views of memory the decode already owns.
    """
    array = np.ndarray(shape, dtype, buffer)
    return array if array.flags.writeable else array.copy()


def _reduce_array(array: np.ndarray) -> Any:
    """Pickle an array as dtype + shape + its C-order bytes.

    Below the floor the bytes are in the stream. At or above it they are
    a :class:`pickle.PickleBuffer`, which the pickler hands to its
    buffer callback instead. Either way the receiver's array is private
    and writable. Object arrays have no raw bytes and pickle as numpy
    would.
    """
    if array.dtype.hasobject:
        return array.__reduce__()
    if array.nbytes < _MIN_SEGMENT_BYTES:
        return _array_from_bytes, (array.tobytes(), array.dtype, array.shape)
    if not array.flags.c_contiguous:
        array = array.copy(order="C")
    block = pickle.PickleBuffer(array.reshape(-1).view(np.uint8))
    return _array_from_block, (block, array.dtype, array.shape)


# Per-pickler reducers: arrays reduce through :func:`_reduce_array`,
# everything else as the interpreter-wide table says.
_DISPATCH = ChainMap({np.ndarray: _reduce_array}, copyreg.dispatch_table)


class _Encoder:
    """State of one message encode: lifted blocks, slots, counters."""

    def __init__(self, mirror: MirrorCache | None) -> None:
        self.mirror = mirror
        self.lifted: list[memoryview] = []  # blocks bound for the segment
        self.slots: list[tuple[bytes | None, int | None, int]] = []
        self.nbytes = 0
        self.resident = 0
        self.resident_bytes = 0

    def lift(self, buffer: pickle.PickleBuffer) -> bool:
        """Buffer callback: place one lifted block (false = out of band)."""
        raw = buffer.raw()
        if raw.nbytes < _MIN_SEGMENT_BYTES:
            # Not from _reduce_array (an ndarray subclass pickles itself):
            # a small foreign buffer stays in the stream like any other.
            return True
        token = None
        if self.mirror is not None:
            token = _block_token(raw)
            if self.mirror.is_resident(token):
                self.resident += 1
                self.resident_bytes += raw.nbytes
                self.slots.append((token, None, raw.nbytes))
                return False
            self.mirror.stage(token, raw.nbytes)
        self.slots.append((token, self.nbytes, raw.nbytes))
        self.lifted.append(raw)
        self.nbytes += raw.nbytes
        return False


def encode_payload(payload: Any, mirror: MirrorCache | None = None) -> ShmEncoded:
    """Pickle ``payload``, lifting its segment-sized blocks out of band.

    ``mirror`` (coordinator only) is the target worker's resident-cache
    mirror: lifted blocks the worker already caches become tokens, fresh
    ones are staged on the mirror — the caller commits or aborts the
    staging depending on whether the message was actually handed to the
    worker. Without one (worker-side results) every lifted block ships.
    Raises whatever pickling the payload raises.
    """
    encoder = _Encoder(mirror)
    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5, buffer_callback=encoder.lift)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(payload)
    name = None
    if encoder.lifted:
        segment = shared_memory.SharedMemory(create=True, size=encoder.nbytes)
        disown_segment(segment)  # receiver copies/unlinks; see module doc
        offset = 0
        for raw in encoder.lifted:
            segment.buf[offset:offset + raw.nbytes] = raw
            offset += raw.nbytes
        name = segment.name
        segment.close()
    return ShmEncoded(
        out.getvalue(), name, encoder.slots, encoder.nbytes,
        encoder.resident, encoder.resident_bytes,
    )


def _load(encoded: ShmEncoded, segment_buf: Any, cache: BlockCache | None, owned: bool) -> Any:
    """Unpickle the stream over its out-of-band blocks, in slot order.

    Fresh tokenized blocks are cached *as their slot is reached*, so a
    token later in the same message resolves, and before the task had
    any chance to touch the handed-out views.
    """
    buffers: list[Any] = []
    for token, offset, nbytes in encoded.slots:
        if offset is None:
            if cache is None:
                raise KeyError("resident block decoded without a block cache")
            buffers.append(cache.array(token))
            continue
        view = segment_buf[offset:offset + nbytes]
        if token is not None and cache is not None:
            cache.store(token, np.frombuffer(view, dtype=np.uint8).copy())
        # A read-only block is what _array_from_block copies out of.
        buffers.append(view.toreadonly() if owned else view)
    return pickle.loads(encoded.stream, buffers=buffers)


def decode_for_read(
    encoded: ShmEncoded, cache: BlockCache | None = None
) -> tuple[Any, shared_memory.SharedMemory | None]:
    """Rebuild the payload with zero-copy views into the segment.

    The worker-side read path: the returned segment handle must stay
    alive while the views are in use and be passed to
    :func:`finish_read` afterwards (the worker is the message's final
    consumer, so it also unlinks). ``cache`` is the worker's resident
    block store: freshly shipped tokenized blocks are copied into it,
    tokens are served from it.
    """
    if encoded.segment_name is None:
        return _load(encoded, None, cache, False), None
    segment = attach_segment(encoded.segment_name)
    return _load(encoded, segment.buf, cache, False), segment


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

    The coordinator-side result path: copies the blocks out so the
    segment can be unlinked immediately regardless of how long the
    caller keeps the result.
    """
    if encoded.segment_name is None:
        return _load(encoded, None, None, True)
    segment = attach_segment(encoded.segment_name)
    try:
        return _load(encoded, segment.buf, None, True)
    finally:
        finish_read(segment)


def unlink_segment(name: str) -> None:
    """Unlink one segment by name, tolerating every already-gone state."""
    try:
        segment = attach_segment(name)
    except OSError:
        return
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with the peer
        pass
    segment.close()


def release_payload(encoded: ShmEncoded) -> None:
    """Unlink a message's segment without decoding it (error paths)."""
    if encoded.segment_name is not None:
        unlink_segment(encoded.segment_name)
