"""Payload encoding for the process backend: bytes ride the frame.

A task payload is an arbitrary picklable structure (nested tuples,
lists, dicts, numpy arrays). :func:`encode_payload` turns it
into one pickle-5 stream — the C pickler does the whole traversal — and
the only decision taken here is where each *array block* travels:

* below :data:`_MIN_SEGMENT_BYTES` its bytes stay in the stream, and so
  in the one frame the pool writes to the worker's pipe: no segment, no
  resource-tracker traffic;
* at or above it the block is packed into the message's single
  :class:`multiprocessing.shared_memory.SharedMemory` segment, and the
  stream keeps a slot the receiver fills with a view of the segment.

Nothing is named or remembered between messages: a block at the floor
ships as a segment every time it is sent.

An ``object`` array's values are ordinary pickle data and always ride
the frame. Whatever the carrier, a decoded array is private to the
receiver and writable, and holds exactly the values sent.

Segment lifecycle: the *sender* creates the segment and disowns it from
its resource tracker (:func:`disown_segment`), because the duty to
unlink transfers to the peer; the *receiver* attaches without claiming
tracker ownership (:func:`attach_segment`), decodes, and either unlinks
after reading (worker side) or copies the blocks out and unlinks
immediately (coordinator side).
"""

from __future__ import annotations

import copyreg
import inspect
import io
import pickle
from collections import ChainMap
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

__all__ = [
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
# segment (shm_open + ftruncate + mmap + attach + unlink); a smaller one
# is cheaper as bytes in the frame. Measured, not tuned — DESIGN.md
# "Process backend dispatch protocol" has the crossover table; it only
# trades speed, never correctness, so it is a constant and not a knob.
_MIN_SEGMENT_BYTES = 512 << 10


@dataclass
class ShmEncoded:
    """One encoded message: its pickle stream plus the segment (if any)."""

    stream: bytes  # pickle-5; sub-floor blocks in-band, the rest as slots
    segment_name: str | None = None
    # The byte size of each out-of-band block, in stream order: the
    # blocks lie back to back in the segment.
    slots: list[int] = field(default_factory=list)
    nbytes: int = 0  # block bytes carried via shared memory


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


def encode_payload(payload: Any) -> ShmEncoded:
    """Pickle ``payload``, lifting its segment-sized blocks out of band
    into one fresh segment. Raises whatever pickling the payload raises.
    """
    lifted: list[memoryview] = []  # blocks bound for the segment

    def lift(buffer: pickle.PickleBuffer) -> bool:
        """Buffer callback: place one lifted block (false = out of band)."""
        raw = buffer.raw()
        if raw.nbytes < _MIN_SEGMENT_BYTES:
            # Not from _reduce_array (an ndarray subclass pickles itself):
            # a small foreign buffer stays in the stream like any other.
            return True
        lifted.append(raw)
        return False

    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol=5, buffer_callback=lift)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(payload)
    slots = [raw.nbytes for raw in lifted]
    name = None
    if lifted:
        segment = shared_memory.SharedMemory(create=True, size=sum(slots))
        disown_segment(segment)  # receiver copies/unlinks; see module doc
        offset = 0
        for raw in lifted:
            segment.buf[offset:offset + raw.nbytes] = raw
            offset += raw.nbytes
        name = segment.name
        segment.close()
    return ShmEncoded(out.getvalue(), name, slots, sum(slots))


def _load(encoded: ShmEncoded, segment_buf: Any, owned: bool) -> Any:
    """Unpickle the stream over its out-of-band blocks, in slot order."""
    buffers: list[Any] = []
    offset = 0
    for nbytes in encoded.slots:
        view = segment_buf[offset:offset + nbytes]
        offset += nbytes
        # A read-only block is what _array_from_block copies out of.
        buffers.append(view.toreadonly() if owned else view)
    return pickle.loads(encoded.stream, buffers=buffers)


def decode_for_read(
    encoded: ShmEncoded,
) -> tuple[Any, shared_memory.SharedMemory | None]:
    """Rebuild the payload with zero-copy views into the segment.

    The worker-side read path: the returned segment handle must stay
    alive while the views are in use and be passed to
    :func:`finish_read` afterwards (the worker is the message's final
    consumer, so it also unlinks).
    """
    if encoded.segment_name is None:
        return _load(encoded, None, False), None
    segment = attach_segment(encoded.segment_name)
    return _load(encoded, segment.buf, False), segment


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
        return _load(encoded, None, True)
    segment = attach_segment(encoded.segment_name)
    try:
        return _load(encoded, segment.buf, True)
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
