"""Payload encoding: round-trips and segment lifecycle."""

import numpy as np
import pytest

from repro.exec import shm


@pytest.fixture(autouse=True)
def low_floor(monkeypatch):
    # The segment path on byte-sized fixtures: every non-empty array in
    # this file reaches the floor (tests/exec/test_wire.py straddles it).
    monkeypatch.setattr(shm, "_MIN_SEGMENT_BYTES", 32)


def _payload():
    return (
        [np.arange(10, dtype=np.int64), "rows"],
        {"cols": (np.linspace(0.0, 1.0, 5), np.array([[1, 2], [3, 4]]))},
        42,
    )


def _assert_matches(decoded):
    part, mapping, scalar = decoded
    np.testing.assert_array_equal(part[0], np.arange(10, dtype=np.int64))
    assert part[1] == "rows"
    np.testing.assert_allclose(mapping["cols"][0], np.linspace(0.0, 1.0, 5))
    np.testing.assert_array_equal(mapping["cols"][1], [[1, 2], [3, 4]])
    assert scalar == 42


def test_owned_round_trip():
    encoded = shm.encode_payload(_payload())
    assert encoded.segment_name is not None
    assert encoded.nbytes == 10 * 8 + 5 * 8 + 4 * 8
    _assert_matches(shm.decode_owned(encoded))


def test_owned_copies_survive_unlink():
    encoded = shm.encode_payload(_payload())
    decoded = shm.decode_owned(encoded)  # segment unlinked here
    _assert_matches(decoded)  # arrays are private copies, still valid


def test_read_round_trip_zero_copy():
    encoded = shm.encode_payload(_payload())
    decoded, segment = shm.decode_for_read(encoded)
    assert segment is not None
    _assert_matches(decoded)
    del decoded  # drop the views so close() can proceed
    shm.finish_read(segment)


def test_pickle_transport_passthrough():
    # No array bytes to lift: the payload rides the frame whole, and both
    # decode paths hand back an equal, freshly built value.
    payload = ([("a", 1.5), ("b", 2.5)], {"k": "v"}, 42)
    encoded = shm.encode_payload(payload)
    assert encoded.segment_name is None
    assert encoded.nbytes == 0
    assert shm.decode_owned(encoded) == payload
    decoded, segment = shm.decode_for_read(encoded)
    assert decoded == payload and segment is None
    shm.finish_read(None)  # no-op by contract


def test_no_arrays_passthrough():
    payload = ([("a", 1), ("b", 2)], {"k": "v"})
    encoded = shm.encode_payload(payload)
    assert encoded.segment_name is None  # nothing worth a segment


def test_empty_arrays_passthrough():
    # Zero total bytes: zero-length segments are invalid, must passthrough.
    payload = (np.array([], dtype=np.int64), np.array([], dtype=np.float64))
    encoded = shm.encode_payload(payload)
    assert encoded.segment_name is None
    a, b = shm.decode_owned(encoded)
    assert a.size == 0 and b.size == 0


def test_mixed_empty_and_full_arrays():
    payload = (np.array([], dtype=np.int64), np.arange(4))
    encoded = shm.encode_payload(payload)
    assert encoded.segment_name is not None
    a, b = shm.decode_owned(encoded)
    assert a.size == 0
    np.testing.assert_array_equal(b, np.arange(4))


def test_non_contiguous_arrays():
    base = np.arange(20).reshape(4, 5)
    payload = (base[:, ::2], base.T)  # strided + transposed views
    encoded = shm.encode_payload(payload)
    a, b = shm.decode_owned(encoded)
    np.testing.assert_array_equal(a, base[:, ::2])
    np.testing.assert_array_equal(b, base.T)


def test_release_payload_is_idempotent():
    encoded = shm.encode_payload((np.arange(8),))
    shm.release_payload(encoded)
    shm.release_payload(encoded)  # second release: segment already gone
    with pytest.raises(FileNotFoundError):
        shm.attach_segment(encoded.segment_name)


def test_values_are_exact_not_approximate():
    # The byte-identity argument rests on arrays round-tripping exactly.
    values = np.array([0.1, 1e-300, 3.141592653589793, -2.5e17])
    encoded = shm.encode_payload((values,))
    (out,) = shm.decode_owned(encoded)
    assert out.tolist() == values.tolist()


# ------------------------------------------------ row lists ride the frame


def _rows(n=40, arity=3):
    return [tuple(i * arity + j for j in range(arity)) for i in range(n)]


def test_row_block_round_trip_owned():
    rows = _rows()
    encoded = shm.encode_payload({"deliver": rows})
    out = shm.decode_owned(encoded)
    assert out == {"deliver": rows}
    assert all(type(v) is int for row in out["deliver"] for v in row)


def test_row_block_round_trip_zero_copy():
    rows = _rows(64, 2)
    encoded = shm.encode_payload([rows, rows[:5]])
    decoded, segment = shm.decode_for_read(encoded)
    assert decoded[0] == rows
    assert decoded[1] == rows[:5]
    shm.finish_read(segment)


@pytest.mark.parametrize("rows", [
    _rows(31),                                    # a short list
    [tuple()] * 40,                               # arity 0
    [(1.5, 2)] + _rows(39, 2),                    # float in the probe row
    [(True, 2)] + _rows(39, 2),                   # bool must stay bool
    [("a", 2)] + _rows(39, 2),                    # non-numeric
    _rows(39, 2) + [(0.5, 1)],                    # float past the probe row
    _rows(39, 2) + [(1, 2, 3)],                   # ragged arity
    _rows(39, 2) + [(2**70, 1)],                  # overflows int64
    [[1, 2]] * 40,                                # lists, not tuples
])
def test_row_block_fallbacks(rows):
    encoded = shm.encode_payload((rows,))
    assert encoded.segment_name is None
    (out,) = shm.decode_owned(encoded)
    # Exact, not just equal: True stays bool, 2**70 stays int, a list row
    # stays a list.
    assert out == rows
    assert [type(row) for row in out] == [type(row) for row in rows]
    assert [type(v) for row in out for v in row] == [
        type(v) for row in rows for v in row
    ]


def test_row_block_negative_and_extreme_ints_exact():
    rows = [(-(2**63), 2**63 - 1, 0)] * 40
    encoded = shm.encode_payload((rows,))
    (out,) = shm.decode_owned(encoded)
    assert out == rows
