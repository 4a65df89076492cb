"""Structure-aware fuzzing of the wire decoder (ROADMAP 5(d), first step).

The runtime promises that no frame crashes the server: whatever bytes a
peer writes, :func:`repro.net.wire.recv_frame` returns a
:class:`~repro.net.wire.Frame` or raises :class:`~repro.net.wire.WireError`
-- the only exception the server's and the silo's loops catch.  Three
properties, each over a real ``socketpair`` whose writer is closed before
the read, so a decoder that waited for bytes that never come would show
as a socket timeout (not a ``WireError``) instead of a hang:

- frames :func:`pack_frame` writes -- blobs of ``<f4`` / ``<f8`` /
  ``|u1`` of random shapes and bit patterns, JSON payloads -- decode to
  the same type, payload and bytes;
- any truncation, or any single-byte flip, of such a frame is a
  ``WireError``;
- a header drawn from a JSON strategy (frame-shaped or not) behind valid
  magic, length and CRC either decodes to a frame of the documented
  shape or is a ``WireError``.

``HYPOTHESIS_PROFILE=fuzz`` (``tests/conftest.py``) raises the example
budget; tier-1 runs hypothesis's default.
"""

import json
import math
import socket
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.wire import MAGIC, Frame, WireError, pack_frame, recv_frame

#: Reader timeout: far above a decode, far below a hung test.
READ_TIMEOUT = 5.0

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_leaves = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def blobs(draw):
    """An array of a wire dtype, a random shape, and random bits (NaN
    payloads and signed zeros included)."""
    dtype = np.dtype(draw(st.sampled_from(["<f4", "<f8", "|u1"])))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    size = dtype.itemsize * math.prod(shape)
    raw = draw(st.binary(min_size=size, max_size=size))
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


frames = st.tuples(
    st.text(max_size=10),
    st.dictionaries(st.text(max_size=6), json_values, max_size=4),
    st.dictionaries(st.text(max_size=6), blobs(), max_size=3),
)

#: A manifest entry: plausible or wrong in each field.
manifest_entries = st.fixed_dictionaries({}, optional={
    "name": st.text(max_size=4) | json_values,
    "dtype": st.sampled_from(
        ["<f4", "<f8", "|u1", "<i8", "zz", "|O", "<U2", "V8", "<f8,<f8",
         "(2,)<f8", "f8", "", "<M8"]) | json_values,
    "shape": st.lists(st.integers(-2, 4) | json_values, max_size=3) | json_values,
    "crc": st.integers(0, 2**32 - 1) | json_values,
})

headers = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"v": st.just(1) | json_values},
        optional={
            "type": st.text(max_size=6) | json_values,
            "payload": st.dictionaries(st.text(max_size=6), json_values,
                                       max_size=3) | json_values,
            "blobs": st.lists(manifest_entries | json_values, max_size=3)
            | json_values,
        },
    ),
)


def decode(data: bytes) -> Frame:
    """``recv_frame`` of ``data`` from a peer that then closed."""
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(READ_TIMEOUT)
        a.sendall(data)
        a.shutdown(socket.SHUT_WR)
        return recv_frame(b)


@FUZZ
@given(frame=frames)
def test_packed_frames_round_trip_bit_for_bit(frame):
    msg_type, payload, arrays = frame
    data = pack_frame(msg_type, payload, arrays)
    got = decode(data)
    assert (got.type, got.payload, got.nbytes) == (msg_type, payload, len(data))
    assert set(got.arrays) == set(arrays)
    for name, array in arrays.items():
        received = got.arrays[name]
        assert received.dtype == array.dtype and received.shape == array.shape
        assert received.tobytes() == array.tobytes()


@FUZZ
@given(frame=frames, data=st.data())
def test_truncated_or_flipped_frames_are_wire_errors(frame, data):
    packed = pack_frame(*frame)
    if data.draw(st.booleans(), label="truncate"):
        damaged = packed[: data.draw(st.integers(0, len(packed) - 1), label="cut")]
    else:
        at = data.draw(st.integers(0, len(packed) - 1), label="at")
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = packed[:at] + bytes([packed[at] ^ flip]) + packed[at + 1:]
    with pytest.raises(WireError):
        decode(damaged)


@FUZZ
@given(header=headers, tail=st.binary(max_size=64))
def test_any_checksummed_header_decodes_or_is_a_wire_error(header, tail):
    raw = json.dumps(header).encode()
    data = (MAGIC + struct.pack(">I", len(raw)) + raw
            + struct.pack(">I", zlib.crc32(raw)) + tail)
    try:
        frame = decode(data)
    except WireError:
        return
    assert isinstance(frame.type, str) and isinstance(frame.payload, dict)
    assert all(a.dtype.kind in "biufc" for a in frame.arrays.values())
