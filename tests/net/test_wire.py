"""Wire-protocol unit tests: framing, integrity, and failure surfaces.

Every test runs over a real ``socketpair`` so the byte stream crosses an
actual kernel buffer -- the same code path TCP traffic takes, minus the
network.
"""

import json
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.net.wire import (
    MAGIC,
    ChecksumError,
    ConnectionClosed,
    WireError,
    pack_frame,
    recv_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def roundtrip(pair, msg_type, payload=None, arrays=None):
    a, b = pair
    # Send from a thread: a frame larger than the socketpair buffer would
    # otherwise deadlock sendall against our own recv.
    sender = threading.Thread(
        target=a.sendall, args=(pack_frame(msg_type, payload, arrays),)
    )
    sender.start()
    frame = recv_frame(b)
    sender.join()
    return frame


class TestRoundTrip:
    def test_payload_and_arrays_survive(self, pair):
        arrays = {
            "params": np.linspace(-1.0, 1.0, 4130),
            "mask": np.array([[True, False], [False, True]]),
            "counts": np.arange(12, dtype=np.int32).reshape(3, 4),
        }
        payload = {"round": 3, "noise_std": 0.25, "users": [0, 5, 7]}
        frame = roundtrip(pair, "update", payload, arrays)
        assert frame.type == "update"
        assert frame.payload == payload
        assert set(frame.arrays) == set(arrays)
        for name, arr in arrays.items():
            assert frame.arrays[name].dtype == arr.dtype
            assert np.array_equal(frame.arrays[name], arr)

    def test_float_bits_exact(self, pair):
        # The oracle property rests on this: raw-byte transport, no text
        # round-trip, so every IEEE-754 bit pattern survives.
        arr = np.frombuffer(
            np.random.default_rng(0).bytes(8 * 64), dtype=np.float64
        ).copy()
        frame = roundtrip(pair, "update", arrays={"x": arr})
        assert frame.arrays["x"].tobytes() == arr.tobytes()

    def test_empty_frame(self, pair):
        frame = roundtrip(pair, "ping")
        assert frame.type == "ping"
        assert frame.payload == {}
        assert frame.arrays == {}

    def test_back_to_back_frames(self, pair):
        a, b = pair
        a.sendall(pack_frame("ping", {"round": 0}))
        a.sendall(pack_frame("ping", {"round": 1}))
        assert recv_frame(b).payload["round"] == 0
        assert recv_frame(b).payload["round"] == 1

    def test_received_array_is_writable(self, pair):
        # recv_frame must hand back an owned copy, not a frombuffer view.
        frame = roundtrip(pair, "compute", arrays={"p": np.zeros(4)})
        frame.arrays["p"][0] = 1.0  # would raise on a read-only view

    def test_object_dtype_rejected(self):
        with pytest.raises(WireError, match="object dtype"):
            pack_frame("update", arrays={"bad": np.array([object()])})


class TestCorruption:
    def test_flipped_blob_byte_fails_checksum(self, pair):
        a, b = pair
        data = pack_frame("update", {"round": 1}, {"x": np.arange(8.0)})
        data = data[:-1] + bytes([data[-1] ^ 0xFF])
        a.sendall(data)
        with pytest.raises(ChecksumError):
            recv_frame(b)

    def test_flipped_header_byte_fails_checksum(self, pair):
        a, b = pair
        data = pack_frame("update", {"round": 1})
        # Byte 8 sits inside the JSON header (after magic + hlen).
        data = data[:8] + bytes([data[8] ^ 0xFF]) + data[9:]
        a.sendall(data)
        with pytest.raises(ChecksumError):
            recv_frame(b)

    def test_bad_magic_rejected(self, pair):
        a, b = pair
        data = pack_frame("ping")
        a.sendall(b"HTTP" + data[4:])
        with pytest.raises(WireError, match="magic"):
            recv_frame(b)

    def test_wrong_wire_version_rejected(self, pair):
        import json
        import struct
        import zlib

        header = json.dumps(
            {"v": 99, "type": "ping", "payload": {}, "blobs": []}
        ).encode()
        a, b = pair
        a.sendall(
            MAGIC + struct.pack(">I", len(header)) + header
            + struct.pack(">I", zlib.crc32(header))
        )
        with pytest.raises(WireError, match="wire version"):
            recv_frame(b)

    def test_oversized_frame_rejected_before_allocation(self, pair):
        import struct

        a, b = pair
        a.sendall(MAGIC + struct.pack(">I", 0xFFFFFFFF))
        with pytest.raises(WireError, match="wire limit"):
            recv_frame(b)


class TestConnectionClose:
    def test_clean_close_between_frames(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)

    def test_close_mid_frame_is_not_clean(self, pair):
        a, b = pair
        data = pack_frame("update", {"round": 2}, {"x": np.arange(16.0)})
        a.sendall(data[: len(data) // 2])
        a.close()
        with pytest.raises(WireError, match="mid-frame") as err:
            recv_frame(b)
        assert not isinstance(err.value, ConnectionClosed)


def header_frame(header, blob_bytes: bytes = b"") -> bytes:
    """A frame whose header is ``header`` (any JSON) with both CRCs
    valid, followed by ``blob_bytes``."""
    raw = json.dumps(header).encode()
    return (MAGIC + struct.pack(">I", len(raw)) + raw
            + struct.pack(">I", zlib.crc32(raw)) + blob_bytes)


def one_blob(**entry):
    """An ``update`` header declaring one 16-byte blob ``x`` (CRC of 16
    zero bytes), with ``entry`` overriding manifest fields."""
    blob = {"name": "x", "dtype": "<f8", "shape": [2],
            "crc": zlib.crc32(bytes(16)), **entry}
    return {"v": 1, "type": "update", "payload": {}, "blobs": [blob]}


#: Frames whose checksums hold but whose header no pack_frame could write;
#: each used to escape recv_frame as a non-WireError (or, the list
#: payload, reach the server's handshake as a list).
MALFORMED_HEADERS = {
    "header is a JSON list": ([1, "hello"], "not an object"),
    "blob dtype 'zz'": (one_blob(dtype="zz"), "only plain numeric"),
    "blob dtype '|O'": (one_blob(dtype="|O"), "only plain numeric"),
    "blob shape ['q']": (one_blob(shape=["q"]), "non-negative int"),
    "payload is a JSON list": (
        {"v": 1, "type": "hello", "payload": [0], "blobs": []},
        "payload is a JSON list"),
}


class TestMalformedHeader:
    @pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
    def test_well_checksummed_nonsense_is_a_wire_error(self, pair, case):
        header, message = MALFORMED_HEADERS[case]
        a, b = pair
        a.sendall(header_frame(header, bytes(16)))
        a.shutdown(socket.SHUT_WR)  # a parse that reads on cannot block
        with pytest.raises(WireError, match=message):
            recv_frame(b)

    @pytest.mark.parametrize("entry", [
        {"shape": [-1]}, {"shape": [True]}, {"shape": 2}, {"crc": "0"},
        {"name": 7}, {"dtype": "<f8,<f8"}, {"dtype": "<U2"},
    ], ids=str)
    def test_every_manifest_field_is_checked(self, pair, entry):
        a, b = pair
        a.sendall(header_frame(one_blob(**entry), bytes(16)))
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(WireError):
            recv_frame(b)

    def test_header_nested_past_the_recursion_limit_is_a_wire_error(self, pair):
        raw = b"[" * 5000  # json.loads raised RecursionError, not WireError
        a, b = pair
        a.sendall(MAGIC + struct.pack(">I", len(raw)) + raw
                  + struct.pack(">I", zlib.crc32(raw)))
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(WireError, match="not valid JSON"):
            recv_frame(b)

    def test_blobs_past_the_frame_limit_are_refused_before_reading(self, pair):
        a, b = pair
        a.sendall(header_frame(one_blob(shape=[2**40, 2**40])))
        a.shutdown(socket.SHUT_WR)
        with pytest.raises(WireError, match="wire limit"):
            recv_frame(b)
