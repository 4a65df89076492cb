"""Length-prefixed binary wire protocol for the federation runtime.

One message = one *frame*::

    magic (4B, b"UFL1") | hlen (u32 BE) | header (hlen bytes, JSON)
    | hcrc (u32 BE, CRC-32 of header) | blob bytes (concatenated, raw)

The JSON header carries the message type, an arbitrary JSON-safe
``payload``, and a manifest describing each ndarray blob::

    {"v": 1, "type": "compute", "payload": {...},
     "blobs": [{"name": "params", "dtype": "<f8",
                "shape": [4130], "crc": 3735928559}, ...]}

Arrays travel as their raw little/native-endian bytes (``dtype.str``
pins the byte order), each guarded by its own CRC-32 -- a flipped bit in
either header or payload surfaces as :class:`ChecksumError` instead of a
silently wrong aggregate.

Two versions, two jobs.  ``v`` (:data:`WIRE_VERSION`) names this frame
*layout*; :func:`recv_frame` rejects any other, because it cannot parse
it.  What the frames *mean* -- the set of message types and their
contents -- is :data:`PROTOCOL_VERSION`, announced in the ``hello``
payload and compared by the server's handshake, which can therefore
answer a peer from another build with a ``refuse`` frame that peer is
able to read.

This module is deliberately dumb: bytes in, bytes out, no sockets other
than the blocking ``send_frame``/``recv_frame`` convenience pair.  Retry
and deadline policy live in :mod:`repro.net.transport`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"UFL1"
WIRE_VERSION = 1
#: Message-set version.  2: an ``update`` carries one noisy ``payload``
#: vector (1: per-user ``rows`` and the ``noise`` vector, separately).
PROTOCOL_VERSION = 2

# Backstop against a garbled length prefix asking us to allocate gigabytes:
# generous for real traffic (a smoke-scale round frame is ~KBs, an MNIST CNN
# round ~MBs) yet small enough to fail fast on corruption.
MAX_FRAME_BYTES = 1 << 28

_U32 = struct.Struct(">I")


class WireError(ConnectionError):
    """A malformed, oversized, or version-mismatched frame."""


class ChecksumError(WireError):
    """Header or blob bytes failed their CRC-32 -- corruption in flight."""


class ConnectionClosed(WireError):
    """The peer closed the connection cleanly between frames."""


@dataclass
class Frame:
    """A decoded message: ``type`` tag, JSON payload, named ndarrays."""

    type: str
    payload: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    #: On-the-wire size of the frame this was decoded from (0 for frames
    #: constructed locally) -- what the transport's byte ledgers read.
    nbytes: int = 0


def is_finite_vector(array, size: int) -> bool:
    """Whether a received blob is what every model-sized array on this
    protocol must be: a float64 vector of exactly ``size`` finite entries
    (False for a missing blob, i.e. ``None``)."""
    return (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape == (size,) and bool(np.isfinite(array).all()))


def pack_frame(msg_type: str, payload: dict | None = None,
               arrays: dict | None = None) -> bytes:
    """Serialise one message into its on-the-wire byte string."""
    blobs = []
    chunks = []
    for name, arr in (arrays or {}).items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype == object:
            raise WireError(f"array {name!r} has object dtype; "
                            "only plain numeric arrays cross the wire")
        raw = arr.tobytes()
        blobs.append({
            "name": str(name),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "crc": zlib.crc32(raw),
        })
        chunks.append(raw)
    header = json.dumps(
        {"v": WIRE_VERSION, "type": msg_type,
         "payload": payload or {}, "blobs": blobs},
        separators=(",", ":")).encode()
    parts = [MAGIC, _U32.pack(len(header)), header,
             _U32.pack(zlib.crc32(header))]
    parts.extend(chunks)
    out = b"".join(parts)
    if len(out) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(out)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte wire limit")
    return out


def _read_exact(sock, n: int, *, at_frame_start: bool = False) -> bytes:
    """Read exactly ``n`` bytes or raise.

    A clean close *between* frames is :class:`ConnectionClosed` (normal
    shutdown); anywhere else a short read means a peer died mid-frame.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if at_frame_start and not buf:
                raise ConnectionClosed("peer closed the connection")
            raise WireError(
                f"connection lost mid-frame ({len(buf)}/{n} bytes read)")
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock, msg_type: str, payload: dict | None = None,
               arrays: dict | None = None) -> None:
    """Pack and write one frame to a blocking socket."""
    sock.sendall(pack_frame(msg_type, payload, arrays))


def recv_frame(sock) -> Frame:
    """Read and verify one frame from a blocking socket."""
    magic = _read_exact(sock, 4, at_frame_start=True)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r}); "
                        "peer is not speaking the UFL wire protocol")
    (hlen,) = _U32.unpack(_read_exact(sock, 4))
    if hlen > MAX_FRAME_BYTES:
        raise WireError(f"header length {hlen} exceeds the wire limit")
    raw_header = _read_exact(sock, hlen)
    (hcrc,) = _U32.unpack(_read_exact(sock, 4))
    if zlib.crc32(raw_header) != hcrc:
        raise ChecksumError("frame header failed its CRC-32 check")
    try:
        header = json.loads(raw_header)
    except json.JSONDecodeError as exc:
        raise WireError(f"frame header is not valid JSON: {exc}") from exc
    if header.get("v") != WIRE_VERSION:
        raise WireError(f"peer speaks wire version {header.get('v')!r}, "
                        f"this build speaks {WIRE_VERSION}")
    arrays = {}
    total = 4 + 4 + hlen + 4
    for blob in header.get("blobs", ()):
        dtype = np.dtype(blob["dtype"])
        shape = tuple(int(s) for s in blob["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if nbytes > MAX_FRAME_BYTES:
            raise WireError(f"blob {blob['name']!r} of {nbytes} bytes "
                            "exceeds the wire limit")
        raw = _read_exact(sock, nbytes)
        if zlib.crc32(raw) != int(blob["crc"]):
            raise ChecksumError(
                f"blob {blob['name']!r} failed its CRC-32 check")
        arrays[blob["name"]] = (
            np.frombuffer(raw, dtype=dtype).reshape(shape).copy())
        total += nbytes
    return Frame(type=str(header.get("type", "")),
                 payload=header.get("payload", {}) or {}, arrays=arrays,
                 nbytes=total)
