"""Length-prefixed binary wire protocol for the federation runtime.

One message = one *frame*::

    magic (4B, b"UFL1") | hlen (u32 BE) | header (hlen bytes, JSON)
    | hcrc (u32 BE, CRC-32 of header) | blob bytes (concatenated, raw)

The JSON header carries the message type, an arbitrary JSON-safe
``payload``, and a manifest describing each ndarray blob::

    {"v": 1, "type": "compute", "payload": {...},
     "blobs": [{"name": "params", "dtype": "<f4",
                "shape": [4130], "crc": 3735928559}, ...]}

Arrays travel as their raw little/native-endian bytes (``dtype.str``
pins the byte order), each guarded by its own CRC-32 -- a flipped bit in
either header or payload surfaces as :class:`ChecksumError` instead of a
silently wrong aggregate.  A CRC is not a MAC: a frame whose checksums
hold can still be nonsense, so :func:`recv_frame` also checks the
header's structure (a dict, a dict ``payload``, blobs with a str name, a
numeric dtype, a shape of non-negative ints and an int CRC) and raises
:class:`WireError` for anything else -- no frame gets past it as another
exception.

Two versions, two jobs.  ``v`` (:data:`WIRE_VERSION`) names this frame
*layout*; :func:`recv_frame` rejects any other, because it cannot parse
it.  What the frames *mean* -- the set of message types and their
contents -- is :data:`PROTOCOL_VERSION`, announced in the ``hello``
payload and compared by the server's handshake, which can therefore
answer a peer from another build with a ``refuse`` frame that peer is
able to read.

This module is deliberately dumb: bytes in, bytes out, no socket other
than the blocking :func:`recv_frame` reader.  Sending, retry and deadline
policy live in :mod:`repro.net.transport`.
"""

from __future__ import annotations

import json
import math
import re
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"UFL1"
WIRE_VERSION = 1
#: Message-set version.  6: a ``compute`` frame carries the round's
#: ``attempt`` and its ``update`` echoes it, so a retried round reads no
#: reply formed for an aborted attempt (5: ``round`` alone).  5: an
#: ``update`` frame's ``payload`` is the method's float32 release
#: (``<f4``; 4: float64).  4: a ``compute`` frame's ``params`` is the
#: method's broadcast, float32 (``<f4``) for every method a ``repro
#: serve`` can drive (3: float64).  3: neither
#: ``compute`` nor ``update`` carries generator state (a silo keys its
#: draws by the frame's round).  2: an ``update`` carries one noisy
#: ``payload`` vector (1: per-user ``rows`` and the ``noise`` vector,
#: separately).
PROTOCOL_VERSION = 6

# Backstop against a garbled length prefix asking us to allocate gigabytes:
# generous for real traffic (a smoke-scale round frame is ~KBs, an MNIST CNN
# round ~MBs) yet small enough to fail fast on corruption.
MAX_FRAME_BYTES = 1 << 28

_U32 = struct.Struct(">I")

#: What a blob's ``dtype`` may say: a plain numeric type (bool, int,
#: uint, float, complex) with an explicit byte order, as ``dtype.str``
#: writes it.
_NUMERIC_DTYPE = re.compile(r"[<>|=][biufc]\d{1,2}")


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


def is_finite_vector(array, size: int, dtype=np.float64) -> bool:
    """Whether a received blob is what every model-sized array on this
    protocol must be: a ``dtype`` vector of exactly ``size`` finite
    entries (False for a missing blob, i.e. ``None``).  Weight rows are
    float64; a ``compute`` frame's ``params`` is the method's broadcast
    (:attr:`repro.core.FLMethod.broadcast_dtype`) and an ``update``'s
    ``payload`` its release (:attr:`repro.core.FLMethod.payload_dtype`)."""
    return (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == (size,) and bool(np.isfinite(array).all()))


def int_blob(values, modulus: int) -> np.ndarray:
    """Residues mod ``modulus`` as a ``(len, width)`` uint8 array, one
    fixed-width big-endian row each: how ciphertexts, field and group
    elements cross the wire."""
    width = ((modulus - 1).bit_length() + 7) // 8
    raw = b"".join(v.to_bytes(width, "big") for v in values)
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)


def blob_ints(blob: np.ndarray) -> list[int]:
    """The ints of an :func:`int_blob` array, in order."""
    width, raw = blob.shape[1], blob.tobytes()
    return [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]


def pack_frame(msg_type: str, payload: dict | None = None,
               arrays: dict | None = None) -> bytes:
    """Serialise one message into its on-the-wire byte string."""
    blobs = []
    chunks = []
    for name, arr in (arrays or {}).items():
        arr = np.asarray(arr)  # tobytes() is C order; 0-d stays 0-d
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


def _shown(value) -> str:
    """A received JSON value for an error message: a scalar by its (cut)
    repr, a container by its type alone -- never the whole of it."""
    if isinstance(value, (list, dict)):
        return f"a JSON {type(value).__name__}"
    return repr(value)[:40]


def _blob_layout(blob) -> tuple[str, np.dtype, tuple[int, ...], int]:
    """``(name, dtype, shape, crc)`` of one manifest entry, or
    :class:`WireError` when the entry is not one :func:`pack_frame` could
    have written."""
    if not isinstance(blob, dict):
        raise WireError(f"blob manifest entry {_shown(blob)} is not an object")
    name, spelled = blob.get("name"), blob.get("dtype")
    shape, crc = blob.get("shape"), blob.get("crc")
    if not isinstance(name, str):
        raise WireError(f"blob name {_shown(name)} is not a string")
    label = repr(name[:40])
    dtype = None
    if isinstance(spelled, str) and _NUMERIC_DTYPE.fullmatch(spelled):
        try:
            dtype = np.dtype(spelled)
        except TypeError:
            pass
    if dtype is None:
        raise WireError(f"blob {label} has dtype {_shown(spelled)}; only "
                        "plain numeric arrays cross the wire")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise WireError(f"blob {label}: shape must be a list of "
                        "non-negative ints")
    if type(crc) is not int:
        raise WireError(f"blob {label} has CRC {_shown(crc)}; expected an int")
    return name, dtype, tuple(shape), crc


def recv_frame(sock) -> Frame:
    """Read and verify one frame from a blocking socket.

    Every way a frame can be wrong -- bytes, checksums, version or header
    structure -- is a :class:`WireError`."""
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
    except (ValueError, RecursionError) as exc:  # incl. bad UTF-8
        raise WireError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError(f"frame header is a JSON {type(header).__name__}, "
                        "not an object")
    if header.get("v") != WIRE_VERSION:
        raise WireError(f"peer speaks wire version {_shown(header.get('v'))}, "
                        f"this build speaks {WIRE_VERSION}")
    payload = header.get("payload", {})
    if not isinstance(payload, dict):
        raise WireError(f"frame payload is a JSON {type(payload).__name__}, "
                        "not an object")
    blobs = header.get("blobs", [])
    if not isinstance(blobs, list):
        raise WireError(f"frame blob manifest {_shown(blobs)} is not a list")
    arrays = {}
    total = 4 + 4 + hlen + 4
    for blob in blobs:
        name, dtype, shape, crc = _blob_layout(blob)
        nbytes = dtype.itemsize * math.prod(shape)
        total += nbytes
        if total > MAX_FRAME_BYTES:
            raise WireError(f"blob {name!r} of {nbytes} bytes takes the "
                            "frame past the wire limit")
        raw = _read_exact(sock, nbytes)
        if zlib.crc32(raw) != crc:
            raise ChecksumError(f"blob {name!r} failed its CRC-32 check")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    return Frame(type=str(header.get("type", "")), payload=payload,
                 arrays=arrays, nbytes=total)
