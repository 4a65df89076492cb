"""The lossless wire codec of one compressed payload.

A payload is a header-less byte string: sender and receiver both hold
the :class:`repro.compress.CompressionSpec` and the vector length
``dim``, so both derive the kept count ``k = spec.keep_count(dim)`` and
nothing else needs to travel.  The layout, in order:

1. **support** (sparse specs only): the sorted kept indices, Elias--Fano
   coded.  With ``L = floor(log2(dim / k))``, index ``x_i`` splits into
   its ``L`` low bits and its high part ``h_i = x_i >> L``; the ``k * L``
   low bits come first, then the high parts in unary: one 1 per index
   (index ``i`` sets bit ``h_i + i``) and one 0 closing each of the
   ``((dim - 1) >> L) + 1`` buckets, ``k + ((dim - 1) >> L) + 1`` bits.
   All of it is packed MSB-first into ``ceil(bits / 8)`` bytes.
   ``k == dim`` keeps every coordinate and takes no bytes.
2. **values**: with ``quantize_bits = b``, the levels in offset binary
   (``level + 2^(b-1)``, in ``[1, 2^b - 1]``), ``b`` bits each, packed
   into ``ceil(k * b / 8)`` bytes, then the float64 scale; without
   quantization, ``k`` raw float64.  Floats are little-endian.

:meth:`repro.compress.CompressionSpec.payload_bytes` is the closed form
of the encoded length, so the cost model and the bandwidth models price
exactly what :func:`encode_payload` produces.  The codec is lossless on
(indices, levels, scale) and on raw values, so a receiver decoding the
bytes reconstructs the sender's payload bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.compress.quantize import QuantizedBlock

_FLOAT = np.dtype("<f8")


def _low_width(dim: int, k: int) -> int:
    """``floor(log2(dim / k))``: the Elias--Fano low-bit width."""
    return (dim // k).bit_length() - 1


def support_bits(dim: int, k: int) -> int:
    """Elias--Fano size, in bits, of a sorted ``k``-subset of ``[0, dim)``
    (0 when ``k == dim``: the full support is implied)."""
    if not 1 <= k <= dim:
        raise ValueError("k must lie in [1, dim]")
    if k == dim:
        return 0
    low = _low_width(dim, k)
    return k * low + k + ((dim - 1) >> low) + 1


def _word(width: int) -> int:
    """Bytes of the smallest unsigned word holding ``width`` bits."""
    return next(n for n in (1, 2, 4, 8) if 8 * n >= width)


def _to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """``width`` bits per value, MSB first, as a ``(count, width)`` 0/1
    array."""
    n = _word(width)
    bits = np.unpackbits(values.astype(f">u{n}").view(np.uint8))
    return bits.reshape(-1, 8 * n)[:, 8 * n - width:]


def _from_bits(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_to_bits` for the first ``count`` values."""
    n = _word(width)
    words = np.zeros((count, 8 * n), dtype=np.uint8)
    words[:, 8 * n - width:] = bits[: count * width].reshape(count, width)
    return np.packbits(words).view(f">u{n}").astype(np.int64)


def _unpack(data: bytes, nbits: int) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


def encode_support(indices: np.ndarray, dim: int) -> bytes:
    """Elias--Fano bytes of a strictly increasing index array in
    ``[0, dim)``."""
    x = np.asarray(indices, dtype=np.int64)
    k = x.size
    if x.ndim != 1 or not 1 <= k <= dim:
        raise ValueError("support must hold between 1 and dim indices")
    if x[0] < 0 or x[-1] >= dim or np.any(np.diff(x) <= 0):
        raise ValueError("support must be strictly increasing within [0, dim)")
    if k == dim:
        return b""
    low = _low_width(dim, k)
    bits = np.zeros(support_bits(dim, k), dtype=np.uint8)
    bits[: k * low] = _to_bits(x & ((1 << low) - 1), low).ravel()
    bits[k * low + (x >> low) + np.arange(k)] = 1
    return np.packbits(bits).tobytes()


def decode_support(data: bytes, dim: int, k: int) -> np.ndarray:
    """The sorted ``k`` indices :func:`encode_support` wrote."""
    nbits = support_bits(dim, k)
    if len(data) != (nbits + 7) // 8:
        raise ValueError("support bytes do not match (dim, k)")
    if k == dim:
        return np.arange(dim, dtype=np.int64)
    low = _low_width(dim, k)
    bits = _unpack(data, nbits)
    ones = np.flatnonzero(bits[k * low:])
    if ones.size != k:
        raise ValueError("corrupt support: wrong number of high bits")
    x = ((ones - np.arange(k)) << low) | _from_bits(bits, k, low)
    if x[-1] >= dim or np.any(np.diff(x) <= 0):
        raise ValueError("corrupt support: indices out of order or range")
    return x


def encode_values(values, count: int, bits: int | None) -> bytes:
    """Value bytes: a :class:`QuantizedBlock` (``bits`` set) or ``count``
    raw floats."""
    if bits is None:
        raw = np.asarray(values, dtype=_FLOAT)
        if raw.shape != (count,):
            raise ValueError("value count does not match the spec")
        return raw.tobytes()
    if values.bits != bits or values.levels.shape != (count,):
        raise ValueError("quantized block does not match the spec")
    offset = values.levels + (1 << (bits - 1))
    return (
        np.packbits(_to_bits(offset, bits)).tobytes()
        + np.array(values.scale, dtype=_FLOAT).tobytes()
    )


def decode_values(data: bytes, count: int, bits: int | None):
    """Inverse of :func:`encode_values`."""
    if bits is None:
        if len(data) != 8 * count:
            raise ValueError("value bytes do not match the spec")
        return np.frombuffer(data, dtype=_FLOAT).astype(np.float64)
    packed = (count * bits + 7) // 8
    if len(data) != packed + 8:
        raise ValueError("value bytes do not match the spec")
    levels = _from_bits(_unpack(data[:packed], count * bits), count, bits)
    scale = float(np.frombuffer(data[packed:], dtype=_FLOAT)[0])
    return QuantizedBlock(scale, levels - (1 << (bits - 1)), bits)


def encode_payload(spec, dim: int, indices, values) -> bytes:
    """One payload's wire bytes: ``indices`` (None for a dense spec) and
    ``values`` (a :class:`QuantizedBlock` when ``spec.quantize_bits`` is
    set, else floats), laid out as the module docstring says."""
    k = spec.keep_count(dim)
    support = b""
    if spec.sparsify != "none":
        support = encode_support(indices, dim)
    return support + encode_values(values, k, spec.quantize_bits)


def decode_payload(spec, dim: int, data: bytes):
    """``(indices, values)`` back from :func:`encode_payload`'s bytes
    (``indices`` None for a dense spec)."""
    k = spec.keep_count(dim)
    indices, cut = None, 0
    if spec.sparsify != "none":
        cut = (support_bits(dim, k) + 7) // 8
        indices = decode_support(data[:cut], dim, k)
    return indices, decode_values(data[cut:], k, spec.quantize_bits)
