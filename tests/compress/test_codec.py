"""The wire codec of one compressed payload (``repro.compress.codec``).

The property: for any ``dim >= 1``, any sorted support and any
quantization width in ``[2, 16]`` (or none), decoding the encoded bytes
gives back the indices, levels and scale (or raw floats) bit for bit,
the byte string is exactly ``CompressionSpec.payload_bytes(dim)`` long,
and it is never longer than the flat 4-bytes-per-index form the ledger
charged before the codec existed.  CI runs it once more under
``HYPOTHESIS_PROFILE=fuzz``.
"""

import numpy as np
import pytest

from repro.compress import CompressionSpec, UpdateCompressor
from repro.compress.codec import (
    decode_payload,
    decode_support,
    encode_payload,
    encode_support,
    support_bits,
)
from repro.compress.quantize import QuantizedBlock

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def sparse_payloads(draw):
    """(spec, dim, sorted support, values) with ``spec.keep_count(dim) ==
    len(support)``."""
    dim = draw(st.integers(1, 1 << 20))
    k = draw(st.integers(1, min(dim, 2048)))
    bits = draw(st.none() | st.integers(2, 16))
    spec = CompressionSpec(sparsify="topk", fraction=k / dim, quantize_bits=bits)
    assume(spec.keep_count(dim) == k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "block", "stride"]))
    if kind == "random":
        support = np.sort(rng.choice(dim, size=k, replace=False))
    elif kind == "block":
        start = draw(st.integers(0, dim - k))
        support = np.arange(start, start + k)
    else:
        step = dim // k
        support = np.arange(k) * step + draw(st.integers(0, dim - 1 - (k - 1) * step))
    if bits is None:
        # Any float64 bit pattern: NaN payloads and -0.0 included.
        values = rng.integers(0, 2**64, size=k, dtype=np.uint64).view(np.float64)
    else:
        top = (1 << (bits - 1)) - 1
        levels = rng.integers(-top, top + 1, size=k)
        scale = draw(st.floats(0.0, 1e300, allow_nan=False))
        values = QuantizedBlock(scale, levels, bits)
    return spec, dim, support.astype(np.int64), values


def old_payload_bytes(spec: CompressionSpec, dim: int) -> int:
    """The ledger's form before the codec: 4 bytes an index + values."""
    k = spec.keep_count(dim)
    if spec.quantize_bits is None:
        return 4 * k + 8 * k
    return 4 * k + 8 + (k * spec.quantize_bits + 7) // 8


@given(sparse_payloads())
def test_codec_round_trips_exactly_at_the_closed_form_length(case):
    spec, dim, support, values = case
    wire = encode_payload(spec, dim, support, values)
    assert len(wire) == spec.payload_bytes(dim)
    assert len(wire) <= old_payload_bytes(spec, dim)
    indices, back = decode_payload(spec, dim, wire)
    np.testing.assert_array_equal(indices, support)
    if spec.quantize_bits is None:
        np.testing.assert_array_equal(back.view(np.uint64), values.view(np.uint64))
    else:
        np.testing.assert_array_equal(back.levels, values.levels)
        assert back.bits == values.bits
        assert np.float64(back.scale).tobytes() == np.float64(values.scale).tobytes()


class TestSupport:
    def test_full_support_takes_no_bytes(self):
        assert support_bits(7, 7) == 0
        assert encode_support(np.arange(7), 7) == b""
        np.testing.assert_array_equal(decode_support(b"", 7, 7), np.arange(7))

    def test_creditcard_mlp_payload(self):
        # P = 4130, top-5% (k = 207) at 8 bits: L = 4, so 828 low bits
        # + 466 high bits -> 162 B of support, + 207 B levels + 8 B scale.
        spec = CompressionSpec(sparsify="topk", fraction=0.05, quantize_bits=8)
        assert spec.keep_count(4130) == 207
        assert support_bits(4130, 207) == 207 * 4 + 207 + (4129 >> 4) + 1 == 1294
        assert spec.payload_bytes(4130) == 162 + 207 + 8 == 377

    @pytest.mark.parametrize("support", [[2, 1], [0, 0], [-1, 3], [3, 8]])
    def test_encode_refuses_an_unsorted_or_out_of_range_support(self, support):
        with pytest.raises(ValueError, match="strictly increasing"):
            encode_support(np.array(support), 8)

    def test_decode_refuses_corrupt_bytes(self):
        wire = encode_support(np.array([1, 5, 6]), 20)
        with pytest.raises(ValueError, match="do not match"):
            decode_support(wire + b"\0", 20, 3)
        with pytest.raises(ValueError, match="high bits"):
            decode_support(bytes(len(wire)), 20, 3)


class TestCompressorSendsTheBytes:
    @pytest.mark.parametrize("spec", [
        CompressionSpec(),
        CompressionSpec(quantize_bits=5),
        CompressionSpec(sparsify="topk", fraction=0.3),
        CompressionSpec(sparsify="randk", fraction=0.3, quantize_bits=4),
        CompressionSpec(sparsify="topk", fraction=1.0, quantize_bits=8),
    ])
    def test_dense_is_decoded_from_the_charged_bytes(self, spec, monkeypatch):
        import repro.compress.pipeline as pipeline
        from repro.compress.quantize import dequantize
        from repro.compress.sparsify import scatter

        wires = []

        def spy(spec, dim, data):
            wires.append(data)
            return decode_payload(spec, dim, data)

        monkeypatch.setattr(pipeline, "decode_payload", spy)
        dim = 40
        out = UpdateCompressor(spec, 1, dim).compress_uplink(
            0, np.random.default_rng(5).standard_normal(dim))
        (wire,) = wires
        assert out.nbytes == len(wire) == spec.payload_bytes(dim)
        indices, values = decode_payload(spec, dim, wire)
        if spec.quantize_bits is not None:
            values = dequantize(values)
        expected = values if indices is None else scatter(indices, values, dim)
        np.testing.assert_array_equal(out.dense, expected)
