"""The :class:`CompressionSpec`: one immutable recipe for update compression.

A spec describes *what* is compressed on the wire -- sparsification family
and kept fraction, stochastic quantization width, error feedback, and
whether the server's broadcast (downlink) is compressed too -- while the
stateful machinery (per-silo residual accumulators, the compressor's
private RNG stream) lives in :class:`repro.compress.pipeline.UpdateCompressor`.

The default spec is the identity: ``CompressionSpec()`` (equivalently
``CompressionSpec.none()``) changes no bytes and no bits of the training
trajectory -- it only enables byte accounting -- which makes the dense
trainer the compression pipeline's bit-identical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: The builtin sparsification families: dense, k largest-magnitude,
#: shared random k.  Validation consults the live
#: :data:`repro.api.registries.SPARSIFIERS` registry, so third-party
#: families registered via ``@register_sparsifier`` are accepted too.
SPARSIFIERS = ("none", "topk", "randk")


def _valid_sparsifiers() -> tuple[str, ...]:
    """``"none"`` plus every registered sparsifier family."""
    from repro.api.registries import SPARSIFIERS as registry

    names = registry.names()
    return ("none", *names) if names else SPARSIFIERS

#: Quantization widths must leave at least one magnitude bit beside the
#: sign and stay within the int16 wire format.
MIN_QUANTIZE_BITS, MAX_QUANTIZE_BITS = 2, 16


@dataclass(frozen=True)
class CompressionSpec:
    """What one federation ships on the wire each round.

    Attributes:
        sparsify: one of :data:`SPARSIFIERS`.  ``"topk"`` keeps the k
            largest-magnitude coordinates of each (post-noise) payload;
            ``"randk"`` keeps a random support drawn from the compressor's
            private RNG -- the only family the secure protocol admits,
            because its support is data-independent and shared by every
            silo (see :mod:`repro.protocol.secure_method`).
        fraction: kept fraction of coordinates, ``k = ceil(fraction * d)``.
        quantize_bits: stochastic b-bit quantization of the surviving
            values (QSGD-style symmetric levels), or None for float64.
        error_feedback: accumulate what compression discarded into a
            per-silo residual added to the next round's payload (EF-SGD);
            plaintext path only -- residuals never leave the silo.
        downlink: also compress the server's broadcast model update (with
            a server-side residual accumulator when ``error_feedback``).
        seed: seed of the compressor's *private* RNG stream.  Kept apart
            from the trainer RNG so an uncompressed and a compressed run
            draw identical training noise -- the post-processing-invariance
            tests rely on this.

    A payload's wire layout is :mod:`repro.compress.codec`'s; its length
    is :meth:`payload_bytes`.
    """

    sparsify: str = "none"
    fraction: float = 1.0
    quantize_bits: int | None = None
    error_feedback: bool = False
    downlink: bool = False
    seed: int = 0

    def __post_init__(self):
        valid = _valid_sparsifiers()
        if self.sparsify not in valid:
            from repro.api.registries import suggest

            raise ValueError(
                f"sparsify must be one of {valid}"
                f"{suggest(self.sparsify, list(valid))}"
            )
        if not 0 < self.fraction <= 1:
            raise ValueError("kept fraction must lie in (0, 1]")
        if self.quantize_bits is not None and not (
            MIN_QUANTIZE_BITS <= self.quantize_bits <= MAX_QUANTIZE_BITS
        ):
            raise ValueError(
                f"quantize_bits must lie in "
                f"[{MIN_QUANTIZE_BITS}, {MAX_QUANTIZE_BITS}]"
            )
        if self.is_identity and (self.error_feedback or self.downlink):
            # Both flags silently no-op without a lossy stage -- reject the
            # combination rather than let the caller believe it is active.
            raise ValueError(
                "error_feedback/downlink have no effect on an identity "
                "spec; add a sparsifier or quantize_bits"
            )

    @classmethod
    def none(cls) -> "CompressionSpec":
        """The identity spec: the dense release, byte accounting only."""
        return cls()

    @property
    def is_identity(self) -> bool:
        """Whether compression changes no payload (pure byte accounting)."""
        return self.sparsify == "none" and self.quantize_bits is None

    def keep_count(self, dim: int) -> int:
        """Coordinates surviving sparsification of a ``dim``-vector."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        if self.sparsify == "none":
            return dim
        return max(1, min(dim, math.ceil(self.fraction * dim)))

    def payload_bytes(self, dim: int) -> int:
        """Wire size of one compressed ``dim``-vector payload: the length
        of :func:`repro.compress.codec.encode_payload`'s bytes.

        Nothing charges an identity spec this size: it changes no
        payload, so :meth:`repro.core.FLMethod.uplink_bytes` prices the
        dense release instead.  A sparse payload
        adds its Elias--Fano support, ``ceil((k L + k + ((dim - 1) >> L) + 1) / 8)``
        bytes with ``L = floor(log2(dim / k))`` (none when ``k == dim``),
        to its value bytes: ``8 k`` raw, or, quantized, one float64 scale
        plus ``ceil(k b / 8)`` packed level bytes.
        """
        from repro.compress.codec import support_bits

        k = self.keep_count(dim)
        if self.quantize_bits is not None:
            value_bytes = 8 + (k * self.quantize_bits + 7) // 8
        else:
            value_bytes = 8 * k
        if self.sparsify == "none":
            return value_bytes
        return (support_bits(dim, k) + 7) // 8 + value_bytes
