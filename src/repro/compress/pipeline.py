"""The stateful compression pipeline: residuals, RNG stream, byte ledger.

:class:`UpdateCompressor` is the per-federation object that applies a
:class:`repro.compress.spec.CompressionSpec` to wire payloads.  It owns

- one **residual accumulator per silo** (plus one for the server's
  downlink broadcast) implementing error feedback: what sparsification
  and quantization discard this round is added back to the same silo's
  payload next round, so the compression error telescopes instead of
  accumulating;
- a **private RNG stream** (random-k supports, stochastic rounding) kept
  separate from the trainer RNG, so compressed and uncompressed runs draw
  bit-identical training noise;
- the **byte accounting** reported per payload: every payload is
  encoded to its wire bytes (:mod:`repro.compress.codec`), the receiver's
  reconstruction is decoded from them, and their length is what
  :class:`repro.core.trainer.TrainingHistory` records per round.

Compression is applied strictly **post-noise**: the payloads handed in
are already noise-protected releases, so everything here is
post-processing and the privacy accounting is untouched (the accountant
sees the exact same calls; asserted by the invariance tests).

The compressor's dynamic state (residuals + RNG) serialises through
:meth:`UpdateCompressor.state_dict` so simulations with compression
checkpoint/resume bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.codec import decode_payload, encode_payload
from repro.compress.quantize import dequantize, quantize_stochastic
from repro.compress.sparsify import randk_indices, scatter
from repro.compress.spec import CompressionSpec

#: Seed-sequence tag separating the compressor's RNG stream from training
#: and from the simulation scheduler.
_COMPRESS_STREAM = 0xC0DEC

#: Residual slot of the server's downlink broadcast.
DOWNLINK_SLOT = -1


@dataclass(frozen=True)
class CompressedPayload:
    """One compressed wire payload, already decompressed for aggregation.

    Attributes:
        dense: the receiver-side reconstruction (what enters the sum).
        nbytes: length of the encoded wire payload
            (:mod:`repro.compress.codec`), what ``dense`` was decoded from.
        kept: surviving coordinate count (``dim`` when dense).
    """

    dense: np.ndarray
    nbytes: int
    kept: int


class UpdateCompressor:
    """Applies one :class:`CompressionSpec` across a federation's links."""

    def __init__(self, spec: CompressionSpec, n_silos: int, dim: int):
        if n_silos < 1:
            raise ValueError("need at least one silo")
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.spec = spec
        self.n_silos = n_silos
        self.dim = dim
        self.rng = np.random.default_rng([spec.seed, _COMPRESS_STREAM])
        #: Residual accumulators, keyed by silo id (DOWNLINK_SLOT = server).
        self._residuals: dict[int, np.ndarray] = {}

    # -- compression ---------------------------------------------------------

    def compress(self, slot: int, vector: np.ndarray) -> CompressedPayload:
        """Compress one payload through the slot's error-feedback loop.

        Order of operations: add the slot's residual (error feedback),
        sparsify, quantize the survivors, store the new residual
        (input minus reconstruction), return the reconstruction + bytes.
        """
        spec = self.spec
        vec = np.asarray(vector, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError("payload must be a flat vector")
        if spec.error_feedback:
            residual = self._residuals.get(slot)
            if residual is not None:
                vec = vec + residual
        dim = vec.size
        k = spec.keep_count(dim)
        indices = None
        survivors = vec
        if spec.sparsify != "none":
            from repro.api.registries import SPARSIFIERS

            select = SPARSIFIERS.get(spec.sparsify)
            indices = np.asarray(select(vec, k, self.rng), dtype=np.int64)
            survivors = vec[indices]
        if spec.quantize_bits is not None:
            survivors = quantize_stochastic(survivors, spec.quantize_bits, self.rng)
        # What the receiver reconstructs is what the bytes carry.
        wire = encode_payload(spec, dim, indices, survivors)
        indices, received = decode_payload(spec, dim, wire)
        if spec.quantize_bits is not None:
            received = dequantize(received)
        dense = received if indices is None else scatter(indices, received, dim)
        if spec.error_feedback:
            self._residuals[slot] = vec - dense
        return CompressedPayload(dense=dense, nbytes=len(wire), kept=k)

    def compress_uplink(self, silo: int, payload: np.ndarray) -> CompressedPayload:
        """Compress silo ``silo``'s post-noise uplink payload."""
        if not 0 <= silo < self.n_silos:
            raise ValueError("unknown silo id")
        return self.compress(silo, payload)

    def compress_downlink(self, update: np.ndarray) -> CompressedPayload:
        """Compress the server's broadcast model update."""
        return self.compress(DOWNLINK_SLOT, update)

    def draw_support(self, dim: int) -> np.ndarray:
        """One shared random-k support (the secure path's round support).

        Drawn from the compressor's private stream; in deployment the
        support derives from the silos' shared seed R, so indices never
        cross the wire (the byte accounting assumes that).
        """
        if self.spec.sparsify != "randk":
            raise ValueError("shared supports require sparsify='randk'")
        return randk_indices(dim, self.spec.keep_count(dim), self.rng)

    def residual(self, slot: int) -> np.ndarray | None:
        """The slot's current error-feedback residual (None before any)."""
        return self._residuals.get(slot)

    # -- checkpoint serialisation --------------------------------------------

    def state_dict(self) -> dict:
        """Dynamic state (RNG + residuals); spec/shape are reconstructed."""
        return {
            "rng": self.rng.bit_generator.state,
            "residuals": {
                int(slot): residual.copy()
                for slot, residual in self._residuals.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (bit-identical resume)."""
        self.rng.bit_generator.state = state["rng"]
        self._residuals = {
            int(slot): np.asarray(residual, dtype=np.float64).copy()
            for slot, residual in state["residuals"].items()
        }
