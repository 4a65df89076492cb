"""Communication-efficient update compression for ULDP-FL rounds.

Cross-silo rounds ship dense float64 deltas; after the vectorized engine
(PR 1) and the fast crypto backend (PR 2) removed the compute walls,
communication is the scaling cost.  This package compresses the wire
payloads -- strictly **post-noise** on the uplink and on the server's
broadcast for the downlink, so every epsilon guarantee is preserved by
post-processing:

- :mod:`repro.compress.spec` -- :class:`CompressionSpec`, the immutable
  recipe (sparsifier, fraction, quantization width, error feedback,
  downlink, private seed);
- :mod:`repro.compress.sparsify` -- top-k / random-k selection + scatter;
- :mod:`repro.compress.quantize` -- unbiased stochastic b-bit quantization;
- :mod:`repro.compress.pipeline` -- :class:`UpdateCompressor`, the
  stateful per-federation object (per-silo error-feedback residuals,
  private RNG stream, byte accounting, checkpointable state).

``CompressionSpec()`` is the identity and reproduces the uncompressed
trainer bit for bit (oracle-tested).
"""

from repro.compress.pipeline import (
    DOWNLINK_SLOT,
    CompressedPayload,
    UpdateCompressor,
)
from repro.compress.quantize import QuantizedBlock, dequantize, quantize_stochastic
from repro.compress.sparsify import randk_indices, scatter, topk_indices
from repro.compress.spec import SPARSIFIERS, CompressionSpec

__all__ = [
    "DOWNLINK_SLOT",
    "CompressedPayload",
    "UpdateCompressor",
    "QuantizedBlock",
    "dequantize",
    "quantize_stochastic",
    "randk_indices",
    "scatter",
    "topk_indices",
    "SPARSIFIERS",
    "CompressionSpec",
]
