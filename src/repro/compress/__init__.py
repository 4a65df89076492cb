"""Communication-efficient update compression for ULDP-FL rounds.

Cross-silo rounds ship dense float32 noisy sums; after the vectorized engine
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
- :mod:`repro.compress.codec` -- the lossless wire codec of one payload
  (Elias--Fano support, bit-packed levels), whose length is the ledger's;
- :mod:`repro.compress.pipeline` -- :class:`UpdateCompressor`, the
  stateful per-federation object (per-silo error-feedback residuals,
  private RNG stream, byte accounting, checkpointable state).

``CompressionSpec()`` is the identity and reproduces the uncompressed
trainer bit for bit (oracle-tested).
"""

from repro import _lazy_namespace

# name -> defining module, resolved on first attribute access.
_LAZY_EXPORTS = {
    "DOWNLINK_SLOT": "repro.compress.pipeline",
    "CompressedPayload": "repro.compress.pipeline",
    "UpdateCompressor": "repro.compress.pipeline",
    "QuantizedBlock": "repro.compress.quantize",
    "dequantize": "repro.compress.quantize",
    "quantize_stochastic": "repro.compress.quantize",
    "randk_indices": "repro.compress.sparsify",
    "scatter": "repro.compress.sparsify",
    "topk_indices": "repro.compress.sparsify",
    "SPARSIFIERS": "repro.compress.spec",
    "CompressionSpec": "repro.compress.spec",
}

__all__ = list(_LAZY_EXPORTS)
__getattr__, __dir__ = _lazy_namespace(__name__, _LAZY_EXPORTS)
