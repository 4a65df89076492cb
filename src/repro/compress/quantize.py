"""Stochastic b-bit quantization (QSGD-style symmetric levels).

A vector is scaled by its max magnitude onto ``L = 2^(b-1) - 1`` symmetric
integer levels; each coordinate rounds *stochastically* to a neighbouring
level, which makes dequantization unbiased (``E[deq(q(v))] = v``) with
per-coordinate error at most ``scale / L``.  On the wire a block is ``b``
bits per coordinate (sign included in the level) plus one float64 scale
(:mod:`repro.compress.codec`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.spec import MAX_QUANTIZE_BITS, MIN_QUANTIZE_BITS


@dataclass(frozen=True)
class QuantizedBlock:
    """One quantized value block: shared scale + signed integer levels."""

    scale: float
    levels: np.ndarray
    bits: int


def quantize_stochastic(
    values: np.ndarray, bits: int, rng: np.random.Generator
) -> QuantizedBlock:
    """Quantize ``values`` onto ``2^(bits-1) - 1`` symmetric levels.

    Stochastic rounding: a coordinate at fractional level ``l + f`` rounds
    up with probability ``f``, making the scheme unbiased.  All randomness
    comes from ``rng`` (the compressor's private stream).
    """
    if not MIN_QUANTIZE_BITS <= bits <= MAX_QUANTIZE_BITS:
        raise ValueError(
            f"bits must lie in [{MIN_QUANTIZE_BITS}, {MAX_QUANTIZE_BITS}]"
        )
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("cannot quantize non-finite values")
    n_levels = (1 << (bits - 1)) - 1
    scale = float(np.max(np.abs(v), initial=0.0))
    if scale == 0.0:
        return QuantizedBlock(0.0, np.zeros(v.size, dtype=np.int64), bits)
    scaled = np.abs(v) / scale * n_levels
    lower = np.floor(scaled)
    round_up = rng.random(v.size) < (scaled - lower)
    magnitude = lower + round_up
    levels = (np.sign(v) * magnitude).astype(np.int64)
    return QuantizedBlock(scale, levels, bits)


def dequantize(block: QuantizedBlock) -> np.ndarray:
    """Reconstruct float64 values from a :class:`QuantizedBlock`."""
    n_levels = (1 << (block.bits - 1)) - 1
    if block.scale == 0.0:
        return np.zeros(block.levels.size)
    return block.levels.astype(np.float64) / n_levels * block.scale
