"""Sparsification primitives: top-k and random-k coordinate selection.

Both selectors return *sorted* index arrays so the wire format (and the
scatter that undoes it) is canonical regardless of magnitude order, and so
the secure path's shared support is identical on every silo.

The builtin families register under :data:`repro.api.registries.SPARSIFIERS`
(the ``@register_sparsifier`` seam); :class:`repro.compress.pipeline.
UpdateCompressor` dispatches support selection through that registry, so a
third-party sparsifier -- any ``(vec, k, rng) -> sorted indices`` callable
-- plugs into ``CompressionSpec(sparsify="<name>")`` without touching this
package.  Registrations marked ``data_independent=True`` select their
support without looking at the payload (a requirement for pre-noise use).
"""

from __future__ import annotations

import numpy as np

from repro.api.registries import register_sparsifier


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest-magnitude coordinates (sorted).

    Ties break deterministically toward the lower index (stable sort on
    descending magnitude), so repeated runs -- and both training engines --
    select identical supports.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if not 1 <= k <= v.size:
        raise ValueError("k must lie in [1, len(values)]")
    if k == v.size:
        return np.arange(v.size, dtype=np.int64)
    magnitude = np.abs(v)
    magnitude[np.isnan(magnitude)] = -1.0  # a sort on -|v| ranks NaN last
    # The k-th largest magnitude: everything above it is kept, then the
    # lowest-index ties -- what a stable sort on -|v| would keep.
    threshold = np.partition(magnitude, v.size - k)[v.size - k]
    above = np.flatnonzero(magnitude > threshold)
    ties = np.flatnonzero(magnitude == threshold)[: k - above.size]
    return np.union1d(above, ties).astype(np.int64)


def randk_indices(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform random ``k``-subset of ``[0, dim)`` (sorted).

    Data-independent by construction -- the only sparsifier admissible
    *before* noise (the secure path) without a privacy argument about the
    support itself.
    """
    if not 1 <= k <= dim:
        raise ValueError("k must lie in [1, dim]")
    return np.sort(rng.choice(dim, size=k, replace=False)).astype(np.int64)


@register_sparsifier(
    "topk",
    description="k largest-magnitude coordinates (post-noise only)",
    data_independent=False,
)
def _select_topk(vec: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    return topk_indices(vec, k)


@register_sparsifier(
    "randk",
    description="uniform random k-subset from the compressor's private RNG",
    data_independent=True,
)
def _select_randk(vec: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    return randk_indices(len(vec), k, rng)


def scatter(indices: np.ndarray, values: np.ndarray, dim: int) -> np.ndarray:
    """Dense ``dim``-vector with ``values`` at ``indices``, zeros elsewhere."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if indices.shape != values.shape:
        raise ValueError("indices and values must have matching shapes")
    if indices.size and (indices.min() < 0 or indices.max() >= dim):
        raise ValueError("indices out of range")
    dense = np.zeros(dim)
    dense[indices] = values
    return dense
